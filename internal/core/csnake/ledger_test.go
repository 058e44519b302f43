package csnake_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core/csnake"
	"repro/internal/report"
	"repro/internal/systems/kvstore"
)

var update = flag.Bool("update", false, "re-bless the behaviour ledger digests under testdata/ledger")

// ledgerDigest is the cross-build behaviour record of one campaign: the
// headline counts, the clustered result, and a hash of the full report
// JSON (which also covers the per-round trajectory).
type ledgerDigest struct {
	Sims         int             `json:"sims"`
	Experiments  int             `json:"experiments"`
	Edges        int             `json:"edges"`
	RawCycles    int             `json:"rawCycles"`
	Rounds       int             `json:"rounds"`
	EarlyStopped bool            `json:"earlyStopped"`
	Clusters     []ledgerCluster `json:"clusters"`
	DetectedBugs []string        `json:"detectedBugs"`
	ReportSHA256 string          `json:"reportSHA256"`
}

type ledgerCluster struct {
	Key  string `json:"key"`
	Size int    `json:"size"`
}

// TestBehaviourLedger pins light HBase campaigns, one per shape of the
// campaign loop, against digests committed under testdata/ledger. A
// digest that moves is a behaviour change: re-bless it only on purpose,
// with `go test -run TestBehaviourLedger -update`, and record why.
func TestBehaviourLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns are heavyweight")
	}
	shapes := []struct {
		name string
		opts []csnake.Option
	}{
		{"batch-3pa", nil},
		{"batch-random", []csnake.Option{csnake.WithProtocol(csnake.ProtocolRandom)}},
		{"anytime", []csnake.Option{csnake.WithAnytime()}},
		{"earlystop", []csnake.Option{csnake.WithEarlyStop(3), csnake.WithWaveSize(4)}},
		{"adaptive", []csnake.Option{csnake.WithProtocol(csnake.ProtocolAdaptive)}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			sys := kvstore.New()
			opts := append([]csnake.Option{
				csnake.WithSeed(42),
				csnake.WithReps(3),
				csnake.WithDelayMagnitudes(500*time.Millisecond, 2*time.Second, 8*time.Second),
				csnake.WithParallelism(2),
			}, sh.opts...)
			rep, err := csnake.NewCampaign(sys, opts...).Run()
			if err != nil {
				t.Fatal(err)
			}
			js := report.NewJSON(rep, sys.Bugs())
			data, err := json.Marshal(js)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			d := ledgerDigest{
				Sims:         rep.Sims,
				Experiments:  len(rep.Runs),
				Edges:        len(rep.Edges),
				RawCycles:    len(rep.Cycles),
				Rounds:       len(rep.Rounds),
				EarlyStopped: rep.EarlyStopped,
				Clusters:     []ledgerCluster{},
				DetectedBugs: js.DetectedBugs,
				ReportSHA256: hex.EncodeToString(sum[:]),
			}
			for _, cc := range rep.CycleClusters {
				d.Clusters = append(d.Clusters, ledgerCluster{Key: cc.Key, Size: len(cc.Cycles)})
			}
			got, err := json.MarshalIndent(d, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "ledger", "hbase-"+sh.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (bless with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s drifted from the ledger:\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
