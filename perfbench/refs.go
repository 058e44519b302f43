package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"repro/internal/core/csnake"
	"repro/internal/report"
	"repro/internal/systems/sysreg"
)

// ref is the recorded output of one (workload, campaign seed): what
// every operation at that seed must reproduce exactly.
type ref struct {
	// Digest is the SHA-256 of the compact report JSON (campaign
	// workloads) or of the final active signature set (monitor-hbase).
	Digest string `json:"digest"`
	// Detected lists the ground-truth bugs the output names, sorted.
	Detected []string `json:"detected"`
	// Counts are the deterministic work counts: sims, experiments, edges,
	// cycles, clusters; for the monitor batches, records, alerts,
	// rebuilds, signatures and trace_lines.
	Counts map[string]int `json:"counts"`
	// TraceDigest is the SHA-256 of the exported trace (monitor-hbase).
	TraceDigest string `json:"trace_digest,omitempty"`
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// campaignRef summarises one encoded campaign report.
func campaignRef(data []byte) (*ref, error) {
	var jr report.JSONReport
	if err := json.Unmarshal(data, &jr); err != nil {
		return nil, fmt.Errorf("decode report: %w", err)
	}
	return &ref{
		Digest:   digest(data),
		Detected: jr.DetectedBugs,
		Counts: map[string]int{
			"experiments": jr.Experiments,
			"sims":        jr.Sims,
			"edges":       jr.Edges,
			"cycles":      jr.Cycles,
			"clusters":    len(jr.Clusters),
		},
	}, nil
}

// monitorRef summarises one replay.
func monitorRef(in *replayInput, rs *replayStats) *ref {
	detected := rs.detected
	if detected == nil {
		detected = []string{}
	}
	return &ref{
		Digest:      digest([]byte(strings.Join(rs.sigs, "\n"))),
		Detected:    detected,
		TraceDigest: in.digest,
		Counts: map[string]int{
			"batches":     int(rs.stats.Batches),
			"records":     int(rs.stats.Records),
			"alerts":      int(rs.stats.Alerts),
			"rebuilds":    rs.stats.Rebuilds,
			"signatures":  len(rs.sigs),
			"trace_lines": in.lines,
		},
	}
}

// diff lists every way got departs from r; count drift is named count
// by count so a schedule shift shows what moved.
func (r *ref) diff(got *ref) []string {
	var out []string
	keys := make([]string, 0, len(r.Counts))
	for k := range r.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if r.Counts[k] != got.Counts[k] {
			out = append(out, fmt.Sprintf("count drift %s: %d -> %d", k, r.Counts[k], got.Counts[k]))
		}
	}
	if !slices.Equal(r.Detected, got.Detected) {
		out = append(out, fmt.Sprintf("detected %v -> %v", r.Detected, got.Detected))
	}
	if r.TraceDigest != got.TraceDigest {
		out = append(out, "trace digest differs")
	}
	if r.Digest != got.Digest {
		out = append(out, "digest differs")
	}
	return out
}

// refFile maps workload -> campaign seed -> reference.
type refFile map[string]map[string]*ref

func loadRefs(path string) (refFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read references: %w", err)
	}
	var refs refFile
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return refs, nil
}

// recordRefs runs every pool and held-out seed of w once and rewrites
// w's references in path. Other workloads' references are kept.
func recordRefs(w *workload, par int, refs refFile, path string) error {
	b := &bench{w: w, par: par, fixed: -1}
	sys, err := sysreg.Resolve(w.system)
	if err != nil {
		return err
	}
	b.sys = sys
	out := map[string]*ref{}
	for _, seed := range append(append([]int64(nil), w.pool...), w.heldout...) {
		r, err := b.recordSeed(seed)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		fmt.Fprintf(os.Stderr, "%s seed %d: %v detected=%v\n", w.name, seed, r.Counts, r.Detected)
		out[fmt.Sprint(seed)] = r
	}
	refs[w.name] = out
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func (b *bench) recordSeed(seed int64) (*ref, error) {
	if b.w.monitor {
		in, err := b.exportTraceRaw(seed)
		if err != nil {
			return nil, err
		}
		_, rs, err := b.replay(in, nil)
		if err != nil {
			return nil, err
		}
		return monitorRef(in, rs), nil
	}
	rep, err := csnake.NewCampaign(b.sys, b.w.options(seed, b.par)...).Run()
	if err != nil {
		return nil, err
	}
	if b.w.earlyStop > 0 && !rep.EarlyStopped {
		return nil, errors.New("the campaign did not stop early; it does not belong in this workload's pool")
	}
	data, err := json.Marshal(report.NewJSON(rep, b.sys.Bugs()))
	if err != nil {
		return nil, err
	}
	return campaignRef(data)
}
