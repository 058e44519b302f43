// Command perfbench is the repository's benchmark: it runs one CSnake
// workload for a fixed wall-clock span, checks every operation's output
// against recorded references, and prints one JSON result line.
//
// Usage (normally through run.py, which builds this package first):
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1 -refs FILE [-spans FILE]
//	perfbench -workload NAME -campaign-seed 7 ...   # held-out confirmation
//	perfbench -workload NAME -record -refs FILE     # re-record references
//
// -seed picks where a run starts in the workload's seed pool; every
// operation's campaign seed comes from that pool, so each one has a
// recorded reference (report JSON digest, detected bugs and counts).
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// a separate traced run gives the per-layer metrics and the tracing
// overhead. The benchmark calls only exported functions of the csnake,
// harness, alloc, graph, beam, report and monitor packages.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// maxProcs caps GOMAXPROCS and campaign parallelism, so hosts with more
// cores run the same schedule as the 2-core host the bounds were set on.
const maxProcs = 2

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 42, "workload seed: picks the starting point in the workload's seed pool")
	campaignSeed := flag.Int64("campaign-seed", -1, "run every operation at this campaign seed instead of the pool (it needs a recorded reference)")
	seconds := flag.Int("seconds", 20, "measured span in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	refsPath := flag.String("refs", "perfbench/references.json", "reference file")
	spansPath := flag.String("spans", "", "write the traced run's spans to FILE as JSON lines")
	record := flag.Bool("record", false, "run every pool and held-out seed once and write their references to -refs")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fatalf("unknown workload %q (known: %s)", *name, strings.Join(workloadNames(), ", "))
	}
	par := min(maxProcs, runtime.NumCPU())
	runtime.GOMAXPROCS(par)

	refs, err := loadRefs(*refsPath)
	if err != nil {
		fatalf("%v", err)
	}
	if *record {
		if err := recordRefs(w, par, refs, *refsPath); err != nil {
			fatalf("record: %v", err)
		}
		return
	}

	b := &bench{w: w, par: par, refs: refs[w.name], seed: *seed, fixed: *campaignSeed}
	if *traced == 1 {
		b.tr = newTracer()
	}
	res := b.run(time.Duration(*seconds) * time.Second)
	if b.tr != nil && *spansPath != "" {
		if err := b.tr.writeJSONL(*spansPath); err != nil {
			fatalf("spans: %v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: attempted=%d failed=%d error_rate=%g\n",
		w.name, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// totalAllocMB returns the bytes allocated by the process so far, in MiB.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}
