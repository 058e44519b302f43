package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core/csnake"
	"repro/internal/monitor"
	"repro/internal/report"
	"repro/internal/systems/sysreg"

	_ "repro/internal/systems/kvstore"
	_ "repro/internal/systems/metastore"
)

// workload is one benchmark input: a system, a campaign shape, and the
// campaign seeds it draws from. Every workload uses the light campaign
// configuration (reps 3, delays 0.5/2/8 s, budget factor 8).
type workload struct {
	name   string
	system string
	// anytime selects the round-based pipeline; earlyStop and wave shape
	// it further (0 = full budget, |F| runs per round).
	anytime         bool
	earlyStop, wave int
	// monitor replays the exported trace of a batch campaign through an
	// online monitor instead of timing the campaign itself.
	monitor bool
	// workers, when set, caps the campaign parallelism below the host's.
	workers int
	// pool holds the campaign seeds a run draws from, each with a recorded
	// reference; heldout seeds are recorded but never drawn, so a perf
	// claim tuned on the pool can be confirmed with -campaign-seed.
	pool, heldout []int64
}

// Monitor replay shape: 8-line batches into a window of 60 edge records
// (the exported trace's clock advances one millisecond per edge record).
const (
	replayBatch  = 8
	replayWindow = 60 * time.Millisecond
)

var workloads = []*workload{
	{name: "batch-metastore", system: "metastore",
		pool: []int64{42, 1}, heldout: []int64{5}},
	// A full-budget anytime campaign searches round k on a goroutine of
	// its own while round k+1 simulates. With two sim workers that is
	// three busy goroutines on two cores, and one campaign's time swung
	// by 8% (CV) with the schedule; one sim worker leaves the search a
	// core and brings that to 3%.
	{name: "anytime-hbase", system: "hbase", anytime: true, workers: 1,
		pool: []int64{42, 1, 2, 3}, heldout: []int64{5}},
	// The pool holds seeds whose campaign early-stops within ten rounds.
	// Seeds 1, 4, 6 and 7 never stabilise and spend the full 24-round
	// budget (39-53 s), which is the full-budget anytime shape that
	// anytime-hbase already covers.
	{name: "earlystop-metastore", system: "metastore", anytime: true, earlyStop: 3, wave: 4,
		pool: []int64{42, 2, 3, 9, 12}, heldout: []int64{10}},
	{name: "monitor-hbase", system: "hbase", monitor: true,
		pool: []int64{42, 1, 2, 3}, heldout: []int64{5}},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// options builds the campaign options for one seed; par is the host's
// parallelism, which w.workers may lower.
func (w *workload) options(seed int64, par int) []csnake.Option {
	if w.workers > 0 {
		par = min(par, w.workers)
	}
	opts := []csnake.Option{
		csnake.WithSeed(seed),
		csnake.WithReps(3),
		csnake.WithDelayMagnitudes(500*time.Millisecond, 2*time.Second, 8*time.Second),
		csnake.WithBudgetFactor(8),
		csnake.WithParallelism(par),
	}
	if w.anytime {
		opts = append(opts, csnake.WithAnytime(), csnake.WithEarlyStop(w.earlyStop), csnake.WithWaveSize(w.wave))
	}
	return opts
}

// seedAt returns the campaign seed of operation i in a run started at
// workload seed s: consecutive operations walk the pool from s onwards.
func (w *workload) seedAt(s int64, i int) int64 {
	n := int64(len(w.pool))
	return w.pool[((s+int64(i))%n+n)%n]
}

// bench is one run of one workload.
type bench struct {
	w     *workload
	par   int
	refs  map[string]*ref
	seed  int64
	fixed int64   // campaign seed override (-1 = draw from the pool)
	tr    *tracer // nil on untraced runs

	sys       sysreg.System
	attempted int
	failed    int
}

func (b *bench) campaignSeed(i int) int64 {
	if b.fixed >= 0 {
		return b.fixed
	}
	return b.w.seedAt(b.seed, i)
}

// fail records one failed operation.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "%s: FAIL: %s\n", b.w.name, fmt.Sprintf(format, args...))
}

// opResult is what one timed operation measured.
type opResult struct {
	seed      int64
	campaignS float64
	detectS   float64
	updatesMS []float64 // one sample per result update
	allocMB   float64
}

// setupBatch is how many set-ups one campaign-workload set-up sample
// times back to back: a single one takes microseconds, too short to time
// steadily on its own. setupSamples such samples, about 0.8 s in all,
// make one run's set-up time: the host slows for spells of a few tenths
// of a second, and 7 samples of 2000 (30 ms in all) read 3 to 7 us per
// set-up from one run to the next.
const (
	setupBatch   = 5000
	setupSamples = 41
)

// run measures the workload for d and returns the result line. Set-up
// (resolving the system and building its fault space; for monitor-hbase
// also exporting each pool seed's trace) is timed several times before
// the clock starts, and setup_s is the median; samples taken between
// operations would not do, as set-ups after a campaign that grew the heap
// to a gigabyte ran up to twice as slow. Operations then walk the pool in
// whole cycles for about d, so every run measures each pool seed equally
// often.
func (b *bench) run(d time.Duration) result {
	n := len(b.w.pool)
	if b.fixed >= 0 {
		n = 1
	}
	var setups []float64
	var traces []*replayInput
	if b.w.monitor {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			b.setup()
			traces = append(traces, b.exportTrace(b.campaignSeed(i)))
			setups = append(setups, time.Since(t0).Seconds())
		}
	} else {
		for rep := 0; rep < setupSamples; rep++ {
			runtime.GC()
			t0 := time.Now()
			for i := 0; i < setupBatch; i++ {
				b.setup()
			}
			setups = append(setups, time.Since(t0).Seconds()/setupBatch)
		}
	}

	var ops []opResult
	start := time.Now()
	cycleStart := start
	for i := 0; ; i++ {
		if i > 0 && i%n == 0 {
			// Start another cycle only if it should end nearer to d than
			// stopping now does.
			now := time.Now()
			if now.Sub(start)+now.Sub(cycleStart)/2 >= d {
				break
			}
			cycleStart = now
		}
		runtime.GC()
		var op *opResult
		if b.w.monitor {
			op = b.replayOp(traces[i%n], i)
		} else {
			op = b.campaignOp(b.campaignSeed(i), i)
		}
		b.attempted++
		if op != nil {
			ops = append(ops, *op)
		}
	}

	res := result{Attempted: b.attempted, Failed: b.failed}
	if b.tr != nil {
		res.Metrics = b.tr.layerMetrics()
	} else {
		res.Metrics = endToEnd(setups, ops, b.w.monitor)
	}
	res.Correct = b.failed == 0 && len(ops) > 0
	return res
}

// setup resolves the workload's system and builds its fault space.
func (b *bench) setup() {
	sys, err := sysreg.Resolve(b.w.system)
	if err != nil {
		fatalf("%v", err)
	}
	if sysreg.Space(sys).Size() == 0 {
		fatalf("%s: empty fault space", b.w.system)
	}
	b.sys = sys
}

// perSeed returns the mean over campaign seeds of each seed's median of
// f: seeds differ in how much work they are, and this keeps their mix
// fixed whatever the number of operations at each.
func perSeed(ops []opResult, f func(opResult) float64) float64 {
	bySeed := map[int64][]float64{}
	for _, op := range ops {
		bySeed[op.seed] = append(bySeed[op.seed], f(op))
	}
	if len(bySeed) == 0 {
		return 0
	}
	seeds := make([]int64, 0, len(bySeed))
	for s := range bySeed {
		seeds = append(seeds, s)
	}
	slices.Sort(seeds)
	sum := 0.0
	for _, s := range seeds {
		sum += median(bySeed[s])
	}
	return sum / float64(len(seeds))
}

// endToEnd reduces the operations of an untraced run to its metrics.
// pooled takes the update quantiles over every update of the run (the
// monitor's hundreds of ingests); otherwise each operation's own
// quantiles go through perSeed, because a campaign has only a few
// rounds and a quantile pooled over them rests on the two rounds beside
// it, which made it twice as noisy as campaign_s.
func endToEnd(setups []float64, ops []opResult, pooled bool) map[string]metric {
	var upd []float64
	for _, op := range ops {
		upd = append(upd, op.updatesMS...)
	}
	fmt.Fprintf(os.Stderr, "operations=%d update samples=%d\n", len(ops), len(upd))
	updates := func(q float64) float64 {
		if pooled {
			return quantile(upd, q)
		}
		return perSeed(ops, func(op opResult) float64 { return quantile(op.updatesMS, q) })
	}
	return map[string]metric{
		"setup_s":       {median(setups), "s"},
		"campaign_s":    {perSeed(ops, func(op opResult) float64 { return op.campaignS }), "s"},
		"detect_s":      {perSeed(ops, func(op opResult) float64 { return op.detectS }), "s"},
		"update_p50_ms": {updates(0.5), "ms"},
		"update_p90_ms": {updates(0.9), "ms"},
		"alloc_mb":      {perSeed(ops, func(op opResult) float64 { return op.allocMB }), "MiB"},
		"peak_rss_mb":   {peakRSSMB(), "MiB"},
	}
}

// roundWatch timestamps anytime rounds and the first round whose
// clusters name a ground-truth bug.
type roundWatch struct {
	csnake.NopObserver
	t0   time.Time
	bugs []sysreg.Bug

	mu          sync.Mutex
	rounds      []time.Duration
	detectAt    time.Duration
	detectRound int
}

func (o *roundWatch) RoundCompleted(r csnake.Round) {
	now := time.Since(o.t0)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.rounds = append(o.rounds, now)
	if o.detectRound > 0 {
		return
	}
	for _, lc := range csnake.LabelClusters(r.Clusters, o.bugs) {
		if lc.Bug != "" {
			o.detectAt, o.detectRound = now, r.Round
			return
		}
	}
}

// updatesMS turns round timestamps into per-round latencies.
func (o *roundWatch) updatesMS() []float64 {
	var out []float64
	var prev time.Duration
	for _, t := range o.rounds {
		out = append(out, float64(t-prev)/float64(time.Millisecond))
		prev = t
	}
	return out
}

// campaignOp runs one untraced campaign at seed and checks its report;
// on a traced run it runs the traced twin as well.
func (b *bench) campaignOp(seed int64, i int) *opResult {
	var watch *roundWatch
	opts := b.w.options(seed, b.par)
	if b.w.anytime {
		watch = &roundWatch{bugs: b.sys.Bugs()}
		opts = append(opts, csnake.WithObserver(watch))
	}
	a0 := totalAllocMB()
	t0 := time.Now()
	if watch != nil {
		watch.t0 = t0
	}
	rep, err := csnake.NewCampaign(b.sys, opts...).Run()
	ran := time.Since(t0)
	if err != nil {
		b.fail("seed %d: campaign: %v", seed, err)
		return nil
	}
	data, err := json.Marshal(report.NewJSON(rep, b.sys.Bugs()))
	took := time.Since(t0)
	if err != nil {
		b.fail("seed %d: encode report: %v", seed, err)
		return nil
	}
	op := &opResult{seed: seed, campaignS: took.Seconds(), allocMB: totalAllocMB() - a0}
	if watch != nil {
		if watch.detectRound == 0 {
			b.fail("seed %d: no round named a ground-truth bug", seed)
			return nil
		}
		op.detectS = watch.detectAt.Seconds()
		op.updatesMS = watch.updatesMS()
	} else {
		// A batch campaign names its bugs once the clustered report exists.
		op.detectS = ran.Seconds()
		op.updatesMS = []float64{took.Seconds() * 1000}
	}
	if !b.checkReport(seed, data) {
		return nil
	}
	if b.tr != nil && !b.tracedCampaign(seed, i, data, took) {
		return nil
	}
	return op
}

// checkReport compares one report JSON with the seed's reference: its
// digest, its detected bugs and its counts. Count drift is printed.
func (b *bench) checkReport(seed int64, data []byte) bool {
	got, err := campaignRef(data)
	if err != nil {
		b.fail("seed %d: %v", seed, err)
		return false
	}
	return b.checkRef(seed, got)
}

func (b *bench) checkRef(seed int64, got *ref) bool {
	want := b.refs[fmt.Sprint(seed)]
	if want == nil {
		b.fail("seed %d: no recorded reference", seed)
		return false
	}
	if diffs := want.diff(got); len(diffs) > 0 {
		b.fail("seed %d: output differs from the reference: %s", seed, strings.Join(diffs, "; "))
		return false
	}
	return true
}

// replayInput is an exported campaign trace cut into replay batches.
type replayInput struct {
	seed    int64
	batches [][]byte
	digest  string
	lines   int
	// report is the exporting campaign's report JSON, which the traced
	// export must reproduce.
	report []byte
}

// exportTrace runs the batch campaign at seed with trace export and cuts
// the trace into batches. A trace that differs from the reference is
// fatal: every replay of the run would measure the wrong input.
func (b *bench) exportTrace(seed int64) *replayInput {
	in, err := b.exportTraceRaw(seed)
	if err != nil {
		fatalf("seed %d: trace export: %v", seed, err)
	}
	want := b.refs[fmt.Sprint(seed)]
	if want == nil {
		fatalf("seed %d: no recorded reference", seed)
	}
	if want.TraceDigest != in.digest || want.Counts["trace_lines"] != in.lines {
		fatalf("seed %d: exported trace differs from the reference (digest %s, %d lines; want %s, %d lines)",
			seed, in.digest, in.lines, want.TraceDigest, want.Counts["trace_lines"])
	}
	return in
}

// exportTraceRaw runs the exporting campaign and returns its cut trace.
func (b *bench) exportTraceRaw(seed int64) (*replayInput, error) {
	var buf bytes.Buffer
	opts := append(b.w.options(seed, b.par), csnake.WithTraceExport(&buf))
	rep, err := csnake.NewCampaign(b.sys, opts...).Run()
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(report.NewJSON(rep, b.sys.Bugs()))
	if err != nil {
		return nil, err
	}
	in := cutTrace(seed, buf.Bytes())
	in.report = data
	return in, nil
}

func cutTrace(seed int64, trace []byte) *replayInput {
	in := &replayInput{seed: seed, digest: digest(trace)}
	lines := bytes.SplitAfter(trace, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	in.lines = len(lines)
	for len(lines) > 0 {
		n := min(replayBatch, len(lines))
		in.batches = append(in.batches, bytes.Join(lines[:n], nil))
		lines = lines[n:]
	}
	return in
}

// replayStats is what one replay produced, for the output checks.
type replayStats struct {
	stats           monitor.Stats
	sigs            []string
	detected        []string
	cyclesActiveMax int
}

// replay feeds every batch into a fresh monitor. span, when non-nil, is
// called around each Ingest (the traced run's per-batch spans).
func (b *bench) replay(in *replayInput, span func(batch int) func()) (*opResult, *replayStats, error) {
	mon := monitor.New(monitor.Config{Window: replayWindow})
	bugs := b.sys.Bugs()
	named := map[string]bool{}
	op := &opResult{seed: in.seed}
	rs := &replayStats{}
	a0 := totalAllocMB()
	t0 := time.Now()
	for i, batch := range in.batches {
		var end func()
		if span != nil {
			end = span(i)
		}
		s := time.Now()
		res, err := mon.Ingest(bytes.NewReader(batch))
		lat := time.Since(s)
		if end != nil {
			end()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("ingest batch %d: %w", i, err)
		}
		op.updatesMS = append(op.updatesMS, float64(lat)/float64(time.Millisecond))
		rs.cyclesActiveMax = max(rs.cyclesActiveMax, res.CyclesActive)
		for _, a := range res.Alerts {
			if a.Kind != "closed" {
				continue
			}
			for _, bug := range bugs {
				if covers(a.Faults, bug) && !named[bug.ID] {
					named[bug.ID] = true
					if op.detectS == 0 {
						op.detectS = time.Since(t0).Seconds()
					}
				}
			}
		}
	}
	op.campaignS = time.Since(t0).Seconds()
	op.allocMB = totalAllocMB() - a0
	rs.stats = mon.Stats()
	rs.sigs = mon.Signatures()
	for id := range named {
		rs.detected = append(rs.detected, id)
	}
	sort.Strings(rs.detected)
	return op, rs, nil
}

// covers reports whether an alerted cycle holds every core fault of bug.
func covers(faults []string, bug sysreg.Bug) bool {
	have := map[string]bool{}
	for _, f := range faults {
		have[f] = true
	}
	for _, f := range bug.CoreFaults {
		if !have[string(f)] {
			return false
		}
	}
	return true
}

// replayOp times one replay of the run's trace and checks its final
// signature set; on a traced run it replays once more with spans.
func (b *bench) replayOp(in *replayInput, i int) *opResult {
	op, rs, err := b.replay(in, nil)
	if err != nil {
		b.fail("seed %d: %v", in.seed, err)
		return nil
	}
	if op.detectS == 0 {
		b.fail("seed %d: no alert named a ground-truth bug", in.seed)
		return nil
	}
	if !b.checkRef(in.seed, monitorRef(in, rs)) {
		return nil
	}
	if b.tr != nil && !b.tracedReplay(in, i, op) {
		return nil
	}
	return op
}
