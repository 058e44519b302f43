package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/core/alloc"
	"repro/internal/core/beam"
	"repro/internal/core/csnake"
	"repro/internal/core/fca"
	"repro/internal/core/graph"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/monitor"
	"repro/internal/report"
	"repro/internal/systems/sysreg"
)

// perLayer lists every per-layer metric in output order. A workload
// that does not reach a layer, or on which the layer cannot be seen from
// outside the program, reports 0 for it (see README.md).
var perLayer = []struct{ name, unit string }{
	{"harness.profile_s", "s"},
	{"harness.profile_sims", "count"},
	{"harness.wave_s", "s"},
	{"harness.waves", "count"},
	{"harness.experiments", "count"},
	{"harness.sims", "count"},
	{"harness.sims_per_s", "1/s"},
	{"harness.avoided", "count"},
	{"harness.avoided_ratio", "ratio"},
	{"harness.edges", "count"},
	{"alloc.plan_s", "s"},
	{"graph.capture_s", "s"},
	{"graph.edges", "count"},
	{"graph.raw_edges", "count"},
	{"graph.keys", "count"},
	{"beam.search_s", "s"},
	{"beam.alloc_mb", "MiB"},
	{"beam.cycles", "count"},
	{"beam.cluster_s", "s"},
	{"beam.clusters", "count"},
	{"beam.clusters_per_kcycle", "ratio"},
	{"report.encode_s", "s"},
	{"report.bytes", "bytes"},
	{"csnake.rounds", "count"},
	{"csnake.round_p50_s", "s"},
	{"csnake.detect_round", "count"},
	{"csnake.tail_s", "s"},
	{"monitor.batches", "count"},
	{"monitor.records", "count"},
	{"monitor.alerts", "count"},
	{"monitor.rebuilds", "count"},
	{"monitor.cycles_active_max", "count"},
	{"trace.overhead_frac", "frac"},
}

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the enclosing span's ID (0 for an operation root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans and per-operation layer values of a traced run
// in memory; writeJSONL writes the spans out when the run ends.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	layers []map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span between two instants and returns its ID.
func (t *tracer) add(op, parent int, name string, from, to time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: from.Sub(t.t0).Nanoseconds(), End: to.Sub(t.t0).Nanoseconds()})
	return id
}

// begin opens a span that end closes.
func (t *tracer) begin(op, parent int, name string) int {
	now := time.Now()
	return t.add(op, parent, name, now, now)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	return float64(s.End-s.Start) / 1e9
}

// dur returns the duration of span id in seconds.
func (t *tracer) dur(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return float64(s.End-s.Start) / 1e9
}

// layerMetrics reduces the traced operations to the per-layer metrics:
// the median of each value over the operations.
func (t *tracer) layerMetrics() map[string]metric {
	out := map[string]metric{}
	for _, m := range perLayer {
		var xs []float64
		for _, l := range t.layers {
			xs = append(xs, l[m.name])
		}
		out[m.name] = metric{median(xs), m.unit}
	}
	return out
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// eventClock timestamps campaign and driver events.
type eventClock struct {
	roundWatch
	started, finished time.Time
	profileEnd        time.Time
	profileSims       int
	lastExp           time.Time
	experiments       int
}

func (c *eventClock) CampaignStarted(string, int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.started = time.Now()
}

func (c *eventClock) ProfileCached(_ string, sims int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.profileEnd = time.Now()
	c.profileSims += sims
}

func (c *eventClock) ExperimentExecuted(faults.ID, string, int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastExp = time.Now()
	c.experiments++
}

func (c *eventClock) CampaignFinished(*csnake.Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finished = time.Now()
}

// reportLayers fills the layer values a finished report carries.
func reportLayers(l map[string]float64, rep *csnake.Report, profileSims int) {
	injected := float64(rep.Sims - profileSims)
	l["harness.profile_sims"] = float64(profileSims)
	l["harness.sims"] = injected
	l["harness.avoided"] = float64(rep.Checkpoint.Avoided())
	if injected > 0 {
		l["harness.avoided_ratio"] = float64(rep.Checkpoint.Avoided()) / injected
	}
	l["graph.edges"] = float64(len(rep.Edges))
	l["graph.raw_edges"] = float64(rep.Graph.RawLen())
	l["graph.keys"] = float64(rep.Graph.NumKeys())
	l["beam.cycles"] = float64(len(rep.Cycles))
	l["beam.clusters"] = float64(len(rep.CycleClusters))
	if len(rep.Cycles) > 0 {
		l["beam.clusters_per_kcycle"] = float64(len(rep.CycleClusters)) * 1000 / float64(len(rep.Cycles))
	}
}

// tracedCampaign runs the traced twin of an untraced campaign operation
// and records its layer values. The twin's report JSON must equal the
// untraced one byte for byte; otherwise the operation fails.
func (b *bench) tracedCampaign(seed int64, op int, want []byte, untraced time.Duration) bool {
	var (
		data []byte
		l    map[string]float64
		took time.Duration
		err  error
	)
	if b.w.anytime {
		data, l, took, err = b.tracedAnytime(seed, op)
	} else {
		data, l, took, err = b.tracedBatch(seed, op, nil)
	}
	if err != nil {
		b.fail("seed %d: traced campaign: %v", seed, err)
		return false
	}
	if !bytes.Equal(data, want) {
		b.fail("seed %d: traced report JSON differs from Campaign.Run's", seed)
		return false
	}
	l["trace.overhead_frac"] = took.Seconds()/untraced.Seconds() - 1
	b.tr.layers = append(b.tr.layers, l)
	return true
}

// tracedAnytime runs an anytime campaign with every observer event
// timestamped. Its stages run inside the program's round loop, so only
// the event boundaries are visible: profile runs, rounds, and the tail
// after the last experiment.
func (b *bench) tracedAnytime(seed int64, op int) ([]byte, map[string]float64, time.Duration, error) {
	tr := b.tr
	clock := &eventClock{roundWatch: roundWatch{bugs: b.sys.Bugs()}}
	opts := append(b.w.options(seed, b.par), csnake.WithObserver(clock))
	t0 := time.Now()
	clock.t0 = t0
	root := tr.begin(op, 0, "campaign")
	rep, err := csnake.NewCampaign(b.sys, opts...).Run()
	if err != nil {
		return nil, nil, 0, err
	}
	enc := tr.begin(op, root, "report.encode")
	data, err := json.Marshal(report.NewJSON(rep, b.sys.Bugs()))
	encodeS := tr.end(enc)
	took := time.Since(t0)
	tr.end(root)
	if err != nil {
		return nil, nil, 0, err
	}

	l := map[string]float64{}
	reportLayers(l, rep, clock.profileSims)
	l["harness.profile_s"] = tr.dur(tr.add(op, root, "harness.profile", clock.started, clock.profileEnd))
	l["harness.waves"] = float64(len(rep.Rounds))
	l["harness.experiments"] = float64(clock.experiments)
	for _, r := range rep.Rounds {
		l["harness.edges"] += float64(r.NewEdges)
	}
	prev := t0
	for _, at := range clock.rounds {
		tr.add(op, root, "csnake.round", prev, t0.Add(at))
		prev = t0.Add(at)
	}
	l["csnake.rounds"] = float64(len(clock.rounds))
	l["csnake.round_p50_s"] = median(clock.updatesMS()) / 1000
	l["csnake.detect_round"] = float64(clock.detectRound)
	l["csnake.tail_s"] = tr.dur(tr.add(op, root, "csnake.tail", clock.lastExp, clock.finished))
	l["report.encode_s"] = encodeS
	l["report.bytes"] = float64(len(data))
	return data, l, took, nil
}

// tracedExec forwards the executor calls of alloc.Protocol to the
// driver, timing each wave. It implements alloc.WaveExecutor, so the
// protocol runs whole-phase waves exactly as it does on the driver.
type tracedExec struct {
	d      *harness.Driver
	tr     *tracer
	op     int
	parent int

	waves, experiments, newEdges int
	waveS                        float64
}

func (x *tracedExec) TestsFor(f faults.ID) []alloc.TestInfo { return x.d.TestsFor(f) }

// Execute completes alloc.Executor; the protocol calls ExecuteWave instead.
func (x *tracedExec) Execute(f faults.ID, test string) []faults.ID { return x.d.Execute(f, test) }

func (x *tracedExec) ExecuteWave(wave []alloc.PlannedRun) ([]alloc.RunRecord, graph.Delta) {
	s := x.tr.begin(x.op, x.parent, "harness.wave")
	recs, delta := x.d.ExecuteWave(wave)
	x.waveS += x.tr.end(s)
	x.waves++
	x.experiments += len(wave)
	x.newEdges += delta.New
	return recs, delta
}

// traceTap feeds driver events into a trace writer, as a campaign's
// trace export does.
type traceTap struct{ tw *monitor.TraceWriter }

func (traceTap) ProfileCached(string, int)                        {}
func (t traceTap) ExperimentExecuted(faults.ID, string, int, int) { t.tw.Mark() }
func (t traceTap) EdgeDiscovered(e fca.Edge)                      { t.tw.Edge(e) }

// tracedBatch is the batch campaign pipeline rebuilt from exported calls
// with a span around each layer: profile runs, the 3PA protocol and its
// waves, graph capture, the beam search, clustering and report encoding.
// With traceOut set it also exports the trace, as WithTraceExport does.
// It returns the report JSON, the layer values and the wall time.
func (b *bench) tracedBatch(seed int64, op int, traceOut io.Writer) ([]byte, map[string]float64, time.Duration, error) {
	tr := b.tr
	sys := b.sys
	c := csnake.NewCampaign(sys, b.w.options(seed, b.par)...)
	cfg := c.Config()
	if cfg.Protocol != csnake.Protocol3PA {
		return nil, nil, 0, fmt.Errorf("traced batch path runs 3PA only")
	}
	t0 := time.Now()
	root := tr.begin(op, 0, "campaign")
	space := sysreg.Space(sys)
	hcfg := cfg.Harness
	hcfg.Parallelism = c.Parallelism()
	driver := harness.New(sys, space, hcfg)
	defer driver.Release()
	driver.Bind(context.Background())
	rep := &csnake.Report{System: sys.Name(), Space: space}
	if cfg.Beam.NestGroups == nil {
		cfg.Beam.NestGroups = csnake.NestGroups(space)
	}
	clock := &eventClock{}
	var obs harness.Observer = clock
	var tw *monitor.TraceWriter
	if traceOut != nil {
		tw = monitor.NewTraceWriter(traceOut)
		tw.Hello(sys.Name())
		tw.Static(fca.StaticLoopEdges(space))
		tw.NestGroups(cfg.Beam.NestGroups)
		obs = harness.MultiObserver(clock, traceTap{tw})
	}
	driver.Observe(obs)
	l := map[string]float64{}

	s := tr.begin(op, root, "harness.profile")
	driver.ProfileAll()
	l["harness.profile_s"] = tr.end(s)
	profileSims := driver.SimCount()

	proto := &alloc.Protocol{
		Space:            space,
		BudgetFactor:     cfg.BudgetFactor,
		ClusterThreshold: cfg.ClusterThreshold,
		Rng:              rand.New(rand.NewSource(cfg.Seed)),
	}
	s = tr.begin(op, root, "alloc.protocol")
	ex := &tracedExec{d: driver, tr: tr, op: op, parent: s}
	rep.Alloc = proto.Run(ex)
	protoS := tr.end(s)
	rep.Runs = rep.Alloc.Runs

	s = tr.begin(op, root, "graph.capture")
	rep.Graph = driver.Graph()
	for f, gi := range cfg.Beam.NestGroups {
		rep.Graph.SetNestGroup(f, gi)
	}
	for _, f := range space.IDs() {
		rep.Graph.SetScore(f, rep.Alloc.SimScoreOf(f))
	}
	rep.Edges = rep.Graph.Edges()
	rep.Sims = driver.SimCount()
	rep.Checkpoint = driver.CheckpointStats()
	if tw != nil {
		for _, f := range space.IDs() {
			tw.Score(f, rep.Alloc.SimScoreOf(f))
		}
		if err := tw.Flush(); err != nil {
			return nil, nil, 0, fmt.Errorf("trace export: %w", err)
		}
	}
	l["graph.capture_s"] = tr.end(s)

	a0 := totalAllocMB()
	s = tr.begin(op, root, "beam.search")
	rep.Cycles = beam.SearchGraph(rep.Graph, rep.Alloc.SimScoreOf, cfg.Beam)
	l["beam.search_s"] = tr.end(s)
	l["beam.alloc_mb"] = totalAllocMB() - a0

	s = tr.begin(op, root, "beam.cluster")
	rep.CycleClusters = beam.ClusterCycles(rep.Cycles, func(f faults.ID) (int, bool) {
		gi, ok := rep.Alloc.ClusterOf[f]
		return gi, ok
	})
	l["beam.cluster_s"] = tr.end(s)
	clustered := time.Now()

	s = tr.begin(op, root, "report.encode")
	data, err := json.Marshal(report.NewJSON(rep, sys.Bugs()))
	l["report.encode_s"] = tr.end(s)
	took := time.Since(t0)
	tr.end(root)
	if err != nil {
		return nil, nil, 0, err
	}

	reportLayers(l, rep, profileSims)
	l["harness.wave_s"] = ex.waveS
	l["harness.waves"] = float64(ex.waves)
	l["harness.experiments"] = float64(ex.experiments)
	if ex.waveS > 0 {
		l["harness.sims_per_s"] = l["harness.sims"] / ex.waveS
	}
	l["harness.edges"] = float64(ex.newEdges)
	l["alloc.plan_s"] = protoS - ex.waveS
	l["csnake.tail_s"] = tr.dur(tr.add(op, root, "csnake.tail", clock.lastExp, clustered))
	l["report.bytes"] = float64(len(data))
	return data, l, took, nil
}

// tracedReplay records the layer values of one monitor-hbase operation:
// the exporting campaign through the traced batch path (its trace and
// report must equal the untraced export's), then a replay with one span
// per Ingest batch.
func (b *bench) tracedReplay(in *replayInput, op int, untraced *opResult) bool {
	var buf bytes.Buffer
	data, l, _, err := b.tracedBatch(in.seed, op, &buf)
	if err != nil {
		b.fail("seed %d: traced export: %v", in.seed, err)
		return false
	}
	if digest(buf.Bytes()) != in.digest || !bytes.Equal(data, in.report) {
		b.fail("seed %d: traced export differs from WithTraceExport's trace or report", in.seed)
		return false
	}
	root := b.tr.begin(op, 0, "replay")
	traced, rs, err := b.replay(in, func(batch int) func() {
		s := b.tr.begin(op, root, "monitor.ingest")
		return func() { b.tr.end(s) }
	})
	b.tr.end(root)
	if err != nil {
		b.fail("seed %d: traced replay: %v", in.seed, err)
		return false
	}
	l["monitor.batches"] = float64(rs.stats.Batches)
	l["monitor.records"] = float64(rs.stats.Records)
	l["monitor.alerts"] = float64(rs.stats.Alerts)
	l["monitor.rebuilds"] = float64(rs.stats.Rebuilds)
	l["monitor.cycles_active_max"] = float64(rs.cyclesActiveMax)
	l["trace.overhead_frac"] = traced.campaignS/untraced.campaignS - 1
	b.tr.layers = append(b.tr.layers, l)
	return true
}
