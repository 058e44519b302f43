// Package repro's root benchmark harness regenerates every quantitative
// artefact of the paper's evaluation section (see DESIGN.md's experiment
// index): one benchmark per table plus the §8.2/§8.2.1/§8.5 measurements,
// and micro-benchmarks for the core algorithms. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/core/alloc"
	"repro/internal/core/beam"
	"repro/internal/core/compat"
	"repro/internal/core/csnake"
	"repro/internal/core/fca"
	"repro/internal/core/graph"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/inject"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/systems/dfs"
	"repro/internal/systems/kvstore"
	"repro/internal/systems/metastore"
	"repro/internal/systems/objstore"
	"repro/internal/systems/stream"
	"repro/internal/systems/sysreg"
	"repro/internal/trace"
)

func lightConfig(seed int64) csnake.Config {
	cfg := csnake.DefaultConfig(seed)
	cfg.Harness = harness.Config{
		Reps:            3,
		DelayMagnitudes: []time.Duration{500 * time.Millisecond, 2 * time.Second, 8 * time.Second},
	}
	return cfg
}

// --- E1: Table 2 (static analysis inventory) ---

func BenchmarkTable2_StaticAnalysis(b *testing.B) {
	systems := []sysreg.System{dfs.NewV2(), dfs.NewV3(), kvstore.New(), metastore.New(), stream.New(), objstore.New()}
	for i := 0; i < b.N; i++ {
		rows, err := report.Table2(".", systems)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// --- E2: Table 3 (full campaign per system) ---

func benchCampaign(b *testing.B, sys sysreg.System) {
	for i := 0; i < b.N; i++ {
		rep, err := csnake.NewCampaign(sys, csnake.WithConfig(lightConfig(42))).Run()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Space.Size() == 0 || len(rep.Runs) == 0 {
			b.Fatal("empty campaign")
		}
		b.ReportMetric(float64(len(rep.Edges)), "edges")
		b.ReportMetric(float64(len(rep.CycleClusters)), "clusters")
		b.ReportMetric(float64(len(csnake.DetectedBugs(rep, sys.Bugs()))), "bugs")
	}
}

func BenchmarkTable3_CampaignHDFS2(b *testing.B)     { benchCampaign(b, dfs.NewV2()) }
func BenchmarkTable3_CampaignHDFS3(b *testing.B)     { benchCampaign(b, dfs.NewV3()) }
func BenchmarkTable3_CampaignHBase(b *testing.B)     { benchCampaign(b, kvstore.New()) }
func BenchmarkTable3_CampaignFlink(b *testing.B)     { benchCampaign(b, stream.New()) }
func BenchmarkTable3_CampaignMetaStore(b *testing.B) { benchCampaign(b, metastore.New()) }
func BenchmarkTable3_CampaignOZone(b *testing.B)     { benchCampaign(b, objstore.New()) }

// --- E2b: serial vs parallel campaign execution (Campaign API) ---

func benchCampaignParallel(b *testing.B, parallelism int) {
	for i := 0; i < b.N; i++ {
		rep, err := csnake.NewCampaign(stream.New(),
			csnake.WithConfig(lightConfig(42)),
			csnake.WithParallelism(parallelism),
		).Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Runs) == 0 {
			b.Fatal("empty campaign")
		}
		b.ReportMetric(float64(rep.Sims), "sims")
		b.ReportMetric(float64(len(rep.Edges)), "edges")
	}
}

func BenchmarkCampaign_Serial(b *testing.B)   { benchCampaignParallel(b, 1) }
func BenchmarkCampaign_Parallel(b *testing.B) { benchCampaignParallel(b, runtime.NumCPU()) }

// BenchmarkCampaign_Scaling traces the core-count scaling curve on the
// consensus-target campaign: the same workload at p = 1, 2, 4 and
// NumCPU worker bounds (deduplicated when the host has few cores). All
// points produce byte-identical reports -- the sharded accumulation and
// wave-order merge guarantee it -- so the curve measures pure execution
// scaling, not search-quality drift. On a single-core host the curve is
// flat by construction; the interesting shape needs real parallelism.
func BenchmarkCampaign_Scaling(b *testing.B) {
	ps := []int{1, 2, 4, runtime.NumCPU()}
	seen := make(map[int]bool)
	for _, p := range ps {
		if seen[p] {
			continue
		}
		seen[p] = true
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchCampaignScalingPoint(b, p)
		})
	}
}

func benchCampaignScalingPoint(b *testing.B, parallelism int) {
	for i := 0; i < b.N; i++ {
		rep, err := csnake.NewCampaign(metastore.New(),
			csnake.WithConfig(lightConfig(42)),
			csnake.WithParallelism(parallelism),
		).Run()
		if err != nil {
			b.Fatal(err)
		}
		bugs := csnake.DetectedBugs(rep, metastore.New().Bugs())
		if len(bugs) != 2 {
			b.Fatalf("campaign lost detection at p=%d: %v", parallelism, bugs)
		}
		b.ReportMetric(float64(rep.Sims), "sims")
		b.ReportMetric(float64(len(rep.Edges)), "edges")
	}
}

// --- E2c: anytime pipeline -- batch vs streaming vs early stop ---

// benchCampaignMetaStore measures the consensus-target campaign under a
// given pipeline configuration; the anytime+early-stop variant's
// wall-clock win over the batch baseline is the PR's acceptance metric.
func benchCampaignMetaStore(b *testing.B, opts ...csnake.Option) {
	for i := 0; i < b.N; i++ {
		rep, err := csnake.NewCampaign(metastore.New(),
			append([]csnake.Option{csnake.WithConfig(lightConfig(42))}, opts...)...).Run()
		if err != nil {
			b.Fatal(err)
		}
		bugs := csnake.DetectedBugs(rep, metastore.New().Bugs())
		if len(bugs) != 2 {
			b.Fatalf("campaign lost detection: %v", bugs)
		}
		b.ReportMetric(float64(rep.Sims), "sims")
		b.ReportMetric(float64(len(rep.Runs)), "experiments")
	}
}

func BenchmarkCampaign_MetaStoreBatch(b *testing.B) { benchCampaignMetaStore(b) }

// Full streaming at the default |F|-run wave granularity: every round
// pays an incremental search, so the full-budget variant trades
// wall-clock for per-round answers (MetaStore's graph is cycle-dense --
// the distinct-cycle count grows into six figures by the final rounds).
func BenchmarkCampaign_MetaStoreAnytime(b *testing.B) {
	benchCampaignMetaStore(b, csnake.WithAnytime())
}

func BenchmarkCampaign_MetaStoreAnytimeEarlyStop(b *testing.B) {
	benchCampaignMetaStore(b, csnake.WithEarlyStop(3), csnake.WithWaveSize(4))
}

// --- E2c': prefix sharing -- fork-at-injection vs scratch re-simulation ---

// stagedSys is a bench-only target: metastore's Raft cluster under
// workloads shaped so that every injectable fault point is first
// reached roughly halfway into the horizon, behind a proposal-heavy
// warm-up. Real campaigns spread first-reach times from near zero, so
// the average shared prefix is short; this system isolates the
// prefix-sharing win by construction -- the stretched election timeout
// gates the election family to ~15s, the late transfer and pauser gate
// elections and snapshot transfers to ~20s, and the fault space keeps
// only those late points (the always-hot ones -- replication round,
// fsync, apply, propose -- are excluded, since runs injecting them
// diverge immediately and share nothing).
type stagedSys struct{}

func (stagedSys) Name() string { return "MetaStoreStaged" }

func (stagedSys) Points() []faults.Point {
	keep := map[faults.ID]bool{
		metastore.PtElectionLoop: true,
		metastore.PtVoteRPCIOE:   true,
		metastore.PtQuorumOK:     true,
		metastore.PtLogUpToDate:  true,
		metastore.PtSnapSendLoop: true,
		metastore.PtSnapRPCIOE:   true,
	}
	var pts []faults.Point
	for _, pt := range metastore.New().Points() {
		if keep[pt.ID] {
			pts = append(pts, pt)
		}
	}
	return pts
}

func (stagedSys) Nests() []faults.LoopNest { return nil }
func (stagedSys) SourceDirs() []string     { return nil }
func (stagedSys) Bugs() []sysreg.Bug       { return nil }

func stagedWL(name, desc string, cfg metastore.Config, scenario func(*metastore.Cluster)) sysreg.Workload {
	return sysreg.Workload{
		Name: name, Desc: desc, Horizon: 40 * time.Second,
		Run: func(ctx *sysreg.RunContext) {
			c := metastore.NewCluster(ctx, cfg)
			scenario(c)
			ctx.Ckpt = c
		},
	}
}

func (stagedSys) Workloads() []sysreg.Workload {
	// Every variant front-loads ~31s of saturating proposal traffic (the
	// bulk of a run's events -- replication, fsync, and apply scale with
	// entries) and only makes the injectable faults reachable in the
	// final quarter: elections cannot happen before the ~34s transfer,
	// and the snapshot path needs the ~34.5s pause to open a >SnapLag
	// log gap against the late proposer. The 3PA protocol injects each
	// (fault, workload) pair at most once, so the variants are what give
	// the schedule room to spend a real budget -- each one covers all
	// six faults.
	cfg := metastore.Config{
		ElectionTimeout: 15 * time.Second, ElectionJitter: 2 * time.Second,
		SnapLag: 30,
	}
	// The workload names are deliberate: the harness draws each plan's
	// rep seeds from a per-workload pool rotated by a (name, fault) hash
	// (see harness.planSeeds), and these names make all six faults' seed
	// windows overlap, so the campaign's ~90 injected runs concentrate on
	// ~4 (workload, seed) pairs per workload. That is the regime prefix
	// sharing is built for -- many runs re-simulating one warm-up -- and
	// keeps the benchmark's prefix-engine count (the sharing overhead)
	// from washing out the measured win.
	names := []string{"staged_10564", "staged_14328", "staged_36299", "staged_180063", "staged_214295"}
	var wls []sysreg.Workload
	for i := 0; i < 5; i++ {
		i := i
		wls = append(wls, stagedWL(names[i],
			"late transfer + pause-forced snapshot behind a heavy warm-up", cfg,
			func(c *metastore.Cluster) {
				jitter := time.Duration(i) * 50 * time.Millisecond
				c.SpawnProposer("c1", 300, 6, 95*time.Millisecond, jitter)
				c.SpawnProposer("c2", 290, 6, 105*time.Millisecond, 150*time.Millisecond+jitter)
				c.SpawnProposer("c3", 280, 6, 110*time.Millisecond, 300*time.Millisecond+jitter)
				c.SpawnProposer("late", 40, 6, 100*time.Millisecond, 34500*time.Millisecond)
				c.SpawnTransferLoop("admin", 35*time.Second+time.Duration(i)*300*time.Millisecond, 3*time.Second, 2)
				c.SpawnPauser("churn", 2, 35500*time.Millisecond+time.Duration(i)*200*time.Millisecond,
					1500*time.Millisecond, 10*time.Second, 1)
			}))
	}
	return wls
}

// benchCampaignStaged is the PR's acceptance pair: the same campaign
// with prefix sharing on vs off. Results are byte-identical (the
// harness tests pin that); sims parity is asserted here so the pair
// cannot drift apart silently.
func benchCampaignStaged(b *testing.B, share bool) {
	for i := 0; i < b.N; i++ {
		rep, err := csnake.NewCampaign(stagedSys{},
			csnake.WithSeed(42),
			csnake.WithReps(3),
			csnake.WithBudgetFactor(20),
			csnake.WithDelayMagnitudes(time.Second, 2*time.Second, 3500*time.Millisecond, 5*time.Second),
			csnake.WithParallelism(1),
			csnake.WithPrefixSharing(share),
		).Run()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Sims == 0 {
			b.Fatal("empty campaign")
		}
		b.ReportMetric(float64(rep.Sims), "sims")
		b.ReportMetric(float64(rep.Checkpoint.Avoided()), "avoided")
	}
}

func BenchmarkCampaign_MetaStorePrefixShare(b *testing.B)    { benchCampaignStaged(b, true) }
func BenchmarkCampaign_MetaStorePrefixShareOff(b *testing.B) { benchCampaignStaged(b, false) }

// --- E2d: the campaign service -- shared worker budget across jobs ---

// benchServiceCampaigns submits four HBase campaigns to a csnaked job
// manager and awaits them all. maxJobs=4 runs them concurrently under
// the shared worker-token pool; maxJobs=1 is the sequential baseline.
// The gap is the service's concurrency win at equal total work (results
// are byte-identical either way -- the determinism tests pin that).
func benchServiceCampaigns(b *testing.B, maxJobs int) {
	specs := make([]service.CampaignSpec, 4)
	for i := range specs {
		seed := int64(42 + i)
		specs[i] = service.CampaignSpec{
			System:            "hbase",
			Seed:              &seed,
			Reps:              3,
			DelayMagnitudesMS: []int64{500, 2000, 8000},
			Parallelism:       runtime.NumCPU(),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := service.NewManager(service.Config{Workers: runtime.NumCPU(), MaxJobs: maxJobs})
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]string, len(specs))
		for j, spec := range specs {
			st, err := m.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			ids[j] = st.ID
		}
		var sims int
		for _, id := range ids {
			st, err := m.Await(id)
			if err != nil {
				b.Fatal(err)
			}
			if st.State != service.StateSucceeded {
				b.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
			}
			sims += st.Sims
		}
		b.ReportMetric(float64(sims), "sims")
	}
}

func BenchmarkService_ConcurrentCampaigns(b *testing.B) { benchServiceCampaigns(b, 4) }
func BenchmarkService_SequentialCampaigns(b *testing.B) { benchServiceCampaigns(b, 1) }

// --- E3: Table 4 (cycle clustering, unlimited vs one-delay search) ---

func BenchmarkTable4_CycleClustering(b *testing.B) {
	art := report.RunCampaign(kvstore.New(), csnake.WithConfig(lightConfig(42)))
	if art.Err != nil {
		b.Fatal(art.Err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := report.Table4(art)
		b.ReportMetric(float64(row.Cycles), "cycles")
		b.ReportMetric(float64(row.Cycles1), "cycles_1delay")
		b.ReportMetric(float64(row.TP), "tp")
	}
}

// --- E4: §8.2 naive single-fault strategy ---

func BenchmarkAltStrategy_Naive(b *testing.B) {
	sys := objstore.New()
	for i := 0; i < b.N; i++ {
		findings := baselines.Naive(sys, baselines.NaiveConfig{Reps: 2,
			DelayMagnitudes: []time.Duration{2 * time.Second}, BaseSeed: 42})
		b.ReportMetric(float64(len(findings)), "findings")
		b.ReportMetric(float64(len(baselines.DetectedByNaive(findings, sys.Bugs()))), "bugs")
	}
}

// --- E5: §8.2 random allocation protocol ---

func BenchmarkRandomAllocation(b *testing.B) {
	sys := stream.New()
	for i := 0; i < b.N; i++ {
		cfg := lightConfig(43)
		cfg.Protocol = csnake.ProtocolRandom
		rep, err := csnake.NewCampaign(sys, csnake.WithConfig(cfg)).Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(csnake.DetectedBugs(rep, sys.Bugs()))), "bugs")
	}
}

// --- E6: §8.2.1 blackbox fuzzing comparison ---

func BenchmarkFuzzerBaseline(b *testing.B) {
	sys := objstore.New()
	for i := 0; i < b.N; i++ {
		res := baselines.Fuzz(sys, baselines.FuzzConfig{RunsPerWorkload: 2, BaseSeed: 42})
		if len(res.BugsDetected) != 0 {
			b.Fatal("a blackbox fuzzer cannot name causal cycles")
		}
		b.ReportMetric(float64(res.GenericAnomalies), "anomalies")
	}
}

// --- E7: §8.5 instrumentation overhead ---

func BenchmarkOverhead_InstrumentedProfileRun(b *testing.B) {
	sys := dfs.NewV2()
	driver := harness.New(sys, sysreg.Space(sys), harness.Config{Reps: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// OverheadSample averages harness.OverheadSamples paired runs
		// internally (single wall-clock pairs are dominated by allocator
		// warm-up noise).
		inst, bare := driver.OverheadSample("ibr_storm", int64(i*harness.OverheadSamples))
		if bare > 0 {
			b.ReportMetric(100*(float64(inst)/float64(bare)-1), "overhead_pct")
		}
	}
}

// --- micro-benchmarks for the core algorithms ---

func BenchmarkSimEngine_MessageRoundTrips(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(sim.Options{Seed: int64(i)})
		srv := eng.NewMailbox("srv", "rpc")
		eng.Spawn("srv", "server", func(p *sim.Proc) {
			for {
				m, ok := p.Recv(srv, -1)
				if !ok {
					return
				}
				p.Reply(m.(sim.Req), nil, nil)
			}
		})
		eng.Spawn("cli", "client", func(p *sim.Proc) {
			for j := 0; j < 1000; j++ {
				p.Call(srv, j, time.Second)
			}
		})
		eng.Run(time.Hour)
		eng.Close()
	}
}

func BenchmarkFCA_Analyze(b *testing.B) {
	space := faults.NewSpace([]faults.Point{
		{ID: "s.t", Kind: faults.Throw}, {ID: "s.l", Kind: faults.Loop},
	}, nil)
	plan := inject.Plan{Kind: inject.Exception, Target: "s.t"}
	profile, injected := syntheticSets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fca.Analyze(space, plan, "t", profile, injected, fca.DefaultConfig())
	}
}

func BenchmarkBeamSearch(b *testing.B) {
	// The intended workflow: the campaign (or a loaded file) holds a
	// prebuilt interned graph and every search matches on its integer
	// index -- zero state-key strings are built per search.
	g := graph.FromEdges(syntheticEdges(120))
	g.Index() // prebuild, as the campaign's first search would
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		beam.SearchGraph(g, nil, beam.Options{MaxLen: 6})
	}
}

func BenchmarkBeamSearchFromSlice(b *testing.B) {
	// Legacy entry point: interning the flat slice is part of each call.
	edges := syntheticEdges(120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		beam.Search(edges, nil, beam.Options{MaxLen: 6})
	}
}

func BenchmarkGraphBuild(b *testing.B) {
	edges := syntheticEdges(120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.FromEdges(edges)
		g.Index()
	}
}

func BenchmarkGraphIndexDeltaRefresh(b *testing.B) {
	// The anytime round loop's access pattern: a handful of insertions,
	// then a re-index. The delta-aware refresh reuses every untouched
	// entry instead of re-interning key sets and re-materializing edges.
	g := graph.New()
	g.AddAll(syntheticEdges(512))
	g.Index()
	st := compat.State{Occ: []trace.Occurrence{{Stack: []string{"fn"}}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Add(fca.Edge{
			From: faults.ID(fmt.Sprintf("f.%d", i%30)), To: faults.ID(fmt.Sprintf("fx.%d", i%64)),
			Kind: faults.EI, Test: "t0", FromState: st, ToState: st,
		})
		if g.Index() == nil {
			b.Fatal("no index")
		}
	}
}

func BenchmarkGraphPrefixSnapshot(b *testing.B) {
	edges := syntheticEdges(512)
	g := graph.New()
	for i, e := range edges {
		g.Add(e)
		if (i+1)%8 == 0 {
			g.Mark()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Mid-campaign snapshot: the allocPhase/Table 3 access pattern.
		p := g.Prefix(32)
		if p.Len() == 0 {
			b.Fatal("empty prefix")
		}
	}
}

func BenchmarkGraphJSONRoundTrip(b *testing.B) {
	g := graph.FromEdges(syntheticEdges(256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := json.Marshal(g)
		if err != nil {
			b.Fatal(err)
		}
		g2 := graph.New()
		if err := json.Unmarshal(data, g2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIDFClustering(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var corpus [][]faults.ID
	for i := 0; i < 100; i++ {
		var set []faults.ID
		for j := 0; j < 5; j++ {
			set = append(set, faults.ID(fmt.Sprintf("f.%d", rng.Intn(30))))
		}
		corpus = append(corpus, set)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idf := cluster.TrainIDF(corpus)
		vecs := make([]cluster.Vector, len(corpus))
		for k, set := range corpus {
			vecs[k] = idf.Vectorize(set)
		}
		cluster.Hierarchical(len(vecs), func(a, c int) float64 {
			return cluster.CosineDistance(vecs[a], vecs[c])
		}, 0.5)
	}
}

func BenchmarkWelchTTest(b *testing.B) {
	x := []float64{10, 12, 11, 13, 12}
	y := []float64{15, 17, 16, 18, 16}
	for i := 0; i < b.N; i++ {
		stats.TTestGreater(y, x)
	}
}

func Benchmark3PAProtocol(b *testing.B) {
	space := mkBenchSpace(24)
	for i := 0; i < b.N; i++ {
		p := &alloc.Protocol{Space: space, Rng: rand.New(rand.NewSource(int64(i)))}
		p.Run(scriptedExecutor{})
	}
}

// --- synthetic fixtures ---

func syntheticSets() (*trace.Set, *trace.Set) {
	profile, injected := &trace.Set{}, &trace.Set{}
	for i := 0; i < 5; i++ {
		pr := trace.NewRun("t", int64(i))
		pr.AddLoopIters("s.l", 10+i%2)
		profile.Add(pr)
		in := trace.NewRun("t", int64(100+i))
		in.InjFired = true
		in.AddLoopIters("s.l", 30+i%3)
		in.Activate("s.t", trace.Occurrence{Stack: []string{"f", "g"}})
		injected.Add(in)
	}
	return profile, injected
}

func syntheticEdges(n int) []fca.Edge {
	rng := rand.New(rand.NewSource(3))
	var out []fca.Edge
	for i := 0; i < n; i++ {
		from := faults.ID(fmt.Sprintf("f.%d", rng.Intn(30)))
		to := faults.ID(fmt.Sprintf("f.%d", rng.Intn(30)))
		st := compat.State{Occ: []trace.Occurrence{{Stack: []string{fmt.Sprintf("fn%d", rng.Intn(4))}}}}
		out = append(out, fca.Edge{
			From: from, To: to, Kind: faults.EI,
			FromClass: faults.ClassException, ToClass: faults.ClassException,
			Test: fmt.Sprintf("t%d", rng.Intn(6)), FromState: st, ToState: st,
		})
	}
	return out
}

func mkBenchSpace(n int) *faults.Space {
	var pts []faults.Point
	for i := 0; i < n; i++ {
		pts = append(pts, faults.Point{ID: faults.ID(fmt.Sprintf("b.f%02d", i)), Kind: faults.Throw})
	}
	return faults.NewSpace(pts, nil)
}

type scriptedExecutor struct{}

func (scriptedExecutor) TestsFor(f faults.ID) []alloc.TestInfo {
	return []alloc.TestInfo{{Name: "t1", Coverage: 10}, {Name: "t2", Coverage: 8}, {Name: "t3", Coverage: 5}}
}

func (scriptedExecutor) Execute(f faults.ID, test string) []faults.ID {
	return []faults.ID{faults.ID("x." + test)}
}
