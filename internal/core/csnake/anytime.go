// This file holds the campaign loop every campaign runs through: the
// allocation schedule emits waves of (fault, test) runs, the harness
// driver executes each wave and publishes the causal-graph delta it
// contributed, and the schedule folds the results back in. A batch
// campaign plans whole-phase waves, seals no rounds, and searches once
// at the end. A round-based campaign (WithAnytime, WithEarlyStop,
// WithWaveSize, ProtocolAdaptive) plans capped waves and folds every
// delta into an incremental beam search, so it has a complete (and
// converging) answer after every round instead of only at the end. A
// full round-based run executes exactly the experiments of the batch
// run, accumulates exactly the same graph, and finishes with an
// identical report; early stopping trades the unspent budget for the
// answer already in hand.

package csnake

import (
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core/alloc"
	"repro/internal/core/beam"
	"repro/internal/core/graph"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/monitor"
)

// run profiles the system, drives the campaign loop to completion, and
// finishes with the cycle search. The campaign RNG rides a
// CountedSource so a checkpoint can record the draw position and a
// resumed campaign can fast-forward to it.
func (c *Campaign) run(cfg Config, space *faults.Space, driver *harness.Driver,
	rep *Report, tw *monitor.TraceWriter) (*Report, error) {

	// capture snapshots the driver's causal graph and annotates it with
	// everything a detached re-search needs: per-fault SimScores (when the
	// 3PA clustering produced any) and the loop-nest families. A graph
	// persisted from the report therefore re-searches identically offline.
	capture := func() {
		rep.Graph = driver.Graph()
		for f, gi := range cfg.Beam.NestGroups {
			rep.Graph.SetNestGroup(f, gi)
		}
		if rep.Alloc != nil {
			for _, f := range space.IDs() {
				rep.Graph.SetScore(f, rep.Alloc.SimScoreOf(f))
			}
		}
		rep.Edges = rep.Graph.Edges()
		rep.Sims = driver.SimCount()
		rep.Checkpoint = driver.CheckpointStats()
		if tw != nil {
			// Scores ride the trace too (last record wins on replay), so a
			// monitor's re-search ranks cycles like the offline one.
			if rep.Alloc != nil {
				for _, f := range space.IDs() {
					tw.Score(f, rep.Alloc.SimScoreOf(f))
				}
			}
			tw.Flush()
		}
	}

	driver.ProfileAll()
	if err := c.ctx.Err(); err != nil {
		capture()
		return rep, err
	}

	src := alloc.NewCountedSource(cfg.Seed)
	rng := rand.New(src)

	// Resuming: install the checkpointed graph before the scheduler is
	// built (the random schedule re-shuffles its pool at construction,
	// consuming the same draws the original did; the adaptive weight hook
	// closes over the driver's graph).
	if c.resume != nil {
		if err := c.adoptResume(c.resume, cfg, driver); err != nil {
			return rep, err
		}
	}

	sched := c.newScheduler(cfg, space, driver, rng)
	isRandom := cfg.Protocol == ProtocolRandom

	var roundBase, stable int
	var lastFP string
	if cp := c.resume; cp != nil {
		res, ok := sched.(alloc.Resumable)
		if !ok {
			return rep, resumeErr("scheduler %T is not resumable", sched)
		}
		if err := res.RestoreState(cp.Schedule); err != nil {
			return rep, resumeErr("%v", err)
		}
		if err := src.FastForwardTo(cp.RNGDraws); err != nil {
			return rep, resumeErr("%v", err)
		}
		if err := driver.OffsetSims(cp.Sims - driver.SimCount()); err != nil {
			return rep, resumeErr("checkpoint sims %d below the campaign's own %d", cp.Sims, driver.SimCount())
		}
		roundBase, stable, lastFP = cp.Rounds, cp.Stable, cp.LastFingerprint
		// The checkpoint may already satisfy the early-stop criterion (the
		// original crashed between sealing its last round and finishing):
		// the resumed campaign must not run extra rounds past it.
		if cfg.EarlyStopRounds > 0 && stable >= cfg.EarlyStopRounds {
			rep.EarlyStopped = true
		}
	}
	res := sched.Result()

	// A batch campaign plans whole-phase waves (Next(0)): the only
	// serialization left is the schedule's two decision barriers.
	rounds := cfg.roundBased()
	waveSize := 0
	if rounds {
		waveSize = cfg.WaveSize
		if waveSize <= 0 {
			waveSize = max(space.Size(), 1)
		}
	}

	inc := beam.NewIncremental(cfg.Beam)

	// Pipelined analysis: when no consumer needs round k's analysis
	// before wave k+1 may start, the FCA-fed incremental search and the
	// cycle clustering of a sealed round run on a background goroutine,
	// concurrently with the next wave's simulations. Analysis consumes
	// only immutable state -- the sealed wave-k graph snapshot, the wave's
	// delta, and a copy of the schedule's scoring state taken before Next
	// can mutate it at a phase barrier -- so the computed rounds are
	// byte-identical to the blocking order; only wall-clock overlaps.
	//
	// Early stopping genuinely needs round k's cluster fingerprint before
	// planning round k+1, and checkpointing must seal rounds in lockstep
	// with the schedule state it persists, so both keep the blocking loop.
	pipeline := cfg.EarlyStopRounds == 0 && c.ckptFn == nil
	var pend *roundAnalysis
	// seal joins the round in flight and seals it: append, observer,
	// convergence bookkeeping. A no-op when no round is pending.
	seal := func() {
		if pend == nil {
			return
		}
		<-pend.done
		if pend.panicked != nil {
			panic(pend.panicked)
		}
		r := pend.r
		r.CycleCount = len(pend.cycles)
		r.Clusters = compactClusters(pend.clusters)
		rep.Rounds = append(rep.Rounds, r)
		if ro, ok := c.obs.(RoundObserver); ok {
			ro.RoundCompleted(r)
		}
		fp := clusterFingerprint(pend.clusters)
		if len(pend.cycles) > 0 && fp == lastFP {
			stable++
		} else {
			stable = 0
		}
		lastFP = fp
		pend = nil
	}

	roundNum := roundBase
	for !rep.EarlyStopped && !sched.Done() && c.ctx.Err() == nil {
		wave := sched.Next(waveSize)
		if len(wave) == 0 {
			break
		}
		recs, delta := driver.ExecuteWave(wave)
		sched.Fold(recs)
		if c.ctx.Err() != nil {
			// The wave was cut short: its empty experiments are folded (the
			// schedule stays consistent) but searching partial evidence
			// would not be meaningful.
			break
		}
		if !rounds {
			continue
		}

		roundNum++
		// Join round k-1 (its analysis overlapped this wave's sims), then
		// analyse round k. The snapshot and the scoring-state copy are
		// taken now, between Fold and the next Next: exactly the state a
		// blocking search sees.
		seal()
		pend = &roundAnalysis{
			r: Round{
				Round:         roundNum,
				Phase:         wave[len(wave)-1].Phase,
				Runs:          len(wave),
				Spent:         sched.Spent(),
				Budget:        sched.Budget(),
				NewEdges:      delta.New,
				TouchedEdges:  len(delta.Edges),
				TouchedFaults: len(delta.Faults),
			},
			snap:  driver.Graph(),
			delta: delta,
			done:  make(chan struct{}),
		}
		pend.score, pend.clusterOf = snapshotScoring(res, isRandom)
		if pipeline {
			go pend.analyse(inc)
			continue
		}
		pend.analyse(inc)
		seal()
		if c.ckptFn != nil {
			// Checkpoint persistence is best-effort: a round whose
			// checkpoint could not be built still completes, the campaign
			// just resumes from an earlier round after a crash.
			if cp, err := checkpointOf(c, cfg, driver, sched, src, roundNum, stable, lastFP); err == nil {
				c.ckptFn(cp)
			}
		}
		// stable only grows on rounds with cycles, so a positive count
		// already implies a non-empty cycle set.
		if cfg.EarlyStopRounds > 0 && stable >= cfg.EarlyStopRounds {
			rep.EarlyStopped = true
			break
		}
	}
	seal()

	if !isRandom {
		rep.Alloc = res
	}
	rep.Runs = res.Runs
	capture()
	if err := c.ctx.Err(); err != nil {
		return rep, err
	}
	// Final search with the finished allocation's scores: the last
	// round's search can predate phase-two scoring (the schedule may
	// finish clustering and scoring only while planning later, empty
	// waves). For a round-based campaign the graph is unchanged since the
	// last round, so this is a fold-only re-rank for the incremental
	// engine -- and a plain full search when no round ever executed. A
	// batch campaign searches one-shot: a fresh Incremental enumerates
	// twice on a graph whose beam truncates (rebuild, then the one-shot
	// fallback).
	score, clusterOf := snapshotScoring(res, isRandom)
	if rounds {
		rep.Cycles = inc.Search(driver.Graph(), score)
	} else {
		rep.Cycles = beam.SearchGraph(rep.Graph, score, cfg.Beam)
	}
	rep.CycleClusters = beam.ClusterCycles(rep.Cycles, clusterOf)
	// A cancellation racing the final search must still surface: the
	// contract is that a cancelled campaign always returns the context
	// error and never fires CampaignFinished.
	if err := c.ctx.Err(); err != nil {
		return rep, err
	}
	if c.obs != nil {
		for _, cy := range rep.Cycles {
			c.obs.CycleFound(cy)
		}
		c.obs.CampaignFinished(rep)
	}
	return rep, nil
}

// roundAnalysis is one sealed round's search and clustering, run on the
// campaign goroutine or, pipelined, on a background goroutine.
type roundAnalysis struct {
	r         Round
	snap      *graph.Graph
	delta     graph.Delta
	score     func(faults.ID) float64
	clusterOf func(faults.ID) (int, bool)
	done      chan struct{}
	cycles    []beam.Cycle
	clusters  []beam.CycleCluster
	panicked  any
}

// analyse folds the round's delta into the incremental search and
// clusters the result; a panic is captured for seal to re-raise on the
// campaign goroutine.
func (a *roundAnalysis) analyse(inc *beam.Incremental) {
	defer close(a.done)
	defer func() { a.panicked = recover() }()
	a.cycles = inc.SearchDelta(a.snap, a.delta, a.score)
	a.clusters = beam.ClusterCycles(a.cycles, a.clusterOf)
}

// snapshotScoring freezes the schedule's scoring state for a round
// analysis or the final search: crossing a phase barrier in Next mutates
// SimScores and ClusterOf in place, so a pipelined round analysis gets a
// copy equal to what a blocking one sees at the same round. The random
// baseline never clusters or scores, so its snapshot is the constants.
func snapshotScoring(res *alloc.Result, isRandom bool) (func(faults.ID) float64, func(faults.ID) (int, bool)) {
	if isRandom {
		return func(faults.ID) float64 { return 1 },
			func(faults.ID) (int, bool) { return 0, false }
	}
	scores := append([]float64(nil), res.SimScores...)
	clusterOf := make(map[faults.ID]int, len(res.ClusterOf))
	for f, gi := range res.ClusterOf {
		clusterOf[f] = gi
	}
	return func(f faults.ID) float64 {
			if gi, ok := clusterOf[f]; ok && gi < len(scores) {
				return scores[gi]
			}
			return 1
		}, func(f faults.ID) (int, bool) {
			gi, ok := clusterOf[f]
			return gi, ok
		}
}

// newScheduler builds the wave-emitting schedule for the configured
// protocol.
func (c *Campaign) newScheduler(cfg Config, space *faults.Space, driver *harness.Driver, rng *rand.Rand) alloc.Scheduler {
	if cfg.Protocol == ProtocolRandom {
		return alloc.NewRandomSchedule(space, cfg.BudgetFactor, rng, driver)
	}
	scfg := alloc.ScheduleConfig{
		Space:            space,
		BudgetFactor:     cfg.BudgetFactor,
		ClusterThreshold: cfg.ClusterThreshold,
		Rng:              rng,
	}
	if cfg.Protocol == ProtocolAdaptive {
		scfg.Phase3Weights = adaptiveWeights(driver, cfg.Beam)
	}
	return alloc.NewSchedule(scfg, driver)
}

// adaptiveWeights is ProtocolAdaptive's phase-three reallocation hook: at
// every phase-three wave boundary it probes the current causal graph for
// near-cycle faults and multiplies the draw weight of every cluster
// containing one by AdaptiveBoost. Deterministic: the graph is a pure
// function of the campaign configuration and the executed schedule
// prefix, serial or parallel.
func adaptiveWeights(driver *harness.Driver, opt beam.Options) func(*alloc.Result, []float64) []float64 {
	return func(res *alloc.Result, defaults []float64) []float64 {
		near := beam.NearCycleFaults(driver.Graph(), opt)
		if len(near) == 0 {
			return defaults
		}
		for gi, members := range res.Clusters {
			for _, f := range members {
				if near[f] {
					defaults[gi] *= AdaptiveBoost
					break
				}
			}
		}
		return defaults
	}
}

// compactClusters trims a clustered cycle set for retention in
// Report.Rounds: within each cluster, one representative cycle (the
// best-ranked) is kept per distinct injected-fault set. Bug labeling
// (LabelClusters) inspects only the injected-fault sets of a cluster's
// cycles, so per-round detection results are unchanged, while the
// retained memory stays O(clusters) instead of O(raw cycles) x rounds --
// cycle-dense targets grow six-figure raw cycle counts in late rounds.
func compactClusters(clusters []beam.CycleCluster) []beam.CycleCluster {
	out := make([]beam.CycleCluster, len(clusters))
	for i, cc := range clusters {
		seen := make(map[string]bool, 4)
		var members []beam.Cycle
		for _, cy := range cc.Cycles {
			fs := cy.Faults()
			ids := make([]string, len(fs))
			for j, f := range fs {
				ids[j] = string(f)
			}
			sort.Strings(ids)
			key := strings.Join(ids, ",")
			if !seen[key] {
				seen[key] = true
				members = append(members, cy)
			}
		}
		out[i] = beam.CycleCluster{Key: cc.Key, Cycles: members}
	}
	return out
}

// clusterFingerprint renders the identity of the clustered cycle set for
// the early-stop convergence check: the ordered cluster keys. Clusters
// group cycles by the causally-equivalent fault clusters involved -- the
// granularity reports and bug labeling operate at -- so the campaign has
// converged when no round adds or removes a cluster, even while later
// experiments keep multiplying raw member cycles inside existing
// clusters.
func clusterFingerprint(clusters []beam.CycleCluster) string {
	var b strings.Builder
	for _, cc := range clusters {
		b.WriteString(cc.Key)
		b.WriteByte('\n')
	}
	return b.String()
}
