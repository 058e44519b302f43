// Package alloc implements CSnake's three-phase allocation (3PA) protocol
// of test budget (§5, §A) plus the random-allocation comparison protocol
// of §8.2.
//
// The total budget is 4x|F| experiments. Phase one (25%) injects every
// fault into the covering workload with the highest coverage and clusters
// faults by the IDF-vectorised similarity of their interference sets
// (causally-equivalent fault detection). Phase two (50%) distributes
// budget round-robin across clusters, injecting randomly-chosen cluster
// members into fresh workloads, then computes each cluster's intra-cluster
// interference similarity score. Phase three (25%) allocates the remainder
// by weighted random draw with weight max(eps, 1-SimScore), favouring
// clusters with conditional (workload-dependent) causal consequences.
// Unused quota transfers to larger clusters in phase two and to
// smaller-weight clusters in phase three.
//
// The protocol machinery is a resumable schedule state machine (Schedule,
// in schedule.go): it plans waves of (fault, test) runs without executing
// anything, and folds execution results back in at the two decision
// barriers (clustering after phase one, scoring after phase two). The
// blocking Protocol.Run entry point drives the state machine to
// completion one whole phase at a time; campaigns drive the same machine
// through their round loop, in whole-phase or capped waves.
package alloc

import (
	"math/rand"

	"repro/internal/core/graph"
	"repro/internal/faults"
)

// Epsilon is the minimum phase-three allocation weight (§A.4).
const Epsilon = 0.01

// TestInfo describes one workload able to reach a fault.
type TestInfo struct {
	Name string
	// Coverage is the number of injection/monitor points the workload's
	// profile run covers; phase one picks the largest.
	Coverage int
}

// Executor abstracts the experiment runner the blocking protocol drives.
// Execute must be deterministic for a given (fault, test) pair and is
// never called twice with the same pair.
type Executor interface {
	Planner
	// Execute performs the full injection experiment (all repetitions,
	// all delay magnitudes) of fault f under the named workload and
	// returns the set of additional faults triggered.
	Execute(f faults.ID, test string) []faults.ID
}

// Phase identifies which 3PA phase scheduled a run.
type Phase int

const (
	Phase1 Phase = 1
	Phase2 Phase = 2
	Phase3 Phase = 3
)

// RunRecord remembers one scheduled experiment and its interference.
type RunRecord struct {
	Fault faults.ID
	Test  string
	Phase Phase
	Intf  []faults.ID
}

// Result is the outcome of a protocol execution.
type Result struct {
	// Clusters groups causally-equivalent faults (phase-one clustering).
	Clusters [][]faults.ID
	// ClusterOf maps each injected fault to its cluster index.
	ClusterOf map[faults.ID]int
	// SimScores holds the intra-cluster interference similarity per
	// cluster (computed after phase two, §A.3).
	SimScores []float64
	// Runs lists every executed experiment in schedule order.
	Runs []RunRecord
	// Budget is the total experiment budget that was available.
	Budget int
}

// SimScoreOf returns the cluster SimScore for a fault (1.0 for faults
// outside any cluster, i.e. never injected, and before phase-two scoring
// has happened).
func (r *Result) SimScoreOf(f faults.ID) float64 {
	if idx, ok := r.ClusterOf[f]; ok && idx < len(r.SimScores) {
		return r.SimScores[idx]
	}
	return 1
}

// Protocol runs 3PA over a fault space.
type Protocol struct {
	Space *faults.Space
	// BudgetFactor scales |F| into the total budget (paper: 4).
	BudgetFactor int
	// Budget, when positive, overrides BudgetFactor x |F| with an absolute
	// experiment budget. A budget below |F| truncates phase one: later
	// faults (in space order) are never injected.
	Budget int
	// ClusterThreshold is the hierarchical-clustering merge cutoff on
	// cosine distance (default 0.5).
	ClusterThreshold float64
	// Rng drives the protocol's random choices (required).
	Rng *rand.Rand
}

// Run executes the three phases against ex and returns the result: it
// drives the resumable Schedule to completion, one whole phase per wave,
// fanning each wave through ExecuteWave when ex supports it.
func (p *Protocol) Run(ex Executor) *Result {
	s := NewSchedule(ScheduleConfig{
		Space:            p.Space,
		BudgetFactor:     p.BudgetFactor,
		Budget:           p.Budget,
		ClusterThreshold: p.ClusterThreshold,
		Rng:              p.Rng,
	}, ex)
	wx, _ := ex.(WaveExecutor)
	for {
		wave := s.Next(0)
		if len(wave) == 0 {
			return s.Result()
		}
		var recs []RunRecord
		if wx != nil {
			recs, _ = wx.ExecuteWave(wave)
		} else {
			recs = make([]RunRecord, len(wave))
			for i, pr := range wave {
				recs[i] = RunRecord{
					Fault: pr.Fault, Test: pr.Test, Phase: pr.Phase,
					Intf: ex.Execute(pr.Fault, pr.Test),
				}
			}
		}
		s.Fold(recs)
	}
}

// WaveExecutor is the optional wave-capable extension of Executor: an
// executor that runs a whole planned wave at once (the harness driver
// fans the wave's experiments across its worker pool, merging per-
// experiment shards in wave order) while staying byte-identical to
// issuing the same runs through serial Execute calls. Protocol.Run
// prefers it when available: with Next(0) each wave spans a whole
// phase, and the only serialization left is the two decision barriers
// (clustering after phase one, scoring after phase two) where planning
// genuinely needs the folded results.
type WaveExecutor interface {
	ExecuteWave(wave []PlannedRun) ([]RunRecord, graph.Delta)
}
