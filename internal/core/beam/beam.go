// Package beam implements CSnake's parallel beam search for
// self-sustaining cascading failures (§6.3, Algorithm 1) and the reported
// cycle clustering.
//
// Starting from all discovered causal edges as length-1 propagation
// chains, each search level appends every matching edge to every active
// chain, keeping the best B chains ranked by the mean intra-cluster
// interference similarity score of the injected faults involved (lower is
// better: such chains involve conditional error-handling logic). A chain
// whose last edge matches its first edge is a cycle: a fault that causes
// itself through a chain of compatible causal relationships.
package beam

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/core/fca"
	"repro/internal/core/graph"
	"repro/internal/faults"
)

// Options tunes the search.
type Options struct {
	// BeamSize is the number of active chains kept per level (paper: 5M;
	// default here 100k). The default is not exhaustive at simulator
	// scale: every light campaign truncates from level 3 on.
	BeamSize int
	// MaxLen caps chain length as a safety valve (default 8).
	MaxLen int
	// MaxDelayInjections bounds the number of distinct delay injections
	// per cycle; Table 4's parenthesised variant uses 1. Zero or negative
	// means unlimited (the zero value is the paper's default search).
	MaxDelayInjections int
	// Workers sets the parallel expansion width (default GOMAXPROCS).
	Workers int
	// NestGroups maps loop faults to their loop-nest family. Cycles whose
	// faults all live inside one nest family are structural artifacts
	// (a child loop trivially "delays" its own parent) and are dropped.
	NestGroups map[faults.ID]int
}

func (o *Options) defaults() {
	if o.BeamSize == 0 {
		o.BeamSize = 100_000
	}
	if o.MaxLen == 0 {
		o.MaxLen = 8
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxDelayInjections <= 0 {
		o.MaxDelayInjections = -1
	}
}

// Cycle is one reported self-sustaining cascading failure.
type Cycle struct {
	Edges []fca.Edge
	// Score is the chain ranking score: mean SimScore of the injected
	// faults' clusters (lower = more conditional behaviour involved).
	Score float64
}

// Faults returns the distinct injected faults (edge sources of
// dynamically-discovered edges) in cycle order.
func (c Cycle) Faults() []faults.ID {
	var out []faults.ID
	seen := make(map[faults.ID]bool)
	for _, e := range c.Edges {
		if e.Kind.Static() {
			continue // static connectors are not injections
		}
		if !seen[e.From] {
			seen[e.From] = true
			out = append(out, e.From)
		}
	}
	return out
}

// Composition counts the injected faults by class: the Table 3 "Cycle"
// column (xD | yE | zN).
func (c Cycle) Composition() (delays, exceptions, negations int) {
	seen := make(map[faults.ID]bool)
	for _, e := range c.Edges {
		if e.Kind.Static() || seen[e.From] {
			continue
		}
		seen[e.From] = true
		switch e.FromClass {
		case faults.ClassDelay:
			delays++
		case faults.ClassNegation:
			negations++
		default:
			exceptions++
		}
	}
	return
}

// String renders the cycle as f1 -kind-> f2 -kind-> ... -> f1.
func (c Cycle) String() string {
	var b strings.Builder
	for i, e := range c.Edges {
		if i == 0 {
			fmt.Fprintf(&b, "%s", e.From)
		}
		fmt.Fprintf(&b, " -%v-> %s", e.Kind, e.To)
	}
	return b.String()
}

// Signature returns a rotation-invariant identity so the same cycle found
// from different starting edges deduplicates.
func (c Cycle) Signature() string {
	// Plain concatenation: this runs once per candidate chain inside the
	// search hot path, where fmt's reflection is measurable.
	parts := make([]string, len(c.Edges))
	for i, e := range c.Edges {
		parts[i] = string(e.From) + "-" + e.Kind.String() + "-" + e.Test
	}
	return minRotation(parts)
}

func minRotation(parts []string) string {
	n := len(parts)
	if n == 0 {
		return ""
	}
	// Select the minimal rotation by lazy byte-wise comparison, then
	// materialise only the winner: the naive build-every-rotation version
	// was the single largest allocator in small-space campaigns.
	best := 0
	for r := 1; r < n; r++ {
		if rotationLess(parts, r, best) {
			best = r
		}
	}
	total := 0
	for _, p := range parts {
		total += len(p) + 1
	}
	var b strings.Builder
	b.Grow(total)
	for i := 0; i < n; i++ {
		b.WriteString(parts[(best+i)%n])
		b.WriteByte('|')
	}
	return b.String()
}

// rotationLess reports whether rotation a of parts (each part virtually
// suffixed with '|') concatenates to a strictly smaller string than
// rotation b, without building either string.
func rotationLess(parts []string, a, b int) bool {
	n := len(parts)
	vbyte := func(i, o int) byte {
		if p := parts[i]; o < len(p) {
			return p[o]
		}
		return '|'
	}
	ai, ao := 0, 0 // rotation-relative part index and byte offset
	bi, bo := 0, 0
	for ai < n {
		ia, ib := (a+ai)%n, (b+bi)%n
		ca, cb := vbyte(ia, ao), vbyte(ib, bo)
		if ca != cb {
			return ca < cb
		}
		if ao++; ao == len(parts[ia])+1 {
			ao, ai = 0, ai+1
		}
		if bo++; bo == len(parts[ib])+1 {
			bo, bi = 0, bi+1
		}
	}
	return false // identical
}

// Search runs the parallel beam search over a flat causal edge slice: a
// convenience wrapper that interns the edges into a graph.Graph (merging
// duplicate edges by construction) and delegates to SearchGraph.
// simScoreOf maps an injected fault to its cluster's SimScore (§5.2); nil
// means a constant score.
func Search(edges []fca.Edge, simScoreOf func(faults.ID) float64, opt Options) []Cycle {
	if len(edges) == 0 {
		return nil
	}
	return SearchGraph(graph.FromEdges(edges), simScoreOf, opt)
}

// SearchGraph runs the parallel beam search over a prebuilt interned
// causal graph: the fast path. The graph's columnar index carries dense
// fault ids and the interned state-key id sets computed once at edge
// insertion, so Algorithm 1's match() costs a sorted integer-set
// intersection and a search builds zero state-key strings. Chains are
// index vectors that never repeat an edge (a repeated edge only
// re-traverses an already-reported sub-cycle).
//
// A nil simScoreOf falls back to the graph's SimScore annotations (or the
// constant 1 when none were recorded), and an unset opt.NestGroups falls
// back to the graph's persisted loop-nest families -- a graph reloaded
// from disk re-searches exactly like the originating campaign.
func SearchGraph(g *graph.Graph, simScoreOf func(faults.ID) float64, opt Options) []Cycle {
	opt.defaults()
	if simScoreOf == nil {
		simScoreOf = g.ScoreFunc()
	}
	if opt.NestGroups == nil {
		opt.NestGroups = g.NestGroups()
	}
	return searchFast(g, simScoreOf, opt)
}

// CycleCluster groups equivalent reported cycles: cycles whose injected
// faults come from the same causally-equivalent fault clusters are likely
// the same bug (§6.3 "Clustering Reported Cycles").
type CycleCluster struct {
	// Key is the sorted multiset of fault-cluster indices.
	Key string
	// Cycles are the member cycles, best score first.
	Cycles []Cycle
}

// ClusterCycles groups cycles by the fault clusters involved. clusterOf
// maps a fault to its cluster index; faults never clustered map to -1 and
// are distinguished by their own id.
func ClusterCycles(cycles []Cycle, clusterOf func(faults.ID) (int, bool)) []CycleCluster {
	// Decorate each cycle with its signature once: recomputing it inside
	// the sort comparator (O(n log n) times) used to dominate the whole
	// campaign's allocation profile.
	type sigged struct {
		cy  Cycle
		sig string
	}
	byKey := make(map[string][]sigged)
	for _, cy := range cycles {
		var parts []string
		for _, f := range cy.Faults() {
			if gi, ok := clusterOf(f); ok {
				parts = append(parts, fmt.Sprintf("g%d", gi))
			} else {
				parts = append(parts, string(f))
			}
		}
		sort.Strings(parts)
		key := strings.Join(parts, ",")
		byKey[key] = append(byKey[key], sigged{cy: cy, sig: cy.Signature()})
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]CycleCluster, 0, len(keys))
	for _, k := range keys {
		cs := byKey[k]
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].cy.Score != cs[j].cy.Score {
				return cs[i].cy.Score < cs[j].cy.Score
			}
			return cs[i].sig < cs[j].sig
		})
		members := make([]Cycle, len(cs))
		for i, s := range cs {
			members[i] = s.cy
		}
		out = append(out, CycleCluster{Key: k, Cycles: members})
	}
	return out
}
