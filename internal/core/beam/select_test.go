package beam

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/core/compat"
	"repro/internal/core/fca"
	"repro/internal/core/graph"
	"repro/internal/faults"
	"repro/internal/trace"
)

// refChain and refRunChains are the sort-based level loop the bounded
// selection replaced, kept as the reference it must match: every
// candidate is built as its own index vector, the whole level is sorted
// by (mean score, lexicographic idx), and the sorted list is cut to the
// beam.
type refChain struct {
	idx []int
	chainState
}

func refRunChains(m *matcher, seeds []int, opt Options, through bool, near nearSink, sink chainSink, onQueue func([]refChain)) bool {
	ix := m.ix
	truncated := false
	var queue []refChain
	for _, i := range seeds {
		c := refChain{idx: []int{i}, chainState: m.seedState(i)}
		if opt.MaxDelayInjections >= 0 && int(c.delayInj) > opt.MaxDelayInjections {
			continue
		}
		if m.matchIdx(i, i) {
			sink(c.idx, c.mean())
		} else if near != nil && ix.To[i] == ix.From[i] {
			near(c.idx)
		}
		queue = append(queue, c)
	}
	for level := 1; level < opt.MaxLen && len(queue) > 0; level++ {
		onQueue(queue)
		var next []refChain
		for qi := range queue {
			c := &queue[qi]
			last := c.idx[len(c.idx)-1]
			for _, j32 := range ix.ByFrom[ix.To[last]] {
				j := int(j32)
				if contains(c.idx, j) || !m.matchIdx(last, j) {
					continue
				}
				nc := refChain{idx: append(slices.Clone(c.idx), j), chainState: c.chainState}
				if m.countsDelay(c.idx, j) {
					nc.delayInj++
				}
				if opt.MaxDelayInjections >= 0 && int(nc.delayInj) > opt.MaxDelayInjections {
					continue
				}
				if !ix.Connector[j] {
					nc.injs++
					nc.score += m.scores[j]
				}
				if m.matchIdx(j, nc.idx[0]) {
					sink(nc.idx, nc.mean())
					if through {
						next = append(next, nc)
					}
				} else {
					if near != nil && ix.To[j] == ix.From[nc.idx[0]] {
						near(nc.idx)
					}
					next = append(next, nc)
				}
			}
		}
		sort.Slice(next, func(a, b int) bool {
			sa, sb := next[a].mean(), next[b].mean()
			if sa != sb {
				return sa < sb
			}
			return lessIdx(next[a].idx, next[b].idx)
		})
		if len(next) > opt.BeamSize {
			truncated = true
			next = next[:opt.BeamSize]
		}
		queue = next
	}
	return truncated
}

// mixedClassEdges generates dynamic edges over six faults, three delay
// and three exception, with overlapping stacks: chains close often, the
// delay-injection cap bites, and levels outgrow small beams quickly.
func mixedClassEdges(rng *rand.Rand, n int) []fca.Edge {
	class := func(f int) faults.FaultClass {
		if f < 3 {
			return faults.ClassDelay
		}
		return faults.ClassException
	}
	state := func(f int) compat.State {
		return compat.State{
			Occ:        []trace.Occurrence{{Stack: []string{fmt.Sprintf("fn%d", rng.Intn(3))}}},
			DelayFault: class(f) == faults.ClassDelay,
		}
	}
	out := make([]fca.Edge, 0, n)
	for i := 0; i < n; i++ {
		from, to := rng.Intn(6), rng.Intn(6)
		kind := []faults.EdgeKind{faults.EI, faults.SI}[rng.Intn(2)]
		if class(from) == faults.ClassDelay {
			kind = []faults.EdgeKind{faults.ED, faults.SD}[rng.Intn(2)]
		}
		out = append(out, fca.Edge{
			From: faults.ID(fmt.Sprintf("f.%d", from)), To: faults.ID(fmt.Sprintf("f.%d", to)),
			Kind: kind, Test: fmt.Sprintf("t%d", rng.Intn(3)),
			FromClass: class(from), ToClass: class(to),
			FromState: state(from), ToState: state(to),
		})
	}
	return out
}

// recorder collects sink and near calls as sorted multisets of rendered
// chains.
type recorder struct {
	mu         sync.Mutex
	sunk, near []string
}

func (r *recorder) sink(idx []int, mean float64) {
	r.mu.Lock()
	r.sunk = append(r.sunk, fmt.Sprint(idx, mean))
	r.mu.Unlock()
}

func (r *recorder) nearSink(idx []int) {
	r.mu.Lock()
	r.near = append(r.near, fmt.Sprint(idx))
	r.mu.Unlock()
}

func (r *recorder) sorted() ([]string, []string) {
	slices.Sort(r.sunk)
	slices.Sort(r.near)
	return r.sunk, r.near
}

func renderQueue(rows [][]int, states []chainState) []string {
	out := make([]string, len(rows))
	for i := range rows {
		out[i] = fmt.Sprint(rows[i], states[i])
	}
	return out
}

// compareWithReference runs the bounded level loop and the reference
// on the same input and fails unless, per expanded level, the survivor
// set (with ranking state) is the one a full sort keeps, and the
// multisets of closed and near chains handed to the sinks, plus the
// truncation flag, are identical. It returns the reference's flag and
// level queues.
func compareWithReference(t *testing.T, tag string, m *matcher, seeds []int, opt Options, through bool) (bool, [][]string) {
	t.Helper()
	var ref recorder
	var refLevels [][]string
	refTrunc := refRunChains(m, seeds, opt, through, ref.nearSink, ref.sink, func(q []refChain) {
		rows := make([][]int, len(q))
		states := make([]chainState, len(q))
		for i := range q {
			rows[i], states[i] = q[i].idx, q[i].chainState
		}
		lvl := renderQueue(rows, states)
		slices.Sort(lvl)
		refLevels = append(refLevels, lvl)
	})

	var got recorder
	var gotLevels [][]string
	m.onQueue = func(q *queue) {
		rows := make([][]int, q.len())
		for r := range rows {
			rows[r] = slices.Clone(q.chain(r))
			if r > 0 && !lessIdx(rows[r-1], rows[r]) {
				t.Fatalf("%s: queue not strictly lexicographic at row %d: %v, %v", tag, r, rows[r-1], rows[r])
			}
		}
		lvl := renderQueue(rows, q.state)
		slices.Sort(lvl)
		gotLevels = append(gotLevels, lvl)
	}
	gotTrunc := m.runChains(seeds, opt, through, got.nearSink, got.sink)
	m.onQueue = nil

	if gotTrunc != refTrunc {
		t.Fatalf("%s: truncated = %v, reference %v", tag, gotTrunc, refTrunc)
	}
	if !slices.EqualFunc(gotLevels, refLevels, slices.Equal[[]string]) {
		t.Fatalf("%s: level survivors diverge:\n got %v\nwant %v", tag, gotLevels, refLevels)
	}
	gs, gn := got.sorted()
	rs, rn := ref.sorted()
	if !slices.Equal(gs, rs) {
		t.Fatalf("%s: sink calls diverge: %d vs reference %d", tag, len(gs), len(rs))
	}
	if !slices.Equal(gn, rn) {
		t.Fatalf("%s: near calls diverge: %d vs reference %d", tag, len(gn), len(rn))
	}
	return refTrunc, refLevels
}

// TestBoundedSelectionMatchesFullSort pins the bounded level loop to the
// sort-based one it replaced (compareWithReference) on random graphs
// whose levels outgrow the beam: in one-shot and close-through mode,
// over full and partial seed sets, with one worker and with several.
// Beams of exactly a level's candidate count, and one less, check the
// truncation boundary.
func TestBoundedSelectionMatchesFullSort(t *testing.T) {
	truncations := 0
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.FromEdges(mixedClassEdges(rng, 30+rng.Intn(30)))
		scores := []float64{0.25, 0.5, 0.5, 1}
		m := newMatcher(g, func(f faults.ID) float64 { return scores[len(f)%len(scores)] })
		if seed%2 == 1 {
			// Distinct per-edge scores: ties are then rare, so the score
			// order (not only the idx tie-break) decides survivors.
			for i := range m.scores {
				m.scores[i] = rng.Float64()
			}
		}
		var partial []int
		for i := 0; i < m.ix.N; i++ {
			if rng.Intn(3) == 0 {
				partial = append(partial, i)
			}
		}
		for _, beamSize := range []int{1, 2, 3, 7, 50} {
			for _, through := range []bool{false, true} {
				for _, workers := range []int{1, 3} {
					seeds := allSeeds(m.ix.N)
					if through {
						seeds = partial
					}
					opt := Options{BeamSize: beamSize, MaxLen: 6, Workers: workers, MaxDelayInjections: int(seed % 3)}
					opt.defaults()
					tag := fmt.Sprintf("seed %d beam %d through %v workers %d", seed, beamSize, through, workers)
					if trunc, _ := compareWithReference(t, tag, m, seeds, opt, through); trunc {
						truncations++
					}
				}
			}
		}

		// The level-1 candidate count, from an untruncated reference run.
		opt := Options{BeamSize: 1 << 30, MaxLen: 3}
		opt.defaults()
		_, levels := compareWithReference(t, fmt.Sprintf("seed %d wide", seed), m, allSeeds(m.ix.N), opt, false)
		if len(levels) < 2 {
			continue
		}
		c1 := len(levels[1])
		for _, beamSize := range []int{c1 - 1, c1} {
			for _, maxLen := range []int{2, 3} {
				opt := Options{BeamSize: beamSize, MaxLen: maxLen, Workers: 2}
				opt.defaults()
				tag := fmt.Sprintf("seed %d beam %d of %d maxlen %d", seed, beamSize, c1, maxLen)
				// With one expanded level, level 1 alone decides the flag.
				if trunc, _ := compareWithReference(t, tag, m, allSeeds(m.ix.N), opt, false); maxLen == 2 && trunc != (beamSize < c1) {
					t.Fatalf("%s: truncated = %v", tag, trunc)
				}
			}
		}
	}
	if truncations < 100 {
		t.Fatalf("only %d runs truncated: the graphs no longer exercise selection", truncations)
	}
}

// TestSelectBeamKeepsSmallest checks the introselect directly, on
// candidates with heavy score ties (so the (parent, edge) tie-break
// decides) and on already-sorted and reversed inputs.
func TestSelectBeamKeepsSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(300)
		c := make([]cand, n)
		for i := range c {
			c[i] = cand{parent: int32(rng.Intn(20)), edge: int32(i), chainState: chainState{score: float64(rng.Intn(4)), injs: 1}}
		}
		switch trial % 3 {
		case 1:
			slices.SortFunc(c, candCmp)
		case 2:
			slices.SortFunc(c, func(a, b cand) int { return candCmp(b, a) })
		}
		want := slices.Clone(c)
		slices.SortFunc(want, candCmp)
		k := 1 + rng.Intn(n-1)
		selectBeam(c, k)
		got := slices.Clone(c[:k])
		slices.SortFunc(got, candCmp)
		if !slices.Equal(got, want[:k]) {
			t.Fatalf("trial %d: selectBeam(n=%d, k=%d) kept the wrong set", trial, n, k)
		}
	}
}

// TestRunChainsSeedsAscending pins the precondition the integer order
// rests on: the level-0 queue is the seed list itself, so seeds must be
// strictly ascending. Both production seed sources are, and runChains
// refuses anything else.
func TestRunChainsSeedsAscending(t *testing.T) {
	ascending := func(s []int) bool {
		for k := 1; k < len(s); k++ {
			if s[k] <= s[k-1] {
				return false
			}
		}
		return true
	}
	if s := allSeeds(50); !ascending(s) {
		t.Fatalf("allSeeds not strictly ascending: %v", s)
	}
	rng := rand.New(rand.NewSource(4))
	stream := mixedClassEdges(rng, 120)
	g := graph.New()
	seq := 0
	for len(stream) > 0 {
		n := min(1+rng.Intn(25), len(stream))
		g.AddAll(stream[:n])
		stream = stream[n:]
		if d := g.DeltaSince(seq); !ascending(d.Edges) {
			t.Fatalf("Delta.Edges not strictly ascending: %v", d.Edges)
		}
		seq = g.RawLen()
	}

	m := newMatcher(g, func(faults.ID) float64 { return 1 })
	opt := Options{}
	opt.defaults()
	for _, seeds := range [][]int{{3, 1}, {2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("runChains accepted seeds %v", seeds)
				}
			}()
			m.runChains(seeds, opt, true, nil, func([]int, float64) {})
		}()
	}
}
