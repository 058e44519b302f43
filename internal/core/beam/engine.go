package beam

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/core/fca"
	"repro/internal/core/graph"
	"repro/internal/faults"
)

// matcher is the search engine's view of a prebuilt graph: the columnar
// index (dense fault ids and interned state-key id sets, computed once at
// graph insertion), the materialized edges for cycle output, and the
// per-edge scores. Matching costs integer comparisons only -- no state
// key is ever built or hashed during a search.
type matcher struct {
	ix     *graph.Index
	edges  []fca.Edge // materialized once, for cycle output
	scores []float64  // SimScore of the injected fault (From)
	// onQueue, when set, observes every level queue runChains is about
	// to expand (tests compare survivor sets against a reference).
	onQueue func(q *queue)
}

func newMatcher(g *graph.Graph, simScoreOf func(faults.ID) float64) *matcher {
	ix := g.Index()
	m := &matcher{
		ix:     ix,
		edges:  ix.Edges,
		scores: make([]float64, ix.N),
	}
	for i := 0; i < ix.N; i++ {
		m.scores[i] = simScoreOf(ix.FaultOf[ix.From[i]])
	}
	return m
}

// intersects reports whether two sorted interned-key-id sets share an
// element.
func intersects(a, b []int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// matchIdx implements Algorithm 1's match over indexed edges i -> j.
func (m *matcher) matchIdx(i, j int) bool {
	ix := m.ix
	if ix.To[i] != ix.From[j] || ix.ToClass[i] != ix.FromClass[j] {
		return false
	}
	// Connector sequencing per §6.1: an ICFG (child->parent) edge may be
	// followed by a CFG (parent->sibling) edge or by a dynamic edge; two
	// like connectors in a row only walk the static nest without any
	// dynamic evidence.
	if ix.Kind[i] == faults.ICFG && ix.Kind[j] == faults.ICFG {
		return false
	}
	if ix.Kind[i] == faults.CFG && (ix.Kind[j] == faults.CFG || ix.Kind[j] == faults.ICFG) {
		return false
	}
	switch ix.Kind[j] {
	case faults.ED, faults.SD, faults.ICFG, faults.CFG:
		if ix.ToClass[i] != faults.ClassDelay {
			return false
		}
	case faults.EI, faults.SI:
		if ix.ToClass[i] == faults.ClassDelay {
			return false
		}
	}
	// Local compatibility: missing evidence passes; delay faults compare
	// stacks only.
	toS, fromS := ix.ToStack[i], ix.FromStack[j]
	if len(toS) == 0 || len(fromS) == 0 {
		return true
	}
	if ix.ToDelay[i] || ix.FromDelay[j] {
		return intersects(toS, fromS)
	}
	return intersects(ix.ToFull[i], ix.FromFull[j])
}

// chainState is a chain's ranking state: the summed SimScore of its
// injected faults, how many injections it holds, and how many of those
// are distinct delay injections.
type chainState struct {
	score    float64
	injs     int32
	delayInj uint8
}

// mean is the chain's ranking score: the mean SimScore of its injected
// faults (1 for a chain of connectors only).
func (s *chainState) mean() float64 {
	if s.injs == 0 {
		return 1
	}
	return s.score / float64(s.injs)
}

// seedState is the ranking state of the length-1 chain of edge i.
func (m *matcher) seedState(i int) chainState {
	ix := m.ix
	var s chainState
	if !ix.Connector[i] {
		s.injs = 1
		s.score = m.scores[i]
		if ix.FromClass[i] == faults.ClassDelay {
			s.delayInj = 1
		}
	}
	return s
}

// contains reports whether the chain already uses edge j (chains never
// repeat an edge: a repeated edge only re-traverses an already-found
// sub-cycle).
func contains(idx []int, j int) bool {
	for _, k := range idx {
		if k == j {
			return true
		}
	}
	return false
}

// countsDelay reports whether appending edge j to the chain adds a NEW
// distinct delay injection.
func (m *matcher) countsDelay(idx []int, j int) bool {
	ix := m.ix
	if ix.Connector[j] || ix.FromClass[j] != faults.ClassDelay {
		return false
	}
	from := ix.From[j]
	for _, k := range idx {
		if !ix.Connector[k] && ix.From[k] == from {
			return false
		}
	}
	return true
}

// cand is one expansion candidate in compact form (24 bytes): the chain
// at rank parent of the level being expanded, extended by edge, with the
// extended chain's ranking state. No edge-index vector exists for a
// candidate until it survives selection.
type cand struct {
	parent, edge int32
	chainState
}

// candLess is the beam's strict total order: mean score, then the
// chains' lexicographic edge-index order. Every chain of a level has the
// same length and the level's queue is kept in lexicographic order, so
// the lexicographic order of parent.idx+[edge] is exactly the integer
// order of (parent rank, edge).
func candLess(a, b *cand) bool {
	if sa, sb := a.mean(), b.mean(); sa != sb {
		return sa < sb
	}
	if a.parent != b.parent {
		return a.parent < b.parent
	}
	return a.edge < b.edge
}

// candCmp is candLess as a three-way comparison, for the slices sorts.
func candCmp(a, b cand) int {
	switch {
	case candLess(&a, &b):
		return -1
	case candLess(&b, &a):
		return 1
	}
	return 0
}

// byParentEdge orders candidates by (parent, edge): lexicographic order
// of the chains they extend to.
func byParentEdge(a, b cand) int {
	if a.parent != b.parent {
		return cmp.Compare(a.parent, b.parent)
	}
	return cmp.Compare(a.edge, b.edge)
}

// selectBeam partially orders c so that c[:k] holds its k smallest
// candidates under candLess, in no particular order (0 < k < len(c)).
// It is an introselect: median-of-three quickselect, falling back to a
// full sort of the remaining range if partitioning degenerates. The
// order is strict and total, so the selected set is exactly the one a
// full sort would keep, whatever the pivots.
func selectBeam(c []cand, k int) {
	lo, hi := 0, len(c)-1
	for budget := 2 * bits.Len(uint(len(c))); lo < hi; budget-- {
		if budget == 0 {
			slices.SortFunc(c[lo:hi+1], candCmp)
			return
		}
		switch p := partition(c, lo, hi); {
		case p == k:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

// partition places a median-of-three pivot of c[lo..hi] at its final
// position p, with every smaller candidate before it and every larger
// one after, and returns p.
func partition(c []cand, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if candLess(&c[mid], &c[lo]) {
		c[mid], c[lo] = c[lo], c[mid]
	}
	if candLess(&c[hi], &c[lo]) {
		c[hi], c[lo] = c[lo], c[hi]
	}
	if candLess(&c[mid], &c[hi]) {
		c[mid], c[hi] = c[hi], c[mid]
	}
	pivot := c[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if candLess(&c[j], &pivot) {
			c[i], c[j] = c[j], c[i]
			i++
		}
	}
	c[i], c[hi] = c[hi], c[i]
	return i
}

// queue is one level's surviving chains: equal-width edge-index rows in
// one arena, in lexicographic order, with their ranking states.
type queue struct {
	width int
	idx   []int
	state []chainState
}

func (q *queue) len() int { return len(q.state) }

func (q *queue) chain(r int) []int {
	return q.idx[r*q.width : (r+1)*q.width : (r+1)*q.width]
}

// advance materializes the survivors, sorted by (parent, edge), as the
// next level's queue into next, reusing next's arena.
func (q *queue) advance(surv []cand, next *queue) {
	w := q.width + 1
	next.width = w
	next.idx = slices.Grow(next.idx[:0], len(surv)*w)[:len(surv)*w]
	next.state = slices.Grow(next.state[:0], len(surv))[:len(surv)]
	for r := range surv {
		row := next.idx[r*w : (r+1)*w]
		copy(row, q.chain(int(surv[r].parent)))
		row[w-1] = int(surv[r].edge)
		next.state[r] = surv[r].chainState
	}
}

// chainSink receives every cyclic chain the expansion closes, as its
// edge indices starting at the rotation the search grew it from, and its
// mean score. idx is engine scratch, valid only during the call: a sink
// that keeps it must copy it. Sinks may be called concurrently from
// expansion workers and must serialize internally.
type chainSink func(idx []int, mean float64)

// nearSink receives every chain whose newest edge returns to the chain's
// start fault without passing the closing compatibility check: a cycle
// one piece of evidence short of closing. Same scratch and concurrency
// contract as chainSink.
type nearSink func(idx []int)

// expander is runChains' per-search state: the sinks, and the per-worker
// buffers reused across levels.
type expander struct {
	m       *matcher
	opt     Options
	through bool
	near    nearSink
	sink    chainSink
	workers []worker
	merged  []cand
}

// worker is one expansion shard's reusable state: its candidate buffer,
// the number of candidates it generated this level (before its local
// selection), and a scratch row for handing chains to the sinks.
type worker struct {
	cands []cand
	n     int
	row   []int
}

// runChains is the shared chain-expansion core behind the one-shot
// search, the incremental search, and the near-cycle probe: it grows
// chains from the given seed edges, level-synchronous with a beam of
// opt.BeamSize, reporting closed cycles to sink (and almost-closed
// chains to near, when non-nil). A chain that closes leaves the queue --
// extending it would only re-traverse the reported cycle -- except in
// close-through mode (through = true), where closed chains keep
// expanding; the incremental search uses that mode to discover every
// cycle through a delta-touched seed even when the rotation rooted there
// closes early. The returned flag reports whether any level truncated
// the beam -- in which case the enumeration was not exhaustive and
// incremental reuse of its results is unsound.
//
// Each level keeps the opt.BeamSize best candidates under candLess,
// chosen by selectBeam, never by sorting every candidate; survivors are
// then restored to lexicographic order, which candLess relies on at the
// next level. The seeds themselves form the first queue (never
// truncated) and must therefore be strictly ascending, as allSeeds and
// graph.Delta.Edges are.
func (m *matcher) runChains(seeds []int, opt Options, through bool, near nearSink, sink chainSink) bool {
	ix := m.ix
	for k := 1; k < len(seeds); k++ {
		if seeds[k] <= seeds[k-1] {
			panic("beam: runChains seeds not strictly ascending")
		}
	}
	q := &queue{width: 1, idx: make([]int, 0, len(seeds)), state: make([]chainState, 0, len(seeds))}
	for _, i := range seeds {
		s := m.seedState(i)
		if opt.MaxDelayInjections >= 0 && int(s.delayInj) > opt.MaxDelayInjections {
			continue
		}
		q.idx = append(q.idx, i)
		q.state = append(q.state, s)
		if m.matchIdx(i, i) {
			sink(q.chain(q.len()-1), s.mean())
		} else if near != nil && ix.To[i] == ix.From[i] {
			near(q.chain(q.len() - 1))
		}
	}
	x := &expander{m: m, opt: opt, through: through, near: near, sink: sink,
		workers: make([]worker, max(opt.Workers, 1))}
	next := &queue{}
	truncated := false
	for level := 1; level < opt.MaxLen && q.len() > 0; level++ {
		if m.onQueue != nil {
			m.onQueue(q)
		}
		// The last level's survivors would never be expanded: count its
		// candidates for the truncation flag, but select nothing.
		last := level == opt.MaxLen-1
		surv, n := x.expand(q, !last)
		if n > opt.BeamSize {
			truncated = true
		}
		if last {
			break
		}
		slices.SortFunc(surv, byParentEdge)
		q.advance(surv, next)
		q, next = next, q
	}
	return truncated
}

// expand grows every chain of q by one edge across the worker shards
// and returns the candidates plus how many there were. With keep set,
// the result is cut to the opt.BeamSize best (each shard prunes its own
// as it goes, which cannot drop a global survivor); otherwise it is
// empty and only the count matters.
func (x *expander) expand(q *queue, keep bool) ([]cand, int) {
	shards := min(len(x.workers), q.len())
	if shards == 1 {
		w := &x.workers[0]
		x.expandShard(q, 0, 1, w, keep)
		return w.cands, w.n
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			x.expandShard(q, s, shards, &x.workers[s], keep)
		}(s)
	}
	wg.Wait()
	n := 0
	x.merged = x.merged[:0]
	for s := range shards {
		n += x.workers[s].n
		x.merged = append(x.merged, x.workers[s].cands...)
	}
	if keep && len(x.merged) > x.opt.BeamSize {
		selectBeam(x.merged, x.opt.BeamSize)
		x.merged = x.merged[:x.opt.BeamSize]
	}
	return x.merged, n
}

// expandShard expands the queue rows first, first+stride, ... into w.
func (x *expander) expandShard(q *queue, first, stride int, w *worker, keep bool) {
	m, ix, opt := x.m, x.m.ix, x.opt
	w.cands = w.cands[:0]
	w.n = 0
	for r := first; r < q.len(); r += stride {
		c := q.chain(r)
		last := c[len(c)-1]
		for _, j32 := range ix.ByFrom[ix.To[last]] {
			j := int(j32)
			if contains(c, j) || !m.matchIdx(last, j) {
				continue
			}
			s := q.state[r]
			if m.countsDelay(c, j) {
				s.delayInj++
			}
			if opt.MaxDelayInjections >= 0 && int(s.delayInj) > opt.MaxDelayInjections {
				continue
			}
			if !ix.Connector[j] {
				s.injs++
				s.score += m.scores[j]
			}
			closes := m.matchIdx(j, c[0])
			if closes || (x.near != nil && ix.To[j] == ix.From[c[0]]) {
				w.row = append(append(w.row[:0], c...), j)
				if closes {
					x.sink(w.row, s.mean())
				} else {
					x.near(w.row)
				}
			}
			if closes && !x.through {
				continue
			}
			w.n++
			if !keep {
				continue
			}
			if len(w.cands) == 4*opt.BeamSize {
				w.prune(opt.BeamSize)
			}
			w.cands = append(w.cands, cand{parent: int32(r), edge: j32, chainState: s})
		}
	}
	w.prune(opt.BeamSize)
}

// prune cuts the worker's candidates to the beamSize best. A candidate
// pruned from any subset of a level's candidates has beamSize better ones
// in that subset, so it cannot be a survivor of the whole level: pruning
// whenever the buffer reaches four times the beam keeps each worker's
// memory bounded by the beam, not by the level's candidate count, at
// amortized constant selection work per candidate.
func (w *worker) prune(beamSize int) {
	if len(w.cands) > beamSize {
		selectBeam(w.cands, beamSize)
		w.cands = w.cands[:beamSize]
	}
}

// bestEntry caches the winning candidate per signature: the cycle
// normalized to its canonical edge-index rotation, plus that rotation
// for cheap integer comparisons.
type bestEntry struct {
	cy  Cycle
	idx []int
}

// mergeBest merges one canonical candidate into the per-signature winners
// with a deterministic preference (lowest score, then smallest canonical
// edge-index rotation): distinct chains can share a signature, and
// first-arrival dedup would let goroutine scheduling pick the surviving
// representative -- the search must be a pure function of its input.
// Comparing index rotations instead of rendered edge keys keeps the
// duplicate-arrival path (every rotation of every cycle) free of string
// building, and the Cycle itself (the edge slice) and a copy of can (which
// may be engine scratch) are made only when the candidate actually wins
// its dedup slot.
func (m *matcher) mergeBest(best map[string]*bestEntry, can []int, score float64) {
	m.mergeBestSig(best, m.signatureOf(can), can, score)
}

// mergeBestSig is mergeBest with a precomputed signature (the
// incremental fold caches signatures per stored chain, so re-ranking a
// round builds no strings for unchanged chains).
func (m *matcher) mergeBestSig(best map[string]*bestEntry, sig string, can []int, score float64) {
	if e, ok := best[sig]; !ok || score < e.cy.Score ||
		(score == e.cy.Score && lessIdx(can, e.idx)) {
		cy := Cycle{Edges: make([]fca.Edge, len(can)), Score: score}
		for i, k := range can {
			cy.Edges[i] = m.edges[k]
		}
		best[sig] = &bestEntry{cy: cy, idx: slices.Clone(can)}
	}
}

// orderBest renders the final cycle list sorted by (score, signature),
// using the signatures already computed as dedup keys -- never inside the
// comparator.
func orderBest(best map[string]*bestEntry) []Cycle {
	type sigCycle struct {
		sig string
		cy  Cycle
	}
	ordered := make([]sigCycle, 0, len(best))
	for sig, e := range best {
		ordered = append(ordered, sigCycle{sig: sig, cy: e.cy})
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].cy.Score != ordered[j].cy.Score {
			return ordered[i].cy.Score < ordered[j].cy.Score
		}
		return ordered[i].sig < ordered[j].sig
	})
	cycles := make([]Cycle, len(ordered))
	for i, sc := range ordered {
		cycles[i] = sc.cy
	}
	return cycles
}

// searchFast is the optimized parallel beam search engine behind Search
// and SearchGraph.
func searchFast(g *graph.Graph, simScoreOf func(faults.ID) float64, opt Options) []Cycle {
	m := newMatcher(g, simScoreOf)
	var (
		mu   sync.Mutex
		best = map[string]*bestEntry{}
	)
	sink := func(idx []int, score float64) {
		can := canonicalRotation(idx)
		if m.oneNestFamilyIdx(can, opt.NestGroups) {
			return
		}
		mu.Lock()
		m.mergeBest(best, can, score)
		mu.Unlock()
	}
	m.runChains(allSeeds(m.ix.N), opt, false, nil, sink)
	return orderBest(best)
}

func allSeeds(n int) []int {
	seeds := make([]int, n)
	for i := range seeds {
		seeds[i] = i
	}
	return seeds
}

// rotationArrives reports whether the one-shot expansion, seeded at
// rotation r of the cyclic chain, reaches full length: no proper prefix
// of length >= 2 may close early, because closed chains leave the queue.
// (A self-closing single seed edge stays queued, so length-1 prefixes
// never block.)
func (m *matcher) rotationArrives(can []int, r int) bool {
	n := len(can)
	first := can[r%n]
	for k := 2; k < n; k++ {
		if m.matchIdx(can[(r+k-1)%n], first) {
			return false
		}
	}
	return true
}

// arrivingRotations lists the rotations of a cyclic chain the one-shot
// search enumerates (rotationArrives), as offsets into can. An empty
// result means the chain is never reported. Arrival depends only on
// matchIdx among the chain's own edges, so the incremental searcher
// caches the result per stored chain and recomputes it only when a
// delta touches one of those edges.
func (m *matcher) arrivingRotations(can []int) []int {
	var rots []int
	for r := range can {
		if m.rotationArrives(can, r) {
			rots = append(rots, r)
		}
	}
	return rots
}

// chainScoreAt computes the dedup score of a stored cyclic chain: the
// minimum over its arriving rotations of the rotation-order float
// accumulation. The one-shot search accumulates a chain's score in
// discovery order (the rotation it grew from) and keeps the
// per-signature minimum across the rotations that actually arrive;
// replaying that minimum keeps incremental folds bit-identical to a full
// re-search even when float summation order matters in the last ulp.
func (m *matcher) chainScoreAt(can []int, rots []int) float64 {
	ix := m.ix
	injs := 0
	for _, k := range can {
		if !ix.Connector[k] {
			injs++
		}
	}
	if injs == 0 {
		return 1
	}
	best := 0.0
	seen := false
	for _, r := range rots {
		sum := 0.0
		for i := 0; i < len(can); i++ {
			if k := can[(r+i)%len(can)]; !ix.Connector[k] {
				sum += m.scores[k]
			}
		}
		if v := sum / float64(injs); !seen || v < best {
			best = v
			seen = true
		}
	}
	return best
}

// validCycle re-checks a stored cyclic chain against the current graph
// evidence: every cyclic-consecutive pair must still match, and the
// distinct-delay-injection limit must still hold. Evidence merges can
// flip a match in either direction (an empty evidence set passes by
// default; its first occurrence may fail to intersect), so chains through
// evidence-touched edges must be revalidated each round.
func (m *matcher) validCycle(can []int, opt Options) bool {
	ix := m.ix
	n := len(can)
	for i := 0; i < n; i++ {
		if !m.matchIdx(can[i], can[(i+1)%n]) {
			return false
		}
	}
	if opt.MaxDelayInjections >= 0 {
		delays := 0
		for i, k := range can {
			if ix.Connector[k] || ix.FromClass[k] != faults.ClassDelay {
				continue
			}
			fresh := true
			for _, p := range can[:i] {
				if !ix.Connector[p] && ix.From[p] == ix.From[k] {
					fresh = false
					break
				}
			}
			if fresh {
				delays++
			}
		}
		if delays > opt.MaxDelayInjections {
			return false
		}
	}
	return true
}

// canonicalRotation returns the lexicographically-smallest rotation of a
// chain's edge-index sequence: every rotation of a cycle normalizes to
// the same representative, and the order is total over distinct edge
// sequences (indices are unique within a chain). Already-canonical
// chains are returned as-is, so the result may alias idx.
func canonicalRotation(idx []int) []int {
	bestR := 0
	for r := 1; r < len(idx); r++ {
		for i := 0; i < len(idx); i++ {
			a, b := idx[(r+i)%len(idx)], idx[(bestR+i)%len(idx)]
			if a != b {
				if a < b {
					bestR = r
				}
				break
			}
		}
	}
	if bestR == 0 {
		return idx
	}
	out := make([]int, len(idx))
	for i := range idx {
		out[i] = idx[(bestR+i)%len(idx)]
	}
	return out
}

// signatureOf renders the rotation-invariant signature of a canonical
// edge-index rotation without materializing the Cycle. It matches
// Cycle.Signature exactly (Signature is rotation-invariant, so feeding
// the canonical rotation yields the same string).
func (m *matcher) signatureOf(can []int) string {
	parts := make([]string, len(can))
	for i, k := range can {
		e := &m.edges[k]
		parts[i] = string(e.From) + "-" + e.Kind.String() + "-" + e.Test
	}
	return minRotation(parts)
}

// oneNestFamilyIdx is oneNestFamily over edge indices (no Cycle needed).
func (m *matcher) oneNestFamilyIdx(can []int, groups map[faults.ID]int) bool {
	if len(groups) == 0 {
		return false
	}
	ix := m.ix
	family := -1
	for _, k := range can {
		for _, f := range [2]faults.ID{ix.FaultOf[ix.From[k]], ix.FaultOf[ix.To[k]]} {
			g, ok := groups[f]
			if !ok {
				return false // a fault outside any nest: real cycle
			}
			if family == -1 {
				family = g
			} else if family != g {
				return false
			}
		}
	}
	return family != -1
}

// oneNestFamily reports whether every fault touched by the cycle belongs
// to a single loop-nest family: such "cycles" merely restate that a nested
// loop shares fate with its parent.
func oneNestFamily(cy Cycle, groups map[faults.ID]int) bool {
	if len(groups) == 0 {
		return false
	}
	family := -1
	for _, e := range cy.Edges {
		for _, f := range []faults.ID{e.From, e.To} {
			g, ok := groups[f]
			if !ok {
				return false // a fault outside any nest: real cycle
			}
			if family == -1 {
				family = g
			} else if family != g {
				return false
			}
		}
	}
	return family != -1
}

func lessIdx(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
