// Package graph is the interned causal-graph core of the detector: the
// first-class, indexed, serializable form of the causal edge set that the
// whole pipeline (harness accumulation, beam search, report tables,
// cross-campaign stitching) operates on.
//
// A Graph interns fault ids, workload (test) names, and occurrence state
// keys -- the sorted stack-only and stack+branch keys the compatibility
// check compares -- into dense integer ids exactly once, at insertion.
// Edges are deduplicated by construction: adding an edge whose identity
// (From, To, Kind, Test) is already present merges its occurrence
// evidence into the existing record (capped at trace.OccCap), mirroring
// the legacy batch fca.Dedup semantics. Every dynamic insertion carries a
// raw sequence number and Mark records experiment boundaries, so Prefix
// produces cheap snapshots equivalent to re-deduplicating a raw-stream
// prefix -- without copying or re-keying the raw stream.
//
// Graphs round-trip to JSON (including per-fault SimScores and loop-nest
// families, so a persisted graph is re-searchable in isolation) and Merge
// stitches graphs from multiple campaigns or systems into one.
package graph

import (
	"sort"
	"strings"

	"repro/internal/core/compat"
	"repro/internal/core/fca"
	"repro/internal/faults"
	"repro/internal/trace"
)

// edgeKey is the interned identity of an edge: the dense equivalent of
// the legacy fca.Edge.Key() string.
type edgeKey struct {
	from, to int32
	kind     faults.EdgeKind
	test     int32
}

// occEntry is one piece of occurrence evidence attached to an edge
// endpoint, tagged with the raw insertion sequence that contributed it so
// prefix snapshots can filter evidence without replaying the raw stream.
type occEntry struct {
	seq      int
	occ      trace.Occurrence
	stackKey int32
	fullKey  int32
}

// edgeRec is the interned edge record.
type edgeRec struct {
	from, to  int32
	kind      faults.EdgeKind
	fromClass faults.FaultClass
	toClass   faults.FaultClass
	test      int32
	fromDelay bool
	toDelay   bool
	firstSeq  int // raw sequence of the first insertion (-1 for static)
	// lastSeq is the raw sequence of the last insertion that actually
	// extended this record's evidence (== firstSeq until a merge grows an
	// occ list). Deltas and incremental index refreshes use it to decide
	// which records a window of insertions touched; merges rejected by the
	// evidence cap do not advance it, because they cannot change any
	// derived state (key sets, materialized edges, match outcomes).
	lastSeq int
	fromOcc []occEntry
	toOcc   []occEntry
}

// Graph is the interned causal-edge store. The zero value is not usable;
// construct with New or FromEdges. A Graph is not safe for concurrent
// mutation; callers (the harness driver) serialize Add/Mark externally.
// Snapshots returned by Prefix/Snapshot are sealed: they reject further
// mutation but may be read, annotated, indexed, and serialized freely,
// concurrently with continued growth of their parent.
type Graph struct {
	// interning tables. Sealed snapshots capture the slice headers (the
	// parent only ever appends, so shared backing stays valid) and copy
	// the small fault lookup map; they drop the key/test lookup maps.
	faultIDs []faults.ID
	faultIdx map[faults.ID]int32
	keys     []string
	keyIdx   map[string]int32
	tests    []string
	testIdx  map[string]int32

	dyn    []edgeRec         // dynamic edges, first-discovery order
	static []edgeRec         // static ICFG/CFG edges, ordered after every dynamic edge
	byKey  map[edgeKey]int32 // +1 offset into dyn, or -(i+1) into static; nil once sealed

	marks []int // raw-sequence boundary after each experiment (Mark call)
	seq   int   // raw dynamic insertions so far

	system    string
	scores    map[int32]float64
	nestGroup map[int32]int

	sealed bool
	// Cached search index plus the watermarks it was built at. Dynamic
	// staleness is measured by raw sequence (ixSeq vs seq): a stale index
	// is refreshed in place of a full rebuild by reusing every entry whose
	// record the window did not touch. staticGen counts static-section
	// changes (appends or evidence growth), which are rare and force a
	// full rebuild.
	ix        *Index
	ixSeq     int
	ixStatics int
	staticGen int
}

// New returns an empty mutable graph.
func New() *Graph {
	return &Graph{
		faultIdx: make(map[faults.ID]int32),
		keyIdx:   make(map[string]int32),
		testIdx:  make(map[string]int32),
		byKey:    make(map[edgeKey]int32),
	}
}

// FromEdges builds a graph from a flat edge slice, interning and
// deduplicating in one pass. Static ICFG/CFG edges are routed to the
// static section so ordering matches a driver-accumulated graph.
func FromEdges(edges []fca.Edge) *Graph {
	g := New()
	g.AddAll(edges)
	return g
}

// SetSystem records the originating system name (persisted).
func (g *Graph) SetSystem(name string) { g.system = name }

// System returns the recorded system name ("" when unset; merged graphs
// join the distinct names with "+").
func (g *Graph) System() string { return g.system }

// mutable panics when the graph is a sealed snapshot.
func (g *Graph) mutable(op string) {
	if g.sealed {
		panic("graph: " + op + " on sealed snapshot")
	}
}

func (g *Graph) internFault(id faults.ID) int32 {
	if i, ok := g.faultIdx[id]; ok {
		return i
	}
	i := int32(len(g.faultIDs))
	g.faultIDs = append(g.faultIDs, id)
	g.faultIdx[id] = i
	return i
}

func (g *Graph) internKey(k string) int32 {
	if i, ok := g.keyIdx[k]; ok {
		return i
	}
	i := int32(len(g.keys))
	g.keys = append(g.keys, k)
	g.keyIdx[k] = i
	return i
}

func (g *Graph) internTest(t string) int32 {
	if i, ok := g.testIdx[t]; ok {
		return i
	}
	i := int32(len(g.tests))
	g.tests = append(g.tests, t)
	g.testIdx[t] = i
	return i
}

// occKeys canonicalises one occurrence into its stack-only and
// stack+branch key strings -- computed exactly once, at insertion.
func occKeys(o trace.Occurrence) (stack, full string) {
	stack = strings.Join(o.Stack, ">")
	var b strings.Builder
	b.Grow(len(stack) + 1 + 8*len(o.Branches))
	b.WriteString(stack)
	b.WriteByte('|')
	for _, be := range o.Branches {
		b.WriteString(be.ID)
		if be.Taken {
			b.WriteString("=T;")
		} else {
			b.WriteString("=F;")
		}
	}
	return stack, b.String()
}

func (g *Graph) internOcc(seq int, occ []trace.Occurrence) []occEntry {
	if len(occ) == 0 {
		return nil
	}
	out := make([]occEntry, len(occ))
	for i, o := range occ {
		sk, fk := occKeys(o)
		out[i] = occEntry{seq: seq, occ: o, stackKey: g.internKey(sk), fullKey: g.internKey(fk)}
	}
	return out
}

// mergeInto appends evidence while the accepted total stays under
// trace.OccCap, mirroring fca.Dedup's mergeOcc (the first insertion's
// evidence is kept whole even if it already exceeds the cap; later
// evidence is interned only if accepted).
func (g *Graph) mergeInto(dst []occEntry, seq int, occ []trace.Occurrence) []occEntry {
	for _, o := range occ {
		if len(dst) >= trace.OccCap {
			break
		}
		sk, fk := occKeys(o)
		dst = append(dst, occEntry{seq: seq, occ: o, stackKey: g.internKey(sk), fullKey: g.internKey(fk)})
	}
	return dst
}

// Add inserts one dynamic edge, merging occurrence evidence when the edge
// identity is already present. Static ICFG/CFG edges are routed to
// AddStatic so that materialization order (dynamic first, then static)
// matches the legacy Dedup(dynamic ++ static) layout.
func (g *Graph) Add(e fca.Edge) {
	g.mutable("Add")
	if e.Kind.Static() {
		g.addStatic(e)
		return
	}
	seq := g.seq
	g.seq++
	k := edgeKey{
		from: g.internFault(e.From),
		to:   g.internFault(e.To),
		kind: e.Kind,
		test: g.internTest(e.Test),
	}
	if ref, ok := g.byKey[k]; ok && ref > 0 {
		r := &g.dyn[ref-1]
		nf, nt := len(r.fromOcc), len(r.toOcc)
		r.fromOcc = g.mergeInto(r.fromOcc, seq, e.FromState.Occ)
		r.toOcc = g.mergeInto(r.toOcc, seq, e.ToState.Occ)
		if len(r.fromOcc) > nf || len(r.toOcc) > nt {
			r.lastSeq = seq
		}
		return
	}
	g.dyn = append(g.dyn, edgeRec{
		from: k.from, to: k.to, kind: e.Kind,
		fromClass: e.FromClass, toClass: e.ToClass,
		test:      k.test,
		fromDelay: e.FromState.DelayFault,
		toDelay:   e.ToState.DelayFault,
		firstSeq:  seq,
		lastSeq:   seq,
		fromOcc:   g.internOcc(seq, e.FromState.Occ),
		toOcc:     g.internOcc(seq, e.ToState.Occ),
	})
	g.byKey[k] = int32(len(g.dyn)) // +1 offset
}

// AddAll inserts a batch of edges in order.
func (g *Graph) AddAll(edges []fca.Edge) {
	for _, e := range edges {
		g.Add(e)
	}
}

// AddStatic inserts static ICFG/CFG loop edges. They carry no raw
// sequence (every prefix snapshot includes them) and order after all
// dynamic edges.
func (g *Graph) AddStatic(edges []fca.Edge) {
	g.mutable("AddStatic")
	for _, e := range edges {
		g.addStatic(e)
	}
}

func (g *Graph) addStatic(e fca.Edge) {
	g.staticGen++
	k := edgeKey{
		from: g.internFault(e.From),
		to:   g.internFault(e.To),
		kind: e.Kind,
		test: g.internTest(e.Test),
	}
	if ref, ok := g.byKey[k]; ok && ref < 0 {
		r := &g.static[-ref-1]
		r.fromOcc = g.mergeInto(r.fromOcc, -1, e.FromState.Occ)
		r.toOcc = g.mergeInto(r.toOcc, -1, e.ToState.Occ)
		return
	}
	g.static = append(g.static, edgeRec{
		from: k.from, to: k.to, kind: e.Kind,
		fromClass: e.FromClass, toClass: e.ToClass,
		test:      k.test,
		fromDelay: e.FromState.DelayFault,
		toDelay:   e.ToState.DelayFault,
		firstSeq:  -1,
		lastSeq:   -1,
	})
	g.byKey[k] = -int32(len(g.static)) // -(i+1) offset
}

// Mark records an experiment boundary: the prefix ending here is
// addressable via Prefix. Equivalent to the legacy driver's marks slice.
func (g *Graph) Mark() {
	g.mutable("Mark")
	g.marks = append(g.marks, g.seq)
}

// Marks returns the cumulative raw dynamic-edge count after each Mark
// call, in call order (the legacy Driver.Marks contract).
func (g *Graph) Marks() []int {
	return append([]int(nil), g.marks...)
}

// Len returns the number of unique edges (dynamic + static).
func (g *Graph) Len() int { return len(g.dyn) + len(g.static) }

// DynLen returns the number of unique dynamic edges: the size of the
// logical-index prefix that is stable as the graph grows (static edges
// order after it and shift with every new dynamic record).
func (g *Graph) DynLen() int { return len(g.dyn) }

// RawLen returns the number of raw dynamic insertions (pre-dedup).
func (g *Graph) RawLen() int { return g.seq }

// NumFaults returns the number of interned fault ids.
func (g *Graph) NumFaults() int { return len(g.faultIDs) }

// NumKeys returns the number of interned occurrence state keys.
func (g *Graph) NumKeys() int { return len(g.keys) }

// rec returns the record at logical index i (dynamic section first).
func (g *Graph) rec(i int) *edgeRec {
	if i < len(g.dyn) {
		return &g.dyn[i]
	}
	return &g.static[i-len(g.dyn)]
}

// materialize converts a record back to the flat fca.Edge form.
func (g *Graph) materialize(r *edgeRec) fca.Edge {
	return fca.Edge{
		From: g.faultIDs[r.from], To: g.faultIDs[r.to],
		Kind:      r.kind,
		FromClass: r.fromClass, ToClass: r.toClass,
		Test:      g.tests[r.test],
		FromState: compat.State{Occ: occList(r.fromOcc), DelayFault: r.fromDelay},
		ToState:   compat.State{Occ: occList(r.toOcc), DelayFault: r.toDelay},
	}
}

func occList(entries []occEntry) []trace.Occurrence {
	if len(entries) == 0 {
		return nil
	}
	out := make([]trace.Occurrence, len(entries))
	for i, e := range entries {
		out[i] = e.occ
	}
	return out
}

// EdgeAt materializes the edge at logical index i.
func (g *Graph) EdgeAt(i int) fca.Edge { return g.materialize(g.rec(i)) }

// Edges materializes every unique edge in logical order: dynamic edges in
// first-discovery order followed by the static loop edges -- byte-for-byte
// the order and evidence the legacy fca.Dedup(dynamic ++ static) produced.
func (g *Graph) Edges() []fca.Edge {
	out := make([]fca.Edge, 0, g.Len())
	for i := 0; i < g.Len(); i++ {
		out = append(out, g.materialize(g.rec(i)))
	}
	return out
}

// Snapshot returns a sealed copy-on-read view of the whole graph,
// including dynamic edges added after the last Mark. The snapshot shares
// the parent's interned tables (append-only) and evidence, so it is cheap
// and safe to read while the parent keeps growing under the caller's lock
// discipline.
func (g *Graph) Snapshot() *Graph { return g.prefixSeq(g.seq, len(g.marks)) }

// Prefix returns a sealed snapshot of the first n experiments (Mark
// boundaries) plus all static edges, with no raw-stream copying or
// re-deduplication. n <= 0 yields only static edges;
// n >= len(Marks()) yields the full graph.
func (g *Graph) Prefix(n int) *Graph {
	if n <= 0 {
		// Checked first: on a graph with no marks at all (FromEdges, a
		// loaded file) the full-graph shortcut below would otherwise
		// swallow n = 0 and violate the static-only contract.
		return g.prefixSeq(0, 0)
	}
	if n >= len(g.marks) {
		return g.Snapshot()
	}
	return g.prefixSeq(g.marks[n-1], n)
}

// prefixSeq builds the sealed snapshot with raw-sequence cut, carrying
// the first nMarks experiment boundaries (later zero-edge experiments
// share the cut value but are not part of the prefix). Edge records
// first seen at or after the cut are dropped; surviving records keep
// only evidence contributed before the cut.
func (g *Graph) prefixSeq(cut, nMarks int) *Graph {
	s := &Graph{
		faultIDs: g.faultIDs, // slice headers captured; parent only appends
		keys:     g.keys,
		tests:    g.tests,
		faultIdx: make(map[faults.ID]int32, len(g.faultIdx)),
		system:   g.system,
		seq:      cut,
		sealed:   true,
	}
	for id, i := range g.faultIdx {
		s.faultIdx[id] = i
	}
	s.marks = append([]int(nil), g.marks[:nMarks]...)
	// Records are struct-copied so that later in-place evidence merges on
	// the parent never alias the snapshot's slice headers.
	if cut >= g.seq {
		s.dyn = append([]edgeRec(nil), g.dyn...)
	} else {
		for i := range g.dyn {
			r := &g.dyn[i]
			if r.firstSeq >= cut {
				// dyn is in first-discovery order: everything after is newer.
				break
			}
			s.dyn = append(s.dyn, filterRec(r, cut))
		}
	}
	s.static = append([]edgeRec(nil), g.static...)
	if cut >= g.seq && g.ixFresh() {
		// A full snapshot is structurally identical to its parent: share
		// the parent's (read-only) index so per-round searches of anytime
		// campaigns do not rebuild it from scratch.
		s.ix = g.ix
		s.ixSeq = s.seq
	}
	if g.scores != nil {
		s.scores = make(map[int32]float64, len(g.scores))
		for k, v := range g.scores {
			s.scores[k] = v
		}
	}
	if g.nestGroup != nil {
		s.nestGroup = make(map[int32]int, len(g.nestGroup))
		for k, v := range g.nestGroup {
			s.nestGroup[k] = v
		}
	}
	return s
}

// filterRec copies r with evidence restricted to seq < cut. The occ cap
// is monotone in seq order, so the filtered list equals what incremental
// merging of the raw prefix would have accepted.
func filterRec(r *edgeRec, cut int) edgeRec {
	out := *r
	out.fromOcc = filterOcc(r.fromOcc, cut)
	out.toOcc = filterOcc(r.toOcc, cut)
	out.lastSeq = out.firstSeq
	for _, entries := range [2][]occEntry{out.fromOcc, out.toOcc} {
		if n := len(entries); n > 0 && entries[n-1].seq > out.lastSeq {
			out.lastSeq = entries[n-1].seq
		}
	}
	return out
}

func filterOcc(entries []occEntry, cut int) []occEntry {
	n := len(entries)
	for n > 0 && entries[n-1].seq >= cut {
		n--
	}
	if n == 0 {
		return nil
	}
	return entries[:n:n]
}

// Merge stitches another graph into g: o's dynamic edges are re-added
// (each counts as one raw insertion, evidence merging under the cap) and
// its static edges join the static section. Scores and nest families
// merge with first-writer-wins on conflicting faults; nest group ids from
// o are offset so families from different campaigns never collide.
func (g *Graph) Merge(o *Graph) {
	g.mutable("Merge")
	for i := range o.dyn {
		g.Add(o.materialize(&o.dyn[i]))
	}
	for i := range o.static {
		g.addStatic(o.materialize(&o.static[i]))
	}
	g.Mark()
	if len(o.scores) > 0 {
		for fi, sc := range o.scores {
			id := o.faultIDs[fi]
			if _, ok := g.scoreOf(id); !ok {
				g.SetScore(id, sc)
			}
		}
	}
	if len(o.nestGroup) > 0 {
		next := 0
		for _, grp := range g.nestGroup {
			if grp >= next {
				next = grp + 1
			}
		}
		// Families shared with g (via a commonly-annotated fault, e.g. when
		// stitching two campaigns of the same system) keep g's id, so a
		// physical loop nest never splits across ids; families new to g get
		// fresh ids so nests from different systems never collide. Both
		// passes walk o's dense fault table in order for determinism.
		remap := make(map[int]int)
		for fi := range o.faultIDs {
			grp, ok := o.nestGroup[int32(fi)]
			if !ok {
				continue
			}
			if _, mapped := remap[grp]; mapped {
				continue
			}
			if gi, interned := g.faultIdx[o.faultIDs[fi]]; interned {
				if ggrp, exists := g.nestGroup[gi]; exists {
					remap[grp] = ggrp
				}
			}
		}
		for fi := range o.faultIDs {
			grp, ok := o.nestGroup[int32(fi)]
			if !ok {
				continue
			}
			id := o.faultIDs[fi]
			gi, interned := g.faultIdx[id]
			if !interned {
				continue // edge-less fault: nothing to annotate
			}
			if _, exists := g.nestGroup[gi]; exists {
				continue // first writer wins
			}
			m, mapped := remap[grp]
			if !mapped {
				m = next
				next++
				remap[grp] = m
			}
			g.SetNestGroup(id, m)
		}
	}
	if o.system != "" && o.system != g.system {
		if g.system == "" {
			g.system = o.system
		} else {
			g.system = g.system + "+" + o.system
		}
	}
}

// SetScore annotates a fault with its cluster SimScore (§5.2). Faults
// that never appear in an edge are ignored: scores are only consulted for
// edge sources.
func (g *Graph) SetScore(f faults.ID, score float64) {
	i, ok := g.faultIdx[f]
	if !ok {
		return
	}
	if g.scores == nil {
		g.scores = make(map[int32]float64)
	}
	g.scores[i] = score
}

func (g *Graph) scoreOf(f faults.ID) (float64, bool) {
	if i, ok := g.faultIdx[f]; ok {
		if s, ok := g.scores[i]; ok {
			return s, true
		}
	}
	return 1, false
}

// Score returns the annotated SimScore of f, defaulting to 1 (the
// no-cluster-information score).
func (g *Graph) Score(f faults.ID) float64 {
	s, _ := g.scoreOf(f)
	return s
}

// ScoreFunc returns the per-fault score lookup for the beam search.
func (g *Graph) ScoreFunc() func(faults.ID) float64 { return g.Score }

// SetNestGroup annotates a fault with its loop-nest family (used to drop
// structural single-nest cycles). Edge-less faults are ignored.
func (g *Graph) SetNestGroup(f faults.ID, group int) {
	i, ok := g.faultIdx[f]
	if !ok {
		return
	}
	if g.nestGroup == nil {
		g.nestGroup = make(map[int32]int)
	}
	g.nestGroup[i] = group
}

// NestGroups returns the annotated loop-nest families keyed by fault id
// (nil when none were recorded).
func (g *Graph) NestGroups() map[faults.ID]int {
	if len(g.nestGroup) == 0 {
		return nil
	}
	out := make(map[faults.ID]int, len(g.nestGroup))
	for i, grp := range g.nestGroup {
		out[g.faultIDs[i]] = grp
	}
	return out
}

// Index is the search-ready columnar view of a graph: dense fault ids,
// interned key-id sets, and a From-indexed adjacency. Building it touches
// no strings; the beam search matches entirely on integers.
type Index struct {
	N         int
	From, To  []int32
	Kind      []faults.EdgeKind
	FromClass []faults.FaultClass
	ToClass   []faults.FaultClass
	FromDelay []bool
	ToDelay   []bool
	Connector []bool
	// Sorted unique interned key-id sets per edge endpoint.
	FromStack, FromFull [][]int32
	ToStack, ToFull     [][]int32
	// ByFrom maps a dense fault id to the logical indices of edges
	// departing it.
	ByFrom [][]int32
	// FaultOf maps dense fault ids back to fault identifiers.
	FaultOf []faults.ID
	// Edges is the materialized flat form, aligned with the columnar
	// arrays, for rendering found cycles. Treat it as read-only: it is
	// cached per graph version and shared across searches.
	Edges []fca.Edge
}

// ixFresh reports whether the cached index still describes the graph.
func (g *Graph) ixFresh() bool {
	return g.ix != nil && g.ixSeq == g.seq && g.ixStatics == g.staticGen
}

// Index returns (building and caching on first use) the columnar search
// view. A cached index left stale by dynamic insertions is refreshed
// delta-aware: entries of records the insertion window did not touch are
// reused (no key-set recomputation, no evidence re-materialization), only
// new and evidence-extended records are filled from scratch. Static-
// section changes (rare: Merge, construction) force a full rebuild.
func (g *Graph) Index() *Index {
	if g.ixFresh() {
		return g.ix
	}
	if g.ix != nil && g.ixStatics == g.staticGen {
		g.ix = g.updateIndex(g.ix, g.ixSeq)
	} else {
		g.ix = g.buildIndex()
	}
	g.ixSeq = g.seq
	g.ixStatics = g.staticGen
	return g.ix
}

// newIndexShell allocates an index with empty columns of length n.
func (g *Graph) newIndexShell(n int) *Index {
	return &Index{
		N:         n,
		From:      make([]int32, n),
		To:        make([]int32, n),
		Kind:      make([]faults.EdgeKind, n),
		FromClass: make([]faults.FaultClass, n),
		ToClass:   make([]faults.FaultClass, n),
		FromDelay: make([]bool, n),
		ToDelay:   make([]bool, n),
		Connector: make([]bool, n),
		FromStack: make([][]int32, n),
		FromFull:  make([][]int32, n),
		ToStack:   make([][]int32, n),
		ToFull:    make([][]int32, n),
		ByFrom:    make([][]int32, len(g.faultIDs)),
		FaultOf:   g.faultIDs,
		Edges:     make([]fca.Edge, n),
	}
}

// fillIndexAt computes entry i of the index from its record: the only
// place per-edge derived state (key sets, the materialized edge) is born.
func (g *Graph) fillIndexAt(ix *Index, i int, r *edgeRec) {
	ix.From[i], ix.To[i] = r.from, r.to
	ix.Kind[i] = r.kind
	ix.FromClass[i], ix.ToClass[i] = r.fromClass, r.toClass
	ix.FromDelay[i], ix.ToDelay[i] = r.fromDelay, r.toDelay
	ix.Connector[i] = r.kind.Static()
	ix.FromStack[i], ix.FromFull[i] = keySets(r.fromOcc)
	ix.ToStack[i], ix.ToFull[i] = keySets(r.toOcc)
	ix.Edges[i] = g.materialize(r)
}

// copyIndexAt moves entry j of src to entry i of dst. Inner slices (key
// sets, occurrence lists) are immutable once built, so sharing them across
// index generations is safe.
func copyIndexAt(dst *Index, i int, src *Index, j int) {
	dst.From[i], dst.To[i] = src.From[j], src.To[j]
	dst.Kind[i] = src.Kind[j]
	dst.FromClass[i], dst.ToClass[i] = src.FromClass[j], src.ToClass[j]
	dst.FromDelay[i], dst.ToDelay[i] = src.FromDelay[j], src.ToDelay[j]
	dst.Connector[i] = src.Connector[j]
	dst.FromStack[i], dst.FromFull[i] = src.FromStack[j], src.FromFull[j]
	dst.ToStack[i], dst.ToFull[i] = src.ToStack[j], src.ToFull[j]
	dst.Edges[i] = src.Edges[j]
}

func (g *Graph) buildIndex() *Index {
	n := g.Len()
	ix := g.newIndexShell(n)
	for i := 0; i < n; i++ {
		r := g.rec(i)
		g.fillIndexAt(ix, i, r)
		ix.ByFrom[r.from] = append(ix.ByFrom[r.from], int32(i))
	}
	return ix
}

// updateIndex refreshes a stale base index built at raw-sequence baseSeq,
// with an unchanged static section. Dynamic records the window [baseSeq,
// seq) touched -- plus the records it added -- are refilled; everything
// else, including the static tail (whose logical indices shift as the
// dynamic section grows), is copied entry-wise from the base. ByFrom is
// rebuilt, as new edges may depart any fault.
func (g *Graph) updateIndex(base *Index, baseSeq int) *Index {
	n := g.Len()
	nDyn := len(g.dyn)
	baseDyn := base.N - len(g.static)
	ix := g.newIndexShell(n)
	for i := 0; i < n; i++ {
		switch {
		case i < nDyn && (i >= baseDyn || g.dyn[i].lastSeq >= baseSeq):
			g.fillIndexAt(ix, i, &g.dyn[i])
		case i < nDyn:
			copyIndexAt(ix, i, base, i)
		default:
			copyIndexAt(ix, i, base, baseDyn+(i-nDyn))
		}
		ix.ByFrom[ix.From[i]] = append(ix.ByFrom[ix.From[i]], int32(i))
	}
	return ix
}

// keySets collects the sorted unique stack-only and stack+branch key ids
// of an endpoint's evidence. Entry counts are capped at trace.OccCap, so
// this is a handful of integer comparisons per edge.
func keySets(entries []occEntry) (stack, full []int32) {
	if len(entries) == 0 {
		return nil, nil
	}
	stack = make([]int32, 0, len(entries))
	full = make([]int32, 0, len(entries))
	for _, e := range entries {
		stack = insertSorted(stack, e.stackKey)
		full = insertSorted(full, e.fullKey)
	}
	return stack, full
}

// insertSorted inserts v into sorted set s, keeping it sorted and unique.
func insertSorted(s []int32, v int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
