package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/core/compat"
	"repro/internal/core/fca"
	"repro/internal/faults"
	"repro/internal/trace"
)

// Version is the on-disk schema version of a serialized graph.
const Version = 1

// The wire format is deliberately flat and index-based: fault ids and
// test names are stored once in tables and edges refer to them by index.
// Occurrence evidence is stored raw (stacks + branch traces); interned
// state keys are derived, so they are recomputed at load and never
// serialized. SimScores and loop-nest families ride along so a persisted
// graph can be re-searched in isolation, with the same ranking and
// structural-cycle filtering as the originating campaign.
type jsonGraph struct {
	Version int        `json:"version"`
	System  string     `json:"system,omitempty"`
	Faults  []string   `json:"faults"`
	Tests   []string   `json:"tests"`
	Edges   []jsonEdge `json:"edges"`
	Static  []jsonEdge `json:"static,omitempty"`
	// Scores and Nests are keyed by index into Faults.
	Scores map[string]float64 `json:"scores,omitempty"`
	Nests  map[string]int     `json:"nests,omitempty"`
}

type jsonEdge struct {
	From      int                `json:"f"`
	To        int                `json:"t"`
	Kind      int                `json:"k"`
	FromClass int                `json:"fc"`
	ToClass   int                `json:"tc"`
	Test      int                `json:"w"`
	FromDelay bool               `json:"fd,omitempty"`
	ToDelay   bool               `json:"td,omitempty"`
	FromOcc   []trace.Occurrence `json:"fo,omitempty"`
	ToOcc     []trace.Occurrence `json:"to,omitempty"`
}

func (g *Graph) wireEdge(r *edgeRec) jsonEdge {
	return jsonEdge{
		From: int(r.from), To: int(r.to),
		Kind:      int(r.kind),
		FromClass: int(r.fromClass), ToClass: int(r.toClass),
		Test:      int(r.test),
		FromDelay: r.fromDelay, ToDelay: r.toDelay,
		FromOcc: occList(r.fromOcc), ToOcc: occList(r.toOcc),
	}
}

// MarshalJSON serializes the graph (schema Version).
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{
		Version: Version,
		System:  g.system,
		Faults:  make([]string, len(g.faultIDs)),
		Tests:   append([]string(nil), g.tests...),
	}
	for i, id := range g.faultIDs {
		jg.Faults[i] = string(id)
	}
	for i := range g.dyn {
		jg.Edges = append(jg.Edges, g.wireEdge(&g.dyn[i]))
	}
	for i := range g.static {
		jg.Static = append(jg.Static, g.wireEdge(&g.static[i]))
	}
	if len(g.scores) > 0 {
		jg.Scores = make(map[string]float64, len(g.scores))
		for fi, s := range g.scores {
			jg.Scores[fmt.Sprintf("%d", fi)] = s
		}
	}
	if len(g.nestGroup) > 0 {
		jg.Nests = make(map[string]int, len(g.nestGroup))
		for fi, grp := range g.nestGroup {
			jg.Nests[fmt.Sprintf("%d", fi)] = grp
		}
	}
	return json.Marshal(jg)
}

// UnmarshalJSON loads a serialized graph into g, which must be a fresh
// mutable graph (as produced by New). Edges are re-inserted through the
// interning path, so state keys are rebuilt and identities re-checked;
// loading is therefore also a well-formedness pass.
func (g *Graph) UnmarshalJSON(data []byte) error {
	g.mutable("UnmarshalJSON")
	if g.Len() != 0 || g.seq != 0 {
		return fmt.Errorf("graph: unmarshal into non-empty graph")
	}
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	if jg.Version != Version {
		return fmt.Errorf("graph: unsupported version %d (want %d)", jg.Version, Version)
	}
	g.system = jg.System
	// Pre-intern the serialized fault and test tables so the loaded graph
	// reproduces the source graph's intern order exactly (edge insertion
	// order alone would intern dynamic-edge faults before static-edge
	// ones). A marshal -> unmarshal -> marshal round trip is therefore
	// byte-stable, which campaign resume relies on.
	for _, f := range jg.Faults {
		g.internFault(faults.ID(f))
	}
	for _, tn := range jg.Tests {
		g.internTest(tn)
	}
	add := func(je jsonEdge, section string, insert func(fca.Edge)) error {
		if je.From < 0 || je.From >= len(jg.Faults) || je.To < 0 || je.To >= len(jg.Faults) {
			return fmt.Errorf("graph: %s edge fault index out of range", section)
		}
		if je.Test < 0 || je.Test >= len(jg.Tests) {
			return fmt.Errorf("graph: %s edge test index out of range", section)
		}
		if je.Kind < int(faults.ED) || je.Kind > int(faults.CFG) {
			return fmt.Errorf("graph: %s edge kind %d out of range", section, je.Kind)
		}
		for _, c := range []int{je.FromClass, je.ToClass} {
			if c < int(faults.ClassException) || c > int(faults.ClassDelay) {
				return fmt.Errorf("graph: %s edge fault class %d out of range", section, c)
			}
		}
		insert(fca.Edge{
			From: faults.ID(jg.Faults[je.From]), To: faults.ID(jg.Faults[je.To]),
			Kind:      faults.EdgeKind(je.Kind),
			FromClass: faults.FaultClass(je.FromClass), ToClass: faults.FaultClass(je.ToClass),
			Test:      jg.Tests[je.Test],
			FromState: compat.State{Occ: je.FromOcc, DelayFault: je.FromDelay},
			ToState:   compat.State{Occ: je.ToOcc, DelayFault: je.ToDelay},
		})
		return nil
	}
	for _, je := range jg.Edges {
		if faults.EdgeKind(je.Kind).Static() {
			return fmt.Errorf("graph: static kind in dynamic edge section")
		}
		if err := add(je, "dynamic", g.Add); err != nil {
			return err
		}
	}
	for _, je := range jg.Static {
		if !faults.EdgeKind(je.Kind).Static() {
			return fmt.Errorf("graph: dynamic kind in static edge section")
		}
		if err := add(je, "static", g.addStatic); err != nil {
			return err
		}
	}
	// Score/nest annotations refer to the serialized fault table; map them
	// through the (identically ordered, but re-derived) interned table.
	for key, s := range jg.Scores {
		fi, err := strconv.Atoi(key)
		if err != nil || fi < 0 || fi >= len(jg.Faults) {
			return fmt.Errorf("graph: bad score key %q", key)
		}
		g.SetScore(faults.ID(jg.Faults[fi]), s)
	}
	for key, grp := range jg.Nests {
		fi, err := strconv.Atoi(key)
		if err != nil || fi < 0 || fi >= len(jg.Faults) {
			return fmt.Errorf("graph: bad nest key %q", key)
		}
		g.SetNestGroup(faults.ID(jg.Faults[fi]), grp)
	}
	return nil
}

// Save writes the graph as JSON to w.
func (g *Graph) Save(w io.Writer) error {
	data, err := json.Marshal(g)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// WriteFile persists the graph to path.
func (g *Graph) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a serialized graph from r.
func Load(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	g := New()
	if err := json.Unmarshal(data, g); err != nil {
		return nil, err
	}
	return g, nil
}

// ReadFile loads a serialized graph from path.
func ReadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
