package graph_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core/graph"
)

// FuzzGraphJSON hardens the graph decoder, which reads the CLI's
// -edges-in files, the csnaked graph store at boot, and resume
// checkpoints: hostile input is rejected with an error, never a panic,
// and any accepted document re-serializes to a fixed point -- the
// marshal -> load -> marshal round trip is byte-stable.
func FuzzGraphJSON(f *testing.F) {
	seeds := []string{
		`{"version":1,"system":"demo",` +
			`"faults":["d.a","d.b","d.child","d.parent"],"tests":["t1",""],` +
			`"edges":[{"f":0,"t":1,"k":2,"fc":0,"tc":0,"w":0,` +
			`"fo":[{"s":["f","g"],"b":[{"i":"br1","t":true}]}],"to":[{"s":["h"]}]}],` +
			`"static":[{"f":2,"t":3,"k":4,"fc":2,"tc":2,"w":1,"fd":true,"td":true}],` +
			`"scores":{"0":0.25},"nests":{"2":3}}`,
		`{"version":1,"faults":[],"tests":[],"edges":[]}`,
		`{"version":1,"faults":["a","a"],"tests":["t","t"],"edges":[{"f":1,"t":0,"k":0,"fc":1,"tc":1,"w":1,"fo":[{},{"b":[]}]}]}`,
		`{"version":99,"faults":[],"tests":[],"edges":[]}`,
		`{"version":1,"faults":["a"],"tests":["t"],"edges":[{"f":0,"t":5,"k":2,"fc":0,"tc":0,"w":0}]}`,
		`{"version":1,"faults":["a","b"],"tests":["t"],"edges":[{"f":0,"t":1,"k":2,"fc":0,"tc":0,"w":0}],"scores":{"0junk":0.5}}`,
		`{"version":1,"faults":["a","b"],"tests":["t"],"edges":[{"f":-1,"t":1,"k":2,"fc":0,"tc":0,"w":-3}]}`,
		`{"version":1`,
		"\x00\xffnot json",
		`null`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := graph.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		first, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("accepted graph does not marshal: %v", err)
		}
		g2, err := graph.Load(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("marshaled graph does not load: %v\n%s", err, first)
		}
		second, err := json.Marshal(g2)
		if err != nil {
			t.Fatalf("reloaded graph does not marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip not byte-stable:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}
