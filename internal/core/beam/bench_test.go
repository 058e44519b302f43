package beam

import (
	"testing"

	"repro/internal/core/graph"
)

// metaStoreFixture is the causal graph of a light MetaStore campaign
// (seed 42), written with graph.WriteFile by
//
//	go run ./cmd/csnake -system metastore -fast -seed 42 -edges-out internal/core/beam/testdata/metastore-light-seed42.json
//
// Its search truncates the default beam from level 3 on, so it exercises
// the bounded per-level selection that synthetic graphs never reach.
const metaStoreFixture = "testdata/metastore-light-seed42.json"

// metaStoreFixtureCycles is the distinct-cycle count SearchGraph returned
// over the fixture when it was generated.
const metaStoreFixtureCycles = 153470

func BenchmarkBeamSearch_MetaStore(b *testing.B) {
	g, err := graph.ReadFile(metaStoreFixture)
	if err != nil {
		b.Fatal(err)
	}
	g.Index() // prebuild, as the campaign's first search would
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := len(SearchGraph(g, nil, Options{})); n != metaStoreFixtureCycles {
			b.Fatalf("cycles = %d, want %d", n, metaStoreFixtureCycles)
		}
	}
}
