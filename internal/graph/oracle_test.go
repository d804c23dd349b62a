package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// mapRandomConnected is RandomConnected as it was before the pair set:
// duplicates are found in a growing map. It is the oracle the pair-set
// version must match edge for edge.
func mapRandomConnected(n, m int, w WeightFn, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	i := 0
	perm := rng.Perm(n)
	have := make(map[[2]NodeID]bool)
	addEdge := func(u, v NodeID) bool {
		if u == v {
			return false
		}
		if u > v {
			u, v = v, u
		}
		if have[[2]NodeID{u, v}] {
			return false
		}
		have[[2]NodeID{u, v}] = true
		b.AddEdge(u, v, w(i, u, v))
		i++
		return true
	}
	for p := 1; p < n; p++ {
		addEdge(NodeID(perm[p]), NodeID(perm[rng.Intn(p)]))
	}
	extra := m - (n - 1)
	for tries := 0; extra > 0 && tries < 20*m+100; tries++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if addEdge(u, v) {
			extra--
		}
	}
	return b.MustBuild()
}

// sortSliceKruskal is Kruskal as it was before the linear-time order:
// a comparison sort of edge IDs by (W, ID) through sort.Slice.
func sortSliceKruskal(g *Graph) []Edge {
	edges := g.Edges()
	ids := make([]int, len(edges))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		ea, eb := edges[ids[a]], edges[ids[b]]
		if ea.W != eb.W {
			return ea.W < eb.W
		}
		return ids[a] < ids[b]
	})
	dsu := NewDSU(g.N())
	var out []Edge
	for _, i := range ids {
		if e := edges[i]; dsu.Union(int(e.U), int(e.V)) {
			out = append(out, e)
		}
	}
	return out
}

// oracleWeights are the weight families of the oracle corpus: the
// counting-sort range (uniform, pow2, const) and the comparison-sort
// range (uniform up to 2^62, far above 4 per edge).
var oracleWeights = []struct {
	name string
	fn   func(seed int64) WeightFn
}{
	{"uniform64", func(s int64) WeightFn { return UniformWeights(64, s) }},
	{"pow2", func(s int64) WeightFn { return PowerOfTwoWeights(12, s) }},
	{"const", func(int64) WeightFn { return ConstWeights(7) }},
	{"uniform2^62", func(s int64) WeightFn { return UniformWeights(1<<62, s) }},
}

// TestRandomConnectedMatchesMapOracle: the pair-set generator makes the
// same draws and the same accept/reject decisions as the map-based one,
// so every edge list — order, endpoints and weights — is identical.
func TestRandomConnectedMatchesMapOracle(t *testing.T) {
	ns := []int{2, 3, 5, 17, 64, 257, 1000, 4000}
	if testing.Short() {
		ns = ns[:6]
	}
	for _, n := range ns {
		for _, m := range []int{n - 1, n + n/2, 4 * n, 8 * n} {
			for k, wf := range oracleWeights {
				seed := int64(n*131 + m*7 + k)
				got := RandomConnected(n, m, wf.fn(seed), seed)
				want := mapRandomConnected(n, m, wf.fn(seed), seed)
				if !slices.Equal(got.Edges(), want.Edges()) {
					t.Fatalf("n=%d m=%d %s: edge list differs from the map-based generator", n, m, wf.name)
				}
				if gk, wk := Kruskal(got), sortSliceKruskal(got); !slices.Equal(gk, wk) {
					t.Fatalf("n=%d m=%d %s: Kruskal differs from the sort.Slice oracle", n, m, wf.name)
				}
			}
		}
	}
}

// TestKruskalMatchesSortSliceOracle covers what RandomConnected never
// makes: parallel edges, a forest, and heavy ties, through both
// ordering paths.
func TestKruskalMatchesSortSliceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		maxW := []int64{1, 3, 1 << 20, 1 << 61}[trial%4]
		b := NewBuilder(n)
		for e := rng.Intn(4 * n); e > 0; e-- {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u != v {
				b.AddEdge(u, v, 1+rng.Int63n(maxW))
			}
		}
		g := b.MustBuild()
		if got, want := Kruskal(g), sortSliceKruskal(g); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d m=%d maxW=%d): Kruskal %v, oracle %v", trial, n, g.M(), maxW, got, want)
		}
	}
}

// TestBuildAdjacencyIsCapped: the adjacency lists share one backing
// slice, so each must be capped at its own length — an append by a
// caller must copy, not overwrite the next vertex's list.
func TestBuildAdjacencyIsCapped(t *testing.T) {
	g := RandomConnected(50, 200, UniformWeights(9, 1), 1)
	for v := 0; v < g.N(); v++ {
		adj := g.Adj(NodeID(v))
		if cap(adj) != len(adj) {
			t.Fatalf("vertex %d: adjacency len %d cap %d", v, len(adj), cap(adj))
		}
	}
	before := fmt.Sprint(g.Adj(1))
	_ = append(g.Adj(0), Half{To: 99})
	if after := fmt.Sprint(g.Adj(1)); after != before {
		t.Fatalf("append to vertex 0's list changed vertex 1's: %s -> %s", before, after)
	}
}

// TestRandomConnectedPairSetIsBoundedByN: the pair set is sized by the
// pairs the graph can hold, not by the requested m, so a huge m on two
// vertices allocates a few slots rather than a table of 2m.
func TestRandomConnectedPairSetIsBoundedByN(t *testing.T) {
	if got := newPairSet(min(1<<20, maxPairs(2))); len(got.slots) != 2 {
		t.Fatalf("pair set for n=2 m=2^20 has %d slots, want 2", len(got.slots))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := RandomConnected(2, 1<<20, UnitWeights(), 1)
	runtime.ReadMemStats(&after)
	if g.M() != 1 {
		t.Fatalf("RandomConnected(2, 2^20) has %d edges, want 1", g.M())
	}
	// A set sized by m would be 2^21 slots, 16 MiB.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("RandomConnected(2, 2^20) allocated %d bytes, want under 1 MiB", alloc)
	}
}

// TestMaxPairsSaturates: n(n-1)/2 is exact where it fits and saturates
// rather than wrapping where it does not.
func TestMaxPairsSaturates(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{-1, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 3}, {4000, 4000 * 3999 / 2},
		{1 << 32, 1<<63 - 1<<31}, {1 << 33, math.MaxInt}, {math.MaxInt, math.MaxInt},
	} {
		if got := maxPairs(c.n); got != c.want {
			t.Errorf("maxPairs(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
