package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExpandShape(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 3) // 2 dummies
	b.AddEdge(1, 2, 1) // 0 dummies
	g := b.MustBuild()
	x, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	if x.G.N() != 5 {
		t.Fatalf("expansion has %d vertices, want 5", x.G.N())
	}
	if x.G.M() != 4 {
		t.Fatalf("expansion has %d edges, want 4 (= 𝓔)", x.G.M())
	}
	if int64(x.G.M()) != g.TotalWeight() {
		t.Fatal("expansion edge count must equal 𝓔")
	}
	if x.IsDummy(0) || !x.IsDummy(3) {
		t.Fatal("dummy classification wrong")
	}
	if x.Host[3] != 0 || x.Host[0] != -1 {
		t.Fatalf("host mapping wrong: %v", x.Host)
	}
	for _, e := range x.G.Edges() {
		if e.W != 1 {
			t.Fatalf("expansion edge %v not unit weight", e)
		}
	}
}

func TestExpandPreservesDistances(t *testing.T) {
	// The heart of the §9.2 reduction: BFS hop distance on Ĝ_b equals
	// weighted distance on G for every original vertex.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := RandomConnected(n, n-1+rng.Intn(2*n), UniformWeights(12, seed), seed)
		x, err := Expand(g)
		if err != nil {
			return false
		}
		src := NodeID(rng.Intn(n))
		hops := BFS(x.G, src)
		want := Dijkstra(g, src)
		for v := 0; v < n; v++ {
			if hops[v] != want.Dist[v] {
				t.Logf("seed %d: BFS[%d]=%d want %d", seed, v, hops[v], want.Dist[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

func TestExpandTooLarge(t *testing.T) {
	g := Path(2, ConstWeights(100_000_000))
	if _, err := Expand(g); err == nil {
		t.Fatal("oversized expansion should error")
	}
}

func TestBFSOnUnitGraphMatchesDijkstra(t *testing.T) {
	g := Grid(6, 6, UnitWeights())
	hops := BFS(g, 0)
	want := Dijkstra(g, 0)
	for v := range hops {
		if hops[v] != want.Dist[v] {
			t.Fatalf("BFS[%d] = %d, want %d", v, hops[v], want.Dist[v])
		}
	}
}
