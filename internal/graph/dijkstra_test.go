package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDijkstraPath(t *testing.T) {
	// 0 --5-- 1 --7-- 2 --2-- 3, plus a 10-weight shortcut 0-3.
	b := NewBuilder(4)
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 2, 7)
	b.AddEdge(2, 3, 2)
	b.AddEdge(0, 3, 10)
	g := b.MustBuild()

	sp := Dijkstra(g, 0)
	want := []int64{0, 5, 12, 10}
	for v, d := range want {
		if sp.Dist[v] != d {
			t.Errorf("Dist[%d] = %d, want %d", v, sp.Dist[v], d)
		}
	}
	path := sp.PathTo(2)
	wantPath := []NodeID{0, 1, 2}
	if len(path) != len(wantPath) {
		t.Fatalf("PathTo(2) = %v, want %v", path, wantPath)
	}
	for i := range path {
		if path[i] != wantPath[i] {
			t.Fatalf("PathTo(2) = %v, want %v", path, wantPath)
		}
	}
	// The shortcut wins to 3.
	p3 := sp.PathTo(3)
	if len(p3) != 2 || p3[1] != 3 {
		t.Fatalf("PathTo(3) = %v, want direct edge", p3)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 4)
	g := b.MustBuild()
	sp := Dijkstra(g, 0)
	if sp.Dist[2] != Unreachable {
		t.Errorf("Dist[2] = %d, want Unreachable", sp.Dist[2])
	}
	if p := sp.PathTo(2); p != nil {
		t.Errorf("PathTo(2) = %v, want nil", p)
	}
}

// bellmanFord is an independent O(nm) reference implementation.
func bellmanFord(g *Graph, s NodeID) []int64 {
	dist := make([]int64, g.N())
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[s] = 0
	for i := 0; i < g.N(); i++ {
		changed := false
		for _, e := range g.Edges() {
			if dist[e.U] != Unreachable && (dist[e.V] == Unreachable || dist[e.U]+e.W < dist[e.V]) {
				dist[e.V] = dist[e.U] + e.W
				changed = true
			}
			if dist[e.V] != Unreachable && (dist[e.U] == Unreachable || dist[e.V]+e.W < dist[e.U]) {
				dist[e.U] = dist[e.V] + e.W
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestDijkstraMatchesBellmanFordProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		m := n - 1 + rng.Intn(2*n)
		g := RandomConnected(n, m, UniformWeights(100, seed), seed)
		s := NodeID(rng.Intn(n))
		got := Dijkstra(g, s).Dist
		want := bellmanFord(g, s)
		for v := range got {
			if got[v] != want[v] {
				t.Logf("seed %d: Dist[%d] = %d, want %d", seed, v, got[v], want[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Fatal(err)
	}
}

func TestSPTParentsFormShortestPaths(t *testing.T) {
	g := RandomConnected(50, 120, UniformWeights(40, 11), 11)
	sp := Dijkstra(g, 3)
	for v := 0; v < g.N(); v++ {
		if NodeID(v) == 3 {
			continue
		}
		p := sp.Parent[v]
		if p < 0 {
			t.Fatalf("vertex %d has no parent", v)
		}
		if sp.Dist[p]+g.Weight(p, NodeID(v)) != sp.Dist[v] {
			t.Fatalf("parent edge (%d,%d) not tight", p, v)
		}
	}
	// The extracted tree realizes all the shortest distances.
	tr := sp.Tree(g)
	if !tr.Spanning() {
		t.Fatal("SPT should span a connected graph")
	}
	depths := tr.Depths()
	for v := range depths {
		if depths[v] != sp.Dist[v] {
			t.Fatalf("tree depth[%d] = %d, want %d", v, depths[v], sp.Dist[v])
		}
	}
}

func TestDiameterRadiusEccentricity(t *testing.T) {
	g := Path(5, ConstWeights(3)) // diameter = 12, radius = 6 at center
	if d := Diameter(g); d != 12 {
		t.Errorf("Diameter = %d, want 12", d)
	}
	r, c := Radius(g)
	if r != 6 || c != 2 {
		t.Errorf("Radius = %d at %d, want 6 at 2", r, c)
	}
	if e := Eccentricity(g, 0); e != 12 {
		t.Errorf("Eccentricity(0) = %d, want 12", e)
	}
	disc := NewBuilder(3).MustBuild()
	if d := Diameter(disc); d != Unreachable {
		t.Errorf("Diameter of disconnected = %d, want Unreachable", d)
	}
}

func TestMaxNeighborDist(t *testing.T) {
	// Heavy chord with a light 2-hop bypass: d must see the bypass.
	g := HeavyChordRing(8, 1000)
	d := MaxNeighborDist(g)
	if d != 2 {
		t.Fatalf("MaxNeighborDist = %d, want 2", d)
	}
	if w := g.MaxWeight(); w != 1000 {
		t.Fatalf("MaxWeight = %d, want 1000", w)
	}
}

func TestDiameterInvariantD_LE_V(t *testing.T) {
	// 𝓓 <= 𝓥 <= (n-1)𝓓 (Fact 6.3) on random graphs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := RandomConnected(n, n-1+rng.Intn(n), UniformWeights(64, seed), seed)
		dd := Diameter(g)
		vv := MSTWeight(g)
		return dd <= vv && vv <= int64(n-1)*dd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}
