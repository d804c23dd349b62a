package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDSU(t *testing.T) {
	d := NewDSU(5)
	if !d.Union(0, 1) {
		t.Error("first union should merge")
	}
	if d.Union(1, 0) {
		t.Error("repeated union should not merge")
	}
	d.Union(2, 3)
	if d.Find(0) == d.Find(2) {
		t.Error("disjoint sets merged")
	}
	d.Union(1, 3)
	if d.Find(0) != d.Find(2) {
		t.Error("union by chain failed")
	}
	if d.Find(4) == d.Find(0) {
		t.Error("singleton joined accidentally")
	}
}

func TestKruskalKnownTree(t *testing.T) {
	//     0
	//  1 / \ 4
	//   1---2   (weight 2), 2-3 weight 3, 0-3 weight 10
	b := NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 4)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 3, 3)
	b.AddEdge(0, 3, 10)
	g := b.MustBuild()
	es := Kruskal(g)
	if len(es) != 3 {
		t.Fatalf("MST has %d edges, want 3", len(es))
	}
	var w int64
	for _, e := range es {
		w += e.W
	}
	if w != 6 {
		t.Fatalf("MST weight = %d, want 6 (1+2+3)", w)
	}
	if got := MSTWeight(g); got != 6 {
		t.Fatalf("MSTWeight = %d, want 6", got)
	}
}

func TestMSTWeightDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	if got := MSTWeight(g); got != -1 {
		t.Fatalf("MSTWeight on disconnected graph = %d, want -1", got)
	}
}

func TestPrimMatchesKruskalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		m := n - 1 + rng.Intn(2*n)
		g := RandomConnected(n, m, UniformWeights(1000, seed), seed)
		root := NodeID(rng.Intn(n))
		pt := PrimTree(g, root)
		if !pt.Spanning() {
			t.Logf("seed %d: Prim tree not spanning", seed)
			return false
		}
		// With random large weights, ties are rare but possible, so
		// compare weights, not edge sets.
		return pt.Weight() == MSTWeight(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Fatal(err)
	}
}

func TestMSTSubgraph(t *testing.T) {
	g := Complete(6, UniformWeights(100, 3))
	sub := MSTSubgraph(g)
	if sub.M() != 5 {
		t.Fatalf("MST subgraph has %d edges, want 5", sub.M())
	}
	if !sub.Connected() {
		t.Fatal("MST subgraph must be connected")
	}
	if sub.TotalWeight() != MSTWeight(g) {
		t.Fatalf("MST subgraph weight %d != MSTWeight %d", sub.TotalWeight(), MSTWeight(g))
	}
}

func TestMSTCutProperty(t *testing.T) {
	// Every MST edge is a minimum weight edge across the cut it induces
	// (the argument behind Fact 6.3).
	g := RandomConnected(25, 60, UniformWeights(500, 9), 9)
	tree := PrimTree(g, 0)
	for _, te := range tree.Edges() {
		// Removing te splits the tree into two sides.
		side := make([]bool, g.N())
		var mark func(v NodeID)
		mark = func(v NodeID) {
			side[v] = true
			for _, c := range tree.Children(v) {
				if c != te.U { // te.U is the child endpoint
					mark(c)
				}
			}
		}
		// Mark the root side, skipping the subtree under te.U.
		mark(tree.Root)
		for _, e := range g.Edges() {
			if side[e.U] != side[e.V] && e.W < te.W {
				t.Fatalf("tree edge %v is not minimal across its cut: %v is lighter", te, e)
			}
		}
	}
}

func TestFact63_MSTDiameterBound(t *testing.T) {
	// Fact 6.3: Diam(MST) <= 𝓥 <= (n-1)·𝓓.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		g := RandomConnected(n, n-1+rng.Intn(3*n), UniformWeights(128, seed), seed)
		mst := PrimTree(g, 0)
		vv := MSTWeight(g)
		dd := Diameter(g)
		return mst.Diam() <= vv && vv <= int64(n-1)*dd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(15))}); err != nil {
		t.Fatal(err)
	}
}
