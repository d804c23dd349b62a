package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func samplePathTree(t *testing.T) (*Graph, *Tree) {
	t.Helper()
	g := Path(5, ConstWeights(2))
	parent := []NodeID{-1, 0, 1, 2, 3}
	return g, NewTree(g, 0, parent)
}

func TestTreeBasics(t *testing.T) {
	_, tr := samplePathTree(t)
	if !tr.Spanning() || tr.Size() != 5 {
		t.Fatalf("tree should span 5 vertices, got %d", tr.Size())
	}
	if w := tr.Weight(); w != 8 {
		t.Errorf("Weight = %d, want 8", w)
	}
	if h := tr.Height(); h != 8 {
		t.Errorf("Height = %d, want 8", h)
	}
	if d := tr.Diam(); d != 8 {
		t.Errorf("Diam = %d, want 8", d)
	}
	depths := tr.Depths()
	for v, want := range []int64{0, 2, 4, 6, 8} {
		if depths[v] != want {
			t.Errorf("depth[%d] = %d, want %d", v, depths[v], want)
		}
	}
}

func TestTreePartial(t *testing.T) {
	g := Path(5, UnitWeights())
	parent := []NodeID{-1, 0, 1, -1, -1} // only 0,1,2 are members
	tr := NewTree(g, 0, parent)
	if tr.Spanning() {
		t.Error("partial tree reported spanning")
	}
	if tr.Size() != 3 {
		t.Errorf("Size = %d, want 3", tr.Size())
	}
	if tr.Contains(4) {
		t.Error("Contains(4) should be false")
	}
	depths := tr.Depths()
	if depths[3] != -1 || depths[4] != -1 {
		t.Error("non-members should have depth -1")
	}
}

func TestTreeDiamStar(t *testing.T) {
	g := Star(6, ConstWeights(4))
	parent := []NodeID{-1, 0, 0, 0, 0, 0}
	tr := NewTree(g, 0, parent)
	if d := tr.Diam(); d != 8 {
		t.Errorf("star Diam = %d, want 8 (leaf-leaf)", d)
	}
	if h := tr.Height(); h != 4 {
		t.Errorf("star Height = %d, want 4", h)
	}
}

func TestEulerTour(t *testing.T) {
	// Star: tour is 0, 1, 0, 2, 0, ..., visiting each edge twice.
	g := Star(4, UnitWeights())
	tr := NewTree(g, 0, []NodeID{-1, 0, 0, 0})
	tour := tr.EulerTour()
	want := []NodeID{0, 1, 0, 2, 0, 3, 0}
	if len(tour) != len(want) {
		t.Fatalf("tour = %v, want %v", tour, want)
	}
	for i := range tour {
		if tour[i] != want[i] {
			t.Fatalf("tour = %v, want %v", tour, want)
		}
	}
}

func TestEulerTourProperties(t *testing.T) {
	// §2.2: the tour has 2s-1 entries, starts and ends at the root,
	// consecutive entries are tree-adjacent, and each tree edge appears
	// exactly twice.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := RandomConnected(n, n-1+rng.Intn(n), UniformWeights(20, seed), seed)
		tr := PrimTree(g, NodeID(rng.Intn(n)))
		tour := tr.EulerTour()
		if len(tour) != 2*tr.Size()-1 {
			return false
		}
		if tour[0] != tr.Root || tour[len(tour)-1] != tr.Root {
			return false
		}
		edgeCount := make(map[[2]NodeID]int)
		for i := 0; i+1 < len(tour); i++ {
			a, b := tour[i], tour[i+1]
			if !(tr.Parent[a] == b || tr.Parent[b] == a) {
				return false // consecutive entries must be tree neighbors
			}
			if a > b {
				a, b = b, a
			}
			edgeCount[[2]NodeID{a, b}]++
		}
		for _, c := range edgeCount {
			if c != 2 {
				return false
			}
		}
		return len(edgeCount) == tr.Size()-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(16))}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeDist(t *testing.T) {
	g := Path(6, ConstWeights(3))
	parent := []NodeID{-1, 0, 1, 2, 3, 4}
	tr := NewTree(g, 0, parent)
	if d := tr.TreeDist(1, 4); d != 9 {
		t.Errorf("TreeDist(1,4) = %d, want 9", d)
	}
	if d := tr.TreeDist(5, 5); d != 0 {
		t.Errorf("TreeDist(5,5) = %d, want 0", d)
	}
	// Branching tree: distances go through the LCA.
	g2 := Star(5, ConstWeights(2))
	tr2 := NewTree(g2, 0, []NodeID{-1, 0, 0, 0, 0})
	if d := tr2.TreeDist(1, 2); d != 4 {
		t.Errorf("TreeDist(1,2) star = %d, want 4", d)
	}
}

func TestPathToRoot(t *testing.T) {
	g := Path(4, UnitWeights())
	tr := NewTree(g, 0, []NodeID{-1, 0, 1, 2})
	p := tr.PathToRoot(3)
	want := []NodeID{3, 2, 1, 0}
	if len(p) != 4 {
		t.Fatalf("PathToRoot = %v, want %v", p, want)
	}
	for i := range p {
		if p[i] != want[i] {
			t.Fatalf("PathToRoot = %v, want %v", p, want)
		}
	}
}
