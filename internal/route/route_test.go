package route

import (
	"math/rand"
	"testing"
	"testing/quick"

	"costsense/internal/graph"
	"costsense/internal/slt"
)

func TestNextHopPath(t *testing.T) {
	g := graph.Path(5, graph.ConstWeights(2))
	tree := graph.PrimTree(g, 0)
	r, err := NewTreeRouter(g, tree)
	if err != nil {
		t.Fatal(err)
	}
	// On a path rooted at 0, routing 1→4 goes forward, 4→1 backward.
	path, err := r.Route(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.NodeID{1, 2, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("Route(1,4) = %v, want %v", path, want)
	}
	for i := range path {
		if path[i] != want[i] {
			t.Fatalf("Route(1,4) = %v, want %v", path, want)
		}
	}
	c, err := r.Cost(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c != 6 {
		t.Fatalf("Cost(4,1) = %d, want 6", c)
	}
}

func TestRouteThroughLCA(t *testing.T) {
	// Star rooted at the center: every leaf-to-leaf route is exactly
	// leaf → center → leaf.
	g := graph.Star(5, graph.ConstWeights(3))
	tree := graph.PrimTree(g, 0)
	r, err := NewTreeRouter(g, tree)
	if err != nil {
		t.Fatal(err)
	}
	path, err := r.Route(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[1] != 0 {
		t.Fatalf("Route(1,4) = %v, want through center", path)
	}
}

func TestRouterRejectsPartialTree(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights())
	partial := graph.NewTree(g, 0, []graph.NodeID{-1, 0, 1, -1})
	if _, err := NewTreeRouter(g, partial); err == nil {
		t.Fatal("partial tree must be rejected")
	}
}

func TestRoutesAreValidProperty(t *testing.T) {
	// All-pairs: routes follow tree edges, terminate, and their cost
	// equals the tree distance (never below the shortest distance).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := graph.RandomConnected(n, n-1+rng.Intn(2*n), graph.UniformWeights(16, seed), seed)
		tree := graph.PrimTree(g, graph.NodeID(rng.Intn(n)))
		r, err := NewTreeRouter(g, tree)
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			c, err := r.Cost(u, v)
			if err != nil {
				t.Log(err)
				return false
			}
			if c != tree.TreeDist(u, v) {
				t.Logf("seed %d: Cost(%d,%d)=%d, tree dist %d", seed, u, v, c, tree.TreeDist(u, v))
				return false
			}
			if c < graph.Dist(g, u, v) {
				return false // beat the shortest path: impossible
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

func TestStretchTradeoffOnSeparation(t *testing.T) {
	// The routing form of the §2 separation, measured on root routes
	// (the SLT-bounded quantity): SPT tables route optimally from the
	// hub but weigh Θ(√n·𝓥); MST tables are light but a hub route can
	// cost Θ(√n·𝓓); the SLT is within constants of both optima.
	g := graph.ShallowLightGap(48)
	hub := graph.NodeID(g.N() - 1)
	vv := graph.MSTWeight(g)
	dd := graph.Diameter(g)

	build := func(tree *graph.Tree) *TreeRouter {
		t.Helper()
		r, err := NewTreeRouter(g, tree)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	sltTree, _, err := slt.Build(g, hub, 2)
	if err != nil {
		t.Fatal(err)
	}
	sptR := build(graph.Dijkstra(g, hub).Tree(g))
	mstR := build(graph.PrimTree(g, hub))
	sltR := build(sltTree)

	// Table weight: SLT within 2𝓥, SPT far above, MST exactly 𝓥.
	if sltR.TableWeight() > 2*vv {
		t.Errorf("SLT table weight %d > 2𝓥 = %d", sltR.TableWeight(), 2*vv)
	}
	if sptR.TableWeight() < 3*vv {
		t.Errorf("SPT table weight %d should be far above 𝓥 = %d on the separation instance",
			sptR.TableWeight(), vv)
	}
	if mstR.TableWeight() != vv {
		t.Errorf("MST table weight %d != 𝓥 = %d", mstR.TableWeight(), vv)
	}
	// Hub routes: SLT within the depth bound (2q+1)𝓓 = 5𝓓; MST far
	// above; SPT optimal (stretch exactly 1 from the root).
	sltMax, err := sltR.MaxCostFrom(hub)
	if err != nil {
		t.Fatal(err)
	}
	mstMax, err := mstR.MaxCostFrom(hub)
	if err != nil {
		t.Fatal(err)
	}
	if sltMax > 5*dd {
		t.Errorf("SLT hub route cost %d > (2q+1)𝓓 = %d", sltMax, 5*dd)
	}
	if mstMax < 2*sltMax {
		t.Errorf("MST hub route cost %d should be far above SLT's %d", mstMax, sltMax)
	}
	sptSt, err := sptR.StretchFrom(hub)
	if err != nil {
		t.Fatal(err)
	}
	if sptSt.Max != 1 {
		t.Errorf("SPT root stretch = %.2f, want exactly 1", sptSt.Max)
	}
	// All-pairs stretch stays finite and >= 1 for all three.
	for name, r := range map[string]*TreeRouter{"slt": sltR, "mst": mstR, "spt": sptR} {
		st, err := r.Stretch()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Mean < 1 || st.Pairs != g.N()*(g.N()-1) {
			t.Fatalf("%s: implausible stretch stats %+v", name, st)
		}
	}
}
