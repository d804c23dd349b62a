package cover

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"costsense/internal/graph"
)

func TestClusterRadius(t *testing.T) {
	g := graph.Path(5, graph.ConstWeights(2))
	c := Cluster{0, 1, 2, 3, 4}
	r, center := c.Radius(g)
	if r != 4 || center != 2 {
		t.Fatalf("Radius = %d at %d, want 4 at 2", r, center)
	}
	// Disconnected set is not a cluster.
	bad := Cluster{0, 4}
	if r, _ := bad.Radius(g); r != -1 {
		t.Fatalf("disconnected cluster radius = %d, want -1", r)
	}
	if bad.IsCluster(g) {
		t.Error("disconnected set reported as cluster")
	}
	if !c.IsCluster(g) {
		t.Error("full path not reported as cluster")
	}
}

func TestCoverBasics(t *testing.T) {
	g := graph.Ring(6, graph.UnitWeights())
	s := Cover{{0, 1, 2}, {2, 3, 4}, {4, 5, 0}}
	if !s.IsCover(6) {
		t.Fatal("should be a cover")
	}
	if s.MaxDegree(6) != 2 {
		t.Fatalf("MaxDegree = %d, want 2", s.MaxDegree(6))
	}
	if r := s.Radius(g); r != 1 {
		t.Fatalf("Radius = %d, want 1", r)
	}
	missing := Cover{{0, 1}, {2, 3}}
	if missing.IsCover(6) {
		t.Fatal("incomplete cover reported complete")
	}
}

func TestSubsumes(t *testing.T) {
	s := Cover{{0, 1}, {2, 3}}
	big := Cover{{0, 1, 2, 3}}
	if !Subsumes(big, s, 4) {
		t.Error("big should subsume s")
	}
	partial := Cover{{0, 1, 2}}
	if Subsumes(partial, s, 4) {
		t.Error("partial should not subsume s (misses {2,3})")
	}
	if !Subsumes(s, s, 4) {
		t.Error("cover should subsume itself")
	}
}

func TestSingletonAndBallCovers(t *testing.T) {
	g := graph.Path(5, graph.UnitWeights())
	s := SingletonCover(5)
	if !s.IsCover(5) || s.Radius(g) != 0 {
		t.Fatal("singleton cover wrong")
	}
	b := BallCover(g, 1)
	if !b.IsCover(5) {
		t.Fatal("ball cover should cover V")
	}
	// Ball around vertex 2 with rho=1 is {1,2,3}.
	if len(b[2]) != 3 {
		t.Fatalf("ball(2,1) = %v, want 3 vertices", b[2])
	}
	if r := b.Radius(g); r > 1 {
		t.Fatalf("ball cover radius = %d, want <= 1", r)
	}
}

func TestPathCover(t *testing.T) {
	g := graph.HeavyChordRing(10, 100)
	s := PathCover(g)
	if len(s) != g.M() {
		t.Fatalf("PathCover has %d clusters, want m=%d", len(s), g.M())
	}
	if !s.IsCover(g.N()) {
		t.Fatal("path cover must cover V (every vertex has an edge)")
	}
	d := graph.MaxNeighborDist(g)
	if r := s.Radius(g); r > d {
		t.Fatalf("Rad(PathCover) = %d > d = %d", r, d)
	}
}

// checkCoarsen validates the three properties of Theorem 1.1 on one
// instance, with the constant-factor slack documented in Coarsen.
func checkCoarsen(t *testing.T, g *graph.Graph, s Cover, k int) {
	t.Helper()
	out := Coarsen(g, s, k)
	n := g.N()
	if !out.IsCover(n) {
		t.Fatal("coarsened cover does not cover V")
	}
	if !Subsumes(out, s, n) {
		t.Fatal("coarsened cover does not subsume input")
	}
	radS := s.Radius(g)
	radT := out.Radius(g)
	if radT < 0 {
		t.Fatal("output cluster disconnected")
	}
	bound := int64(2*k+1) * radS
	if radS == 0 {
		bound = 0
	}
	if radT > bound {
		t.Fatalf("Rad(T) = %d > (2k+1)Rad(S) = %d (k=%d, Rad(S)=%d)", radT, bound, k, radS)
	}
	// Degree: Δ(T) = O(k·|S|^{1/k}); allow constant 4.
	degBound := 4 * float64(k) * math.Pow(float64(len(s)), 1/float64(k))
	if deg := out.MaxDegree(n); float64(deg) > degBound+1 {
		t.Fatalf("Δ(T) = %d exceeds 4k|S|^{1/k} = %.1f", deg, degBound)
	}
}

func TestCoarsenSingletons(t *testing.T) {
	g := graph.Grid(5, 5, graph.UnitWeights())
	for _, k := range []int{1, 2, 3, 5} {
		checkCoarsen(t, g, SingletonCover(g.N()), k)
	}
}

func TestCoarsenBalls(t *testing.T) {
	g := graph.RandomConnected(40, 90, graph.UniformWeights(8, 5), 5)
	for _, k := range []int{1, 2, 3} {
		checkCoarsen(t, g, BallCover(g, 10), k)
	}
}

func TestCoarsenPathCover(t *testing.T) {
	g := graph.HeavyChordRing(30, 64)
	for _, k := range []int{2, 3, 5} {
		checkCoarsen(t, g, PathCover(g), k)
	}
}

func TestCoarsenProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(25)
		g := graph.RandomConnected(n, n-1+rng.Intn(2*n), graph.UniformWeights(16, seed), seed)
		k := 1 + rng.Intn(4)
		s := BallCover(g, 1+rng.Int63n(20))
		out := Coarsen(g, s, k)
		if !out.IsCover(n) || !Subsumes(out, s, n) {
			return false
		}
		radS, radT := s.Radius(g), out.Radius(g)
		if radT < 0 {
			return false
		}
		if radS == 0 {
			return radT == 0
		}
		return radT <= int64(2*k+1)*radS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

func TestCoarsenDegreeTradeoff(t *testing.T) {
	// Theorem 1.1's tradeoff: Δ(T) = O(k·|S|^{1/k}) shrinks as k grows
	// (paying in radius). With k ~ log|S| the kernel keeps growing until
	// it stabilizes, so the degree must drop far below |S|.
	g := graph.Grid(6, 6, graph.UnitWeights())
	s := BallCover(g, 2)
	kBig := int(math.Ceil(math.Log2(float64(len(s)))))
	degBig := Coarsen(g, s, kBig).MaxDegree(g.N())
	if float64(degBig) > 4*float64(kBig)*math.Pow(float64(len(s)), 1/float64(kBig)) {
		t.Fatalf("Δ(T) with k=log|S| = %d, want O(log|S|)", degBig)
	}
	deg1 := Coarsen(g, s, 1).MaxDegree(g.N())
	if degBig > deg1 {
		t.Fatalf("degree should not grow with k: k=%d gives %d, k=1 gives %d", kBig, degBig, deg1)
	}
}
