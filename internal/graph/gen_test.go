package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeneratorsShape(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		n, m int
		conn bool
	}{
		{"path", Path(7, UnitWeights()), 7, 6, true},
		{"ring", Ring(7, UnitWeights()), 7, 7, true},
		{"star", Star(7, UnitWeights()), 7, 6, true},
		{"complete", Complete(6, UnitWeights()), 6, 15, true},
		{"grid", Grid(3, 4, UnitWeights()), 12, 17, true},
		{"caterpillar", Caterpillar(9, UnitWeights()), 9, 8, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.g.N() != tt.n {
				t.Errorf("n = %d, want %d", tt.g.N(), tt.n)
			}
			if tt.g.M() != tt.m {
				t.Errorf("m = %d, want %d", tt.g.M(), tt.m)
			}
			if tt.g.Connected() != tt.conn {
				t.Errorf("connected = %v, want %v", tt.g.Connected(), tt.conn)
			}
		})
	}
}

func TestRandomConnectedIsConnectedAndDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		m := n - 1 + rng.Intn(3*n)
		g1 := RandomConnected(n, m, UniformWeights(99, seed), seed)
		g2 := RandomConnected(n, m, UniformWeights(99, seed), seed)
		if !g1.Connected() {
			return false
		}
		if g1.M() != g2.M() || g1.TotalWeight() != g2.TotalWeight() {
			return false // determinism
		}
		return g1.M() >= n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightFns(t *testing.T) {
	g := Path(10, PowerOfTwoWeights(6, 42))
	for _, e := range g.Edges() {
		if e.W&(e.W-1) != 0 {
			t.Fatalf("PowerOfTwoWeights produced non power of two %d", e.W)
		}
		if e.W > 64 {
			t.Fatalf("weight %d exceeds 2^6", e.W)
		}
	}
	g2 := Path(200, UniformWeights(10, 1))
	for _, e := range g2.Edges() {
		if e.W < 1 || e.W > 10 {
			t.Fatalf("UniformWeights out of range: %d", e.W)
		}
	}
	g3 := Path(4, ConstWeights(17))
	if g3.TotalWeight() != 51 {
		t.Fatalf("ConstWeights total = %d, want 51", g3.TotalWeight())
	}
}

func TestHardConnectivityStructure(t *testing.T) {
	// §7.1: MST is the path; bypass edges have weight X^4.
	n := 10
	x := int64(n)
	g := HardConnectivity(n, x)
	if !g.Connected() {
		t.Fatal("G_n must be connected")
	}
	vv := MSTWeight(g)
	if vv != int64(n-1)*x {
		t.Fatalf("𝓥 = %d, want path weight %d", vv, int64(n-1)*x)
	}
	x4 := x * x * x * x
	bypass := 0
	for _, e := range g.Edges() {
		switch e.W {
		case x:
		case x4:
			bypass++
			// Bypass edge (i, n-1-i).
			if int(e.U)+int(e.V) != n-1 {
				t.Fatalf("bypass edge %v does not match (i, n-1-i)", e)
			}
		default:
			t.Fatalf("unexpected weight %d", e.W)
		}
	}
	if bypass == 0 {
		t.Fatal("no bypass edges generated")
	}
	// A single bypass use costs more than n times the whole MST.
	if x4 < int64(n)*vv/2 {
		t.Fatalf("bypass weight %d should dominate n·𝓥 = %d", x4, int64(n)*vv)
	}
}

func TestHeavyChordRingGap(t *testing.T) {
	g := HeavyChordRing(20, 500)
	if d := MaxNeighborDist(g); d != 2 {
		t.Fatalf("d = %d, want 2", d)
	}
	if w := g.MaxWeight(); w != 500 {
		t.Fatalf("W = %d, want 500", w)
	}
}

func TestShallowLightGapSeparation(t *testing.T) {
	// The [BKJ83] separation: SPT from the hub is much heavier than the
	// MST, and the MST is much deeper than the SPT.
	n := 20
	g := ShallowLightGap(n)
	if !g.Connected() {
		t.Fatal("not connected")
	}
	hub := NodeID(n - 1)
	spt := Dijkstra(g, hub).Tree(g)
	mst := PrimTree(g, hub)
	if spt.Weight() <= 2*mst.Weight() {
		t.Fatalf("expected heavy SPT: w(SPT)=%d w(MST)=%d", spt.Weight(), mst.Weight())
	}
	if mst.Diam() <= 2*Diameter(g) {
		t.Fatalf("expected deep MST: Diam(MST)=%d 𝓓=%d", mst.Diam(), Diameter(g))
	}
}

func TestBinaryTree(t *testing.T) {
	g := BinaryTree(15, UnitWeights())
	if g.N() != 15 || g.M() != 14 || !g.Connected() {
		t.Fatalf("binary tree shape wrong: n=%d m=%d", g.N(), g.M())
	}
	// Depth of a complete binary tree on 15 vertices is 3.
	if d := Diameter(g); d != 6 {
		t.Fatalf("Diameter = %d, want 6", d)
	}
	if g.Degree(0) != 2 {
		t.Fatalf("root degree = %d, want 2", g.Degree(0))
	}
}

func TestRandomRegular(t *testing.T) {
	g := RandomRegular(40, 4, UnitWeights(), 7)
	if !g.Connected() {
		t.Fatal("random regular graph must be connected")
	}
	// The pairing model with rejection loses a few edges; degrees stay
	// at most d and mostly equal to d.
	atD := 0
	for v := 0; v < g.N(); v++ {
		deg := g.Degree(NodeID(v))
		if deg > 4 {
			t.Fatalf("degree %d > 4 at %d", deg, v)
		}
		if deg == 4 {
			atD++
		}
	}
	if atD < g.N()/2 {
		t.Fatalf("only %d/%d vertices reached full degree", atD, g.N())
	}
	// Expander-ish: diameter logarithmic, far below n.
	if d := Diameter(g); d > 10 {
		t.Fatalf("Diameter = %d, want small (expander)", d)
	}
	// Determinism.
	g2 := RandomRegular(40, 4, UnitWeights(), 7)
	if g2.M() != g.M() {
		t.Fatal("RandomRegular not deterministic")
	}
}

func TestRandomRegularOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd n·d should panic")
		}
	}()
	RandomRegular(5, 3, UnitWeights(), 1)
}
