package gfunc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"costsense/internal/graph"
	"costsense/internal/slt"
)

func inputsFor(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	in := make([]int64, n)
	for i := range in {
		in[i] = rng.Int63n(1000)
	}
	return in
}

func TestComputeAllFunctions(t *testing.T) {
	g := graph.RandomConnected(30, 70, graph.UniformWeights(15, 3), 3)
	tree := graph.PrimTree(g, 0)
	in := inputsFor(g.N(), 4)
	for _, f := range []Function{Sum, Max, Min, Xor, And, Or} {
		t.Run(f.Name, func(t *testing.T) {
			res, err := Compute(g, tree, in, f)
			if err != nil {
				t.Fatal(err)
			}
			want := Fold(in, f)
			if res.Value != want {
				t.Fatalf("%s = %d, want %d", f.Name, res.Value, want)
			}
			for v, out := range res.Outputs {
				if out != want {
					t.Fatalf("vertex %d output %d, want %d", v, out, want)
				}
			}
		})
	}
}

func TestComputeOnExpanderAndTreeFamilies(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.RandomRegular(32, 4, graph.UniformWeights(10, 2), 2),
		graph.BinaryTree(31, graph.UniformWeights(10, 3)),
		graph.Caterpillar(21, graph.UniformWeights(10, 4)),
	} {
		tree := graph.PrimTree(g, 0)
		in := inputsFor(g.N(), 5)
		res, err := Compute(g, tree, in, Min)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != Fold(in, Min) {
			t.Fatalf("min = %d, want %d", res.Value, Fold(in, Min))
		}
	}
}

func TestComputeCostIsTreeBound(t *testing.T) {
	// Communication is exactly 2·w(T) (one up + one down message per
	// tree edge); time is at most 2·depth(T) under DelayMax.
	g := graph.RandomConnected(40, 90, graph.UniformWeights(12, 9), 9)
	tree := graph.PrimTree(g, 0)
	in := inputsFor(g.N(), 10)
	res, err := Compute(g, tree, in, Sum)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Comm != 2*tree.Weight() {
		t.Errorf("comm = %d, want exactly 2w(T) = %d", res.Stats.Comm, 2*tree.Weight())
	}
	if res.Stats.FinishTime > 2*tree.Height() {
		t.Errorf("time = %d > 2·depth(T) = %d", res.Stats.FinishTime, 2*tree.Height())
	}
}

func TestCorollary23OptimalViaSLT(t *testing.T) {
	// Upper bound (Cor 2.3): O(𝓥) communication, O(𝓓) time via SLT.
	// Lower bound (Thm 2.1): any computation needs Ω(𝓥) comm, Ω(𝓓) time
	// in the worst case; our comm must at least reach 𝓥-ish territory
	// because the message edges span the graph.
	g := graph.ShallowLightGap(40)
	hub := graph.NodeID(g.N() - 1)
	in := inputsFor(g.N(), 5)
	q := int64(2)
	res, tree, err := ComputeViaSLT(g, hub, q, in, Sum)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != Fold(in, Sum) {
		t.Fatalf("sum = %d, want %d", res.Value, Fold(in, Sum))
	}
	vv := graph.MSTWeight(g)
	dd := graph.Diameter(g)
	if res.Stats.Comm > 2*slt.WeightBound(q, vv) {
		t.Errorf("comm %d exceeds 2(1+2/q)𝓥 = %d", res.Stats.Comm, 2*slt.WeightBound(q, vv))
	}
	if res.Stats.FinishTime > 2*slt.DepthBound(q, dd) {
		t.Errorf("time %d exceeds 2(2q+1)𝓓 = %d", res.Stats.FinishTime, 2*slt.DepthBound(q, dd))
	}
	// Lower-bound side: messages must span, so comm >= w(spanning tree) >= 𝓥.
	if res.Stats.Comm < vv {
		t.Errorf("comm %d below the Ω(𝓥) = %d lower bound?!", res.Stats.Comm, vv)
	}
	if !tree.Spanning() {
		t.Fatal("SLT must span")
	}
}

func TestComputeErrors(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights())
	tree := graph.PrimTree(g, 0)
	if _, err := Compute(g, tree, []int64{1, 2}, Sum); err == nil {
		t.Error("wrong input length should error")
	}
	partial := graph.NewTree(g, 0, []graph.NodeID{-1, 0, 1, -1})
	if _, err := Compute(g, partial, []int64{1, 2, 3, 4}, Sum); err == nil {
		t.Error("non-spanning tree should error")
	}
}

func TestBroadcast(t *testing.T) {
	g := graph.Grid(4, 5, graph.UniformWeights(7, 2))
	tree := graph.PrimTree(g, 0)
	res, err := Broadcast(g, tree, 42)
	if err != nil {
		t.Fatal(err)
	}
	for v, out := range res.Outputs {
		if out != 42 {
			t.Fatalf("vertex %d got %d, want 42", v, out)
		}
	}
}

func TestComputeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := graph.RandomConnected(n, n-1+rng.Intn(2*n), graph.UniformWeights(20, seed), seed)
		root := graph.NodeID(rng.Intn(n))
		tree := graph.PrimTree(g, root)
		in := inputsFor(n, seed)
		res, err := Compute(g, tree, in, Xor)
		if err != nil {
			return false
		}
		if res.Value != Fold(in, Xor) {
			return false
		}
		return res.Stats.Comm == 2*tree.Weight()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

func TestSLTBeatsSPTAndMSTOnSeparation(t *testing.T) {
	// The motivation for SLTs (§2.2): on the separation instance,
	// computing over the SPT costs Θ(n·𝓥) comm and over the MST costs
	// Θ(n·𝓓) time; the SLT achieves both O(𝓥) and O(𝓓) at once.
	g := graph.ShallowLightGap(60)
	hub := graph.NodeID(g.N() - 1)
	in := inputsFor(g.N(), 7)

	spt := graph.Dijkstra(g, hub).Tree(g)
	mst := graph.PrimTree(g, hub)
	viaSPT, err := Compute(g, spt, in, Sum)
	if err != nil {
		t.Fatal(err)
	}
	viaMST, err := Compute(g, mst, in, Sum)
	if err != nil {
		t.Fatal(err)
	}
	viaSLT, _, err := ComputeViaSLT(g, hub, 2, in, Sum)
	if err != nil {
		t.Fatal(err)
	}
	if viaSLT.Stats.Comm*2 > viaSPT.Stats.Comm {
		t.Errorf("SLT comm %d should be far below SPT comm %d", viaSLT.Stats.Comm, viaSPT.Stats.Comm)
	}
	if viaSLT.Stats.FinishTime*2 > viaMST.Stats.FinishTime {
		t.Errorf("SLT time %d should be far below MST time %d", viaSLT.Stats.FinishTime, viaMST.Stats.FinishTime)
	}
}

func TestTheorem21InformationFlow(t *testing.T) {
	// Thm 2.1's structural precondition, checked on traces: the edges a
	// global function computation uses must form a connected spanning
	// subgraph G', hence comm >= w(G') >= 𝓥 and time >= dist in G'.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := graph.RandomConnected(n, n-1+rng.Intn(2*n), graph.UniformWeights(16, seed), seed)
		root := graph.NodeID(rng.Intn(n))
		tree := graph.PrimTree(g, root)
		in := inputsFor(n, seed)
		res, err := Compute(g, tree, in, Sum)
		if err != nil {
			return false
		}
		if !res.Stats.UsedSpans(g) {
			return false // information flow must reach every vertex
		}
		vv := graph.MSTWeight(g)
		return res.Stats.UsedWeight(g) >= vv && res.Stats.Comm >= vv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}
