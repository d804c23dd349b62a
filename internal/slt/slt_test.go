package slt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"costsense/internal/graph"
	"costsense/internal/sim"
)

func checkSLT(t *testing.T, g *graph.Graph, v0 graph.NodeID, q int64) *graph.Tree {
	t.Helper()
	tree, info, err := Build(g, v0, q)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Spanning() {
		t.Fatal("SLT does not span")
	}
	vv := graph.MSTWeight(g)
	dd := graph.Diameter(g)
	if w := tree.Weight(); w > WeightBound(q, vv) {
		t.Fatalf("w(T) = %d > (1+2/q)𝓥 = %d (q=%d, 𝓥=%d)", w, WeightBound(q, vv), q, vv)
	}
	if h := tree.Height(); h > DepthBound(q, dd) {
		t.Fatalf("depth(T) = %d > (2q+1)𝓓 = %d (q=%d, 𝓓=%d)", h, DepthBound(q, dd), q, dd)
	}
	if !IsShallowLight(g, tree, q) {
		t.Fatal("IsShallowLight disagrees with explicit checks")
	}
	if len(info.Tour) != 2*g.N()-1 {
		t.Fatalf("tour length %d, want %d", len(info.Tour), 2*g.N()-1)
	}
	if len(info.Breakpoints) == 0 || info.Breakpoints[0] != 0 {
		t.Fatalf("breakpoints must start at 0: %v", info.Breakpoints)
	}
	return tree
}

func TestBuildOnSeparationGraph(t *testing.T) {
	// On the [BKJ83] separation instance neither the MST nor the SPT is
	// shallow-light, so the algorithm must do real work.
	g := graph.ShallowLightGap(30)
	hub := graph.NodeID(g.N() - 1)
	for _, q := range []int64{1, 2, 4, 8} {
		checkSLT(t, g, hub, q)
	}
	// Sanity: the MST itself violates the depth bound for small q, so
	// the test above is not vacuous.
	mst := graph.PrimTree(g, hub)
	if mst.Height() <= DepthBound(2, graph.Diameter(g)) {
		t.Skip("separation instance unexpectedly mild") // defensive; should not happen for n=30
	}
}

func TestBuildFamilies(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(20, graph.UniformWeights(9, 1))},
		{"ring", graph.Ring(21, graph.UniformWeights(9, 2))},
		{"grid", graph.Grid(5, 6, graph.UniformWeights(9, 3))},
		{"complete", graph.Complete(15, graph.UniformWeights(50, 4))},
		{"random", graph.RandomConnected(40, 100, graph.UniformWeights(30, 5), 5)},
		{"star", graph.Star(17, graph.UniformWeights(9, 6))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for _, q := range []int64{1, 3, 10} {
				checkSLT(t, tt.g, 0, q)
			}
		})
	}
}

func TestBuildTrivialGraphs(t *testing.T) {
	single := graph.NewBuilder(1).MustBuild()
	tree, _, err := Build(single, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Spanning() || tree.Weight() != 0 {
		t.Fatal("singleton SLT wrong")
	}
	pair := graph.Path(2, graph.ConstWeights(5))
	tree, _, err = Build(pair, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Weight() != 5 || tree.Root != 1 {
		t.Fatalf("pair SLT weight=%d root=%d", tree.Weight(), tree.Root)
	}
}

func TestBuildErrors(t *testing.T) {
	g := graph.Path(3, graph.UnitWeights())
	if _, _, err := Build(g, 0, 0); err == nil {
		t.Error("q=0 should error")
	}
	disc := graph.NewBuilder(3).MustBuild()
	if _, _, err := Build(disc, 0, 2); err == nil {
		t.Error("disconnected graph should error")
	}
}

func TestSLTProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := graph.RandomConnected(n, n-1+rng.Intn(2*n), graph.UniformWeights(64, seed), seed)
		v0 := graph.NodeID(rng.Intn(n))
		q := 1 + rng.Int63n(8)
		tree, _, err := Build(g, v0, q)
		if err != nil {
			return false
		}
		return tree.Spanning() && IsShallowLight(g, tree, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(24))}); err != nil {
		t.Fatal(err)
	}
}

func TestQTradeoffMonotonicity(t *testing.T) {
	// Larger q may only help weight (fewer grafts): w(T_q) is
	// non-increasing in q up to SPT tie-breaks; check the endpoints.
	g := graph.ShallowLightGap(40)
	hub := graph.NodeID(g.N() - 1)
	t1, _, err := Build(g, hub, 1)
	if err != nil {
		t.Fatal(err)
	}
	t64, _, err := Build(g, hub, 64)
	if err != nil {
		t.Fatal(err)
	}
	if t64.Weight() > t1.Weight() {
		t.Errorf("weight should shrink with q: q=64 gives %d, q=1 gives %d", t64.Weight(), t1.Weight())
	}
	if t1.Height() > t64.Height() {
		t.Errorf("depth should shrink with 1/q: q=1 gives %d, q=64 gives %d", t1.Height(), t64.Height())
	}
}

func TestRunDistributedMatchesBounds(t *testing.T) {
	g := graph.RandomConnected(25, 60, graph.UniformWeights(20, 11), 11)
	res, err := RunDistributed(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tree.Spanning() {
		t.Fatal("distributed SLT does not span")
	}
	if !IsShallowLight(g, res.Tree, 2) {
		t.Fatalf("distributed SLT violates bounds: w=%d depth=%d", res.Tree.Weight(), res.Tree.Height())
	}
	// Theorem 2.7: O(𝓥n²) communication, O(𝓓n²) time.
	n := int64(g.N())
	vv := graph.MSTWeight(g)
	dd := graph.Diameter(g)
	if res.Stats.Comm > 10*vv*n*n {
		t.Errorf("distributed SLT comm %d > 10𝓥n² = %d", res.Stats.Comm, 10*vv*n*n)
	}
	if res.Stats.FinishTime > 10*dd*n*n {
		t.Errorf("distributed SLT time %d > 10𝓓n² = %d", res.Stats.FinishTime, 10*dd*n*n)
	}
}

// TestRunDistributedPooled: the three stages under one pool reuse one
// network — the SPT stage hits the MST stage's, the final stage on G'
// recycles it — so each stage's Stats must be read before the next
// stage runs. The total then equals the unpooled one.
func TestRunDistributedPooled(t *testing.T) {
	g := graph.RandomConnected(25, 60, graph.UniformWeights(20, 11), 11)
	want, err := RunDistributed(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunDistributed(g, 0, 2, sim.WithPool(sim.NewPool(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Messages != want.Stats.Messages || got.Stats.Comm != want.Stats.Comm || got.Stats.FinishTime != want.Stats.FinishTime {
		t.Errorf("pooled stages sum to %+v, unpooled to %+v", got.Stats, want.Stats)
	}
}

func TestCorollary23GlobalComputationCost(t *testing.T) {
	// Corollary 2.3 backbone: an SLT supports global function
	// computation with O(𝓥) communication (2·w(T)) and O(𝓓) time
	// (2·depth(T)); verify the tree-level quantities directly.
	g := graph.RandomConnected(50, 120, graph.UniformWeights(25, 17), 17)
	tree, _, err := Build(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	vv := graph.MSTWeight(g)
	dd := graph.Diameter(g)
	if 2*tree.Weight() > 2*WeightBound(2, vv) {
		t.Errorf("2w(T) = %d exceeds O(𝓥)", 2*tree.Weight())
	}
	if 2*tree.Height() > 2*DepthBound(2, dd) {
		t.Errorf("2depth(T) = %d exceeds O(𝓓)", 2*tree.Height())
	}
}

func TestGPrimeStructure(t *testing.T) {
	// G' = T_M ∪ grafted SPT paths: it must contain every MST edge and
	// weigh at most the Lemma 2.4 bound.
	g := graph.ShallowLightGap(48)
	hub := graph.NodeID(g.N() - 1)
	q := int64(2)
	_, info, err := Build(g, hub, q)
	if err != nil {
		t.Fatal(err)
	}
	gp := info.GPrime
	if gp.N() != g.N() {
		t.Fatal("G' changed the vertex set")
	}
	mst := graph.PrimTree(g, hub)
	for _, e := range mst.Edges() {
		if gp.Weight(e.U, e.V) < 0 {
			t.Fatalf("G' misses MST edge %v", e)
		}
	}
	if gp.TotalWeight() > WeightBound(q, graph.MSTWeight(g)) {
		t.Fatalf("w(G') = %d above the Lemma 2.4 bound %d",
			gp.TotalWeight(), WeightBound(q, graph.MSTWeight(g)))
	}
	if !gp.Connected() {
		t.Fatal("G' must be connected")
	}
}

func TestBreakpointsAreMonotone(t *testing.T) {
	g := graph.RandomConnected(40, 100, graph.UniformWeights(20, 31), 31)
	_, info, err := Build(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(info.Breakpoints); i++ {
		if info.Breakpoints[i] <= info.Breakpoints[i-1] {
			t.Fatalf("breakpoints not increasing: %v", info.Breakpoints)
		}
		if info.Breakpoints[i] >= len(info.Tour) {
			t.Fatalf("breakpoint %d beyond the tour", info.Breakpoints[i])
		}
	}
}
