package mst

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"costsense/internal/basic"
	"costsense/internal/graph"
	"costsense/internal/sim"
)

func TestNameOrdering(t *testing.T) {
	a := MakeName(3, 1, 10) // normalized to U=1,V=3
	if a.U != 1 || a.V != 3 {
		t.Fatalf("MakeName did not normalize: %+v", a)
	}
	b := MakeName(0, 2, 10)
	if !b.Less(a) { // same weight, smaller endpoints first
		t.Error("tie-break by endpoints failed")
	}
	c := MakeName(5, 6, 9)
	if !c.Less(a) || !c.Less(b) {
		t.Error("weight must dominate")
	}
	if a.Less(a) {
		t.Error("irreflexive order violated")
	}
	if !a.Less(InfName) || InfName.IsInf() != true || a.IsInf() {
		t.Error("InfName handling wrong")
	}
}

func checkMST(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	if len(res.Edges) != g.N()-1 {
		t.Fatalf("got %d edges, want %d", len(res.Edges), g.N()-1)
	}
	if got, want := res.Weight(), graph.MSTWeight(g); got != want {
		t.Fatalf("tree weight %d, want MST weight %d", got, want)
	}
	if _, err := res.Tree(g, 0); err != nil {
		t.Fatalf("result is not a spanning tree: %v", err)
	}
}

func TestGHSKnownGraph(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 3, 3)
	b.AddEdge(0, 3, 10)
	b.AddEdge(0, 2, 4)
	g := b.MustBuild()
	res, err := RunGHS(g)
	if err != nil {
		t.Fatal(err)
	}
	checkMST(t, g, res)
}

func TestGHSTwoNodes(t *testing.T) {
	g := graph.Path(2, graph.ConstWeights(7))
	res, err := RunGHS(g)
	if err != nil {
		t.Fatal(err)
	}
	checkMST(t, g, res)
}

func TestGHSSingleNode(t *testing.T) {
	g := graph.NewBuilder(1).MustBuild()
	res, err := RunGHS(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != 0 {
		t.Fatal("single node should produce no edges")
	}
}

func TestGHSFamilies(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(20, graph.UniformWeights(9, 1))},
		{"ring", graph.Ring(15, graph.UniformWeights(9, 2))},
		{"complete", graph.Complete(12, graph.UniformWeights(50, 3))},
		{"grid", graph.Grid(5, 5, graph.UniformWeights(20, 4))},
		{"equal weights", graph.Complete(10, graph.ConstWeights(5))},
		{"random", graph.RandomConnected(40, 100, graph.UniformWeights(30, 5), 5)},
		{"hard", graph.HardConnectivity(16, 16)},
		{"expander", graph.RandomRegular(30, 4, graph.UniformWeights(25, 6), 6)},
		{"binary tree", graph.BinaryTree(31, graph.UniformWeights(12, 7))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := RunGHS(tt.g)
			if err != nil {
				t.Fatal(err)
			}
			checkMST(t, tt.g, res)
		})
	}
}

func TestGHSProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := graph.RandomConnected(n, n-1+rng.Intn(3*n), graph.UniformWeights(1+rng.Int63n(60), seed), seed)
		res, err := RunGHS(g)
		if err != nil {
			t.Log(err)
			return false
		}
		return res.Weight() == graph.MSTWeight(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

func TestGHSRandomDelays(t *testing.T) {
	// Asynchrony stress: the algorithm must be correct under arbitrary
	// delay interleavings, not just the maximal adversary.
	g := graph.RandomConnected(25, 70, graph.UniformWeights(40, 6), 6)
	for seed := int64(0); seed < 10; seed++ {
		res, err := RunGHS(g, sim.WithDelay(sim.DelayUniform{}), sim.WithSeed(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkMST(t, g, res)
	}
}

func TestGHSComplexity(t *testing.T) {
	// Lemma 8.1: communication O(𝓔 + 𝓥 log n).
	g := graph.RandomConnected(60, 200, graph.UniformWeights(30, 8), 8)
	res, err := RunGHS(g)
	if err != nil {
		t.Fatal(err)
	}
	ee := g.TotalWeight()
	vv := graph.MSTWeight(g)
	logn := int64(math.Ceil(math.Log2(float64(g.N()))))
	bound := 8 * (ee + vv*logn)
	if res.Stats.Comm > bound {
		t.Errorf("GHS comm %d > 8(𝓔 + 𝓥 log n) = %d", res.Stats.Comm, bound)
	}
}

func TestMSTFastFamilies(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(15, graph.UniformWeights(9, 11))},
		{"complete", graph.Complete(12, graph.UniformWeights(64, 12))},
		{"grid", graph.Grid(4, 6, graph.UniformWeights(20, 13))},
		{"heavy tail", graph.RandomConnected(30, 80, graph.PowerOfTwoWeights(10, 14), 14)},
		{"random", graph.RandomConnected(35, 90, graph.UniformWeights(100, 15), 15)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := RunMSTFast(tt.g)
			if err != nil {
				t.Fatal(err)
			}
			checkMST(t, tt.g, res)
		})
	}
}

func TestMSTFastProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := graph.RandomConnected(n, n-1+rng.Intn(2*n), graph.UniformWeights(1+rng.Int63n(100), seed), seed)
		res, err := RunMSTFast(g)
		if err != nil {
			t.Log(err)
			return false
		}
		return res.Weight() == graph.MSTWeight(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(18))}); err != nil {
		t.Fatal(err)
	}
}

func TestMSTFastBeatsGHSOnTimeWithHeavyEdges(t *testing.T) {
	// §8.3's point: GHS's serial per-node scan makes its time Ω(𝓔)
	// when one vertex must reject many heavy non-MST edges one at a
	// time, while MSTfast tests them in parallel, following
	// O(Diam(MST)·log n·log 𝓥). Build a unit path (the MST) plus a
	// star of very heavy edges centered at vertex 0.
	n := 24
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	for i := 2; i < n; i++ {
		b.AddEdge(0, graph.NodeID(i), 4096)
	}
	g := b.MustBuild()
	slow, err := RunGHS(g)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunMSTFast(g)
	if err != nil {
		t.Fatal(err)
	}
	checkMST(t, g, slow)
	checkMST(t, g, fast)
	if 10*fast.Stats.FinishTime > 9*slow.Stats.FinishTime {
		t.Errorf("MSTfast time %d should be below MSTghs time %d",
			fast.Stats.FinishTime, slow.Stats.FinishTime)
	}
}

func TestHybridFamilies(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"tree", graph.RandomConnected(25, 24, graph.UniformWeights(10, 21), 21)},
		{"dense", graph.Complete(14, graph.UniformWeights(40, 22))},
		{"hard Gn", graph.HardConnectivity(18, 18)},
		{"random", graph.RandomConnected(30, 80, graph.UniformWeights(25, 23), 23)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := RunMSTHybrid(tt.g, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkMST(t, tt.g, res.Result)
		})
	}
}

func TestHybridProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := graph.RandomConnected(n, n-1+rng.Intn(2*n), graph.UniformWeights(50, seed), seed)
		res, err := RunMSTHybrid(g, graph.NodeID(rng.Intn(n)))
		if err != nil {
			t.Log(err)
			return false
		}
		return res.Result.Weight() == graph.MSTWeight(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Fatal(err)
	}
}

func TestHybridTracksMin(t *testing.T) {
	// Corollary 8.2: comm O(min{𝓔 + 𝓥 log n, n𝓥}).
	check := func(t *testing.T, g *graph.Graph) {
		t.Helper()
		res, err := RunMSTHybrid(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		ghs, err := RunGHS(g)
		if err != nil {
			t.Fatal(err)
		}
		centr, err := basic.RunMSTCentr(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		// DFS wake-up costs O(𝓔) extra on the GHS side; allow 8x min of
		// the standalone runs plus the wake-up term.
		cheaper := ghs.Stats.Comm + 8*g.TotalWeight()
		if centr.Stats.Comm < cheaper {
			cheaper = centr.Stats.Comm
		}
		if res.Result.Stats.Comm > 8*cheaper {
			t.Errorf("hybrid comm %d > 8·min(ghs+wakeup %d, centr %d)",
				res.Result.Stats.Comm, ghs.Stats.Comm+8*g.TotalWeight(), centr.Stats.Comm)
		}
	}
	t.Run("Gn favors centr", func(t *testing.T) { check(t, graph.HardConnectivity(20, 20)) })
	t.Run("sparse favors ghs", func(t *testing.T) {
		check(t, graph.RandomConnected(40, 60, graph.UniformWeights(10, 31), 31))
	})
}

func TestHybridWinnerOnGn(t *testing.T) {
	// On G_n, 𝓔 = Θ(nX⁴) >> n𝓥, so the DFS wake-up must be parked and
	// MSTcentr must win.
	res, err := RunMSTHybrid(graph.HardConnectivity(20, 20), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "mstcentr" {
		t.Errorf("winner on G_n = %s, want mstcentr", res.Winner)
	}
}

func TestLeaderElection(t *testing.T) {
	g := graph.RandomConnected(30, 80, graph.UniformWeights(40, 41), 41)
	leader, res, err := RunLeaderElection(g)
	if err != nil {
		t.Fatal(err)
	}
	if leader < 0 || int(leader) >= g.N() {
		t.Fatalf("invalid leader %d", leader)
	}
	if res.Leader != leader {
		t.Fatal("result leader mismatch")
	}
	// The leader must be an endpoint of the final core edge, which for
	// the tie-broken unique MST is deterministic: re-running elects the
	// same node.
	leader2, _, err := RunLeaderElection(g)
	if err != nil {
		t.Fatal(err)
	}
	if leader2 != leader {
		t.Fatalf("leader not deterministic: %d vs %d", leader, leader2)
	}
}

func TestLeaderElectionUnderRandomDelays(t *testing.T) {
	// Every node must agree on one leader under any interleaving
	// (agreement is asserted inside extract()).
	g := graph.RandomConnected(20, 50, graph.UniformWeights(30, 43), 43)
	for seed := int64(0); seed < 8; seed++ {
		leader, _, err := RunLeaderElection(g, sim.WithDelay(sim.DelayUniform{}), sim.WithSeed(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if leader < 0 {
			t.Fatalf("seed %d: no leader", seed)
		}
	}
}

func TestLeaderSingleNode(t *testing.T) {
	g := graph.NewBuilder(1).MustBuild()
	leader, _, err := RunLeaderElection(g)
	if err != nil {
		t.Fatal(err)
	}
	if leader != 0 {
		t.Fatalf("singleton leader = %d, want 0", leader)
	}
}

func TestGHSExactEdgeSet(t *testing.T) {
	// With tie-broken weights the MST is unique, so GHS must return
	// exactly Kruskal's edge set, not merely the same total weight.
	g := graph.RandomConnected(35, 90, graph.ConstWeights(7), 51) // all ties
	res, err := RunGHS(g)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[[2]graph.NodeID]bool)
	for _, e := range kruskalTieBroken(g) {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		want[[2]graph.NodeID{u, v}] = true
	}
	if len(res.Edges) != len(want) {
		t.Fatalf("edge count %d vs %d", len(res.Edges), len(want))
	}
	for _, e := range res.Edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if !want[[2]graph.NodeID{u, v}] {
			t.Fatalf("GHS edge (%d,%d) not in the tie-broken MST", u, v)
		}
	}
}

// kruskalTieBroken mirrors the GHS Name order exactly.
func kruskalTieBroken(g *graph.Graph) []graph.Edge {
	edges := make([]graph.Edge, len(g.Edges()))
	copy(edges, g.Edges())
	for i := range edges {
		if edges[i].U > edges[i].V {
			edges[i].U, edges[i].V = edges[i].V, edges[i].U
		}
	}
	sortEdgesByName(edges)
	dsu := graph.NewDSU(g.N())
	var out []graph.Edge
	for _, e := range edges {
		if dsu.Union(int(e.U), int(e.V)) {
			out = append(out, e)
		}
	}
	return out
}

func sortEdgesByName(es []graph.Edge) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0; j-- {
			a, b := es[j], es[j-1]
			if MakeName(a.U, a.V, a.W).Less(MakeName(b.U, b.V, b.W)) {
				es[j], es[j-1] = es[j-1], es[j]
			} else {
				break
			}
		}
	}
}

func TestHybridUnderRandomDelays(t *testing.T) {
	g := graph.RandomConnected(20, 55, graph.UniformWeights(30, 61), 61)
	for seed := int64(0); seed < 5; seed++ {
		res, err := RunMSTHybrid(g, 0, sim.WithDelay(sim.DelayUniform{}), sim.WithSeed(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Result.Weight() != graph.MSTWeight(g) {
			t.Fatalf("seed %d: weight %d", seed, res.Result.Weight())
		}
	}
}

// strayMsg belongs to none of MSThybrid's cores.
type strayMsg struct{}

// TestHybridDispatch checks that isGHSMessage claims exactly GHS's
// messages, disjoint from DFS's and MSTcentr's, and that a message of
// no core panics with its type name.
func TestHybridDispatch(t *testing.T) {
	ghs := []sim.Message{MsgConnect{}, MsgInitiate{}, MsgTest{}, MsgAccept{}, MsgReject{}, MsgReport{}, MsgChangeRoot{}, MsgDone{}}
	for _, m := range ghs {
		if !isGHSMessage(m) || basic.IsDFSMessage(m) || basic.IsCentrMessage(m) {
			t.Errorf("%T is not claimed by GHS alone", m)
		}
	}
	for _, m := range []sim.Message{basic.MsgDFSToken{}, basic.MsgCPhase{}, msgGHSGo{}} {
		if isGHSMessage(m) {
			t.Errorf("isGHSMessage claims %T", m)
		}
	}
	want := fmt.Sprintf("%T", strayMsg{})
	defer func() {
		if s, _ := recover().(string); !strings.Contains(s, want) {
			t.Errorf("Handle(%s) panicked with %q, want the type name", want, s)
		}
	}()
	(&HybridProc{}).Handle(nil, 1, strayMsg{})
}
