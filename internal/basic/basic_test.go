package basic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"costsense/internal/graph"
	"costsense/internal/sim"
)

func TestFloodReachesAllAndBuildsTree(t *testing.T) {
	g := graph.RandomConnected(40, 100, graph.UniformWeights(20, 3), 3)
	res, err := RunFlood(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range res.Reached {
		if !res.Reached[v] {
			t.Fatalf("node %d not reached", v)
		}
	}
	tree := graph.NewTree(g, 0, res.Parent)
	if !tree.Spanning() {
		t.Fatal("flood parents do not form a spanning tree")
	}
	// Fact 6.1: communication O(𝓔) — at most two messages per edge.
	if res.Stats.Comm > 2*g.TotalWeight() {
		t.Errorf("flood comm %d > 2𝓔 = %d", res.Stats.Comm, 2*g.TotalWeight())
	}
	// Time O(𝓓) under the maximal adversary.
	if dd := graph.Diameter(g); res.Stats.FinishTime > 2*dd {
		t.Errorf("flood time %d > 2𝓓 = %d", res.Stats.FinishTime, 2*dd)
	}
}

func TestFloodPartialOnDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 2)
	b.AddEdge(2, 3, 2)
	g := b.MustBuild()
	res, err := RunFlood(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached[1] || res.Reached[2] || res.Reached[3] {
		t.Fatalf("reachability = %v, want [true true false false]", res.Reached)
	}
}

func TestDFSVisitsAllAndBoundsComm(t *testing.T) {
	g := graph.RandomConnected(30, 70, graph.UniformWeights(25, 5), 5)
	res, err := RunDFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v, ok := range res.Visited {
		if !ok {
			t.Fatalf("node %d not visited", v)
		}
	}
	tree := graph.NewTree(g, 0, res.Parent)
	if !tree.Spanning() {
		t.Fatal("DFS parents do not form a spanning tree")
	}
	// Fact 6.2: communication O(𝓔). Token: <= 4 crossings per edge;
	// home/resume detours form a geometric series bounded by 16𝓔. Allow 24𝓔.
	if res.Stats.Comm > 24*g.TotalWeight() {
		t.Errorf("DFS comm %d > 24𝓔 = %d", res.Stats.Comm, 24*g.TotalWeight())
	}
	// Serial algorithm: time within the same bound.
	if res.Stats.FinishTime > 24*g.TotalWeight() {
		t.Errorf("DFS time %d > 24𝓔 = %d", res.Stats.FinishTime, 24*g.TotalWeight())
	}
	// The final estimate counts token traversals only, also O(𝓔).
	if res.FinalEst <= 0 || res.FinalEst > 4*g.TotalWeight() {
		t.Errorf("FinalEst = %d, want in (0, 4𝓔]", res.FinalEst)
	}
}

func TestDFSTreeIsDepthFirst(t *testing.T) {
	// On a path, DFS from an end visits in order; parents are the
	// predecessors.
	g := graph.Path(6, graph.ConstWeights(3))
	res, err := RunDFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 6; v++ {
		if res.Parent[v] != graph.NodeID(v-1) {
			t.Fatalf("Parent[%d] = %d, want %d", v, res.Parent[v], v-1)
		}
	}
}

func TestDFSProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := graph.RandomConnected(n, n-1+rng.Intn(2*n), graph.UniformWeights(30, seed), seed)
		root := graph.NodeID(rng.Intn(n))
		res, err := RunDFS(g, root)
		if err != nil {
			return false
		}
		tree := graph.NewTree(g, root, res.Parent)
		return tree.Spanning() && res.Stats.Comm <= 24*g.TotalWeight()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestMSTCentrMatchesKruskal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := graph.RandomConnected(n, n-1+rng.Intn(2*n), graph.UniformWeights(500, seed), seed)
		root := graph.NodeID(rng.Intn(n))
		res, err := RunMSTCentr(g, root)
		if err != nil {
			t.Log(err)
			return false
		}
		tree := res.Tree(g, root)
		return tree.Spanning() && tree.Weight() == graph.MSTWeight(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestMSTCentrComplexity(t *testing.T) {
	// Corollary 6.4: communication O(n·𝓥), time O(n·Diam(MST)).
	g := graph.RandomConnected(40, 120, graph.UniformWeights(50, 7), 7)
	res, err := RunMSTCentr(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(g.N())
	vv := graph.MSTWeight(g)
	if res.Stats.Comm > 5*n*vv {
		t.Errorf("MSTcentr comm %d > 5n𝓥 = %d", res.Stats.Comm, 5*n*vv)
	}
	mstDiam := res.Tree(g, 0).Diam()
	if res.Stats.FinishTime > 5*n*(mstDiam+1) {
		t.Errorf("MSTcentr time %d > 5n·Diam(MST) = %d", res.Stats.FinishTime, 5*n*(mstDiam+1))
	}
}

func TestSPTCentrMatchesDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := graph.RandomConnected(n, n-1+rng.Intn(2*n), graph.UniformWeights(100, seed), seed)
		root := graph.NodeID(rng.Intn(n))
		res, err := RunSPTCentr(g, root)
		if err != nil {
			t.Log(err)
			return false
		}
		want := graph.Dijkstra(g, root)
		for v := range res.Dist {
			if res.Dist[v] != want.Dist[v] {
				t.Logf("seed %d: Dist[%d] = %d, want %d", seed, v, res.Dist[v], want.Dist[v])
				return false
			}
		}
		tree := res.Tree(g, root)
		depths := tree.Depths()
		for v := range depths {
			if depths[v] != want.Dist[v] {
				return false // tree must realize the distances
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestSPTCentrComplexity(t *testing.T) {
	// Corollary 6.6: communication O(n·w(SPT)) = O(n²𝓥).
	g := graph.RandomConnected(35, 100, graph.UniformWeights(40, 13), 13)
	res, err := RunSPTCentr(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(g.N())
	sptW := res.Tree(g, 0).Weight()
	if res.Stats.Comm > 5*n*(sptW+1) {
		t.Errorf("SPTcentr comm %d > 5n·w(SPT) = %d", res.Stats.Comm, 5*n*sptW)
	}
}

// suspendOnce suspends the algorithm at its first report and resumes on
// a later, externally injected message — exercising the Gate plumbing
// that the hybrid algorithms rely on.
type suspendOnce struct {
	suspended int
	resume    func(Port)
}

func (s *suspendOnce) Report(est int64, resume func(Port)) bool {
	if s.suspended == 0 {
		s.suspended++
		s.resume = resume
		return false
	}
	return true
}

// kicker delivers a wake-up message to the root after a delay so the
// suspended DFS can resume inside a Handle call.
type kicker struct {
	core *DFSCore
	gate *suspendOnce
}

func (k *kicker) Init(ctx sim.Context) {
	k.core.Start(ctx) // the kicker always runs on the root
}

func (k *kicker) Handle(ctx sim.Context, from graph.NodeID, m sim.Message) {
	if _, ok := m.(string); ok {
		if k.gate.resume != nil {
			r := k.gate.resume
			k.gate.resume = nil
			r(ctx)
		}
		return
	}
	k.core.Handle(ctx, from, m)
}

func TestDFSGateSuspendResume(t *testing.T) {
	g := graph.Path(5, graph.ConstWeights(2))
	gate := &suspendOnce{}
	cores := make([]*DFSCore, g.N())
	procs := make([]sim.Process, g.N())
	for v := range procs {
		cores[v] = NewDFSCore(0)
		procs[v] = &DFSProc{Core: cores[v]}
	}
	cores[0].Gate = gate
	procs[0] = &kicker{core: cores[0], gate: gate}
	// Node 1 additionally sends the wake-up kick to the root.
	procs[1] = &kickShim{inner: procs[1].(*DFSProc)}

	if _, err := sim.Run(g, procs); err != nil {
		t.Fatal(err)
	}
	if !cores[0].Done {
		t.Fatal("DFS did not complete after resume")
	}
	if gate.suspended != 1 {
		t.Fatalf("gate suspended %d times, want 1", gate.suspended)
	}
}

type kickShim struct {
	inner *DFSProc
}

func (k *kickShim) Init(ctx sim.Context) {
	ctx.Send(0, "kick")
	k.inner.Init(ctx)
}

func (k *kickShim) Handle(ctx sim.Context, from graph.NodeID, m sim.Message) {
	k.inner.Handle(ctx, from, m)
}

func TestDFSGateConsulted(t *testing.T) {
	// A single-edge graph: the root's first traversal always doubles
	// from zero, but that update happens locally at the root, so the
	// gate must see at least one report.
	g := graph.Path(2, graph.ConstWeights(5))
	gate := &countGate{}
	cores := []*DFSCore{NewDFSCore(0), NewDFSCore(0)}
	cores[0].Gate = gate
	procs := []sim.Process{&DFSProc{Core: cores[0]}, &DFSProc{Core: cores[1]}}
	if _, err := sim.Run(g, procs); err != nil {
		t.Fatal(err)
	}
	if !cores[0].Done {
		t.Fatal("DFS incomplete")
	}
	if gate.calls == 0 {
		t.Fatal("gate never consulted")
	}
}

type countGate struct{ calls int }

func (c *countGate) Report(int64, func(Port)) bool {
	c.calls++
	return true
}
