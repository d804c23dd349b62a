package control

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"costsense/internal/basic"
	"costsense/internal/graph"
	"costsense/internal/sim"
)

// makeFlood builds one FloodProc per vertex (a correct diffusing
// computation with c_π <= 2𝓔).
func makeFlood(g *graph.Graph, src graph.NodeID) ([]sim.Process, []*basic.FloodProc) {
	procs := make([]sim.Process, g.N())
	fl := make([]*basic.FloodProc, g.N())
	for v := range procs {
		fl[v] = &basic.FloodProc{Source: src}
		procs[v] = fl[v]
	}
	return procs, fl
}

func TestControllerPreservesCorrectExecution(t *testing.T) {
	g := graph.RandomConnected(30, 80, graph.UniformWeights(20, 3), 3)
	// Reference: uncontrolled flood.
	refProcs, refFl := makeFlood(g, 0)
	if _, err := sim.Run(g, refProcs); err != nil {
		t.Fatal(err)
	}
	// The flood's weighted cost varies with the schedule (the skipped
	// parent edge differs), so the threshold must be the schedule-free
	// worst case c_π <= 2𝓔 (at most one message per edge direction).
	cpi := 2 * g.TotalWeight()

	ctlProcs, ctlFl := makeFlood(g, 0)
	res, _, err := Run(g, ctlProcs, 0, cpi)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted {
		t.Fatal("correct execution must not exhaust a threshold of c_π")
	}
	for v := range ctlFl {
		if ctlFl[v].Got != refFl[v].Got {
			t.Fatalf("node %d reachability differs under controller", v)
		}
	}
	// Permit waits reshuffle arrival order, so the flood tree (and with
	// it the exact weighted cost) may differ; the budget still binds.
	if res.Consumed > cpi {
		t.Errorf("controlled consumption %d exceeds threshold c_π = %d", res.Consumed, cpi)
	}
}

// echoProc is a timing-independent diffusing computation: a token walks
// a fixed path and back, so its trace is identical under any permit
// schedule.
type echoProc struct {
	hops int
	// Seen is the number of times the token visited this node.
	Seen int
}

func (e *echoProc) Init(ctx sim.Context) {
	if ctx.ID() == 0 && e.hops > 0 {
		e.Seen++
		ctx.Send(1, e.hops-1)
	}
}

func (e *echoProc) Handle(ctx sim.Context, from graph.NodeID, m sim.Message) {
	e.Seen++
	hops, _ := m.(int)
	if hops == 0 {
		return
	}
	next := from // bounce back by default
	if ctx.ID() != 0 && int(ctx.ID()) < ctx.Graph().N()-1 && from < ctx.ID() {
		next = ctx.ID() + 1 // keep walking forward
	}
	ctx.Send(next, hops-1)
}

func TestControllerExactSemanticsOnDeterministicProtocol(t *testing.T) {
	g := graph.Path(8, graph.ConstWeights(3))
	mk := func() ([]sim.Process, []*echoProc) {
		ps := make([]sim.Process, g.N())
		es := make([]*echoProc, g.N())
		for v := range ps {
			es[v] = &echoProc{hops: 10}
			ps[v] = es[v]
		}
		return ps, es
	}
	refP, refE := mk()
	ref, err := sim.Run(g, refP)
	if err != nil {
		t.Fatal(err)
	}
	ctlP, ctlE := mk()
	res, _, err := Run(g, ctlP, 0, ref.Comm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted {
		t.Fatal("deterministic protocol within threshold must not exhaust")
	}
	if res.Consumed != ref.Comm {
		t.Errorf("consumption %d, want exactly %d", res.Consumed, ref.Comm)
	}
	for v := range refE {
		if refE[v].Seen != ctlE[v].Seen {
			t.Errorf("node %d token visits %d vs %d", v, ctlE[v].Seen, refE[v].Seen)
		}
	}
}

func TestControllerOverheadWithinCorollary51(t *testing.T) {
	// Cor 5.1: c_φ = O(c_π·log² c_π). Check the control overhead on the
	// flood workload across graph families.
	families := []*graph.Graph{
		graph.RandomConnected(40, 100, graph.UniformWeights(16, 7), 7),
		graph.Grid(6, 6, graph.UniformWeights(8, 8)),
		graph.Path(40, graph.UniformWeights(12, 9)),
	}
	for _, g := range families {
		cpi := 2 * g.TotalWeight() // schedule-free flood bound
		procs2, _ := makeFlood(g, 0)
		res, _, err := Run(g, procs2, 0, cpi)
		if err != nil {
			t.Fatal(err)
		}
		log2c := math.Log2(float64(cpi))
		bound := int64(4 * float64(cpi) * log2c * log2c)
		if res.Stats.Comm > bound {
			t.Errorf("controlled total comm %d > 4·c·log²c = %d (c=%d)", res.Stats.Comm, bound, cpi)
		}
	}
}

// bombProc is a runaway protocol: endless ping-pong.
type bombProc struct{ initiator graph.NodeID }

func (b *bombProc) Init(ctx sim.Context) {
	if ctx.ID() == b.initiator {
		for _, h := range ctx.Neighbors() {
			ctx.Send(h.To, "boom")
		}
	}
}

func (b *bombProc) Handle(ctx sim.Context, from graph.NodeID, _ sim.Message) {
	ctx.Send(from, "boom")
}

func TestControllerStopsRunaway(t *testing.T) {
	g := graph.Ring(10, graph.ConstWeights(3))
	procs := make([]sim.Process, g.N())
	for v := range procs {
		procs[v] = &bombProc{initiator: 0}
	}
	threshold := int64(500)
	res, _, err := Run(g, procs, 0, threshold, sim.WithEventLimit(5_000_000))
	if err != nil {
		t.Fatalf("runaway protocol not stopped: %v", err)
	}
	if !res.Exhausted {
		t.Error("runaway protocol should exhaust the budget")
	}
	if res.Consumed > threshold {
		t.Errorf("consumption %d exceeds threshold %d", res.Consumed, threshold)
	}
	// The total damage (protocol + control) is bounded too.
	log2c := math.Log2(float64(threshold))
	if res.Stats.Comm > int64(8*float64(threshold)*log2c*log2c) {
		t.Errorf("total comm %d not within O(threshold·log² threshold)", res.Stats.Comm)
	}
}

func TestControllerLowThresholdSuspendsWithoutOverrun(t *testing.T) {
	// Even a correct protocol is suspended when the threshold is below
	// its cost — the §5 semantics — but never overruns the budget.
	g := graph.Complete(12, graph.UniformWeights(10, 5))
	procs, _ := makeFlood(g, 0)
	ref, err := sim.Run(g, procs)
	if err != nil {
		t.Fatal(err)
	}
	low := ref.Comm / 4
	procs2, _ := makeFlood(g, 0)
	res, _, err := Run(g, procs2, 0, low)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Error("threshold below c_π should exhaust")
	}
	if res.Consumed > low {
		t.Errorf("consumption %d exceeds low threshold %d", res.Consumed, low)
	}
}

func TestControllerProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := graph.RandomConnected(n, n-1+rng.Intn(2*n), graph.UniformWeights(15, seed), seed)
		src := graph.NodeID(rng.Intn(n))
		procs, fl := makeFlood(g, src)
		if _, err := sim.Run(g, procs); err != nil {
			return false
		}
		cpi := 2 * g.TotalWeight() // schedule-free flood bound
		procs2, fl2 := makeFlood(g, src)
		res, _, err := Run(g, procs2, src, cpi)
		if err != nil {
			t.Log(err)
			return false
		}
		if res.Exhausted || res.Consumed > cpi {
			return false
		}
		for v := range fl {
			if fl[v].Got != fl2[v].Got {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiInitiatorControl(t *testing.T) {
	// Two floods from opposite corners of a grid, each controlled by
	// its own initiator budget (§5's multiple-initiator extension).
	g := graph.Grid(6, 6, graph.UniformWeights(8, 21))
	far := graph.NodeID(g.N() - 1)
	inner := make([]sim.Process, g.N())
	fl := make([]*twoSourceFlood, g.N())
	for v := range inner {
		fl[v] = &twoSourceFlood{a: 0, b: far}
		inner[v] = fl[v]
	}
	// Calibrate: plain run of the same protocol.
	ref, err := sim.Run(g, inner)
	if err != nil {
		t.Fatal(err)
	}
	inner2 := make([]sim.Process, g.N())
	fl2 := make([]*twoSourceFlood, g.N())
	for v := range inner2 {
		fl2[v] = &twoSourceFlood{a: 0, b: far}
		inner2[v] = fl2[v]
	}
	res, _, err := RunMulti(g, inner2, []graph.NodeID{0, far}, ref.Comm, sim.WithEventLimit(5_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted {
		t.Fatal("budgets of c_pi each should suffice for two initiators")
	}
	for v := range fl2 {
		if fl2[v].gotA != fl[v].gotA || fl2[v].gotB != fl[v].gotB {
			t.Fatalf("node %d reachability differs under multi-initiator control", v)
		}
	}
	if res.Consumed > 2*ref.Comm {
		t.Fatalf("consumption %d exceeds the combined budget %d", res.Consumed, 2*ref.Comm)
	}
}

func TestMultiInitiatorErrors(t *testing.T) {
	g := graph.Path(3, graph.UnitWeights())
	inner := []sim.Process{idleCtl{}, idleCtl{}, idleCtl{}}
	if _, _, err := RunMulti(g, inner, nil, 10); err == nil {
		t.Error("no initiators should error")
	}
	if _, _, err := RunMulti(g, inner, []graph.NodeID{7}, 10); err == nil {
		t.Error("out-of-range initiator should error")
	}
}

type idleCtl struct{}

func (idleCtl) Init(sim.Context)                              {}
func (idleCtl) Handle(sim.Context, graph.NodeID, sim.Message) {}

// twoSourceFlood floods two tokens from two sources.
type twoSourceFlood struct {
	a, b       graph.NodeID
	gotA, gotB bool
}

func (f *twoSourceFlood) Init(ctx sim.Context) {
	if ctx.ID() == f.a {
		f.gotA = true
		for _, h := range ctx.Neighbors() {
			ctx.Send(h.To, "a")
		}
	}
	if ctx.ID() == f.b {
		f.gotB = true
		for _, h := range ctx.Neighbors() {
			ctx.Send(h.To, "b")
		}
	}
}

func (f *twoSourceFlood) Handle(ctx sim.Context, from graph.NodeID, m sim.Message) {
	tok, _ := m.(string)
	if tok == "a" && !f.gotA {
		f.gotA = true
		for _, h := range ctx.Neighbors() {
			if h.To != from {
				ctx.Send(h.To, "a")
			}
		}
	}
	if tok == "b" && !f.gotB {
		f.gotB = true
		for _, h := range ctx.Neighbors() {
			if h.To != from {
				ctx.Send(h.To, "b")
			}
		}
	}
}
