package term

import (
	"math/rand"
	"testing"
	"testing/quick"

	"costsense/internal/basic"
	"costsense/internal/graph"
	"costsense/internal/sim"
)

func floodProcs(g *graph.Graph, src graph.NodeID) ([]sim.Process, []*basic.FloodProc) {
	procs := make([]sim.Process, g.N())
	fl := make([]*basic.FloodProc, g.N())
	for v := range procs {
		fl[v] = &basic.FloodProc{Source: src}
		procs[v] = fl[v]
	}
	return procs, fl
}

func TestDetectsFloodTermination(t *testing.T) {
	g := graph.RandomConnected(30, 80, graph.UniformWeights(16, 3), 3)
	inner, fl := floodProcs(g, 0)
	res, _, err := Run(g, inner, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatal("termination not detected")
	}
	for v := range fl {
		if !fl[v].Got {
			t.Fatalf("node %d missed the flood", v)
		}
	}
	// Detection cannot precede the last protocol delivery: the flood's
	// farthest delivery is at the eccentricity of the source.
	ecc := graph.Eccentricity(g, 0)
	if res.DetectedAt < ecc {
		t.Fatalf("detected at %d, before the farthest delivery at %d", res.DetectedAt, ecc)
	}
	// Exactly one ack per protocol message: comm at most doubles plus
	// the engagement acks.
	if got := res.Stats.MessagesOf(sim.ClassAck); got != res.Stats.MessagesOf(sim.ClassProto) {
		t.Fatalf("acks %d != wrapped messages %d", got, res.Stats.MessagesOf(sim.ClassProto))
	}
}

func TestDetectionIsNotPremature(t *testing.T) {
	// A two-phase protocol: the flood reaches the far end of a path,
	// which then starts a second flood back. Detection must wait for
	// the second wave.
	g := graph.Path(12, graph.ConstWeights(4))
	procs := make([]sim.Process, g.N())
	for v := range procs {
		procs[v] = &bounceProc{far: graph.NodeID(g.N() - 1)}
	}
	res, _, err := Run(g, procs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatal("termination not detected")
	}
	// Two full traversals of the path: 2·(n-1)·w.
	want := 2 * int64(g.N()-1) * 4
	if res.DetectedAt < want {
		t.Fatalf("detected at %d, before the bounce completed at %d", res.DetectedAt, want)
	}
}

// bounceProc forwards a token to the far end, which sends it back.
type bounceProc struct {
	far  graph.NodeID
	seen int
}

func (b *bounceProc) Init(ctx sim.Context) {
	if ctx.ID() == 0 {
		ctx.Send(1, "fwd")
	}
}

func (b *bounceProc) Handle(ctx sim.Context, from graph.NodeID, m sim.Message) {
	b.seen++
	dir, _ := m.(string)
	switch {
	case ctx.ID() == b.far && dir == "fwd":
		ctx.Send(from, "back")
	case dir == "fwd":
		ctx.Send(ctx.ID()+1, "fwd")
	case dir == "back" && ctx.ID() != 0:
		ctx.Send(ctx.ID()-1, "back")
	}
}

func TestTrivialComputation(t *testing.T) {
	// An initiator that sends nothing terminates at time 0.
	g := graph.Path(3, graph.UnitWeights())
	procs := make([]sim.Process, g.N())
	for v := range procs {
		procs[v] = idleProc{}
	}
	res, _, err := Run(g, procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected || res.DetectedAt != 0 {
		t.Fatalf("trivial computation: detected=%v at %d, want true at 0", res.Detected, res.DetectedAt)
	}
}

type idleProc struct{}

func (idleProc) Init(sim.Context)                              {}
func (idleProc) Handle(sim.Context, graph.NodeID, sim.Message) {}

func TestNonTerminatingNotDetected(t *testing.T) {
	// A diverging protocol trips the event limit; the detector must
	// not have declared termination.
	g := graph.Path(2, graph.UnitWeights())
	procs := []sim.Process{&pingpong{}, &pingpong{}}
	_, det, err := Run(g, procs, 0, sim.WithEventLimit(500))
	if err == nil {
		t.Fatal("diverging run should hit the event limit")
	}
	if det[0].Detected {
		t.Fatal("termination falsely detected on a diverging protocol")
	}
}

type pingpong struct{}

func (pingpong) Init(ctx sim.Context) {
	if ctx.ID() == 0 {
		ctx.Send(1, 0)
	}
}
func (pingpong) Handle(ctx sim.Context, from graph.NodeID, _ sim.Message) {
	ctx.Send(from, 0)
}

func TestDetectionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := graph.RandomConnected(n, n-1+rng.Intn(2*n), graph.UniformWeights(10, seed), seed)
		src := graph.NodeID(rng.Intn(n))
		// Reference: plain flood finish time.
		plain, _ := floodProcs(g, src)
		ref, err := sim.Run(g, plain)
		if err != nil {
			return false
		}
		inner, _ := floodProcs(g, src)
		res, _, err := Run(g, inner, src)
		if err != nil {
			t.Log(err)
			return false
		}
		// Detection happens, after all protocol activity, and within
		// a small factor of the plain finish time (acks double paths).
		return res.Detected && res.DetectedAt >= ref.FinishTime/2 && res.DetectedAt <= 4*ref.FinishTime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(28))}); err != nil {
		t.Fatal(err)
	}
}

func TestDetectionUnderRandomDelays(t *testing.T) {
	g := graph.Grid(5, 5, graph.UniformWeights(8, 7))
	for seed := int64(0); seed < 6; seed++ {
		inner, _ := floodProcs(g, 0)
		res, _, err := Run(g, inner, 0, sim.WithDelay(sim.DelayUniform{}), sim.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Detected {
			t.Fatalf("seed %d: not detected", seed)
		}
	}
}
