package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"costsense/internal/graph"
)

// chaosProc is a randomized but *deterministically seeded* protocol:
// each node forwards received tokens to pseudo-random neighbors while
// it has budget. It exists to fuzz the engine's invariants, not to
// compute anything.
type chaosProc struct {
	rng    *rand.Rand
	budget int
	sent   int64 // weighted cost of own sends (engine cross-check)
	msgs   int64
}

func (c *chaosProc) send(ctx Context) {
	nbs := ctx.Neighbors()
	if len(nbs) == 0 || c.budget <= 0 {
		return
	}
	k := 1 + c.rng.Intn(2)
	for i := 0; i < k && c.budget > 0; i++ {
		h := nbs[c.rng.Intn(len(nbs))]
		c.budget--
		c.sent += h.W
		c.msgs++
		ctx.Send(h.To, "tok")
	}
}

func (c *chaosProc) Init(ctx Context) {
	if ctx.ID()%3 == 0 {
		c.send(ctx)
	}
}

func (c *chaosProc) Handle(ctx Context, _ graph.NodeID, _ Message) {
	c.send(ctx)
}

// TestEngineInvariantsUnderChaos fuzzes the engine: for random graphs,
// seeds and delay models, the accounted weighted communication must
// equal the sum over nodes of their own send costs, message counts
// must agree, runs must be deterministic, and FinishTime must be the
// time of some delivery.
func TestEngineInvariantsUnderChaos(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := graph.RandomConnected(n, n-1+rng.Intn(3*n), graph.UniformWeights(1+rng.Int63n(40), seed), seed)
		delay := []DelayModel{DelayMax{}, DelayUnit{}, DelayUniform{}}[rng.Intn(3)]

		runOnce := func() (*Stats, []*chaosProc, error) {
			procs := make([]Process, n)
			cs := make([]*chaosProc, n)
			for v := range procs {
				cs[v] = &chaosProc{rng: rand.New(rand.NewSource(seed + int64(v))), budget: 5 + rng.Intn(20)}
				procs[v] = cs[v]
			}
			stats, err := Run(g, procs, WithDelay(delay), WithSeed(seed))
			return stats, cs, err
		}
		s1, cs1, err := runOnce()
		if err != nil {
			t.Log(err)
			return false
		}
		var wantComm, wantMsgs int64
		for _, c := range cs1 {
			wantComm += c.sent
			wantMsgs += c.msgs
		}
		if s1.Comm != wantComm || s1.Messages != wantMsgs {
			t.Logf("seed %d: engine accounted comm=%d msgs=%d, processes sent comm=%d msgs=%d",
				seed, s1.Comm, s1.Messages, wantComm, wantMsgs)
			return false
		}
		if s1.Messages > 0 && s1.FinishTime <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDeterminismUnderChaos re-runs identical chaos twice and
// demands bit-identical statistics.
func TestEngineDeterminismUnderChaos(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		m := n - 1 + rng.Intn(2*n)
		maxW := 1 + rng.Int63n(30)
		budget := 5 + rng.Intn(15)

		run := func() *Stats {
			g := graph.RandomConnected(n, m, graph.UniformWeights(maxW, seed), seed)
			procs := make([]Process, n)
			for v := range procs {
				procs[v] = &chaosProc{rng: rand.New(rand.NewSource(seed ^ int64(v))), budget: budget}
			}
			stats, err := Run(g, procs, WithDelay(DelayUniform{}), WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			return stats
		}
		a, b := run(), run()
		return a.Comm == b.Comm && a.Messages == b.Messages &&
			a.FinishTime == b.FinishTime && a.Events == b.Events
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
}

// FuzzEngineChaos is the native fuzz entry for the same engine
// invariants, now with fault injection in the loop: the fuzzer mutates
// the topology/seed/budget tuple plus a fault plan (drop and
// duplication probabilities, an optional fail-stop crash, an optional
// link outage), and for every input the run must account exactly what
// the processes sent (drops are charged to the sender, duplicates are
// free), conserve transmissions (every scheduled message is delivered,
// dead-lettered, or was dropped at send), finish at an event time, and
// replay bit-identically including all fault counters. The seed corpus
// is checked in under testdata/fuzz/FuzzEngineChaos so CI and fresh
// clones exercise known-interesting regimes (tiny rings, parallel-edge
// multigraphs, heavy congestion, lossy links, crashed hubs) without a
// long fuzzing session.
func FuzzEngineChaos(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(21), uint8(12), uint8(8), uint8(1), uint8(40), uint8(0), uint8(0))
	f.Add(int64(-7), uint8(30), uint8(20), uint8(2), uint8(90), uint8(60), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, budgetRaw, delayKind, dropRaw, dupRaw, faultKind uint8) {
		n := 2 + int(nRaw)%30
		budget := 1 + int(budgetRaw)%20
		delay := []DelayModel{DelayMax{}, DelayUnit{}, DelayUniform{}}[int(delayKind)%3]
		rng := rand.New(rand.NewSource(seed))
		m := n - 1 + rng.Intn(2*n)
		g := graph.RandomConnected(n, m, graph.UniformWeights(1+rng.Int63n(40), seed), seed)

		plan := FaultPlan{
			Drop: float64(dropRaw%100) / 200, // 0 .. 0.495
			Dup:  float64(dupRaw%100) / 250,  // 0 .. 0.396
		}
		if faultKind&1 != 0 {
			plan.Crashes = []Crash{{Node: graph.NodeID(n - 1), At: 1 + int64(faultKind>>2)}}
		}
		if faultKind&2 != 0 {
			from := int64(faultKind >> 3)
			plan.Down = []LinkDown{{Edge: 0, From: from, Until: from + 9}}
		}

		runOnce := func() (*Stats, []*chaosProc) {
			procs := make([]Process, n)
			cs := make([]*chaosProc, n)
			for v := range procs {
				cs[v] = &chaosProc{rng: rand.New(rand.NewSource(seed + int64(v))), budget: budget}
				procs[v] = cs[v]
			}
			stats, err := Run(g, procs, WithDelay(delay), WithSeed(seed), WithFaults(plan))
			if err != nil {
				t.Fatal(err)
			}
			return stats, cs
		}
		s1, cs1 := runOnce()
		var wantComm, wantMsgs int64
		for _, c := range cs1 {
			wantComm += c.sent
			wantMsgs += c.msgs
		}
		if s1.Comm != wantComm || s1.Messages != wantMsgs {
			t.Fatalf("accounting mismatch: engine comm=%d msgs=%d, processes sent comm=%d msgs=%d",
				s1.Comm, s1.Messages, wantComm, wantMsgs)
		}
		// Conservation: chaosProc schedules no timers, so every queue
		// event is a scheduled transmission — an original that survived
		// its send-time drop draw, or a duplicate (never drop-drawn).
		if s1.Events != s1.Messages-s1.Dropped+s1.Duplicated {
			t.Fatalf("transmission conservation violated: events=%d, messages=%d dropped=%d duplicated=%d",
				s1.Events, s1.Messages, s1.Dropped, s1.Duplicated)
		}
		if s1.DeadLetters > s1.Events {
			t.Fatalf("%d dead letters exceed %d events", s1.DeadLetters, s1.Events)
		}
		if s1.Events > 0 && s1.FinishTime <= 0 {
			t.Fatalf("%d events processed but FinishTime=%d", s1.Events, s1.FinishTime)
		}
		s2, _ := runOnce()
		if s1.Comm != s2.Comm || s1.Messages != s2.Messages ||
			s1.FinishTime != s2.FinishTime || s1.Events != s2.Events ||
			s1.Dropped != s2.Dropped || s1.Duplicated != s2.Duplicated ||
			s1.DeadLetters != s2.DeadLetters {
			t.Fatalf("nondeterministic replay: run1=%+v run2=%+v", s1, s2)
		}
	})
}
