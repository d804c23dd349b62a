package sim

import (
	"fmt"
	"os"
	"sort"
	"testing"

	"costsense/internal/graph"
)

// ackFlooder floods one token from node 0 and acknowledges every
// receipt, so runs exercise two accounting classes. Deterministic for a
// fixed network seed.
type ackFlooder struct{ got bool }

func (f *ackFlooder) Init(ctx Context) {
	if ctx.ID() == 0 {
		f.got = true
		for _, h := range ctx.Neighbors() {
			ctx.Send(h.To, "tok")
		}
	}
}

func (f *ackFlooder) Handle(ctx Context, from graph.NodeID, m Message) {
	if m == "tok" {
		ctx.SendClass(from, "ack", ClassAck)
	}
	if f.got || m != "tok" {
		return
	}
	f.got = true
	for _, h := range ctx.Neighbors() {
		if h.To != from {
			ctx.Send(h.To, "tok")
		}
	}
}

// goldenStats is the flattened, comparable form of a run's Stats.
type goldenStats struct {
	Messages   int64
	Comm       int64
	FinishTime int64
	Events     int64
	ProtoMsgs  int64
	ProtoComm  int64
	AckMsgs    int64
	AckComm    int64
}

func flatten(s *Stats) goldenStats {
	return goldenStats{
		Messages:   s.Messages,
		Comm:       s.Comm,
		FinishTime: s.FinishTime,
		Events:     s.Events,
		ProtoMsgs:  s.MessagesOf(ClassProto),
		ProtoComm:  s.CommOf(ClassProto),
		AckMsgs:    s.MessagesOf(ClassAck),
		AckComm:    s.CommOf(ClassAck),
	}
}

// detCase is one (delay model, congestion, seed) configuration.
type detCase struct {
	name      string
	delay     DelayModel
	congested bool
	seed      int64
	want      goldenStats
}

// The golden values below pin the engine's observable behavior: any
// queue or accounting rewrite must reproduce them bit-for-bit. They
// were re-pinned when the engine moved to per-node push sequences and
// per-node RNG streams (the event tie-break became (at, from, seq) and
// delay/fault draws moved to the sender's own stream) — the refactor
// that makes the order a function of each node's own execution rather
// than of global interleaving. The DelayUniform rows were re-pinned
// once more when the streams gave way to keyed draws (draw), which
// changed every random delay and nothing else; the DelayMax and
// DelayUnit rows draw nothing and did not move. Every run must match
// these values until the draw function itself changes.
func detCases() []detCase {
	return []detCase{
		{name: "max/plain/seed1", delay: DelayMax{}, congested: false, seed: 1,
			want: goldenStats{Messages: 402, Comm: 7290, FinishTime: 103, Events: 402, ProtoMsgs: 201, ProtoComm: 3645, AckMsgs: 201, AckComm: 3645}},
		{name: "max/congested/seed1", delay: DelayMax{}, congested: true, seed: 1,
			want: goldenStats{Messages: 402, Comm: 7290, FinishTime: 103, Events: 402, ProtoMsgs: 201, ProtoComm: 3645, AckMsgs: 201, AckComm: 3645}},
		{name: "unit/plain/seed1", delay: DelayUnit{}, congested: false, seed: 1,
			want: goldenStats{Messages: 402, Comm: 6806, FinishTime: 6, Events: 402, ProtoMsgs: 201, ProtoComm: 3403, AckMsgs: 201, AckComm: 3403}},
		{name: "unit/congested/seed1", delay: DelayUnit{}, congested: true, seed: 1,
			want: goldenStats{Messages: 402, Comm: 6806, FinishTime: 6, Events: 402, ProtoMsgs: 201, ProtoComm: 3403, AckMsgs: 201, AckComm: 3403}},
		{name: "uniform/plain/seed1", delay: DelayUniform{}, congested: false, seed: 1,
			want: goldenStats{Messages: 402, Comm: 7016, FinishTime: 69, Events: 402, ProtoMsgs: 201, ProtoComm: 3508, AckMsgs: 201, AckComm: 3508}},
		{name: "uniform/congested/seed1", delay: DelayUniform{}, congested: true, seed: 1,
			want: goldenStats{Messages: 402, Comm: 7016, FinishTime: 69, Events: 402, ProtoMsgs: 201, ProtoComm: 3508, AckMsgs: 201, AckComm: 3508}},
		{name: "uniform/plain/seed42", delay: DelayUniform{}, congested: false, seed: 42,
			want: goldenStats{Messages: 402, Comm: 6952, FinishTime: 64, Events: 402, ProtoMsgs: 201, ProtoComm: 3476, AckMsgs: 201, AckComm: 3476}},
		{name: "uniform/congested/seed42", delay: DelayUniform{}, congested: true, seed: 42,
			want: goldenStats{Messages: 402, Comm: 6952, FinishTime: 65, Events: 402, ProtoMsgs: 201, ProtoComm: 3476, AckMsgs: 201, AckComm: 3476}},
	}
}

func runDetCase(t *testing.T, c detCase) *Stats {
	t.Helper()
	g := graph.RandomConnected(40, 120, graph.UniformWeights(32, 7), 7)
	procs := make([]Process, g.N())
	for v := range procs {
		procs[v] = &ackFlooder{}
	}
	opts := []Option{WithDelay(c.delay), WithSeed(c.seed)}
	if c.congested {
		opts = append(opts, WithCongestion())
	}
	st, err := Run(g, procs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStatsGolden pins the exact Stats of a fixed (seed, delay model,
// congestion) workload across all three delay models. The goldens were
// recorded on the pre-rewrite event queue; the test guarantees the
// rewritten hot path is observably identical.
//
// Regenerate with SIM_GOLDEN=1 go test -run TestStatsGolden -v ./internal/sim
func TestStatsGolden(t *testing.T) {
	regen := os.Getenv("SIM_GOLDEN") != ""
	for _, c := range detCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got := flatten(runDetCase(t, c))
			if regen {
				t.Logf("golden %s: %#v", c.name, got)
				return
			}
			if got != c.want {
				t.Errorf("stats diverged from golden:\n got  %+v\n want %+v", got, c.want)
			}
		})
	}
}

// TestStatsGoldenByClassView checks the ByClass map view agrees with the
// flattened accessors and contains exactly the classes that were sent.
func TestStatsGoldenByClassView(t *testing.T) {
	st := runDetCase(t, detCases()[0])
	var classes []string
	for c, cs := range st.ByClass {
		classes = append(classes, string(c))
		if cs.Messages == 0 && cs.Comm == 0 {
			t.Errorf("class %q present in ByClass with zero counts", c)
		}
	}
	sort.Strings(classes)
	if got := fmt.Sprint(classes); got != "[ack proto]" {
		t.Errorf("ByClass classes = %v, want [ack proto]", classes)
	}
	if st.ByClass[ClassProto].Comm != st.CommOf(ClassProto) {
		t.Errorf("ByClass and CommOf disagree")
	}
}

// TestNodeSeedPinned pins the per-node stream split function forever:
// these values are baked into every golden result recorded after the
// move to per-node RNG streams, so nodeSeed may never change again.
func TestNodeSeedPinned(t *testing.T) {
	for _, c := range []struct {
		seed int64
		v    int32
		want int64
	}{
		{seed: 1, v: 0, want: -7995527694508729151},
		{seed: 1, v: 1, want: -4689498862643123097},
		{seed: 42, v: 7, want: -3677692746721775708},
	} {
		if got := nodeSeed(c.seed, c.v); got != c.want {
			t.Errorf("nodeSeed(%d, %d) = %d, want %d", c.seed, c.v, got, c.want)
		}
	}
	// Distinctness across vertices and seeds (collisions here would
	// correlate supposedly-independent streams).
	seen := map[int64]bool{}
	for v := int32(0); v < 1000; v++ {
		s := nodeSeed(1, v)
		if seen[s] {
			t.Fatalf("nodeSeed collision at v=%d", v)
		}
		seen[s] = true
	}
}
