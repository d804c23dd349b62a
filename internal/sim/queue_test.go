package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"costsense/internal/graph"
	"costsense/internal/pq"
)

// This file pins the serial engine's event queue against the ordering
// it replaced: pq.Heap[event] under event.Less is the oracle, and every
// script of monotone pushes and pops must come out of both in the same
// order, event for event.

// queueOp is one step of a queue script: a Pop, or a Push of an event
// delta after the current instant from the given sender.
type queueOp struct {
	pop   bool
	delta int64
	from  int32
}

// checkQueueScript resets q, plays ops into it and into the heap
// oracle, and fails on the first divergence. With drain it then empties
// both; without, q is left holding events for the next Reset to drop.
func checkQueueScript(t *testing.T, q *eventQueue, ops []queueOp, drain bool) {
	t.Helper()
	q.Reset()
	var oracle pq.Heap[event]
	var now int64
	pop := func(step int) {
		want, got := oracle.Pop(), q.Pop()
		if got != want {
			t.Fatalf("step %d: popped %+v, oracle says %+v", step, got, want)
		}
		now = got.at
	}
	for i, op := range ops {
		if op.pop {
			if oracle.Len() > 0 {
				pop(i)
			}
		} else if at := now + op.delta; at > now { // skip a delta that would overflow int64
			// seq is unique but scrambled, so the tie-break is not just
			// push order; to and msgIdx ride along to catch a mix-up.
			ev := event{at: at, seq: int64(uint32(i) * 2654435761), from: op.from, to: int32(i), msgIdx: int32(i)}
			oracle.Push(ev)
			q.Push(ev)
		}
		if q.Len() != oracle.Len() {
			t.Fatalf("step %d: Len %d, oracle holds %d", i, q.Len(), oracle.Len())
		}
	}
	for step := len(ops); drain && oracle.Len() > 0; step++ {
		pop(step)
	}
	if drain && q.Len() != 0 {
		t.Fatalf("drained, but Len is %d", q.Len())
	}
}

// randomQueueScript draws a script in one of several regimes: which
// deltas are likely, how many senders tie, and how often it pops.
func randomQueueScript(rng *rand.Rand) []queueOp {
	deltas := [][]int64{
		{1},                          // every push lands on the next instant: all ties
		{1, 1, 2, 3},                 // dense ties
		{1, 7, 64, 300, 4096},        // the weights protocols use
		{1, 1 << 20, 1 << 30},        // wide
		{1, 2, 1 << 40, 1<<40 + 1},   // a far-future timer among near events
		{1, 3, 1 << 61, 1<<62 - 100}, // times near 2^62 (later pushes overflow and are skipped)
	}[rng.Intn(6)]
	senders := int32(1 + rng.Intn(40))
	popShare := 0.2 + 0.6*rng.Float64()
	ops := make([]queueOp, 20+rng.Intn(800))
	for i := range ops {
		if rng.Float64() < popShare {
			ops[i].pop = true
			continue
		}
		ops[i] = queueOp{delta: deltas[rng.Intn(len(deltas))], from: rng.Int31n(senders)}
	}
	return ops
}

func TestEventQueueMatchesHeap(t *testing.T) {
	var q eventQueue // one queue for every script: Reset reuse is part of the property
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 2000; i++ {
		checkQueueScript(t, &q, randomQueueScript(rng), i%3 != 0)
	}
}

// TestEventQueueScenarios spells out the shapes the random scripts only
// probably hit.
func TestEventQueueScenarios(t *testing.T) {
	push := func(delta int64, from int32) queueOp { return queueOp{delta: delta, from: from} }
	pop := queueOp{pop: true}
	repeat := func(n int, ops ...queueOp) []queueOp {
		var out []queueOp
		for i := 0; i < n; i++ {
			out = append(out, ops...)
		}
		return out
	}
	var bigInstant []queueOp // 500 events on one instant from descending senders: the counting pass
	for i := 0; i < 500; i++ {
		bigInstant = append(bigInstant, push(9, int32(500-i)))
	}
	// spanInstant puts 60 events on one instant from senders spread
	// over [0, span], so the counting pass takes one pass per byte of
	// span; every third sender repeats so runs need the seq fix-up.
	spanInstant := func(span int32) []queueOp {
		var ops []queueOp
		for i := int32(0); i < 60; i++ {
			ops = append(ops, push(3, span/59*((i*37)%60)), push(3, span/59*((i*37)%60/3*3)))
		}
		return ops
	}
	// Across the block boundary: now = 40, then one push at each of
	// now+1 … now+65 (41 … 105 straddle 64) from two senders.
	var boundary []queueOp
	boundary = append(boundary, push(40, 0), pop)
	for d := int64(65); d >= 1; d-- {
		boundary = append(boundary, push(d, int32(d%3)), push(d, int32(d%2)))
	}
	cases := map[string][]queueOp{
		"one instant, many senders": bigInstant,
		"one instant, one sender":   repeat(300, push(4, 3)),
		"one sender, above the threshold, through the cascade": slices.Concat(
			repeat(40, push(300, 5), push(1, 5)), // now moves 1 by 1 while 300 ahead stays in a bucket
			repeat(30, pop, push(299, 5)),
		),
		"sender spans of 1, 2 and 4 bytes": slices.Concat(spanInstant(200), []queueOp{pop}, spanInstant(60000), []queueOp{pop}, spanInstant(1<<30)),
		"pushes at now+1 … now+65 across a block boundary": slices.Concat(
			boundary,
			repeat(20, pop, push(1, 4), push(64, 1), push(65, 2)),
		),
		"the block empties while a bucket holds the next minimum beside in-block events": slices.Concat(
			// At now = 0 the times 130 … 250 share bucket 8; 130 is the
			// minimum, 140 and 190 share its block, 200 and 250 drop to
			// bucket 7; 5 and 60 are in the block from the start.
			[]queueOp{push(250, 1), push(140, 2), push(5, 0), push(200, 0), push(130, 3), push(190, 1), push(130, 0), push(60, 4)},
			repeat(3, pop, push(140, 1)),
			repeat(9, pop),
		),
		"pushes while an instant drains": slices.Concat(
			repeat(20, push(5, 1), push(5, 0)), // 40 events at t=5
			repeat(15, pop, push(1, 2), push(3, 0), pop, push(1, 1)),
		),
		"a single far-future timer": slices.Concat(
			[]queueOp{push(1<<40+12345, 7)},
			repeat(50, push(1, 0), push(2, 1), pop),
		),
		"near 2^62": slices.Concat(
			[]queueOp{push(1<<62-3, 0), push(1<<62-3, 1), pop},
			repeat(30, push(1, 2), push(1<<40, 0), push(2, 1), pop, pop),
		),
	}
	var q eventQueue
	for name, ops := range cases {
		t.Run(name, func(t *testing.T) {
			checkQueueScript(t, &q, ops, false) // leave events behind for the Reset
			checkQueueScript(t, &q, ops, true)
		})
	}
}

// TestSortInstantFallback drives sortInstant's counting pass and its
// seq fix-up directly, on instants whose sender spans take zero to four
// byte passes and whose senders repeat with scrambled seq: bySender
// must leave them ordered by sender and, within a sender, in input
// order, and sortInstant must agree with a comparison sort.
func TestSortInstantFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, span := range []int32{0, 1, 20, 255, 256, 60000, 1 << 20, 1<<31 - 1} {
		for _, n := range []int{insertionMax + 1, 200} {
			a := make([]event, n)
			for i := range a {
				from := int32(rng.Int63n(int64(span) + 1))
				if i > 0 && rng.Intn(3) == 0 {
					from = a[rng.Intn(i)].from // a second event from an earlier sender
				}
				a[i] = event{at: 7, from: from, seq: rng.Int63(), msgIdx: int32(i)}
			}
			stable := slices.Clone(a)
			slices.SortStableFunc(stable, func(x, y event) int { return cmp.Compare(x.from, y.from) })
			if got := bySender(slices.Clone(a), make([]event, n)); !slices.Equal(got, stable) {
				t.Errorf("span %d, %d events: bySender is not a stable sort by sender", span, n)
			}
			want := slices.Clone(a)
			slices.SortFunc(want, func(x, y event) int {
				return cmp.Or(cmp.Compare(x.from, y.from), cmp.Compare(x.seq, y.seq))
			})
			if got := sortInstant(a, make([]event, n)); !slices.Equal(got, want) {
				t.Errorf("span %d, %d events: sortInstant disagrees with a comparison sort", span, n)
			}
		}
	}
}

// FuzzEventQueue decodes three bytes per step — op, sender, delta
// detail — and checks the script against the heap twice on one queue,
// the first pass leaving its events behind for Reset. The seed corpus
// under testdata/fuzz/FuzzEventQueue holds one input per regime.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		ops := make([]queueOp, 0, len(script)/3)
		for ; len(script) >= 3; script = script[3:] {
			code, from, d := script[0], int32(script[1]%16), int64(script[2])
			if code%4 == 0 {
				ops = append(ops, queueOp{pop: true})
				continue
			}
			delta := [...]int64{1, 1 + d%3, 1 + d, 1 + d<<8, 1<<40 + d, 1<<62 - d}[int(code>>2)%6]
			ops = append(ops, queueOp{delta: delta, from: from})
		}
		var q eventQueue
		checkQueueScript(t, &q, ops, false)
		checkQueueScript(t, &q, ops, true)
	})
}

func TestQueuePushNotAfterNowPanics(t *testing.T) {
	wantPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "not after the current time") {
				t.Errorf("%s: recovered %q, want the queue's order panic", name, msg)
			}
		}()
		f()
	}
	var q eventQueue
	wantPanic("push at time 0 into a new queue", func() { q.Push(event{at: 0}) })
	q.Push(event{at: 5, from: 1})
	q.Push(event{at: 5, from: 2})
	q.Pop()
	wantPanic("push at the instant being drained", func() { q.Push(event{at: 5, from: 3}) })
	wantPanic("push before it", func() { q.Push(event{at: 4}) })
	if q.Len() != 1 {
		t.Fatalf("rejected pushes changed Len to %d", q.Len())
	}
}

// constDelay is a DelayModel that breaks the contract on purpose.
type constDelay int64

func (d constDelay) Delay(graph.Edge, uint64) int64 { return int64(d) }

func TestDelayBelowOnePanics(t *testing.T) {
	for _, d := range []constDelay{0, -3} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				for _, want := range []string{"sim.constDelay", fmt.Sprintf("returned %d ", d), "W:7"} {
					if !strings.Contains(msg, want) {
						t.Errorf("delay %d: panic %q does not mention %q", d, msg, want)
					}
				}
			}()
			_, _ = Run(twoNode(7), []Process{&pingPong{id: 0, k: 1}, &pingPong{id: 1}}, WithDelay(d))
		}()
	}
}

// eagerTimer schedules zero and negative timers and floods a congested
// link from Init and from a Handle, recording when everything lands.
type eagerTimer struct {
	id      graph.NodeID
	fired   []int64 // [scheduled at, fired at] pairs
	arrived []int64
}

func (p *eagerTimer) Init(ctx Context) {
	if p.id == 0 {
		ctx.(TimerContext).ScheduleTimer(0, int64(0))
		for i := 0; i < 3; i++ {
			ctx.Send(1, "m")
		}
	}
}

func (p *eagerTimer) Handle(ctx Context, from graph.NodeID, m Message) {
	if at, ok := m.(int64); ok {
		p.fired = append(p.fired, at, ctx.Now())
		if len(p.fired) < 8 {
			ctx.(TimerContext).ScheduleTimer(-int64(len(p.fired)), ctx.Now())
			ctx.Send(1, "m")
		}
		return
	}
	p.arrived = append(p.arrived, ctx.Now())
}

func TestTimersAndCongestedLinksLandStrictlyLater(t *testing.T) {
	p0, p1 := &eagerTimer{id: 0}, &eagerTimer{id: 1}
	if _, err := Run(twoNode(1), []Process{p0, p1}, WithCongestion(), WithDelay(DelayUnit{})); err != nil {
		t.Fatal(err)
	}
	if want := []int64{0, 1, 1, 2, 2, 3, 3, 4}; !slices.Equal(p0.fired, want) {
		t.Errorf("timers with delay <= 0 (scheduled, fired) = %v, want %v: each exactly one unit later", p0.fired, want)
	}
	// Three sends at t=0 and one at each of t=1,2,3 share a unit link
	// that carries one message per unit of time.
	if want := []int64{1, 2, 3, 4, 5, 6}; !slices.Equal(p1.arrived, want) {
		t.Errorf("congested arrivals = %v, want %v", p1.arrived, want)
	}
}

// reflooder is a flood that can run again without a new allocation:
// Init clears the state the previous run left.
type reflooder struct{ got bool }

func (f *reflooder) Init(ctx Context) {
	f.got = ctx.ID() == 0
	if f.got {
		f.forward(ctx)
	}
}

func (f *reflooder) Handle(ctx Context, _ graph.NodeID, _ Message) {
	if !f.got {
		f.got = true
		f.forward(ctx)
	}
}

func (f *reflooder) forward(ctx Context) {
	for _, h := range ctx.Neighbors() {
		ctx.Send(h.To, "flood")
	}
}

// TestPooledRunAllocsDoNotGrowWithEvents is the pooled-sweep contract
// for the queue and the random draws: once a Network has run, a Reset
// and another Run of the same flood allocate a handful of objects (the
// trace map, the ByClass view), however many events the run delivers
// and however many nodes draw random delays. Drawing costs nothing
// extra: a draw is a hash of the seed, the node and its push sequence,
// with no state to allocate or re-seed, so the run under DelayUniform
// allocates no more than the same run under DelayMax.
func TestPooledRunAllocsDoNotGrowWithEvents(t *testing.T) {
	for _, size := range []struct{ n, m int }{{200, 800}, {2000, 16000}} {
		var maxAllocs float64
		for _, delay := range []DelayModel{DelayMax{}, DelayUniform{}} {
			g := graph.RandomConnected(size.n, size.m, graph.UniformWeights(64, 5), 5)
			procs := make([]Process, g.N())
			for v := range procs {
				procs[v] = &reflooder{}
			}
			opts := []Option{WithDelay(delay), WithSeed(9)}
			n, err := NewNetwork(g, procs, opts...)
			if err != nil {
				t.Fatal(err)
			}
			var events int64
			run := func() {
				st, err := n.Run()
				if err != nil {
					t.Fatal(err)
				}
				events = st.Events
				if err := n.Reset(procs, opts...); err != nil {
					t.Fatal(err)
				}
			}
			run() // grow the buckets and the arena once
			allocs := testing.AllocsPerRun(5, run)
			if events < int64(size.m) {
				t.Fatalf("flood delivered only %d events on %d edges", events, size.m)
			}
			if allocs > 8 {
				t.Errorf("%T, %d events: %.0f allocs per pooled Reset+Run, want a constant handful", delay, events, allocs)
			}
			if _, ok := delay.(DelayMax); ok {
				maxAllocs = allocs
			} else if allocs > maxAllocs {
				t.Errorf("%T, n=%d: %.0f allocs per pooled Reset+Run, %.0f under DelayMax", delay, size.n, allocs, maxAllocs)
			}
		}
	}
}
