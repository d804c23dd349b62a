package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"costsense/internal/graph"
	"costsense/internal/pq"
)

// This file is the sharded parallel engine behind WithShards: a
// conservative (null-message / window-barrier) parallel discrete-event
// simulator. The graph is partitioned into shards (shard.go); each
// shard owns its vertices' event queue, payload arena, accounting and
// per-node state, and one worker goroutine drives it. Execution
// proceeds in rounds:
//
//	drain    every shard moves the mail other shards addressed to it
//	         into its own queue and reports its next event time.
//	horizon  the coordinator gives shard t the window bound
//	         H_t = min( min over s≠t of nextT_s + dist[s][t],
//	                    nextT_t + rt[t] ) —
//	         no event below H_t can still reach t from outside. The
//	         first term covers chains rooted at another shard's
//	         pending events; the rt round-trip term covers chains
//	         rooted in t's own queue that leave and echo back (an
//	         idle neighbor contributes no nextT_s term but can still
//	         relay t's own mail back into t).
//	process  every shard processes its queued events with at < H_t;
//	         cross-shard sends are appended to per-destination
//	         mailboxes for the next drain.
//
// The result is byte-identical to the serial engine because nothing
// observable depends on how shards interleave:
//
//   - The event order key (at, from, seq) is computed locally by the
//     sender, and each shard pops its queue in exactly that order, so
//     every vertex sees its deliveries in the serial sequence.
//   - FIFO/congestion state (lastArrive), fault cursors (downCur) and
//     per-node RNG streams are owned by the sending vertex's shard and
//     advance in that sender's own monotone time order.
//   - Mail sent during a round arrives at or after the receiver's
//     horizon for that round (see dist in shard.go), so it is never
//     late: it always lands in a window the receiver has not started.
//   - Stats are pure sums (merged after the workers stop), and
//     observer probes/trace points are buffered with their serial
//     order key and replayed after the run (replay.go).
//
// Worker-goroutine state hand-offs all go through the coordinator's
// phase channels, so the engine is race-detector-clean without locks.
// The serial engine in sim.go is untouched: WithShards(k<=1) never
// reaches this file.

// causeKey identifies the happens-before parent of a send during a
// sharded run: the (sender, push-seq) transmission key of the delivery
// whose Handle is executing, or the zero key for Init. Dense global
// sequence numbers do not exist until the post-run replay, so causes
// travel as transmission keys and are resolved to SendEvent.Cause
// through the replay's seqOf map (replay.go).
type causeKey struct {
	from int32
	seq  int64
}

// mailItem is one cross-shard event in flight between two barriers.
// The payload rides along because arena slots are shard-local: the
// receiver re-homes the payload into its own arena when draining.
type mailItem struct {
	ev event
	m  Message
}

// eventFlushBatch is how many locally-processed events a shard batches
// before adding them to the engine-wide event counter. The global
// WithEventLimit check is therefore approximate in sharded runs — by
// at most k*eventFlushBatch events — which the WithShards doc records
// as an accepted divergence.
const eventFlushBatch = 1024

// parEngine is the per-run state of one sharded execution.
type parEngine struct {
	net    *Network
	plan   *shardPlan
	shards []*shard
	sctxs  []shardNodeCtx // per-vertex contexts; entry v touched only by v's shard
	events atomic.Int64   // events processed across shards (batched)
	abort  atomic.Bool    // event limit exhausted: all shards stop
}

// shard is one worker's private slice of the engine. Between barriers
// a worker may touch only its own shard (costsense-vet's shardsync
// analyzer enforces this); the coordinator touches shard state only
// across a phase hand-off, which the channel protocol orders.
type shard struct {
	net  *Network
	eng  *parEngine
	plan *shardPlan
	id   int32

	queue   pq.Heap[event]
	now     int64 // time of the last event this shard processed
	msgs    []Message
	msgFree []int32

	// out[t] is appended by this shard during its process phase and
	// drained (then reset) by shard t during the next drain phase. The
	// phases never overlap, so each mailbox is single-producer,
	// single-consumer with exactly one owner at any instant.
	out [][]mailItem

	// Probe/trace buffer (replay.go) and the current batch tag: the
	// serial-order key of the event (or Init) being processed, plus a
	// running intra-batch counter that preserves callback order inside
	// the batch.
	probes   []probeRec
	curKey   probeKey
	curIntra int32

	// Causal-parent threading, the shard-local mirror of the serial
	// engine's curCause/msgSeq pair: msgCause parallels msgs, holding
	// each slot's own transmission key — or, for timer slots, the cause
	// of the event that scheduled the timer — and curCause is the key
	// of the event whose Handle is currently executing (zero during
	// Init). Timers always stay on their own shard, so the stored key
	// never crosses a barrier unresolved.
	curCause causeKey
	msgCause []causeKey

	// Accounting, merged into Network.stats after the workers stop.
	// UsedEdges is per-shard and OR-merged so no two workers share a
	// bool slice.
	stats      Stats
	classes    []Class
	classStats []ClassStats
	classIdx   map[Class]int

	sinceFlush int64 // events since the last event-counter flush
}

// shardNodeCtx is the Context/TimerContext the sharded engine hands to
// processes: the vertex's engine-owned local state (its own push
// sequence and the RNG stream it shares with nodeCtx) plus its owning
// shard. The serial engine keeps its own leaner nodeCtx; the two must
// evolve identical per-node state for byte-identical runs.
type shardNodeCtx struct {
	sh  *shard
	id  graph.NodeID
	seq int64
	rng *rand.Rand
}

var (
	_ Context      = (*shardNodeCtx)(nil)
	_ TimerContext = (*shardNodeCtx)(nil)
)

func (c *shardNodeCtx) ID() graph.NodeID        { return c.id }
func (c *shardNodeCtx) Now() int64              { return c.sh.now }
func (c *shardNodeCtx) Graph() *graph.Graph     { return c.sh.net.g }
func (c *shardNodeCtx) Neighbors() []graph.Half { return c.sh.net.g.Adj(c.id) }
func (c *shardNodeCtx) Send(to graph.NodeID, m Message) {
	c.sh.send(c, to, m, ClassProto)
}
func (c *shardNodeCtx) SendClass(to graph.NodeID, m Message, cl Class) {
	c.sh.send(c, to, m, cl)
}
func (c *shardNodeCtx) Record(key string, value int64) {
	s := c.sh
	s.probes = append(s.probes, probeRec{
		key: s.curKey, intra: s.curIntra, kind: probeRecord,
		from: c.id, at: s.now, rkey: key, rval: value,
	})
	s.curIntra++
}

// ScheduleTimer mirrors nodeCtx.ScheduleTimer on shard-local state.
// Timers always stay on the sender's own shard.
func (c *shardNodeCtx) ScheduleTimer(delay int64, m Message) {
	s := c.sh
	c.seq++
	slot := s.allocSlot(m, s.curCause)
	s.queue.Push(event{at: s.now + max(delay, 1), seq: c.seq, to: int32(c.id), from: int32(c.id), msgIdx: slot, flags: flagTimer})
	s.stats.Timers++
}

// classID is the shard-local mirror of Network.classID: the standard
// classes resolve without the map, protocol-defined ones intern into
// this shard's table and are merged by name after the run.
func (s *shard) classID(c Class) int {
	switch c {
	case ClassProto:
		return 0
	case ClassAck:
		return 1
	case ClassSync:
		return 2
	case ClassControl:
		return 3
	}
	if id, ok := s.classIdx[c]; ok {
		return id
	}
	id := len(s.classes)
	s.classes = append(s.classes, c)
	s.classStats = append(s.classStats, ClassStats{})
	s.classIdx[c] = id
	return id
}

// allocSlot mirrors Network.allocSlot on the shard's own arena. Probe
// sequence numbers are not tracked here: the replay identifies
// transmissions by their (from, seq) event key instead. ck is the
// slot's causal tag — the event's own transmission key, or, for timer
// slots, the scheduling event's cause (the counterpart of the serial
// engine storing a cause in msgSeq for timers).
func (s *shard) allocSlot(m Message, ck causeKey) int32 {
	if k := len(s.msgFree); k > 0 {
		slot := s.msgFree[k-1]
		s.msgFree = s.msgFree[:k-1]
		s.msgs[slot] = m
		s.msgCause[slot] = ck
		return slot
	}
	s.msgs = append(s.msgs, m)
	s.msgCause = append(s.msgCause, ck)
	return int32(len(s.msgs) - 1)
}

// send mirrors Network.send on shard-local state: same accounting,
// same fault draws from the sender's stream, same per-node push
// sequence — so the events it creates are field-for-field the events
// the serial engine would create.
func (s *shard) send(nc *shardNodeCtx, to graph.NodeID, m Message, cl Class) {
	n := s.net
	h := n.half(nc.id, to)
	if h == nil {
		panic(fmt.Sprintf("sim: node %d sent to non-neighbor %d", nc.id, to))
	}
	w := h.w
	s.stats.UsedEdges[h.eid] = true
	s.stats.Messages++
	s.stats.Comm += w
	ci := s.classID(cl)
	s.classStats[ci].Messages++
	s.classStats[ci].Comm += w

	if n.faults != nil {
		if reason := n.faults.dropSend(h, s.now, nc.rng); reason != 0 {
			// Paid for but never scheduled; still consumes one push
			// sequence, exactly like the serial path.
			nc.seq++
			s.stats.Dropped++
			if n.obs != nil {
				s.probes = append(s.probes, probeRec{
					key: s.curKey, intra: s.curIntra, kind: probeSend,
					tfrom: int32(nc.id), tseq: nc.seq,
					cfrom: s.curCause.from, cseq: s.curCause.seq,
					at: s.now, arrive: s.now, w: w,
					from: nc.id, to: to, edge: h.eid, class: cl, m: m,
				})
				s.curIntra++
				s.probes = append(s.probes, probeRec{
					key: s.curKey, intra: s.curIntra, kind: probeDrop,
					tfrom: int32(nc.id), tseq: nc.seq,
					at: s.now, w: w,
					from: nc.id, to: to, edge: h.eid, class: cl, reason: reason, m: m,
				})
				s.curIntra++
			}
			return
		}
	}
	s.schedule(h, nc, to, m, cl, 0)
	if n.faults != nil && n.faults.dup > 0 && nc.rng.Float64() < n.faults.dup {
		s.stats.Duplicated++
		s.schedule(h, nc, to, m, cl, flagDup)
	}
}

// schedule mirrors Network.schedule: draw the delay from the sender's
// stream, apply the FIFO/congestion floor on the sender-owned directed
// edge, and route the event — to the local queue, or into the mailbox
// of the destination's shard.
func (s *shard) schedule(h *halfEdge, nc *shardNodeCtx, to graph.NodeID, m Message, cl Class, flags uint8) {
	n := s.net
	d := n.delayOn(h, nc.rng)
	last := n.lastArrive[h.did]
	var at int64
	if n.congested {
		start := s.now
		if last > start {
			start = last
		}
		at = start + d
	} else {
		at = s.now + d
		if at < last {
			at = last
		}
	}
	n.lastArrive[h.did] = at
	nc.seq++
	ev := event{at: at, seq: nc.seq, to: int32(to), from: int32(nc.id), flags: flags}
	if t := s.plan.shardOf[to]; t != s.id {
		s.out[t] = append(s.out[t], mailItem{ev: ev, m: m})
	} else {
		ev.msgIdx = s.allocSlot(m, causeKey{from: ev.from, seq: ev.seq})
		s.queue.Push(ev)
	}
	if n.obs != nil {
		s.probes = append(s.probes, probeRec{
			key: s.curKey, intra: s.curIntra, kind: probeSend,
			tfrom: int32(nc.id), tseq: nc.seq,
			cfrom: s.curCause.from, cseq: s.curCause.seq,
			at: s.now, arrive: at, delay: d, w: h.w,
			from: nc.id, to: to, edge: h.eid, class: cl, dup: flags&flagDup != 0, m: m,
		})
		s.curIntra++
	}
}

// runInits runs Init for this shard's vertices in ascending order at
// time 0. Vertex sets are disjoint and Init touches only sender-owned
// state, so shards init concurrently; the probe replay restores the
// serial all-vertices-ascending callback order via the init batch keys
// (0, v, 0), which sort before every real event (at >= 1).
func (s *shard) runInits() {
	n := s.net
	s.now = 0
	for _, v := range s.plan.nodes[s.id] {
		if n.faults != nil && n.faults.crashAt[v] <= 0 {
			continue // fail-stop at t <= 0: the node never starts
		}
		s.curKey = probeKey{at: 0, from: v, seq: 0}
		s.curIntra = 0
		s.curCause = causeKey{} // Init sends have no causal parent
		n.procs[v].Init(&s.eng.sctxs[v])
	}
	s.now = 0
}

// drainMail moves every mailbox addressed to this shard into its own
// queue. Runs only in the drain phase: the coordinator's barrier
// orders it strictly after all producers' process phases, so reaching
// into the other shards' outboxes here is safe.
//
//costsense:shardbarrier drain phase: producers are quiescent between process rounds
func (s *shard) drainMail() {
	for _, o := range s.eng.shards {
		box := o.out[s.id]
		if len(box) == 0 {
			continue
		}
		for i := range box {
			ev := box[i].ev
			ev.msgIdx = s.allocSlot(box[i].m, causeKey{from: ev.from, seq: ev.seq})
			s.queue.Push(ev)
			box[i] = mailItem{} // release the payload reference
		}
		o.out[s.id] = box[:0]
	}
}

// nextT is the time of this shard's next event, or shardInf when its
// queue is empty (after a drain, an empty queue means the shard has
// nothing in flight at all).
func (s *shard) nextT() int64 {
	if s.queue.Len() == 0 {
		return shardInf
	}
	return s.queue.Peek().at
}

// process runs one window: every queued event with at strictly below
// horizon, in (at, from, seq) order — the serial order restricted to
// this shard. Mail from other shards cannot be below the horizon, and
// local sends always land above the current event's time, so the
// window never processes an event out of order.
func (s *shard) process(horizon int64) {
	n := s.net
	for s.queue.Len() > 0 && s.queue.Peek().at < horizon {
		if s.sinceFlush >= eventFlushBatch {
			s.flushEvents()
			if s.eng.abort.Load() {
				return
			}
		}
		ev := s.queue.Pop()
		s.now = ev.at
		s.stats.Events++
		s.sinceFlush++
		s.curKey = probeKey{at: ev.at, from: ev.from, seq: ev.seq}
		s.curIntra = 0
		// Serial mirror of n.curCause = n.msgSeq[ev.msgIdx]: a
		// delivery's slot carries its own transmission key, a timer's
		// slot carries the scheduling event's cause.
		s.curCause = s.msgCause[ev.msgIdx]
		m := s.msgs[ev.msgIdx]
		s.msgs[ev.msgIdx] = nil
		s.msgFree = append(s.msgFree, ev.msgIdx)
		if n.faults != nil && n.faults.crashAt[ev.to] <= s.now {
			if ev.flags&flagTimer != 0 {
				continue // a crashed node's timer fires into the void
			}
			s.stats.DeadLetters++
			if n.obs != nil {
				h := n.half(graph.NodeID(ev.from), graph.NodeID(ev.to))
				s.probes = append(s.probes, probeRec{
					key: s.curKey, intra: s.curIntra, kind: probeDrop,
					tfrom: ev.from, tseq: ev.seq,
					at: s.now, w: h.w,
					from: graph.NodeID(ev.from), to: graph.NodeID(ev.to), edge: h.eid,
					reason: DropCrash, m: m,
				})
				s.curIntra++
			}
			continue
		}
		if ev.flags&flagTimer != 0 {
			n.procs[ev.to].Handle(&s.eng.sctxs[ev.to], graph.NodeID(ev.to), m)
			continue
		}
		if n.obs != nil {
			h := n.half(graph.NodeID(ev.from), graph.NodeID(ev.to))
			s.probes = append(s.probes, probeRec{
				key: s.curKey, intra: s.curIntra, kind: probeDeliver,
				tfrom: ev.from, tseq: ev.seq,
				at: ev.at, w: h.w,
				from: graph.NodeID(ev.from), to: graph.NodeID(ev.to), edge: h.eid,
				dup: ev.flags&flagDup != 0, m: m,
			})
			s.curIntra++
		}
		n.procs[ev.to].Handle(&s.eng.sctxs[ev.to], graph.NodeID(ev.from), m)
	}
	s.flushEvents()
}

// flushEvents publishes this shard's recent event count to the shared
// counter and raises the abort flag when the WithEventLimit budget is
// gone. Batched so the shared cacheline is touched once per
// eventFlushBatch events, not once per event.
func (s *shard) flushEvents() {
	if s.sinceFlush == 0 {
		return
	}
	total := s.eng.events.Add(s.sinceFlush)
	s.sinceFlush = 0
	if total >= s.net.eventLimit {
		s.eng.abort.Store(true)
	}
}

// Worker phases, driven by the coordinator in runSharded.
const (
	phInit uint8 = iota
	phDrain
	phProcess
)

// phaseCmd is one coordinator -> worker instruction.
type phaseCmd struct {
	phase   uint8
	horizon int64 // process phase only
}

// shardReport is one worker -> coordinator acknowledgment, carrying
// the shard's next event time (meaningful after a drain).
type shardReport struct {
	id    int32
	nextT int64
}

// runSharded is the WithShards entry point, called from Run. The
// calling goroutine is the coordinator: it starts one worker per
// shard, drives the drain/horizon/process rounds to quiescence, then
// merges shard state back into the Network — stats by summation,
// probes and traces by ordered replay (replay.go).
//
//costsense:shardbarrier coordinator: touches shard state only before workers start, across phase hand-offs, and after the channels close
func (n *Network) runSharded() (*Stats, error) {
	plan, err := n.buildShardPlan()
	if err != nil {
		return nil, err
	}
	eng := &parEngine{net: n, plan: plan}
	nv, k := n.g.N(), plan.k

	eng.sctxs = make([]shardNodeCtx, nv)
	n.materializeRNGs()
	for v := 0; v < nv; v++ {
		eng.sctxs[v] = shardNodeCtx{id: graph.NodeID(v), rng: n.ctxs[v].rng}
	}
	eng.shards = make([]*shard, k)
	for si := 0; si < k; si++ {
		s := &shard{net: n, eng: eng, plan: plan, id: int32(si)}
		s.queue = *pq.NewHeap[event](64)
		s.out = make([][]mailItem, k)
		s.stats.UsedEdges = make([]bool, n.g.M())
		s.classes = append([]Class(nil), n.classes...)
		s.classStats = make([]ClassStats, len(s.classes))
		s.classIdx = make(map[Class]int, nClassHint)
		for i, c := range s.classes {
			s.classIdx[c] = i
		}
		eng.shards[si] = s
	}
	for v := 0; v < nv; v++ {
		eng.sctxs[v].sh = eng.shards[plan.shardOf[v]]
	}

	cmds := make([]chan phaseCmd, k)
	reports := make(chan shardReport, k)
	for si := 0; si < k; si++ {
		cmds[si] = make(chan phaseCmd, 1)
		go func(s *shard, in <-chan phaseCmd) {
			for c := range in {
				switch c.phase {
				case phInit:
					s.runInits()
				case phDrain:
					s.drainMail()
				case phProcess:
					s.process(c.horizon)
				}
				reports <- shardReport{id: s.id, nextT: s.nextT()}
			}
		}(eng.shards[si], cmds[si])
	}

	nextT := make([]int64, k)
	collect := func() {
		for i := 0; i < k; i++ {
			r := <-reports
			nextT[r.id] = r.nextT
		}
	}
	broadcast := func(c phaseCmd) {
		for _, ch := range cmds {
			ch <- c
		}
		collect()
	}

	broadcast(phaseCmd{phase: phInit})
	for !eng.abort.Load() {
		broadcast(phaseCmd{phase: phDrain})
		live := false
		for _, t := range nextT {
			if t < shardInf {
				live = true
				break
			}
		}
		if !live {
			break // every queue empty, every mailbox drained: quiescent
		}
		for t := 0; t < k; t++ {
			h := int64(shardInf)
			if nextT[t] < shardInf && plan.rt[t] < shardInf {
				h = nextT[t] + plan.rt[t]
			}
			for src := 0; src < k; src++ {
				if src == t || nextT[src] >= shardInf {
					continue
				}
				d := plan.dist[src][t]
				if d >= shardInf {
					continue
				}
				if b := nextT[src] + d; b < h {
					h = b
				}
			}
			cmds[t] <- phaseCmd{phase: phProcess, horizon: h}
		}
		collect()
	}
	for _, ch := range cmds {
		close(ch)
	}

	// The last report from each worker happened-after all of its shard
	// work, so the coordinator now owns every shard's state.
	if eng.abort.Load() {
		var last int64
		inFlight := 0
		for _, s := range eng.shards {
			if s.now > last {
				last = s.now
			}
			inFlight += s.queue.Len()
			for _, box := range s.out {
				inFlight += len(box)
			}
		}
		return nil, &ErrEventLimit{Limit: n.eventLimit, LastTime: last, InFlight: inFlight}
	}

	for _, s := range eng.shards {
		n.stats.Messages += s.stats.Messages
		n.stats.Comm += s.stats.Comm
		n.stats.Events += s.stats.Events
		n.stats.Dropped += s.stats.Dropped
		n.stats.Duplicated += s.stats.Duplicated
		n.stats.DeadLetters += s.stats.DeadLetters
		n.stats.Timers += s.stats.Timers
		if s.now > n.stats.FinishTime {
			n.stats.FinishTime = s.now
		}
		for e, used := range s.stats.UsedEdges {
			if used {
				n.stats.UsedEdges[e] = true
			}
		}
		for ci, cs := range s.classStats {
			if cs.Messages == 0 {
				continue
			}
			id := n.internClass(s.classes[ci])
			n.classStats[id].Messages += cs.Messages
			n.classStats[id].Comm += cs.Comm
		}
	}
	eng.replay()
	n.materializeByClass()
	if n.obs != nil {
		n.obs.OnQuiesce(&n.stats)
	}
	return &n.stats, nil
}
