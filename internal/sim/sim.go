// Package sim provides the executable form of the paper's model of
// computation (§1.3): a static asynchronous point-to-point network over
// a weighted graph G = (V, E, w), where
//
//   - transmitting a message over edge e costs w(e) units of
//     communication, and
//   - the delay of edge e varies adversarially in (0, w(e)].
//
// The simulator is a deterministic discrete-event engine. It accounts
// the two cost-sensitive complexity measures of the paper — weighted
// communication c_π and completion time t_π — separated per message
// class, so that synchronizer and controller overheads can be reported
// apart from the protocol's own traffic.
//
// The hot path (Send → queue → deliver) is allocation-free per event:
// events live in a monotone time-bucketed queue (queue.go), FIFO link
// state and class accounting are dense slices indexed by directed-edge
// and interned class IDs, and the neighbor lookup is a precomputed
// per-node index instead of an adjacency scan. See DESIGN.md,
// "Simulator internals & performance".
//
// The package also contains a weighted *synchronous* executor
// (SyncRun): edge e delivers in exactly w(e) pulses. It provides the
// reference semantics that network synchronizers (§4) must simulate.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"costsense/internal/graph"
)

// Message is an opaque protocol payload.
type Message any

// Class labels a message for cost accounting.
type Class string

// Message classes used across the library. Protocols may introduce
// their own.
const (
	ClassProto   Class = "proto"   // the simulated algorithm's own messages
	ClassAck     Class = "ack"     // acknowledgments (free asymptotically, §4.1)
	ClassSync    Class = "sync"    // synchronizer overhead
	ClassControl Class = "control" // controller overhead
	ClassRetx    Class = "retx"    // reliable-delivery retransmissions (internal/reliable)
)

// Context is the interface a process uses to interact with the network.
// The model is full-information with respect to topology (§1.4.1: "the
// structure of the network is known to all the vertices, including the
// edge weights"); only the other vertices' inputs and dynamic state are
// unknown.
type Context interface {
	// ID returns this node's identity.
	ID() graph.NodeID
	// Now returns the current simulated time.
	Now() int64
	// Graph returns the communication graph.
	Graph() *graph.Graph
	// Neighbors returns this node's incident half-edges.
	Neighbors() []graph.Half
	// Send transmits m to a neighbor at cost w(e), class ClassProto.
	Send(to graph.NodeID, m Message)
	// SendClass transmits m with an explicit accounting class.
	SendClass(to graph.NodeID, m Message, c Class)
	// Record appends (node, time, key, value) to the run trace.
	Record(key string, value int64)
}

// Process is a per-node protocol automaton. Local computation is free
// and instantaneous, per the standard model.
type Process interface {
	// Init runs once at time 0.
	Init(Context)
	// Handle runs on every message delivery.
	Handle(ctx Context, from graph.NodeID, m Message)
}

// DelayModel chooses the delay of each transmission. Delay receives the
// actual network edge as stored in the graph — canonical (U, V)
// orientation and its EdgeID — so models can key off edge identity.
type DelayModel interface {
	// Delay returns the transit time for a message on e, in [1, e.W].
	Delay(e graph.Edge, rng *rand.Rand) int64
}

// DelayMax is the maximal adversary: every message takes exactly w(e).
// This is the adversary against which the paper's upper bounds are
// proved, and the default.
type DelayMax struct{}

// Delay returns w(e).
func (DelayMax) Delay(e graph.Edge, _ *rand.Rand) int64 { return e.W }

// DelayUnit delivers every message in one time unit regardless of
// weight — the most lenient adversary, useful to separate congestion
// from transit time.
type DelayUnit struct{}

// Delay returns 1.
func (DelayUnit) Delay(graph.Edge, *rand.Rand) int64 { return 1 }

// DelayUniform draws each delay uniformly from [1, w(e)].
type DelayUniform struct{}

// Delay returns a uniform draw from [1, w(e)].
func (DelayUniform) Delay(e graph.Edge, rng *rand.Rand) int64 {
	if e.W <= 1 {
		return 1
	}
	return 1 + rng.Int63n(e.W)
}

// LookaheadModel is the optional lower-bound capability of a
// DelayModel: MinDelay returns a value every Delay call for e is
// guaranteed to be at least. The sharded engine uses it to widen the
// conservative lookahead windows on cut edges — under DelayMax the
// bound is the full edge weight, so shards synchronize only as often
// as the lightest cut edge could actually carry a message. A model
// without the capability is bounded by the universal minimum of 1
// (the DelayModel contract is delay in [1, w(e)]).
type LookaheadModel interface {
	MinDelay(e graph.Edge) int64
}

// MinDelay returns w(e): the maximal adversary always takes the full
// weight.
func (DelayMax) MinDelay(e graph.Edge) int64 { return e.W }

// MinDelay returns 1.
func (DelayUnit) MinDelay(graph.Edge) int64 { return 1 }

// MinDelay returns 1, the bottom of the uniform range.
func (DelayUniform) MinDelay(graph.Edge) int64 { return 1 }

// minDelayOf resolves the guaranteed delay lower bound of edge e under
// the configured model, clamped to >= 1.
func (n *Network) minDelayOf(e graph.Edge) int64 {
	if n.delayIsMax {
		return e.W
	}
	if lm, ok := n.delay.(LookaheadModel); ok {
		if d := lm.MinDelay(e); d > 1 {
			return d
		}
	}
	return 1
}

// ClassStats aggregates the cost of one message class.
type ClassStats struct {
	Messages int64 // number of messages
	Comm     int64 // weighted communication: Σ w(e) over transmissions
}

// Stats aggregates the cost-sensitive complexity of a run.
type Stats struct {
	Messages   int64 // total messages
	Comm       int64 // total weighted communication c_π
	FinishTime int64 // completion time t_π (time of last delivery)
	ByClass    map[Class]ClassStats
	Events     int64 // deliveries processed (safety budget accounting)
	// Fault accounting (all zero without WithFaults). Dropped and
	// Duplicated count send-time faults; DeadLetters counts messages
	// that arrived at a crashed node. Dropped messages are still
	// accounted in Messages/Comm — the sender paid for the
	// transmission — while duplicates are free (the adversary, not the
	// protocol, injected them). Timers counts ScheduleTimer firings;
	// timers are free and appear in Events only.
	Dropped     int64
	Duplicated  int64
	DeadLetters int64
	Timers      int64
	// UsedEdges marks the edges that carried at least one message —
	// the subgraph G' of the Theorem 2.1 information-flow argument.
	UsedEdges []bool
}

// checkGraph guards the UsedEdges accessors against being interpreted
// over a graph other than the one that produced the Stats: edge IDs
// index a specific graph's edge list, so mixing graphs silently
// returns garbage (or panics out of range only when the run's graph
// was larger).
func (s *Stats) checkGraph(g *graph.Graph, method string) {
	if len(s.UsedEdges) != g.M() {
		panic(fmt.Sprintf(
			"sim: Stats.%s: stats were recorded on a graph with %d edges but queried against one with %d; pass the same graph the run used",
			method, len(s.UsedEdges), g.M()))
	}
}

// UsedWeight returns w(G'): the total weight of edges that carried
// traffic. Theorem 2.1: for a global function computation, G' must
// contain a spanning tree, so UsedWeight() >= 𝓥. g must be the graph
// the run executed on; any other graph panics.
func (s *Stats) UsedWeight(g *graph.Graph) int64 {
	s.checkGraph(g, "UsedWeight")
	var w int64
	for id, used := range s.UsedEdges {
		if used {
			w += g.Edge(graph.EdgeID(id)).W
		}
	}
	return w
}

// UsedSpans reports whether the used edges connect all of V. g must be
// the graph the run executed on; any other graph panics.
func (s *Stats) UsedSpans(g *graph.Graph) bool {
	s.checkGraph(g, "UsedSpans")
	dsu := graph.NewDSU(g.N())
	comps := g.N()
	for id, used := range s.UsedEdges {
		if used {
			e := g.Edge(graph.EdgeID(id))
			if dsu.Union(int(e.U), int(e.V)) {
				comps--
			}
		}
	}
	return comps == 1 || g.N() <= 1
}

// CommOf returns the weighted communication of one class.
func (s *Stats) CommOf(c Class) int64 { return s.ByClass[c].Comm }

// MessagesOf returns the message count of one class.
func (s *Stats) MessagesOf(c Class) int64 { return s.ByClass[c].Messages }

// TracePoint is one Record call.
type TracePoint struct {
	Node  graph.NodeID
	Time  int64
	Value int64
}

// event is one scheduled delivery. It is deliberately pointer-free and
// 32 bytes: the payload lives in the Network's message arena (indexed
// by msgIdx) and endpoints are narrowed to int32, so moving events
// between queue buckets copies four plain words, no GC write barriers.
// The fault/timer markers share the struct's existing padding byte.
//
// seq is the *sender's* per-node push counter (one per transmission
// attempt, duplicate or timer that node originates), not a global
// counter: the ordering key (at, from, seq) is then a pure function of
// each node's own deterministic execution, independent of how events
// from different nodes interleave globally. That independence is what
// lets the sharded engine (engine_parallel.go) process disjoint node
// sets concurrently and still replay the exact serial order.
type event struct {
	at     int64
	seq    int64
	to     int32
	from   int32
	msgIdx int32
	flags  uint8
}

// event.flags bits.
const (
	flagTimer uint8 = 1 << iota // self-scheduled timer, not a transmission
	flagDup                     // fault-injected duplicate copy
)

// Less orders events by (time, sender, sender's push sequence). The
// (from, seq) pair is globally unique, so the order is total and runs
// are deterministic no matter how the queue breaks ties internally —
// and, because every component is computed locally by the sender, the
// order is identical whether events are processed on one queue or
// merged across shard queues.
//
//costsense:hotpath
func (e event) Less(f event) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	if e.from != f.from {
		return e.from < f.from
	}
	return e.seq < f.seq
}

// Option configures a Network.
type Option func(*Network)

// WithDelay sets the delay model (default DelayMax).
func WithDelay(d DelayModel) Option {
	return func(n *Network) { n.delay = d }
}

// WithSeed seeds the delay and fault RNG streams (default 1). Runs are
// deterministic for a fixed seed and delay model. Every node draws
// from its own stream, split from the seed by a fixed mixing function
// (nodeSeed), so a node's draws depend only on its own send sequence —
// never on how events from different nodes interleave. Serial and
// sharded runs therefore see identical draws.
func WithSeed(seed int64) Option {
	return func(n *Network) { n.seed = seed }
}

// WithEventLimit bounds the number of deliveries before Run aborts with
// an error; a guard against diverging protocols (default 50 million).
func WithEventLimit(limit int64) Option {
	return func(n *Network) { n.eventLimit = limit }
}

// WithCongestion makes links capacitated: a directed edge transmits one
// message at a time, each occupying it for the message's delay, so
// concurrent messages on a shared edge serialize. This is the link
// model behind the congestion factors in the paper's time bounds (e.g.
// the extra log n in γ*'s O(d·log²n) pulse delay, from edges shared by
// O(log n) cover trees). Off by default: the plain model delivers every
// message after its own delay regardless of load.
func WithCongestion() Option {
	return func(n *Network) { n.congested = true }
}

// WithShards runs the event loop on k concurrent shards (one worker
// goroutine per shard), partitioned with the synchronizer-γ cluster
// primitive (internal/cover) and synchronized by conservative
// lookahead windows derived from the minimum possible delay on cut
// edges. Results — Stats, traces, observer probes and their exports,
// and every seeded-RNG draw — are byte-identical to the serial engine;
// see DESIGN.md "Sharded engine & conservative lookahead" for the
// argument. k <= 1 (the default) keeps the untouched serial hot path.
//
// Two serial/sharded divergences are documented rather than hidden:
// an exhausted WithEventLimit budget still aborts the run with
// *ErrEventLimit, but the exact event count and in-flight snapshot in
// the error depend on where the shards were stopped; and with an
// observer installed, probes are replayed in exact serial order after
// the run rather than during it, so probe payloads reflect any
// mutation the receiving Handle performed (the bundled internal/obs
// observers read only the scalar probe structs and are unaffected).
func WithShards(k int) Option {
	return func(n *Network) { n.shards = k }
}

// WithShardAssignment pins the node -> shard map instead of computing
// one: shardOf[v] is v's shard in [0, k) where k = max+1. Used by
// tests and benchmarks to force degenerate or hand-built partitions
// through the sharded engine; WithShards' automatic partitioner is the
// normal path. The assignment is validated at Run: len(shardOf) must
// equal the vertex count.
func WithShardAssignment(shardOf []int32) Option {
	return func(n *Network) {
		n.shardOf = shardOf
		k := int32(0)
		for _, s := range shardOf {
			if s > k {
				k = s
			}
		}
		n.shards = int(k) + 1
	}
}

// WithProcessWrapper rewraps every process through wrap before the run
// starts: wrap receives the configured process slice and returns the
// slice to actually execute, one process per vertex. This is the hook
// adapter layers use to interpose on an *arbitrary* runner — e.g.
// internal/reliable wraps each protocol automaton with a
// retransmitting, deduplicating shim by passing this option to RunGHS
// or RunGammaW, leaving the protocols themselves untouched.
//
// Like every Option, the wrapper is recorded when the option is
// applied and takes effect exactly once, at finalize — so an option
// list can be probed and replayed onto a pooled Network (see Pool)
// without running wrap's side effects twice.
func WithProcessWrapper(wrap func([]Process) []Process) Option {
	return func(n *Network) { n.wrapFns = append(n.wrapFns, wrap) }
}

// halfEdge is one entry of the per-node neighbor index: the directed
// half-edge toward `to`, carrying the canonical stored edge and the
// directed-edge slot in lastArrive. Entries are sorted by `to`; for
// parallel edges the first adjacency occurrence (lowest edge ID) sorts
// first and is the one send resolves, matching the semantics of the
// adjacency-scan it replaces.
type halfEdge struct {
	to    graph.NodeID
	w     int64
	did   int32 // directed-edge index: 2*edge.ID + orientation
	fdown uint8 // nonzero when the edge has scheduled down-windows (WithFaults)
	eid   graph.EdgeID
}

// nClassHint sizes the interned-class table: the four standard classes
// plus room for a few protocol-defined ones before the slices grow.
const nClassHint = 8

// Network is one asynchronous execution: a graph, one process per
// vertex, and a pending-event queue.
type Network struct {
	g          *graph.Graph
	procs      []Process
	delay      DelayModel
	seed       int64 // RNG seed; per-node streams split from it (nodeSeed)
	queue      eventQueue
	now        int64
	sendSeq    int64   // probe sequence: one per OnSend-visible transmission, dense 1..S
	curCause   int64   // probe seq of the delivery being handled (0 during Init); SendEvent.Cause
	lastArrive []int64 // directed-edge ID -> last scheduled arrival (FIFO) / busy-until (congested)
	// nbr is the neighbor index: per-vertex, capacity-capped windows of
	// nbrAll, its one backing slice, which bindGraph reuses.
	nbr        [][]halfEdge
	nbrAll     []halfEdge
	msgs       []Message // in-flight payload arena, indexed by event.msgIdx
	msgSeq     []int64   // arena slot -> probe sequence of the transmission; for timer slots, the scheduling event's cause (see ScheduleTimer)
	msgFree    []int32   // free slots in msgs
	delayIsMax bool      // devirtualized fast path for the default DelayMax
	stats      Stats
	classes    []Class      // interned class names, index = class ID
	classStats []ClassStats // dense per-class accounting, same index
	classIdx   map[Class]int
	traces     map[string][]TracePoint
	eventLimit int64
	congested  bool
	ran        bool
	ctxs       []nodeCtx
	obs        Observer    // nil unless WithObserver installed one
	faults     *faultState // nil unless WithFaults installed a plan
	shards     int         // >1: Run dispatches to the sharded engine (engine_parallel.go)
	shardOf    []int32     // explicit shard assignment (WithShardAssignment), else computed

	// Deferred configuration, recorded by Options and acted on once at
	// finalize. Options are pure setters on these fields so that an
	// option list can be applied to a probe Network (to discover the
	// pool) and then replayed onto a pooled instance without running
	// any side effect twice.
	wrapFns       []func([]Process) []Process // WithProcessWrapper, in application order
	pendingFaults *FaultPlan                  // WithFaults plan, installed at finalize
	fdownMarked   bool                        // neighbor index carries fdown marks to clear on Reset
	pool          *Pool                       // WithPool: release target after Run
}

// NewNetwork creates a network running procs[v] at vertex v.
//
// When the option list carries WithPool and the pool holds an idle
// Network built on the same *graph.Graph, that instance is Reset and
// returned instead of allocating a new one: its event queue, payload
// arena, neighbor index and accounting slices are reused, so a sweep
// of many runs over one substrate pays the construction cost once. On
// a miss a full pool rebinds its least recently released Network to g
// instead (see Pool), so a run on a new graph reuses storage too.
func NewNetwork(g *graph.Graph, procs []Process, opts ...Option) (*Network, error) {
	if len(procs) != g.N() {
		return nil, fmt.Errorf("sim: %d processes for %d vertices", len(procs), g.N())
	}
	n := &Network{g: g, procs: procs}
	n.setDefaults()
	for _, o := range opts {
		o(n)
	}
	if n.pool != nil {
		cached := n.pool.take(g)
		if cached == nil {
			if cached = n.pool.recycle(); cached != nil {
				cached.bindGraph(g)
			}
		}
		if cached != nil {
			// Replay the option list onto the pooled instance. Options
			// are pure setters (side effects run once, at finalize), so
			// the probe application above configured nothing durable.
			if err := cached.Reset(procs, opts...); err != nil {
				return nil, err
			}
			return cached, nil
		}
	}
	n.bindGraph(g)
	if err := n.finalize(); err != nil {
		return nil, err
	}
	return n, nil
}

// setDefaults resets the run configuration to the documented defaults;
// Options then override them.
func (n *Network) setDefaults() {
	n.delay = DelayMax{}
	n.seed = 1
	n.eventLimit = 50_000_000
	n.congested = false
	n.obs = nil
	n.shards = 0
	n.shardOf = nil
	n.wrapFns = nil
	n.pendingFaults = nil
	n.pool = nil
}

// bindGraph sizes the graph-dependent storage for g: FIFO floors,
// used-edge marks, payload arena, neighbor index, per-node contexts and
// event queue. On a fresh Network it allocates all of it. On one a full
// Pool recycles from another graph it keeps each buffer whose capacity
// covers what g needs at most twice over and reallocates the others, so
// a rebound network never pins much more storage than its new graph
// warrants. A kept buffer is cleared after reslicing: nothing of the old
// graph's run survives into the new one.
func (n *Network) bindGraph(g *graph.Graph) {
	n.g = g
	nv, m2 := g.N(), 2*g.M()
	n.lastArrive = fitLen(n.lastArrive, m2)
	n.stats.UsedEdges = fitLen(n.stats.UsedEdges, g.M())
	// The arena is pre-sized for a few in-flight messages per edge and
	// grows on demand; its free list starts empty and grows with it.
	n.msgs = fitCap(n.msgs, m2)
	n.msgSeq = fitCap(n.msgSeq, m2)
	if cap(n.msgFree) > 2*m2 {
		n.msgFree = nil
	}
	n.msgFree = n.msgFree[:0]
	n.queue.fit(2 * m2)
	if n.traces == nil {
		n.traces = make(map[string][]TracePoint)
	}
	if n.classIdx == nil {
		n.classes = make([]Class, 0, nClassHint)
		n.classStats = make([]ClassStats, 0, nClassHint)
		n.classIdx = make(map[Class]int, nClassHint)
		for _, c := range [...]Class{ClassProto, ClassAck, ClassSync, ClassControl} {
			n.internClass(c)
		}
	}
	n.buildNeighborIndex()
	// A node's RNG stream is re-seeded before every run that draws, so
	// a kept one is as good as a new one; the tail past nv is cleared
	// to let the streams of vertices g does not have go.
	old := n.ctxs
	if cap(old) < nv || cap(old) > 2*nv {
		n.ctxs = make([]nodeCtx, nv)
	} else {
		n.ctxs = old[:nv]
	}
	for v := range n.ctxs {
		var rng *rand.Rand
		if v < len(old) {
			rng = old[v].rng
		}
		n.ctxs[v] = nodeCtx{net: n, id: graph.NodeID(v), rng: rng}
	}
	clear(n.ctxs[nv:cap(n.ctxs)])
}

// fitLen returns buf resliced to length need and zeroed when its
// capacity is at least need and at most twice need, else a new slice.
func fitLen[T any](buf []T, need int) []T {
	if cap(buf) < need || cap(buf) > 2*need {
		return make([]T, need)
	}
	buf = buf[:need]
	clear(buf)
	return buf
}

// fitCap returns buf emptied, with its whole capacity zeroed, when that
// capacity is at least hint and at most twice hint, else a new empty
// slice of capacity hint.
func fitCap[T any](buf []T, hint int) []T {
	if cap(buf) < hint || cap(buf) > 2*hint {
		return make([]T, 0, hint)
	}
	clear(buf[:cap(buf)])
	return buf[:0]
}

// finalize acts on the configuration the Options recorded: it runs the
// deferred process wrappers in order, installs the fault plan (the
// neighbor index exists by now, so down-window edges can be marked),
// and resolves the devirtualized DelayMax fast path. Called exactly
// once per NewNetwork or Reset.
func (n *Network) finalize() error {
	for _, wrap := range n.wrapFns {
		ps := wrap(n.procs)
		if len(ps) != len(n.procs) {
			panic(fmt.Sprintf("sim: WithProcessWrapper returned %d processes for %d vertices", len(ps), len(n.procs)))
		}
		n.procs = ps
	}
	n.wrapFns = nil
	if p := n.pendingFaults; p != nil {
		n.pendingFaults = nil
		n.installFaults(*p)
	}
	if _, ok := n.delay.(DelayMax); ok {
		// The default maximal adversary is a pure d = w(e): skip the
		// per-send interface dispatch. It draws nothing from the RNG,
		// so the fast path cannot shift the random stream.
		n.delayIsMax = true
	}
	return nil
}

// Reset returns the Network to its just-constructed state over the
// same graph, with fresh processes and options, reusing every
// allocation the previous run grew: the event queue, the payload arena
// and its free list, the neighbor index, the FIFO floors and the dense
// accounting slices. A Reset Network runs byte-identically to a
// freshly built one (pinned by the fresh-vs-reused golden tests).
//
// Reset invalidates the *Stats returned by the previous Run and any
// trace slices obtained from it: copy what you need before resetting.
// Configuration does not carry over — the option list passed here is
// the network's entire configuration, exactly as with NewNetwork.
func (n *Network) Reset(procs []Process, opts ...Option) error {
	if len(procs) != n.g.N() {
		return fmt.Errorf("sim: Reset: %d processes for %d vertices", len(procs), n.g.N())
	}
	n.resetRunState()
	n.setDefaults()
	n.procs = procs
	for _, o := range opts {
		o(n)
	}
	return n.finalize()
}

// resetRunState clears everything a run mutates while keeping the
// backing storage: the counters, queued events, arena payloads (so the
// GC can reclaim them), FIFO floors, accounting, and fault marks.
func (n *Network) resetRunState() {
	n.queue.Reset()
	n.now = 0
	n.sendSeq = 0
	n.curCause = 0
	clear(n.lastArrive)
	clear(n.msgs) // release payload references before truncating
	n.msgs = n.msgs[:0]
	n.msgSeq = n.msgSeq[:0]
	n.msgFree = n.msgFree[:0]
	n.delayIsMax = false
	used := n.stats.UsedEdges
	clear(used)
	n.stats = Stats{UsedEdges: used}
	// Interned classes persist (IDs are internal; accounting restarts).
	for i := range n.classStats {
		n.classStats[i] = ClassStats{}
	}
	// A fresh map, not clear(): trace slices handed out by the previous
	// run must stay valid for their holders.
	n.traces = make(map[string][]TracePoint)
	for v := range n.ctxs {
		n.ctxs[v].seq = 0
	}
	if n.fdownMarked {
		for v := range n.nbr {
			for i := range n.nbr[v] {
				n.nbr[v][i].fdown = 0
			}
		}
		n.fdownMarked = false
	}
	n.faults = nil
	n.ran = false
}

// buildNeighborIndex precomputes, for every vertex, its half-edges
// sorted by neighbor, so send resolves a (from, to) pair by binary
// search instead of an O(degree) adjacency scan. It visits the
// destinations in order and appends, for each, the halves arriving
// there from each of its neighbors — O(n+m), no comparison sort, no
// scratch. Adjacency lists are in edge-ID order, so parallel edges stay
// ID-ordered and the leftmost match is the edge the old adjacency scan
// picked. Every vertex's entries are a capacity-capped window of one
// backing slice, which bindGraph reuses across graphs.
func (n *Network) buildNeighborIndex() {
	g := n.g
	nv := g.N()
	n.nbr = fitLen(n.nbr, nv)
	n.nbrAll = fitLen(n.nbrAll, 2*g.M())
	at := 0
	for v := range n.nbr {
		d := g.Degree(graph.NodeID(v))
		n.nbr[v] = n.nbrAll[at : at : at+d]
		at += d
	}
	edges := g.Edges()
	for to := 0; to < nv; to++ {
		for _, h := range g.Adj(graph.NodeID(to)) {
			// h leads from `to` to `from`; the half indexed here runs
			// the other way. Its directed-edge slot is 2·ID when it
			// runs from the edge's U endpoint, 2·ID+1 otherwise.
			from := h.To
			did := 2 * int32(h.ID)
			if edges[h.ID].U != from {
				did++
			}
			n.nbr[from] = append(n.nbr[from], halfEdge{to: graph.NodeID(to), w: h.W, did: did, eid: h.ID})
		}
	}
	n.fdownMarked = false
}

// internClass returns the dense ID for a class, allocating one on first
// sight. The four standard classes are interned at construction.
func (n *Network) internClass(c Class) int {
	if id, ok := n.classIdx[c]; ok {
		return id
	}
	id := len(n.classes)
	n.classes = append(n.classes, c)
	n.classStats = append(n.classStats, ClassStats{})
	n.classIdx[c] = id
	return id
}

// classID is the hot-path class lookup: the standard classes resolve by
// constant-string comparison (pointer-equal for the package constants),
// protocol-defined classes fall back to the interning map.
//
//costsense:hotpath
func (n *Network) classID(c Class) int {
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
	return n.internClass(c)
}

// nodeSeed splits the network seed into vertex v's private stream seed
// with one splitmix64-style finalizing round. The mixing function is
// part of the determinism contract — golden tests pin run results
// derived from these streams, so changing it invalidates every
// recorded baseline (a deliberate, one-time re-pin, as when the
// engine moved from one sequential stream to per-node streams).
func nodeSeed(seed int64, v int32) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(uint32(v))+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// needNodeRNG reports whether any per-event code path of this
// configuration can draw randomness: a delay model other than the
// non-drawing DelayMax/DelayUnit, or a fault plan with probabilistic
// drops or duplicates. When false, no stream is ever touched —
// materializeRNGs neither allocates nor re-seeds one — so the default
// configurations carry no RNG state at all.
func (n *Network) needNodeRNG() bool {
	if n.faults != nil && (n.faults.drop > 0 || n.faults.dup > 0) {
		return true
	}
	if n.delayIsMax {
		return false
	}
	if _, ok := n.delay.(DelayUnit); ok {
		return false
	}
	return true
}

// materializeRNGs starts the per-node RNG streams, for either engine,
// when the configuration can draw randomness; a stream kept from an
// earlier run is re-seeded in place (same draws, no ~5 KB source per
// node per trial). Cold path: runs once per Run, before any Init.
func (n *Network) materializeRNGs() {
	if !n.needNodeRNG() {
		return
	}
	for v := range n.ctxs {
		seed := nodeSeed(n.seed, int32(v))
		if r := n.ctxs[v].rng; r != nil {
			r.Seed(seed)
		} else {
			n.ctxs[v].rng = rand.New(rand.NewSource(seed))
		}
	}
}

// nodeCtx implements Context for one vertex. It also carries the
// vertex's two pieces of engine-owned local state: the per-node push
// sequence (the event tie-break) and the per-node RNG stream. Both
// live here rather than on the Network so that the sharded engine can
// hand each shard's worker exclusive ownership of its own nodes'
// state, and so that a serial run allocates nothing extra (the ctxs
// slice already exists).
type nodeCtx struct {
	net *Network
	id  graph.NodeID
	seq int64      // per-node push counter: transmissions (incl. dropped), duplicates, timers
	rng *rand.Rand // per-node stream split from the network seed; nil until a run can draw, then kept across Reset
}

var _ Context = (*nodeCtx)(nil)

func (c *nodeCtx) ID() graph.NodeID        { return c.id }
func (c *nodeCtx) Now() int64              { return c.net.now }
func (c *nodeCtx) Graph() *graph.Graph     { return c.net.g }
func (c *nodeCtx) Neighbors() []graph.Half { return c.net.g.Adj(c.id) }
func (c *nodeCtx) Send(to graph.NodeID, m Message) {
	c.net.send(c.id, to, m, ClassProto)
}
func (c *nodeCtx) SendClass(to graph.NodeID, m Message, cl Class) {
	c.net.send(c.id, to, m, cl)
}
func (c *nodeCtx) Record(key string, value int64) {
	c.net.traces[key] = append(c.net.traces[key], TracePoint{Node: c.id, Time: c.net.now, Value: value})
	if c.net.obs != nil {
		c.net.obs.OnRecord(c.id, c.net.now, key, value)
	}
}

// TimerContext is the optional timer capability of a Context. The
// engine's nodeCtx implements it; adapter layers that need wake-ups
// without a peer message (retransmission timeouts in internal/reliable)
// discover it by type assertion, so the core Context interface — and
// every existing protocol — is untouched.
type TimerContext interface {
	// ScheduleTimer delivers m back to this node after delay time
	// units (minimum 1). Timers are free — no communication is
	// accounted and no Observer send/deliver probes fire — but each
	// firing consumes one event from the WithEventLimit budget, so
	// timer loops cannot hang a run.
	ScheduleTimer(delay int64, m Message)
}

var _ TimerContext = (*nodeCtx)(nil)

// ScheduleTimer implements TimerContext. The timer slot's msgSeq entry
// holds the *current causal parent* rather than a probe sequence:
// timers never reach OnSend/OnDeliver, so when the timer fires the
// stored value becomes curCause directly and the happens-before chain
// collapses across the (free) timer hop.
//
//costsense:hotpath
func (c *nodeCtx) ScheduleTimer(delay int64, m Message) {
	n := c.net
	c.seq++
	slot := n.allocSlot(m, n.curCause)
	n.queue.Push(event{at: n.now + max(delay, 1), seq: c.seq, to: int32(c.id), from: int32(c.id), msgIdx: slot, flags: flagTimer})
	n.stats.Timers++
}

// half resolves the directed half-edge from -> to, or nil when the
// vertices are not adjacent. Leftmost binary search: parallel edges
// resolve to the lowest edge ID.
//
//costsense:hotpath
func (n *Network) half(from, to graph.NodeID) *halfEdge {
	idx := n.nbr[from]
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if idx[mid].to < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(idx) || idx[lo].to != to {
		return nil
	}
	return &idx[lo]
}

// send is the per-message hot path: resolve the half-edge, account the
// cost, consult the fault adversary, pick the delay, and schedule the
// delivery — no allocations beyond amortized growth of the queue and
// the payload arena. Without WithFaults the fault adversary is one nil
// check and the RNG stream is untouched.
//
//costsense:hotpath
func (n *Network) send(from, to graph.NodeID, m Message, cl Class) {
	h := n.half(from, to)
	if h == nil {
		//costsense:alloc-ok cold path: a non-neighbor send is a protocol bug and panics immediately
		panic(fmt.Sprintf("sim: node %d sent to non-neighbor %d", from, to))
	}
	nc := &n.ctxs[from]
	w := h.w
	n.stats.UsedEdges[h.eid] = true
	n.stats.Messages++
	n.stats.Comm += w
	ci := n.classID(cl)
	n.classStats[ci].Messages++
	n.classStats[ci].Comm += w

	if n.faults != nil {
		if reason := n.faults.dropSend(h, n.now, nc.rng); reason != 0 {
			// The transmission is paid for (the sender spent its w(e)
			// on the wire) but never scheduled. It still consumes one
			// per-node push sequence so the sender's stream of
			// (seq, RNG) state is a pure function of its own sends,
			// fault outcomes included.
			nc.seq++
			n.stats.Dropped++
			n.sendSeq++
			if n.obs != nil {
				n.obs.OnSend(SendEvent{
					Time: n.now, Arrive: n.now, Delay: 0, Seq: n.sendSeq, Cause: n.curCause, W: w,
					From: from, To: to, Edge: h.eid, Class: cl,
				}, m)
				n.obs.OnDrop(DropEvent{
					Time: n.now, Seq: n.sendSeq, W: w,
					From: from, To: to, Edge: h.eid, Class: cl, Reason: reason,
				}, m)
			}
			return
		}
	}
	n.schedule(h, nc, to, m, cl, 0)
	if n.faults != nil && n.faults.dup > 0 && nc.rng.Float64() < n.faults.dup {
		// Duplicate: a second, independent copy of the same payload.
		// It draws its own delay but shares the FIFO floor, so it
		// arrives at or after the original. The copy is not accounted
		// — the adversary injected it, the protocol didn't pay for it.
		n.stats.Duplicated++
		n.schedule(h, nc, to, m, cl, flagDup)
	}
}

// delayOn picks one transmission's delay on h, for either engine, and
// enforces the DelayModel contract where the value is consumed: below
// 1 it would arrive no later than the instant being handled.
//
//costsense:hotpath
func (n *Network) delayOn(h *halfEdge, rng *rand.Rand) int64 {
	d := h.w
	if !n.delayIsMax {
		d = n.delay.Delay(n.g.Edge(h.eid), rng)
	}
	if d < 1 {
		//costsense:alloc-ok cold path: a delay below 1 is a DelayModel bug and panics immediately
		panic(fmt.Sprintf("sim: delay model %T returned %d on edge %+v; the contract is a delay in [1, w]", n.delay, d, n.g.Edge(h.eid)))
	}
	return d
}

// schedule enqueues one transmission on the resolved half-edge: draw
// the delay, apply FIFO/congestion ordering, place the payload in the
// arena and fire the OnSend probe.
//
//costsense:hotpath
func (n *Network) schedule(h *halfEdge, nc *nodeCtx, to graph.NodeID, m Message, cl Class, flags uint8) {
	d := n.delayOn(h, nc.rng)
	last := n.lastArrive[h.did]
	var at int64
	if n.congested {
		// Capacitated link: the edge carries one message at a time,
		// each occupying it for its delay.
		start := n.now
		if last > start {
			start = last
		}
		at = start + d
	} else {
		at = n.now + d
		if at < last {
			at = last // FIFO per directed edge
		}
	}
	n.lastArrive[h.did] = at
	nc.seq++
	n.sendSeq++
	slot := n.allocSlot(m, n.sendSeq)
	n.queue.Push(event{at: at, seq: nc.seq, to: int32(to), from: int32(nc.id), msgIdx: slot, flags: flags})
	if n.obs != nil {
		// SendEvent is all scalars and passed by value: the probe adds
		// one branch and no allocation to the unobserved path.
		n.obs.OnSend(SendEvent{
			Time: n.now, Arrive: at, Delay: d, Seq: n.sendSeq, Cause: n.curCause, W: h.w,
			From: nc.id, To: to, Edge: h.eid, Class: cl, Dup: flags&flagDup != 0,
		}, m)
	}
}

// allocSlot places a payload in the arena, reusing a freed slot when
// one exists, and records its probe sequence (0 for timers).
//
//costsense:hotpath
func (n *Network) allocSlot(m Message, seq int64) int32 {
	if k := len(n.msgFree); k > 0 {
		slot := n.msgFree[k-1]
		n.msgFree = n.msgFree[:k-1]
		n.msgs[slot] = m
		n.msgSeq[slot] = seq
		return slot
	}
	n.msgs = append(n.msgs, m)
	n.msgSeq = append(n.msgSeq, seq)
	return int32(len(n.msgs) - 1)
}

// Run initializes every process at time 0 and drives the event queue to
// quiescence. It returns the accumulated statistics. Run may be called
// once per Network (use Reset to run again); a second call returns an
// error.
//
// When the Network was built with WithPool, Run releases it back to
// the pool after the run, so a later NewNetwork on that pool — over the
// same graph, or over another once the pool is full — reuses its
// storage. The returned *Stats is only valid until that reuse; pooled
// callers must copy what they need before starting another run from
// the same goroutine.
func (n *Network) Run() (*Stats, error) {
	if n.ran {
		return nil, fmt.Errorf("sim: Run called twice on the same Network (use Reset to rerun)")
	}
	st, err := n.run()
	if n.pool != nil {
		n.pool.put(n)
	}
	return st, err
}

// run is the once-per-Reset execution: the serial event loop, or the
// dispatch into the sharded engine.
//
//costsense:hotpath
func (n *Network) run() (*Stats, error) {
	n.ran = true
	if n.shards > 1 && n.g.N() > 1 {
		//costsense:alloc-ok cold path: the sharded engine allocates per-shard state up front, never per event
		return n.runSharded()
	}
	n.materializeRNGs()
	for v := range n.procs {
		if n.faults != nil && n.faults.crashAt[v] <= 0 {
			continue // fail-stop at t <= 0: the node never starts
		}
		n.procs[v].Init(&n.ctxs[v])
	}
	for n.queue.Len() > 0 {
		if n.stats.Events >= n.eventLimit {
			//costsense:alloc-ok cold path: constructing the divergence error, run over
			return nil, &ErrEventLimit{Limit: n.eventLimit, LastTime: n.now, InFlight: n.queue.Len()}
		}
		ev := n.queue.Pop()
		n.now = ev.at
		n.stats.Events++
		if n.faults != nil {
			n.faults.observeUpTo(n, ev.at)
		}
		m := n.msgs[ev.msgIdx]
		sseq := n.msgSeq[ev.msgIdx]
		// Causal parent for any sends this event's Handle issues: the
		// delivery's own probe seq, or — for timer slots — the stored
		// cause of the event that scheduled the timer (see
		// ScheduleTimer). Unconditional scalar store; no branch, no
		// alloc, so the nil-observer hot path is unchanged.
		n.curCause = sseq
		n.msgs[ev.msgIdx] = nil
		n.msgFree = append(n.msgFree, ev.msgIdx)
		if n.faults != nil && n.faults.crashAt[ev.to] <= n.now {
			// Fail-stop destination: the message is lost on arrival.
			if ev.flags&flagTimer != 0 {
				continue // a crashed node's timer fires into the void
			}
			n.stats.DeadLetters++
			if n.obs != nil {
				h := n.half(graph.NodeID(ev.from), graph.NodeID(ev.to))
				n.obs.OnDrop(DropEvent{
					Time: n.now, Seq: sseq, W: h.w,
					From: graph.NodeID(ev.from), To: graph.NodeID(ev.to), Edge: h.eid,
					Reason: DropCrash,
				}, m)
			}
			continue
		}
		if ev.flags&flagTimer != 0 {
			// Self-scheduled timer: free, never a transmission, so no
			// OnDeliver probe; it still burns one Events unit.
			n.procs[ev.to].Handle(&n.ctxs[ev.to], graph.NodeID(ev.to), m)
			continue
		}
		if n.obs != nil {
			// Re-resolve the half-edge: send always picks the leftmost
			// (lowest-ID) parallel edge, so this lookup reproduces the
			// edge the message actually used, deterministically.
			h := n.half(graph.NodeID(ev.from), graph.NodeID(ev.to))
			n.obs.OnDeliver(DeliverEvent{
				Time: ev.at, Seq: sseq, W: h.w,
				From: graph.NodeID(ev.from), To: graph.NodeID(ev.to), Edge: h.eid,
				Dup: ev.flags&flagDup != 0,
			}, m)
		}
		n.procs[ev.to].Handle(&n.ctxs[ev.to], graph.NodeID(ev.from), m)
	}
	if n.faults != nil {
		// Flush fault activations past the last event so OnCrash and
		// OnLinkDown fire exactly once per scheduled fault per run,
		// keeping exports independent of where the run happened to end.
		n.faults.observeUpTo(n, math.MaxInt64)
	}
	n.stats.FinishTime = n.now
	//costsense:alloc-ok run epilogue: builds the public per-class view once, after the event loop
	n.materializeByClass()
	if n.obs != nil {
		n.obs.OnQuiesce(&n.stats)
	}
	return &n.stats, nil
}

// materializeByClass builds the public per-class view from the dense
// counters. Only classes that carried traffic appear; a run that sent
// nothing keeps ByClass nil instead of allocating an empty map
// (lookups and accessors read nil maps fine). Shared by the serial
// post-loop epilogue and the sharded engine's merge.
func (n *Network) materializeByClass() {
	if n.stats.Messages == 0 {
		return
	}
	n.stats.ByClass = make(map[Class]ClassStats, len(n.classes))
	for i, cs := range n.classStats {
		if cs.Messages > 0 {
			n.stats.ByClass[n.classes[i]] = cs
		}
	}
}

// Trace returns the recorded points for a key, in delivery order.
func (n *Network) Trace(key string) []TracePoint { return n.traces[key] }

// Traces returns every recorded trace key in sorted order, so exports
// that walk all keys never depend on map iteration order.
func (n *Network) Traces() []string {
	keys := make([]string, 0, len(n.traces))
	for k := range n.traces { //costsense:nondet-ok keys are sorted below before anything observes them
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Run is a convenience wrapper: build a network and run it.
func Run(g *graph.Graph, procs []Process, opts ...Option) (*Stats, error) {
	n, err := NewNetwork(g, procs, opts...)
	if err != nil {
		return nil, err
	}
	return n.Run()
}
