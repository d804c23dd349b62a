package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"costsense/internal/graph"
)

// This file is the deterministic fault-injection subsystem. The paper's
// only adversary is edge delay varying in (0, w(e)]; WithFaults extends
// the adversary with message loss, duplication, transient link outages
// and fail-stop node crashes, all driven by the sender's per-node
// seeded RNG stream so a (seed, plan) pair replays byte-identically.
// The fault checks live inside the allocation-free hot path: scalar
// state in halfEdge (fdown) and event (flags), dense per-node /
// per-edge arrays, and a sorted activation timeline walked by cursor.
// A network built without WithFaults pays a nil-pointer branch per
// send and nothing else.

// DropReason classifies why a message was lost.
type DropReason uint8

const (
	// DropLoss: the per-message drop probability fired at send time.
	DropLoss DropReason = 1 + iota
	// DropLinkDown: the edge was inside a scheduled down-window at
	// send time.
	DropLinkDown
	// DropCrash: the destination had fail-stopped before the message
	// arrived; it is lost on arrival (a dead letter).
	DropCrash
)

// String names the reason for exports.
func (r DropReason) String() string {
	switch r {
	case DropLoss:
		return "loss"
	case DropLinkDown:
		return "linkdown"
	case DropCrash:
		return "crash"
	}
	return "unknown"
}

// LinkDown schedules one transient outage of an (undirected) edge:
// every transmission attempted over Edge at a time t with
// From <= t < Until is dropped at the sender. Messages already in
// flight when the window opens are not affected.
type LinkDown struct {
	Edge  graph.EdgeID
	From  int64
	Until int64
}

// Crash schedules a fail-stop: Node processes nothing at or after time
// At. Messages arriving at a crashed node are dead letters; a crash at
// At <= 0 means the node never even initializes. Crashed nodes never
// recover (fail-stop, not fail-recover).
type Crash struct {
	Node graph.NodeID
	At   int64
}

// FaultPlan describes the fault adversary for one run. The zero value
// injects nothing. Drop and Dup are per-transmission probabilities in
// [0, 1); drawing uses the sending node's own stream (split from the
// WithSeed seed), so runs stay reproducible: same graph + seed + plan
// = same faults, independent of global event interleaving.
type FaultPlan struct {
	Drop    float64 // P(message lost at send), uniform across edges
	Dup     float64 // P(message duplicated at send); the copy is delivered after the original
	Down    []LinkDown
	Crashes []Crash
}

// Empty reports whether the plan injects no faults at all.
func (p FaultPlan) Empty() bool {
	return p.Drop == 0 && p.Dup == 0 && len(p.Down) == 0 && len(p.Crashes) == 0
}

// WithFaults installs a fault plan on the network. Faults draw from the
// sender's per-node seeded stream; a run with the same seed, delay
// model and plan replays bit-identically. Invalid plans (probabilities outside [0, 1),
// unknown nodes or edges) panic at construction — a bad plan is a
// harness bug, not a runtime condition.
func WithFaults(p FaultPlan) Option {
	return func(n *Network) { n.pendingFaults = &p }
}

// downWindow is one normalized outage interval [from, until).
type downWindow struct {
	from, until int64
}

// Activation kinds on the observer timeline.
const (
	actCrash uint8 = iota
	actLinkDown
)

// activation is one scheduled fault becoming effective, kept on a
// sorted timeline so OnCrash/OnLinkDown probes fire in deterministic
// time order as the run first reaches them.
type activation struct {
	at    int64
	until int64
	node  graph.NodeID
	edge  graph.EdgeID
	kind  uint8
}

// faultState is the installed, query-optimized form of a FaultPlan.
type faultState struct {
	drop    float64
	dup     float64
	crashAt []int64      // node -> fail-stop time (math.MaxInt64 = never)
	downs   []downWindow // all edges' windows, flat, grouped by edge
	downIdx []int32      // edge -> first window; windows of e are downs[downIdx[e]:downIdx[e+1]]
	// downCur is the window cursor, one per *directed* edge (indexed by
	// halfEdge.did): each direction's sends happen in that sender's own
	// monotone time order, so a per-direction cursor only moves forward.
	downCur []int32
	acts    []activation // observer timeline, sorted by (at, kind, id)
	actCur  int
}

func (n *Network) installFaults(p FaultPlan) {
	if p.Drop < 0 || p.Drop >= 1 || p.Dup < 0 || p.Dup >= 1 {
		panic(fmt.Sprintf("sim: WithFaults: probabilities must be in [0, 1): drop=%v dup=%v", p.Drop, p.Dup))
	}
	f := &faultState{drop: p.Drop, dup: p.Dup}

	f.crashAt = make([]int64, n.g.N())
	for v := range f.crashAt {
		f.crashAt[v] = math.MaxInt64
	}
	for _, c := range p.Crashes {
		if int(c.Node) < 0 || int(c.Node) >= n.g.N() {
			panic(fmt.Sprintf("sim: WithFaults: crash of unknown node %d", c.Node))
		}
		if c.At < f.crashAt[c.Node] {
			f.crashAt[c.Node] = c.At // earliest crash wins
		}
	}

	// Normalize down-windows: group per edge, sort by start, merge
	// overlaps, and flatten into one slice indexed by downIdx.
	m := n.g.M()
	perEdge := make([][]downWindow, m)
	for _, d := range p.Down {
		if int(d.Edge) < 0 || int(d.Edge) >= m {
			panic(fmt.Sprintf("sim: WithFaults: down-window on unknown edge %d", d.Edge))
		}
		if d.Until <= d.From {
			continue // empty window
		}
		perEdge[d.Edge] = append(perEdge[d.Edge], downWindow{from: d.From, until: d.Until})
	}
	f.downIdx = make([]int32, m+1)
	for e := 0; e < m; e++ {
		ws := perEdge[e]
		sort.Slice(ws, func(i, j int) bool { return ws[i].from < ws[j].from })
		f.downIdx[e] = int32(len(f.downs))
		for _, w := range ws {
			if k := len(f.downs); k > int(f.downIdx[e]) && w.from <= f.downs[k-1].until {
				if w.until > f.downs[k-1].until {
					f.downs[k-1].until = w.until
				}
			} else {
				f.downs = append(f.downs, w)
			}
		}
	}
	f.downIdx[m] = int32(len(f.downs))
	f.downCur = make([]int32, 2*m)
	for e := 0; e < m; e++ {
		f.downCur[2*e] = f.downIdx[e]
		f.downCur[2*e+1] = f.downIdx[e]
	}

	// Mark half-edges whose edge has outage windows, so the hot path
	// skips the window scan entirely for the (typical) clean edges.
	// resetRunState clears the marks when the Network is reused.
	if len(f.downs) > 0 {
		for v := range n.nbr {
			for i := range n.nbr[v] {
				h := &n.nbr[v][i]
				if f.downIdx[h.eid] != f.downIdx[int(h.eid)+1] {
					h.fdown = 1
				}
			}
		}
		n.fdownMarked = true
	}

	// Observer timeline: crashes and window-starts in time order.
	for v, at := range f.crashAt {
		if at != math.MaxInt64 {
			f.acts = append(f.acts, activation{at: at, kind: actCrash, node: graph.NodeID(v)})
		}
	}
	for e := 0; e < m; e++ {
		for i := f.downIdx[e]; i < f.downIdx[e+1]; i++ {
			w := f.downs[i]
			f.acts = append(f.acts, activation{at: w.from, until: w.until, kind: actLinkDown, edge: graph.EdgeID(e)})
		}
	}
	sort.Slice(f.acts, func(i, j int) bool {
		a, b := f.acts[i], f.acts[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.kind == actCrash {
			return a.node < b.node
		}
		return a.edge < b.edge
	})

	n.faults = f
}

// linkDown reports whether h's edge is inside an outage window at time
// now. The per-directed-edge cursor only moves forward: the sender's
// simulated time is monotone, so the amortized cost over a run is
// O(windows of e) per direction.
//
//costsense:hotpath
func (f *faultState) linkDown(h *halfEdge, now int64) bool {
	end := f.downIdx[int(h.eid)+1]
	cur := f.downCur[h.did]
	for cur < end && f.downs[cur].until <= now {
		cur++
	}
	f.downCur[h.did] = cur
	return cur < end && f.downs[cur].from <= now
}

// dropSend decides the fate of one transmission at send time: 0 means
// deliver, otherwise the message is lost for the returned reason.
// Link-down consumes no randomness; the loss draw fires only when a
// drop probability is configured, so the random stream is a pure
// function of the plan.
//
//costsense:hotpath
func (f *faultState) dropSend(h *halfEdge, now int64, rng *rand.Rand) DropReason {
	if h.fdown != 0 && f.linkDown(h, now) {
		return DropLinkDown
	}
	if f.drop > 0 && rng.Float64() < f.drop {
		return DropLoss
	}
	return 0
}

// observeUpTo fires the OnCrash/OnLinkDown probes for every fault
// activation at or before now, in timeline order. Called once per
// event on faulty runs; the cursor makes it amortized O(1).
//
//costsense:hotpath
func (f *faultState) observeUpTo(n *Network, now int64) {
	if n.obs == nil {
		f.actCur = len(f.acts)
		return
	}
	for f.actCur < len(f.acts) && f.acts[f.actCur].at <= now {
		a := f.acts[f.actCur]
		f.actCur++
		if a.kind == actCrash {
			n.obs.OnCrash(a.node, a.at)
		} else {
			n.obs.OnLinkDown(a.edge, a.at, a.until)
		}
	}
}

// ErrEventLimit is returned by Run when the event budget set with
// WithEventLimit is exhausted. Chaos harnesses use the extra context to
// distinguish livelock (e.g. a retransmission storm: many in-flight
// messages, advancing clock) from a genuinely diverging protocol.
type ErrEventLimit struct {
	Limit    int64 // the configured budget
	LastTime int64 // simulated time of the last processed event
	InFlight int   // messages still queued when the budget ran out
}

func (e *ErrEventLimit) Error() string {
	return fmt.Sprintf("sim: event limit %d exceeded at t=%d with %d messages in flight (diverging protocol?)",
		e.Limit, e.LastTime, e.InFlight)
}

// RandomFaultPlan derives a reproducible fault plan for g from its own
// seed (independent of the run seed): drop/dup rates as given, up to
// `crashes` fail-stop nodes drawn from V \ {0} — node 0 is the
// conventional root/leader in the experiment drivers and stays up —
// with crash times in [1, horizon], and `downs` link outage windows
// starting in [0, horizon) with lengths up to horizon/2.
func RandomFaultPlan(g *graph.Graph, seed int64, drop, dup float64, crashes, downs int, horizon int64) FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	p := FaultPlan{Drop: drop, Dup: dup}
	if horizon < 2 {
		horizon = 2
	}
	if g.N() > 1 {
		perm := rng.Perm(g.N() - 1)
		if crashes > len(perm) {
			crashes = len(perm)
		}
		for i := 0; i < crashes; i++ {
			p.Crashes = append(p.Crashes, Crash{Node: graph.NodeID(perm[i] + 1), At: 1 + rng.Int63n(horizon)})
		}
	}
	for i := 0; i < downs && g.M() > 0; i++ {
		from := rng.Int63n(horizon)
		p.Down = append(p.Down, LinkDown{
			Edge: graph.EdgeID(rng.Intn(g.M())), From: from, Until: from + 1 + rng.Int63n(horizon/2+1),
		})
	}
	return p
}
