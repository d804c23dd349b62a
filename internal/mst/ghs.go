// Package mst implements the minimum spanning tree algorithms of §8:
//
//   - MSTghs — the Gallager–Humblet–Spira algorithm, whose weighted
//     complexity is O(𝓔 + 𝓥·log n) communication (Lemma 8.1);
//   - MSTfast — the §8.3 modification: fragments search for their
//     minimum outgoing edge by doubling a weight guess θ and testing
//     all edges below θ in parallel, trading communication
//     (O(𝓔·log n·log 𝓥)) for time (O(Diam(MST)·log n·log 𝓥));
//   - MSThybrid — the §8.2 combination of a DFS-controlled GHS with
//     algorithm MSTcentr, achieving O(min{𝓔 + 𝓥 log n, n𝓥}).
//
// Edge weights are tie-broken lexicographically by (w, min endpoint,
// max endpoint), so the MST is unique and fragment names are distinct —
// the standing assumption of [GHS83].
package mst

import (
	"fmt"

	"costsense/internal/basic"
	"costsense/internal/graph"
	"costsense/internal/sim"
)

// ScanMode selects how a fragment searches for its minimum outgoing
// edge.
type ScanMode int

// Scan modes.
const (
	// ScanSerial is classic GHS: each vertex tests its basic edges one
	// at a time in increasing weight order.
	ScanSerial ScanMode = iota + 1
	// ScanParallel is MSTfast (§8.3): the fragment root maintains a
	// weight guess θ; vertices test all basic edges of weight <= θ in
	// parallel, and the root doubles θ when the search fails.
	ScanParallel
)

// Name is the tie-broken weight of an edge, used as a fragment name and
// for all weight comparisons; distinct for distinct edges.
type Name struct {
	W    int64
	U, V graph.NodeID // U < V
}

// InfName is the +∞ sentinel.
var InfName = Name{W: int64(1) << 62}

// MakeName builds the tie-broken name of edge (a, b) with weight w.
func MakeName(a, b graph.NodeID, w int64) Name {
	if a > b {
		a, b = b, a
	}
	return Name{W: w, U: a, V: b}
}

// Less is the total order on names.
func (n Name) Less(o Name) bool {
	if n.W != o.W {
		return n.W < o.W
	}
	if n.U != o.U {
		return n.U < o.U
	}
	return n.V < o.V
}

// IsInf reports whether the name is the +∞ sentinel.
func (n Name) IsInf() bool { return n == InfName }

// node states
const (
	stSleeping byte = iota
	stFind
	stFound
)

// edge states
const (
	seBasic byte = iota
	seBranch
	seRejected
)

// GHS protocol messages.
type (
	// MsgConnect asks to join fragments over this edge.
	MsgConnect struct{ Level int }
	// MsgInitiate starts (or restarts) a find phase down a fragment.
	MsgInitiate struct {
		Level int
		Frag  Name
		State byte
		Guess int64 // θ in ScanParallel
	}
	// MsgTest asks whether the receiver is in a different fragment.
	MsgTest struct {
		Level int
		Frag  Name
	}
	// MsgAccept answers a test positively (different fragment).
	MsgAccept struct{}
	// MsgReject answers a test negatively (same fragment).
	MsgReject struct{}
	// MsgReport carries the subtree's best outgoing candidate. HasMore
	// reports untested basic edges above θ (ScanParallel only).
	MsgReport struct {
		Best    Name
		HasMore bool
	}
	// MsgChangeRoot moves the fragment root toward the best edge.
	MsgChangeRoot struct{}
	// MsgDone floods termination over the finished MST. Leader is the
	// core vertex that detected completion: since the MST is unique
	// and its construction ends at a single core edge, Leader is the
	// same at every node, which turns MSTghs into a leader election
	// protocol at no extra asymptotic cost — the [Awe87] reduction the
	// paper invokes in §8.
	MsgDone struct{ Leader graph.NodeID }
)

// isGHSMessage reports whether m is one of GHSCore's messages, for the
// hybrid's dispatch by type.
func isGHSMessage(m sim.Message) bool {
	switch m.(type) {
	case MsgConnect, MsgInitiate, MsgTest, MsgAccept, MsgReject, MsgReport, MsgChangeRoot, MsgDone:
		return true
	}
	return false
}

type deferredMsg struct {
	from graph.NodeID
	m    sim.Message
}

// GHSCore is the per-node state machine of MSTghs / MSTfast.
type GHSCore struct {
	Mode ScanMode

	// Branch reports the final edge states: Branch[u] is true when the
	// edge to neighbor u is an MST edge.
	Branch map[graph.NodeID]bool
	// Done is set everywhere once the MST is complete.
	Done bool
	// Halted is set at the deciding core vertex.
	Halted bool
	// Leader is the elected coordinator (the deciding core vertex),
	// identical at every node once Done.
	Leader graph.NodeID

	state     byte
	level     int
	frag      Name
	se        map[graph.NodeID]byte
	inBranch  graph.NodeID
	bestEdge  graph.NodeID
	bestWt    Name
	findCount int
	deferred  []deferredMsg

	// serial scan
	testEdge graph.NodeID // -1 when none

	// parallel scan
	guess       int64
	outstanding map[graph.NodeID]bool
	scanStarted bool
	hasMoreSelf bool
	hasMoreSub  bool
}

// NewGHSCore returns a core for one node.
func NewGHSCore(mode ScanMode) *GHSCore {
	return &GHSCore{
		Mode:        mode,
		Branch:      make(map[graph.NodeID]bool),
		Leader:      -1,
		se:          make(map[graph.NodeID]byte),
		inBranch:    -1,
		bestEdge:    -1,
		bestWt:      InfName,
		testEdge:    -1,
		outstanding: make(map[graph.NodeID]bool),
	}
}

func (c *GHSCore) nameOf(p basic.Port, u graph.NodeID) Name {
	for _, h := range p.Neighbors() {
		if h.To == u {
			return MakeName(p.ID(), u, h.W)
		}
	}
	panic(fmt.Sprintf("mst: node %d has no edge to %d", p.ID(), u))
}

// Wakeup is the GHS wake-up: connect over the minimum incident edge.
func (c *GHSCore) Wakeup(p basic.Port) {
	if c.state != stSleeping {
		return
	}
	best := graph.NodeID(-1)
	bestName := InfName
	for _, h := range p.Neighbors() {
		if nm := MakeName(p.ID(), h.To, h.W); nm.Less(bestName) {
			bestName = nm
			best = h.To
		}
	}
	c.state = stFound
	c.level = 0
	c.findCount = 0
	if best < 0 {
		// Isolated vertex: trivially done and its own leader.
		c.Done = true
		c.Leader = p.ID()
		return
	}
	c.se[best] = seBranch
	c.Branch[best] = true
	p.Send(best, MsgConnect{Level: 0})
}

// Handle processes one message, then retries deferred messages.
func (c *GHSCore) Handle(p basic.Port, from graph.NodeID, m sim.Message) {
	if !c.dispatch(p, from, m) {
		// GHS defers messages that arrive ahead of the local level
		// (classic test/connect buffering). Payloads are immutable
		// sender-constructed values today, so holding them across
		// deliveries is safe; revisit when payloads move into a typed
		// arena.
		//costsense:retain-ok payloads are sender-owned immutable values, not arena-recycled yet
		c.deferred = append(c.deferred, deferredMsg{from: from, m: m})
	}
	c.retryDeferred(p)
}

func (c *GHSCore) retryDeferred(p basic.Port) {
	for progress := true; progress; {
		progress = false
		for i := 0; i < len(c.deferred); i++ {
			d := c.deferred[i]
			if c.dispatch(p, d.from, d.m) {
				c.deferred = append(c.deferred[:i], c.deferred[i+1:]...)
				progress = true
				break
			}
		}
	}
}

// dispatch processes m and returns false when it must be deferred.
func (c *GHSCore) dispatch(p basic.Port, from graph.NodeID, m sim.Message) bool {
	switch msg := m.(type) {
	case MsgConnect:
		return c.onConnect(p, from, msg)
	case MsgInitiate:
		c.onInitiate(p, from, msg)
		return true
	case MsgTest:
		return c.onTest(p, from, msg)
	case MsgAccept:
		c.onAccept(p, from)
		return true
	case MsgReject:
		c.onReject(p, from)
		return true
	case MsgReport:
		return c.onReport(p, from, msg)
	case MsgChangeRoot:
		c.changeRoot(p)
		return true
	case MsgDone:
		c.onDone(p, from, msg)
		return true
	default:
		panic(fmt.Sprintf("mst: GHSCore got %T", m))
	}
}

func (c *GHSCore) onConnect(p basic.Port, j graph.NodeID, m MsgConnect) bool {
	c.Wakeup(p)
	if m.Level < c.level {
		// Absorb the lower-level fragment.
		c.se[j] = seBranch
		c.Branch[j] = true
		p.Send(j, MsgInitiate{Level: c.level, Frag: c.frag, State: c.state, Guess: c.guess})
		if c.state == stFind {
			c.findCount++
		}
		return true
	}
	if c.se[j] == seBasic {
		return false // defer until the local state catches up
	}
	// Merge: both sides chose this edge; it becomes the new core.
	p.Send(j, MsgInitiate{
		Level: c.level + 1,
		Frag:  c.nameOf(p, j),
		State: stFind,
		Guess: 1,
	})
	return true
}

func (c *GHSCore) onInitiate(p basic.Port, j graph.NodeID, m MsgInitiate) {
	c.level = m.Level
	c.frag = m.Frag
	c.state = m.State
	c.inBranch = j
	c.bestEdge = -1
	c.bestWt = InfName
	c.guess = m.Guess
	c.hasMoreSub = false
	c.findCount = 0
	for _, h := range p.Neighbors() {
		if h.To != j && c.se[h.To] == seBranch {
			p.Send(h.To, MsgInitiate{Level: m.Level, Frag: m.Frag, State: m.State, Guess: m.Guess})
			if m.State == stFind {
				c.findCount++
			}
		}
	}
	if m.State == stFind {
		c.beginScan(p)
	}
}

// beginScan starts this node's own outgoing-edge search.
func (c *GHSCore) beginScan(p basic.Port) {
	switch c.Mode {
	case ScanSerial:
		c.testSerial(p)
	case ScanParallel:
		c.testParallel(p)
	}
}

// testSerial tests the minimum basic edge, or completes the local scan.
func (c *GHSCore) testSerial(p basic.Port) {
	best := graph.NodeID(-1)
	bestName := InfName
	for _, h := range p.Neighbors() {
		if c.se[h.To] != seBasic {
			continue
		}
		if nm := MakeName(p.ID(), h.To, h.W); nm.Less(bestName) {
			bestName = nm
			best = h.To
		}
	}
	if best < 0 {
		c.testEdge = -1
		c.maybeReport(p)
		return
	}
	c.testEdge = best
	p.Send(best, MsgTest{Level: c.level, Frag: c.frag})
}

// testParallel tests every basic edge of weight <= θ at once.
func (c *GHSCore) testParallel(p basic.Port) {
	c.scanStarted = true
	c.hasMoreSelf = false
	c.outstanding = make(map[graph.NodeID]bool)
	for _, h := range p.Neighbors() {
		if c.se[h.To] != seBasic {
			continue
		}
		if h.W > c.guess {
			c.hasMoreSelf = true
			continue
		}
		c.outstanding[h.To] = true
		p.Send(h.To, MsgTest{Level: c.level, Frag: c.frag})
	}
	if len(c.outstanding) == 0 {
		c.maybeReport(p)
	}
}

func (c *GHSCore) onTest(p basic.Port, j graph.NodeID, m MsgTest) bool {
	c.Wakeup(p)
	if m.Level > c.level {
		return false // defer until this node's level catches up
	}
	if m.Frag != c.frag {
		p.Send(j, MsgAccept{})
		return true
	}
	// Same fragment: the edge is internal.
	if c.se[j] == seBasic {
		c.se[j] = seRejected
	}
	switch c.Mode {
	case ScanSerial:
		if c.testEdge != j {
			p.Send(j, MsgReject{})
		} else {
			c.testSerial(p) // crossed tests: my own test is implicitly rejected
		}
	case ScanParallel:
		if c.outstanding[j] {
			delete(c.outstanding, j) // crossed tests: implicit mutual reject
			if len(c.outstanding) == 0 {
				c.maybeReport(p)
			}
		} else {
			p.Send(j, MsgReject{})
		}
	}
	return true
}

func (c *GHSCore) onAccept(p basic.Port, j graph.NodeID) {
	nm := c.nameOf(p, j)
	switch c.Mode {
	case ScanSerial:
		c.testEdge = -1
		if nm.Less(c.bestWt) {
			c.bestWt = nm
			c.bestEdge = j
		}
		c.maybeReport(p)
	case ScanParallel:
		delete(c.outstanding, j)
		if nm.Less(c.bestWt) {
			c.bestWt = nm
			c.bestEdge = j
		}
		if len(c.outstanding) == 0 {
			c.maybeReport(p)
		}
	}
}

func (c *GHSCore) onReject(p basic.Port, j graph.NodeID) {
	if c.se[j] == seBasic {
		c.se[j] = seRejected
	}
	switch c.Mode {
	case ScanSerial:
		c.testSerial(p)
	case ScanParallel:
		delete(c.outstanding, j)
		if len(c.outstanding) == 0 {
			c.maybeReport(p)
		}
	}
}

// scanDone reports whether this node's own search has completed.
func (c *GHSCore) scanDone() bool {
	switch c.Mode {
	case ScanSerial:
		return c.testEdge == -1
	case ScanParallel:
		return c.scanStarted && len(c.outstanding) == 0
	}
	return false
}

func (c *GHSCore) maybeReport(p basic.Port) {
	if c.state != stFind || c.findCount != 0 || !c.scanDone() {
		return
	}
	c.state = stFound
	c.scanStarted = false
	p.Send(c.inBranch, MsgReport{Best: c.bestWt, HasMore: c.hasMoreSelf || c.hasMoreSub})
}

func (c *GHSCore) onReport(p basic.Port, j graph.NodeID, m MsgReport) bool {
	if j != c.inBranch {
		// A child's report.
		c.findCount--
		if m.Best.Less(c.bestWt) {
			c.bestWt = m.Best
			c.bestEdge = j
		}
		c.hasMoreSub = c.hasMoreSub || m.HasMore
		c.maybeReport(p)
		return true
	}
	// The other core endpoint's report.
	if c.state == stFind {
		return false // defer until this side has reported
	}
	myHasMore := c.hasMoreSelf || c.hasMoreSub
	switch {
	case c.bestWt.Less(m.Best):
		// This side holds the minimum outgoing edge.
		c.changeRoot(p)
	case m.Best.IsInf() && c.bestWt.IsInf():
		if c.Mode == ScanParallel && (myHasMore || m.HasMore) {
			// MSTfast: the guess was too low; the smaller-ID core
			// endpoint doubles θ and restarts the find on both sides.
			if p.ID() < j {
				c.guess *= 2
				re := MsgInitiate{Level: c.level, Frag: c.frag, State: stFind, Guess: c.guess}
				p.Send(j, re)
				c.onInitiate(p, j, re) // restart own side; inBranch stays the core edge
			}
			return true
		}
		// MST complete.
		c.Halted = true
		if p.ID() < j {
			c.onDone(p, p.ID(), MsgDone{Leader: p.ID()})
		}
	}
	// Otherwise the other side holds the better edge and acts.
	return true
}

func (c *GHSCore) changeRoot(p basic.Port) {
	if c.se[c.bestEdge] == seBranch {
		p.Send(c.bestEdge, MsgChangeRoot{})
		return
	}
	p.Send(c.bestEdge, MsgConnect{Level: c.level})
	c.se[c.bestEdge] = seBranch
	c.Branch[c.bestEdge] = true
}

func (c *GHSCore) onDone(p basic.Port, from graph.NodeID, m MsgDone) {
	if c.Done {
		return
	}
	c.Done = true
	c.Leader = m.Leader
	for _, h := range p.Neighbors() {
		if c.se[h.To] == seBranch && h.To != from {
			p.Send(h.To, m)
		}
	}
}
