// Package basic implements the standard network algorithms of §6 of the
// paper, restated in the weighted setting:
//
//   - CONflood — flooding broadcast: O(𝓔) communication, O(𝓓) time,
//   - DFS — depth-first token traversal with doubling root estimates:
//     O(𝓔) communication and time,
//   - MSTcentr — the full-information Prim algorithm: O(n𝓥)
//     communication, O(n·Diam(MST)) time,
//   - SPTcentr — the full-information distributed Dijkstra: O(n²𝓥)
//     communication, O(n𝓓) time.
//
// DFS, MSTcentr and SPTcentr are written as embeddable state machines
// (cores) driven through a Port, so that the hybrid algorithms of §7.2
// and §8.2 can run two of them side by side under root arbitration.
// In these discovery algorithms a vertex only ever inspects its own
// incident edges, never the global topology — matching the model of
// §7.1 in which connectivity must be discovered, not assumed.
package basic

import (
	"costsense/internal/graph"
	"costsense/internal/sim"
)

// Port is the slice of sim.Context a core needs. Every Port the
// simulator hands a core is the delivering node's sim.Context itself:
// standalone processes pass it as it is, and the hybrids of §7.2 and
// §8.2 tell their cores' messages apart by type, so nothing wraps it
// to tag or meter sends. Tests may drive a core through a fake.
type Port interface {
	// ID returns the node this core runs on.
	ID() graph.NodeID
	// Neighbors returns the node's incident half-edges.
	Neighbors() []graph.Half
	// Send transmits a core message to a neighbor.
	Send(to graph.NodeID, m sim.Message)
}

// A plain sim.Context is a Port: standalone processes hand it to their
// core as it is, without an adapter to box on every delivery.
var _ Port = sim.Context(nil)

// Gate arbitrates a suspendable algorithm at its root (§7.2). The
// algorithm calls Report each time its root estimate grows, with its
// center of activity parked at the root and p the root's live Port;
// returning false suspends the algorithm until the resume function is
// invoked (from inside a later message handler, with the Port of that
// delivery).
type Gate interface {
	Report(p Port, est int64, resume func(Port)) bool
}

// RunFree is the Gate that never suspends.
type RunFree struct{}

// Report always allows the algorithm to continue.
func (RunFree) Report(Port, int64, func(Port)) bool { return true }

// Interleave installs the root's Permit rule of §7.2 as the Gates of
// two algorithms run side by side at the root: side A, a DFS, reports
// its estimate W_a, side B, an MSTcentr, reports W_b, and Permit = A
// iff W_a ≤ W_b. Exactly one side runs at a time; the other is parked
// at the root with its center of activity there, and the side whose
// report hands the permit over resumes it through its own live Port.
// A holds the permit first (W_a = W_b = 0) and the caller starts it;
// B is started the first time the permit passes to it.
func Interleave(a *DFSCore, b *CentrCore) {
	arb := &arbiter{b: b}
	a.Gate = sideA{arb}
	b.Gate = sideB{arb}
}

// arbiter is the root's permit state shared by the two sides' Gates.
type arbiter struct {
	wa, wb           int64 // the sides' latest root estimates
	parkedA, parkedB func(Port)
	b                *CentrCore
	bStarted         bool
}

func (r *arbiter) permitA() bool { return r.wa <= r.wb }

// sideA is side A's Gate.
type sideA struct{ r *arbiter }

func (g sideA) Report(p Port, est int64, resume func(Port)) bool {
	r := g.r
	r.wa = est
	if r.permitA() {
		return true
	}
	r.parkedA = resume
	if !r.bStarted {
		r.bStarted = true
		r.b.Start(p)
	} else if run := r.parkedB; run != nil {
		r.parkedB = nil
		run(p)
	}
	return false
}

// sideB is side B's Gate.
type sideB struct{ r *arbiter }

func (g sideB) Report(p Port, est int64, resume func(Port)) bool {
	r := g.r
	r.wb = est
	if !r.permitA() {
		return true
	}
	r.parkedB = resume
	if run := r.parkedA; run != nil {
		r.parkedA = nil
		run(p)
	}
	return false
}

// Infinity is the sentinel candidate key meaning "no outgoing edge".
const Infinity = int64(1) << 62
