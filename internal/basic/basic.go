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

// Port is the slice of sim.Context a core needs. Composite processes
// (hybrids, controllers) provide Ports that tag or meter messages.
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
// center of activity parked at the root; returning false suspends the
// algorithm until the resume function is invoked (from inside a later
// message handler, with a Port bound to the root's context).
type Gate interface {
	Report(est int64, resume func(Port)) bool
}

// RunFree is the Gate that never suspends.
type RunFree struct{}

// Report always allows the algorithm to continue.
func (RunFree) Report(int64, func(Port)) bool { return true }

// Infinity is the sentinel candidate key meaning "no outgoing edge".
const Infinity = int64(1) << 62
