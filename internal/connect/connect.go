// Package connect implements the connectivity / spanning tree
// algorithms of §7 of the paper. The centerpiece is algorithm
// CONhybrid (§7.2): algorithms DFS and MSTcentr run side by side, and
// the root — which holds doubling estimates W_a and W_b of the
// communication each has spent — suspends whichever is currently more
// expensive. Since both estimates stay within a constant factor of the
// true cost, and only the cheaper algorithm runs at any moment, the
// total cost is at most a constant times min{𝓔, n𝓥}, matching the
// Ω(min{𝓔, n𝓥}) lower bound of §7.1.
package connect

import (
	"fmt"

	"costsense/internal/basic"
	"costsense/internal/graph"
	"costsense/internal/sim"
)

// HybridProc runs the two cores at one node. The cores send through
// the node's context as it is; a delivery goes to the core whose
// message type it carries, and at the root the cores' Gates share one
// basic.Interleave arbiter.
type HybridProc struct {
	DFS  *basic.DFSCore
	MST  *basic.CentrCore
	Root graph.NodeID
}

var _ sim.Process = (*HybridProc)(nil)

// Init starts DFS at the root (W_a = W_b = 0; DFS holds the permit).
func (h *HybridProc) Init(ctx sim.Context) {
	if ctx.ID() == h.Root {
		h.DFS.Start(ctx)
	}
}

// Handle dispatches to the core the message belongs to.
func (h *HybridProc) Handle(ctx sim.Context, from graph.NodeID, m sim.Message) {
	switch {
	case basic.IsDFSMessage(m):
		h.DFS.Handle(ctx, from, m)
	case basic.IsCentrMessage(m):
		h.MST.Handle(ctx, from, m)
	default:
		panic(fmt.Sprintf("connect: unexpected message %T", m))
	}
}

// HybridResult is the outcome of a CONhybrid run.
type HybridResult struct {
	// Winner names the sub-algorithm that completed ("dfs" or "mst").
	Winner string
	// Parent is the spanning tree found by the winner (-1 at root).
	Parent []graph.NodeID
	// InComponent marks the vertices in the root's connected
	// component — CONhybrid is a connectivity algorithm, so it reports
	// reachability rather than failing on disconnected inputs.
	InComponent []bool
	Stats       *sim.Stats
}

// Connected reports whether the whole graph is one component.
func (r *HybridResult) Connected() bool {
	for _, in := range r.InComponent {
		if !in {
			return false
		}
	}
	return true
}

// RunCONHybrid executes algorithm CONhybrid from the given root,
// returning a spanning tree with communication O(min{𝓔, n𝓥}).
func RunCONHybrid(g *graph.Graph, root graph.NodeID, opts ...sim.Option) (*HybridResult, error) {
	n := g.N()
	procs := make([]sim.Process, n)
	hps := make([]*HybridProc, n)
	for v := range procs {
		hp := &HybridProc{
			DFS:  basic.NewDFSCore(root),
			MST:  basic.NewCentrCore(basic.ModeMST, root, n),
			Root: root,
		}
		if graph.NodeID(v) == root {
			basic.Interleave(hp.DFS, hp.MST)
		}
		hps[v] = hp
		procs[v] = hp
	}
	stats, err := sim.Run(g, procs, opts...)
	if err != nil {
		return nil, err
	}
	res := &HybridResult{
		Parent:      make([]graph.NodeID, n),
		InComponent: make([]bool, n),
		Stats:       stats,
	}
	res.InComponent[root] = true
	switch {
	case hps[root].DFS.Done:
		res.Winner = "dfs"
		for v := range hps {
			res.Parent[v] = hps[v].DFS.Parent
			if hps[v].DFS.Visited {
				res.InComponent[v] = true
			}
		}
	case hps[root].MST.Done:
		res.Winner = "mst"
		for v := range hps {
			res.Parent[v] = hps[v].MST.Parent
			if hps[v].MST.Member {
				res.InComponent[v] = true
			}
		}
	default:
		return nil, fmt.Errorf("connect: CONhybrid quiesced with neither algorithm done")
	}
	return res, nil
}
