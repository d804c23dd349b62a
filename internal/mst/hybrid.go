package mst

import (
	"fmt"

	"costsense/internal/basic"
	"costsense/internal/graph"
	"costsense/internal/sim"
)

// MSThybrid (§8.2) runs two sides under root arbitration, as in §7.2:
//
//	side A: algorithm DFS as a controlled wake-up stage — suspendable
//	        at the root with doubling estimate W_a ≈ 𝓔 — followed by
//	        algorithm MSTghs once the wake-up completes;
//	side B: algorithm MSTcentr, suspendable per phase with estimate W_b.
//
// Only the side with the smaller estimate runs. If n𝓥 < 𝓔 the DFS is
// parked early and MSTcentr finishes at O(n𝓥); otherwise the wake-up
// completes at cost O(𝓔) and GHS finishes at O(𝓔 + 𝓥 log n), while
// MSTcentr has spent at most O(W_a) = O(𝓔). Either way the total is
// O(min{𝓔 + 𝓥 log n, n𝓥}).

// msgGHSGo floods the start-GHS signal after the wake-up completes.
type msgGHSGo struct{}

// HybridProc runs the three cores at one node. The cores send through
// the node's context as it is; a delivery goes to the core whose
// message type it carries, and at the root the DFS and MSTcentr Gates
// share one basic.Interleave arbiter.
type HybridProc struct {
	DFS  *basic.DFSCore
	GHS  *GHSCore
	MST  *basic.CentrCore
	Root graph.NodeID

	ghsAwake bool // saw the GHS-go flood
}

var _ sim.Process = (*HybridProc)(nil)

// Init starts the DFS wake-up stage at the root.
func (h *HybridProc) Init(ctx sim.Context) {
	if ctx.ID() != h.Root {
		return
	}
	h.DFS.Start(ctx)
	h.checkWakeupDone(ctx)
}

// checkWakeupDone launches GHS once the DFS stage has completed.
func (h *HybridProc) checkWakeupDone(ctx sim.Context) {
	if ctx.ID() != h.Root || !h.DFS.Done || h.ghsAwake {
		return
	}
	h.startGHS(ctx, -1)
}

// startGHS wakes the local GHS core and floods the go signal.
func (h *HybridProc) startGHS(ctx sim.Context, from graph.NodeID) {
	if h.ghsAwake {
		return
	}
	h.ghsAwake = true
	for _, nb := range ctx.Neighbors() {
		if nb.To != from {
			ctx.Send(nb.To, msgGHSGo{})
		}
	}
	h.GHS.Wakeup(ctx)
}

// Handle dispatches to the core the message belongs to.
func (h *HybridProc) Handle(ctx sim.Context, from graph.NodeID, m sim.Message) {
	switch {
	case isGHSMessage(m):
		h.GHS.Handle(ctx, from, m)
	case basic.IsDFSMessage(m):
		h.DFS.Handle(ctx, from, m)
		h.checkWakeupDone(ctx)
	case basic.IsCentrMessage(m):
		h.MST.Handle(ctx, from, m)
	default:
		if _, ok := m.(msgGHSGo); !ok {
			panic(fmt.Sprintf("mst: hybrid got %T", m))
		}
		h.startGHS(ctx, from)
	}
}

// HybridResult is the outcome of an MSThybrid run.
type HybridResult struct {
	// Winner names the side that produced the tree ("ghs" or "mstcentr").
	Winner string
	Result *Result
}

// RunMSTHybrid executes algorithm MSThybrid from the given root.
func RunMSTHybrid(g *graph.Graph, root graph.NodeID, opts ...sim.Option) (*HybridResult, error) {
	if !g.Connected() {
		return nil, fmt.Errorf("mst: graph is disconnected")
	}
	n := g.N()
	procs := make([]sim.Process, n)
	hps := make([]*HybridProc, n)
	for v := range procs {
		hp := &HybridProc{
			DFS:  basic.NewDFSCore(root),
			GHS:  NewGHSCore(ScanSerial),
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

	// Prefer the GHS result when the wake-up side finished.
	ghsDone := true
	cores := make([]*GHSCore, n)
	for v := range hps {
		cores[v] = hps[v].GHS
		if !hps[v].GHS.Done {
			ghsDone = false
		}
	}
	if ghsDone && hps[root].ghsAwake {
		res, err := extract(g, cores)
		if err != nil {
			return nil, err
		}
		res.Stats = stats
		return &HybridResult{Winner: "ghs", Result: res}, nil
	}
	if hps[root].MST.Done {
		var edges []graph.Edge
		for v := range hps {
			if p := hps[v].MST.Parent; p >= 0 {
				edges = append(edges, graph.Edge{U: graph.NodeID(v), V: p, W: g.Weight(graph.NodeID(v), p)})
			}
		}
		if len(edges) != n-1 {
			return nil, fmt.Errorf("mst: MSTcentr side produced %d edges, want %d", len(edges), n-1)
		}
		return &HybridResult{
			Winner: "mstcentr",
			Result: &Result{Edges: edges, Stats: stats},
		}, nil
	}
	return nil, fmt.Errorf("mst: hybrid quiesced with no completed side")
}
