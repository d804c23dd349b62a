package basic

import (
	"costsense/internal/graph"
	"costsense/internal/sim"
)

// FloodMsg is the token of CONflood (§6.1).
type FloodMsg struct{}

// FloodProc implements algorithm CONflood: the source sends the token
// to all neighbors; every vertex forwards the first receipt to all its
// neighbors and ignores later arrivals. Communication O(𝓔) (two
// messages per edge), time O(𝓓) under the maximal-delay adversary.
// The first-arrival edges form a spanning tree of the component.
type FloodProc struct {
	Source graph.NodeID
	// Got reports whether the token reached this node.
	Got bool
	// GotAt is the arrival time (0 for the source).
	GotAt int64
	// Parent is the neighbor the token first arrived from (-1 at the
	// source), defining the flooding tree.
	Parent graph.NodeID
}

var _ sim.Process = (*FloodProc)(nil)

// Init starts the flood at the source.
func (f *FloodProc) Init(ctx sim.Context) {
	f.Parent = -1
	if ctx.ID() != f.Source {
		return
	}
	f.Got = true
	for _, h := range ctx.Neighbors() {
		ctx.Send(h.To, FloodMsg{})
	}
}

// Handle forwards the first receipt.
func (f *FloodProc) Handle(ctx sim.Context, from graph.NodeID, _ sim.Message) {
	if f.Got {
		return
	}
	f.Got = true
	f.GotAt = ctx.Now()
	f.Parent = from
	for _, h := range ctx.Neighbors() {
		if h.To != from {
			ctx.Send(h.To, FloodMsg{})
		}
	}
}

// FloodResult aggregates a CONflood run.
type FloodResult struct {
	Parent  []graph.NodeID // flooding tree (-1 at source / unreached)
	Reached []bool
	Stats   *sim.Stats
}

// RunFlood executes CONflood from the source on g.
func RunFlood(g *graph.Graph, source graph.NodeID, opts ...sim.Option) (*FloodResult, error) {
	// One slice holds every vertex's process: one allocation, not one
	// per vertex.
	fl := make([]FloodProc, g.N())
	procs := make([]sim.Process, g.N())
	for v := range fl {
		fl[v].Source = source
		procs[v] = &fl[v]
	}
	stats, err := sim.Run(g, procs, opts...)
	if err != nil {
		return nil, err
	}
	res := &FloodResult{
		Parent:  make([]graph.NodeID, g.N()),
		Reached: make([]bool, g.N()),
		Stats:   stats,
	}
	for v := range fl {
		res.Parent[v] = fl[v].Parent
		res.Reached[v] = fl[v].Got
	}
	return res, nil
}
