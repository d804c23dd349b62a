package basic

import (
	"fmt"

	"costsense/internal/graph"
	"costsense/internal/sim"
)

// DFS messages (§6.2). The token messages carry the center estimate
// EST_c: the total weight of all edge traversals performed so far, with
// the weight of an edge added as the token crosses it.
type (
	// MsgDFSToken probes an edge: the center of activity moves forward.
	MsgDFSToken struct{ Est int64 }
	// MsgDFSBounce rejects a probe: the probed vertex was visited.
	MsgDFSBounce struct{ Est int64 }
	// MsgDFSBack returns the token to the parent: subtree exhausted.
	MsgDFSBack struct{ Est int64 }
	// MsgDFSHome carries a doubled estimate from the center up the DFS
	// tree to the root (the center-of-activity-returns-to-root rule of
	// §7.2, which makes the algorithm suspendable at the root).
	MsgDFSHome struct{ Est int64 }
	// MsgDFSResume sends the center back down along breadcrumbs with
	// the new root estimate.
	MsgDFSResume struct{ Est int64 }
)

// IsDFSMessage reports whether m is one of DFSCore's messages, for a
// process that runs DFS beside other cores and dispatches by type.
func IsDFSMessage(m sim.Message) bool {
	switch m.(type) {
	case MsgDFSToken, MsgDFSBounce, MsgDFSBack, MsgDFSHome, MsgDFSResume:
		return true
	}
	return false
}

// DFSCore is the per-node state machine of the distributed depth-first
// search of §6.2: a single token traverses every edge at most twice in
// each direction (communication and time O(𝓔)), and the root estimate
// EST_R is kept within a factor of two of the center estimate by
// reporting home whenever the estimate is about to double.
type DFSCore struct {
	// Root is the DFS source.
	Root graph.NodeID
	// Gate arbitrates continuation at the root; RunFree by default.
	Gate Gate

	// Visited reports whether the token reached this node.
	Visited bool
	// Parent is the DFS tree parent (-1 at the root / unvisited).
	Parent graph.NodeID
	// Done is set at the root upon completion.
	Done bool
	// FinalEst is the final center estimate, set at the root.
	FinalEst int64

	next       int   // adjacency scan position
	estC       int64 // center estimate (valid while center is here)
	estLocal   int64 // center's copy of the root estimate
	estR       int64 // root only
	breadcrumb graph.NodeID
	awaiting   bool // center here, waiting for MsgDFSResume
}

// NewDFSCore returns a core for one node.
func NewDFSCore(root graph.NodeID) *DFSCore {
	return &DFSCore{Root: root, Gate: RunFree{}, Parent: -1, breadcrumb: -1}
}

func (c *DFSCore) isRoot(p Port) bool { return p.ID() == c.Root }

// Start launches the traversal; call at the root only.
func (c *DFSCore) Start(p Port) {
	if !c.isRoot(p) {
		panic("basic: DFSCore.Start on non-root")
	}
	c.Visited = true
	c.proceed(p)
}

func weightTo(p Port, u graph.NodeID) int64 {
	for _, h := range p.Neighbors() {
		if h.To == u {
			return h.W
		}
	}
	panic(fmt.Sprintf("basic: node %d has no edge to %d", p.ID(), u))
}

// proceed advances the scan while the center of activity is here.
func (c *DFSCore) proceed(p Port) {
	adj := p.Neighbors()
	for c.next < len(adj) {
		h := adj[c.next]
		if h.To == c.Parent {
			c.next++
			continue
		}
		// Doubling rule: report home before a traversal that would
		// exceed twice the known root estimate.
		if c.estC+h.W > 2*c.estLocal {
			newEst := c.estC + h.W
			if c.isRoot(p) {
				c.estR = newEst
				c.estLocal = newEst
				if !c.Gate.Report(p, newEst, func(p2 Port) { c.proceed(p2) }) {
					return // suspended at root; resume re-enters proceed
				}
				continue
			}
			c.awaiting = true
			p.Send(c.Parent, MsgDFSHome{Est: newEst})
			return
		}
		c.next++
		p.Send(h.To, MsgDFSToken{Est: c.estC + h.W})
		return
	}
	// All incident edges handled: back up, or finish at the root.
	if c.isRoot(p) {
		c.Done = true
		c.FinalEst = c.estC
		return
	}
	p.Send(c.Parent, MsgDFSBack{Est: c.estC + weightTo(p, c.Parent)})
}

// Handle processes one DFS message.
func (c *DFSCore) Handle(p Port, from graph.NodeID, m sim.Message) {
	switch msg := m.(type) {
	case MsgDFSToken:
		if c.Visited {
			p.Send(from, MsgDFSBounce{Est: msg.Est + weightTo(p, from)})
			return
		}
		c.Visited = true
		c.Parent = from
		c.estC = msg.Est
		c.proceed(p)
	case MsgDFSBounce:
		c.estC = msg.Est
		c.proceed(p)
	case MsgDFSBack:
		c.estC = msg.Est
		c.proceed(p)
	case MsgDFSHome:
		if c.isRoot(p) {
			c.estR = msg.Est
			c.breadcrumb = from
			resume := func(p2 Port) { p2.Send(c.breadcrumb, MsgDFSResume{Est: c.estR}) }
			if c.Gate.Report(p, c.estR, resume) {
				resume(p)
			}
			return
		}
		c.breadcrumb = from
		p.Send(c.Parent, MsgDFSHome{Est: msg.Est})
	case MsgDFSResume:
		if c.awaiting {
			c.awaiting = false
			c.estLocal = msg.Est
			c.proceed(p)
			return
		}
		p.Send(c.breadcrumb, MsgDFSResume{Est: msg.Est})
	default:
		panic(fmt.Sprintf("basic: DFSCore got %T", m))
	}
}

// DFSProc wraps a DFSCore as a standalone sim.Process.
type DFSProc struct {
	Core *DFSCore
}

var _ sim.Process = (*DFSProc)(nil)

// Init starts the token at the root.
func (d *DFSProc) Init(ctx sim.Context) {
	if ctx.ID() == d.Core.Root {
		d.Core.Start(ctx)
	}
}

// Handle delegates to the core.
func (d *DFSProc) Handle(ctx sim.Context, from graph.NodeID, m sim.Message) {
	d.Core.Handle(ctx, from, m)
}

// DFSResult aggregates a DFS run.
type DFSResult struct {
	Parent   []graph.NodeID // DFS tree (-1 at root)
	Visited  []bool
	FinalEst int64 // total traversed weight, per the center estimate
	Stats    *sim.Stats
}

// RunDFS executes the distributed DFS from root on g.
func RunDFS(g *graph.Graph, root graph.NodeID, opts ...sim.Option) (*DFSResult, error) {
	procs := make([]sim.Process, g.N())
	cores := make([]*DFSCore, g.N())
	for v := range procs {
		cores[v] = NewDFSCore(root)
		procs[v] = &DFSProc{Core: cores[v]}
	}
	stats, err := sim.Run(g, procs, opts...)
	if err != nil {
		return nil, err
	}
	if !cores[root].Done {
		return nil, fmt.Errorf("basic: DFS did not complete")
	}
	res := &DFSResult{
		Parent:   make([]graph.NodeID, g.N()),
		Visited:  make([]bool, g.N()),
		FinalEst: cores[root].FinalEst,
		Stats:    stats,
	}
	for v := range cores {
		res.Parent[v] = cores[v].Parent
		res.Visited[v] = cores[v].Visited
	}
	return res, nil
}
