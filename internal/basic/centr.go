package basic

import (
	"fmt"

	"costsense/internal/graph"
	"costsense/internal/sim"
)

// CentrMode selects between the two full-information algorithms built
// on the same phase machinery.
type CentrMode int

// Modes of the full-information core.
const (
	// ModeMST grows a minimum spanning tree (Prim, §6.3): the phase
	// candidate of a tree vertex v for a non-tree neighbor u is w(v,u).
	ModeMST CentrMode = iota + 1
	// ModeSPT grows a shortest path tree (Dijkstra, §6.4): the phase
	// candidate is dist(v) + w(v,u).
	ModeSPT
)

// Full-information core messages. Phase and Add broadcasts travel down
// the current tree; Report convergecasts travel up. FIFO links
// guarantee every member processes the Add of phase p before the Phase
// of p+1, which keeps membership snapshots consistent.
type (
	// MsgCPhase asks the subtree for its best outgoing candidate.
	MsgCPhase struct{}
	// MsgCReport returns the best candidate of a subtree.
	MsgCReport struct {
		Key    int64 // Infinity when the subtree has no outgoing edge
		Owner  graph.NodeID
		Target graph.NodeID
		EdgeW  int64
	}
	// MsgCAdd announces the vertex chosen this phase.
	MsgCAdd struct {
		Owner  graph.NodeID
		Target graph.NodeID
		EdgeW  int64
		Dist   int64 // dist(Target) in ModeSPT
	}
	// MsgCInvite is sent over the chosen edge to the new vertex.
	MsgCInvite struct {
		Members []bool
		Dists   []int64
		MyDist  int64
	}
	// MsgCDone announces termination down the tree.
	MsgCDone struct{}
)

// CentrCore is the per-node state machine shared by MSTcentr and
// SPTcentr. The invariant of §6.3 holds throughout: every tree member
// knows the full membership (and, in ModeSPT, the distance labels), so
// each phase is one broadcast + convergecast on the current tree.
type CentrCore struct {
	// Mode selects MST or SPT candidate keys.
	Mode CentrMode
	// Root is the coordinating vertex (the SPT source in ModeSPT).
	Root graph.NodeID
	// Gate arbitrates each phase at the root; RunFree by default.
	Gate Gate

	// InTree is this node's view of tree membership.
	InTree []bool
	// Dist holds known distance labels (ModeSPT).
	Dist []int64
	// Parent is this node's tree parent (-1 at root / non-members).
	Parent graph.NodeID
	// Children are this node's tree children.
	Children []graph.NodeID
	// Member reports whether this node joined the tree.
	Member bool
	// Done is set everywhere when the algorithm terminates.
	Done bool
	// CommEstimate is the root's running estimate of communication
	// spent, used for hybrid arbitration (§7.2). At the root it is
	// exact up to constants: each phase costs about 3·w(T) + w(e*).
	CommEstimate int64

	n          int
	waiting    int // outstanding child reports this phase
	best       MsgCReport
	treeWeight int64 // root only: w(T) so far
}

// NewCentrCore returns a core for one node of an n-vertex network.
func NewCentrCore(mode CentrMode, root graph.NodeID, n int) *CentrCore {
	c := &CentrCore{
		Mode:   mode,
		Root:   root,
		Gate:   RunFree{},
		InTree: make([]bool, n),
		Dist:   make([]int64, n),
		Parent: -1,
		n:      n,
	}
	for i := range c.Dist {
		c.Dist[i] = -1
	}
	return c
}

// Start launches the algorithm; call at the root only.
func (c *CentrCore) Start(p Port) {
	if p.ID() != c.Root {
		panic("basic: CentrCore.Start on non-root")
	}
	c.Member = true
	c.InTree[c.Root] = true
	c.Dist[c.Root] = 0
	c.startPhase(p)
}

// candidate returns this member's best outgoing candidate.
func (c *CentrCore) candidate(p Port) MsgCReport {
	best := MsgCReport{Key: Infinity, Owner: -1, Target: -1}
	for _, h := range p.Neighbors() {
		if c.InTree[h.To] {
			continue
		}
		key := h.W
		if c.Mode == ModeSPT {
			key = c.Dist[p.ID()] + h.W
		}
		if better(key, p.ID(), h.To, best) {
			best = MsgCReport{Key: key, Owner: p.ID(), Target: h.To, EdgeW: h.W}
		}
	}
	return best
}

// better applies the deterministic (key, owner, target) order.
func better(key int64, owner, target graph.NodeID, cur MsgCReport) bool {
	if key != cur.Key {
		return key < cur.Key
	}
	if owner != cur.Owner {
		return owner < cur.Owner
	}
	return target < cur.Target
}

func (c *CentrCore) startPhase(p Port) {
	c.beginAggregation(p)
}

// beginAggregation initializes this phase at a member and forwards the
// phase request to its children.
func (c *CentrCore) beginAggregation(p Port) {
	c.best = c.candidate(p)
	c.waiting = len(c.Children)
	for _, ch := range c.Children {
		p.Send(ch, MsgCPhase{})
	}
	if c.waiting == 0 {
		c.finishAggregation(p)
	}
}

func (c *CentrCore) finishAggregation(p Port) {
	if p.ID() == c.Root {
		c.rootDecide(p)
		return
	}
	p.Send(c.Parent, c.best)
}

func (c *CentrCore) rootDecide(p Port) {
	if c.best.Key == Infinity {
		c.Done = true
		for _, ch := range c.Children {
			p.Send(ch, MsgCDone{})
		}
		return
	}
	chosen := c.best
	c.CommEstimate += 3*c.treeWeight + chosen.EdgeW
	c.treeWeight += chosen.EdgeW
	resume := func(p2 Port) { c.applyAdd(p2, c.addMsg(chosen)) }
	if c.Gate.Report(c.CommEstimate, resume) {
		resume(p)
	}
}

func (c *CentrCore) addMsg(r MsgCReport) MsgCAdd {
	add := MsgCAdd{Owner: r.Owner, Target: r.Target, EdgeW: r.EdgeW}
	if c.Mode == ModeSPT {
		add.Dist = r.Key // dist(owner) + w = dist(target) in Dijkstra
	}
	return add
}

// applyAdd processes an Add at a member: update the membership view,
// forward down the tree, invite the new vertex if this node owns the
// chosen edge, and (at the root) start the next phase.
func (c *CentrCore) applyAdd(p Port, add MsgCAdd) {
	c.InTree[add.Target] = true
	if c.Mode == ModeSPT {
		c.Dist[add.Target] = add.Dist
	}
	for _, ch := range c.Children {
		p.Send(ch, add)
	}
	if add.Owner == p.ID() {
		c.Children = append(c.Children, add.Target)
		members := make([]bool, c.n)
		copy(members, c.InTree)
		dists := make([]int64, c.n)
		copy(dists, c.Dist)
		p.Send(add.Target, MsgCInvite{Members: members, Dists: dists, MyDist: add.Dist})
	}
	if p.ID() == c.Root {
		c.startPhase(p)
	}
}

// Handle processes one core message.
func (c *CentrCore) Handle(p Port, from graph.NodeID, m sim.Message) {
	switch msg := m.(type) {
	case MsgCPhase:
		c.beginAggregation(p)
	case MsgCReport:
		if better(msg.Key, msg.Owner, msg.Target, c.best) {
			c.best = msg
		}
		c.waiting--
		if c.waiting == 0 {
			c.finishAggregation(p)
		}
	case MsgCAdd:
		c.applyAdd(p, msg)
	case MsgCInvite:
		c.Member = true
		c.Parent = from
		c.InTree = msg.Members
		c.Dist = msg.Dists
		if c.Mode == ModeSPT {
			c.Dist[p.ID()] = msg.MyDist
		}
	case MsgCDone:
		c.Done = true
		for _, ch := range c.Children {
			p.Send(ch, MsgCDone{})
		}
	default:
		panic(fmt.Sprintf("basic: CentrCore got %T", m))
	}
}

// CentrProc wraps a CentrCore as a standalone sim.Process.
type CentrProc struct {
	Core *CentrCore
}

var _ sim.Process = (*CentrProc)(nil)

// Init starts the root.
func (c *CentrProc) Init(ctx sim.Context) {
	if ctx.ID() == c.Core.Root {
		c.Core.Start(ctx)
	}
}

// Handle delegates to the core.
func (c *CentrProc) Handle(ctx sim.Context, from graph.NodeID, m sim.Message) {
	c.Core.Handle(ctx, from, m)
}

// CentrResult aggregates a full-information run.
type CentrResult struct {
	Parent []graph.NodeID // resulting tree (-1 at root)
	Dist   []int64        // distance labels (ModeSPT)
	Stats  *sim.Stats
}

// Tree converts the result into a graph.Tree.
func (r *CentrResult) Tree(g *graph.Graph, root graph.NodeID) *graph.Tree {
	return graph.NewTree(g, root, r.Parent)
}

func runCentr(mode CentrMode, g *graph.Graph, root graph.NodeID, opts ...sim.Option) (*CentrResult, error) {
	procs := make([]sim.Process, g.N())
	cores := make([]*CentrCore, g.N())
	for v := range procs {
		cores[v] = NewCentrCore(mode, root, g.N())
		procs[v] = &CentrProc{Core: cores[v]}
	}
	stats, err := sim.Run(g, procs, opts...)
	if err != nil {
		return nil, err
	}
	if !cores[root].Done {
		return nil, fmt.Errorf("basic: full-information run did not complete")
	}
	res := &CentrResult{
		Parent: make([]graph.NodeID, g.N()),
		Dist:   make([]int64, g.N()),
		Stats:  stats,
	}
	for v := range cores {
		res.Parent[v] = cores[v].Parent
		res.Dist[v] = cores[v].Dist[v]
	}
	return res, nil
}

// RunMSTCentr executes algorithm MSTcentr (§6.3) from root.
func RunMSTCentr(g *graph.Graph, root graph.NodeID, opts ...sim.Option) (*CentrResult, error) {
	return runCentr(ModeMST, g, root, opts...)
}

// RunSPTCentr executes algorithm SPTcentr (§6.4) from source root.
func RunSPTCentr(g *graph.Graph, root graph.NodeID, opts ...sim.Option) (*CentrResult, error) {
	return runCentr(ModeSPT, g, root, opts...)
}
