package mst

import (
	"fmt"
	"sort"

	"costsense/internal/graph"
	"costsense/internal/sim"
)

// GHSProc runs a GHSCore as a standalone process, with spontaneous
// wake-up at time zero (cost-equivalent to the §8.1 flooding wake-up,
// whose O(𝓔) messages are already dominated by the edge-scanning term).
type GHSProc struct {
	Core *GHSCore
}

var _ sim.Process = (*GHSProc)(nil)

// Init wakes the node.
func (g *GHSProc) Init(ctx sim.Context) { g.Core.Wakeup(ctx) }

// Handle delegates to the core.
func (g *GHSProc) Handle(ctx sim.Context, from graph.NodeID, m sim.Message) {
	g.Core.Handle(ctx, from, m)
}

// Result is the outcome of a distributed MST construction.
type Result struct {
	// Edges are the MST edges found.
	Edges []graph.Edge
	// Leader is the elected coordinator (the core vertex that detected
	// completion), agreed on by every node — the [Awe87] leader
	// election for free.
	Leader graph.NodeID
	Stats  *sim.Stats
}

// Weight returns the total weight of the constructed tree.
func (r *Result) Weight() int64 {
	var s int64
	for _, e := range r.Edges {
		s += e.W
	}
	return s
}

// Tree roots the constructed MST at the given vertex.
func (r *Result) Tree(g *graph.Graph, root graph.NodeID) (*graph.Tree, error) {
	adj := make(map[graph.NodeID][]graph.NodeID)
	for _, e := range r.Edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	parent := make([]graph.NodeID, g.N())
	for i := range parent {
		parent[i] = -1
	}
	seen := make([]bool, g.N())
	seen[root] = true
	queue := []graph.NodeID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range adj[v] {
			if !seen[u] {
				seen[u] = true
				parent[u] = v
				queue = append(queue, u)
			}
		}
	}
	t := graph.NewTree(g, root, parent)
	if !t.Spanning() {
		return nil, fmt.Errorf("mst: edges do not span")
	}
	return t, nil
}

func extract(g *graph.Graph, cores []*GHSCore) (*Result, error) {
	var edges []graph.Edge
	leader := graph.NodeID(-1)
	for v, c := range cores {
		if !c.Done {
			return nil, fmt.Errorf("mst: node %d did not finish", v)
		}
		if leader == -1 {
			leader = c.Leader
		} else if c.Leader != leader {
			return nil, fmt.Errorf("mst: node %d elected %d, others elected %d", v, c.Leader, leader)
		}
		//costsense:nondet-ok iteration order only staggers appends; edges are sorted before use below
		for u, isBranch := range c.Branch {
			if isBranch && graph.NodeID(v) < u {
				// Verify symmetry of the branch marking.
				if !cores[u].Branch[graph.NodeID(v)] {
					return nil, fmt.Errorf("mst: asymmetric branch edge (%d,%d)", v, u)
				}
				edges = append(edges, graph.Edge{U: graph.NodeID(v), V: u, W: g.Weight(graph.NodeID(v), u)})
			}
		}
	}
	if len(edges) != g.N()-1 {
		return nil, fmt.Errorf("mst: found %d branch edges, want %d", len(edges), g.N()-1)
	}
	// The branch maps yield edges in randomized order (caught by
	// costsense-vet's detmap); fix Result.Edges so identical runs are
	// byte-identical.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	return &Result{Edges: edges, Leader: leader}, nil
}

func runGHSMode(mode ScanMode, g *graph.Graph, opts ...sim.Option) (*Result, error) {
	if g.N() == 0 {
		return &Result{Leader: -1, Stats: &sim.Stats{}}, nil
	}
	if !g.Connected() {
		return nil, fmt.Errorf("mst: graph is disconnected")
	}
	procs := make([]sim.Process, g.N())
	cores := make([]*GHSCore, g.N())
	for v := range procs {
		cores[v] = NewGHSCore(mode)
		procs[v] = &GHSProc{Core: cores[v]}
	}
	stats, err := sim.Run(g, procs, opts...)
	if err != nil {
		return nil, err
	}
	res, err := extract(g, cores)
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}

// RunGHS executes algorithm MSTghs (§8.1): classic GHS with serial
// edge scanning. Communication O(𝓔 + 𝓥·log n).
func RunGHS(g *graph.Graph, opts ...sim.Option) (*Result, error) {
	return runGHSMode(ScanSerial, g, opts...)
}

// RunMSTFast executes algorithm MSTfast (§8.3): GHS with parallel
// scanning below a doubling weight guess. Communication
// O(𝓔·log n·log 𝓥), time O(Diam(MST)·log n·log 𝓥).
func RunMSTFast(g *graph.Graph, opts ...sim.Option) (*Result, error) {
	return runGHSMode(ScanParallel, g, opts...)
}

// RunLeaderElection elects a unique coordinator known to every node by
// running MSTghs and using the core vertex that detects completion —
// the [Awe87] reduction the paper invokes in §8, at the same
// O(𝓔 + 𝓥·log n) communication.
func RunLeaderElection(g *graph.Graph, opts ...sim.Option) (graph.NodeID, *Result, error) {
	res, err := RunGHS(g, opts...)
	if err != nil {
		return -1, nil, err
	}
	return res.Leader, res, nil
}
