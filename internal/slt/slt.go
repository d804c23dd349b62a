// Package slt implements shallow-light trees (§2 of the paper): spanning
// trees that simultaneously approximate a minimum spanning tree in weight
// and a shortest path tree in depth. A spanning tree T rooted at v0 is
// shallow-light (SLT) when
//
//	w(T)    = O(𝓥)   (within (1 + 2/q) of the MST weight), and
//	depth(T) = O(𝓓)   (within (2q + 1) of the graph diameter),
//
// for the chosen trade-off parameter q >= 1. (Lemma 2.4 gives the weight
// bound exactly; the depth constant follows the classical analysis — the
// paper states q+1 for the breakpoint segment plus the root path, which
// telescopes to at most 2q+1 against 𝓓.)
//
// The construction is the algorithm of Figure 5: walk the Euler tour of
// an MST, place a breakpoint whenever the accumulated tour distance
// exceeds q times the shortest-path-tree distance, graft the SPT paths
// between consecutive breakpoints onto the MST, and return a shortest
// path tree of the resulting subgraph.
package slt

import (
	"fmt"

	"costsense/internal/basic"
	"costsense/internal/graph"
	"costsense/internal/sim"
)

// Info reports the internals of one SLT construction.
type Info struct {
	// Breakpoints are the Euler-tour positions where SPT paths were
	// grafted (the B_i of §2.2, step 4).
	Breakpoints []int
	// Tour is the Euler tour of the MST (the line L).
	Tour []graph.NodeID
	// GPrime is the subgraph G' = T_M ∪ grafted paths.
	GPrime *graph.Graph
}

// Build constructs a shallow-light tree of g rooted at v0 with trade-off
// parameter q >= 1.
func Build(g *graph.Graph, v0 graph.NodeID, q int64) (*graph.Tree, *Info, error) {
	if q < 1 {
		return nil, nil, fmt.Errorf("slt: q must be >= 1, got %d", q)
	}
	if !g.Connected() {
		return nil, nil, fmt.Errorf("slt: graph is disconnected")
	}
	tm := graph.PrimTree(g, v0)
	sp := graph.Dijkstra(g, v0)
	ts := sp.Tree(g)
	return build(g, v0, q, tm, ts)
}

func build(g *graph.Graph, v0 graph.NodeID, q int64, tm, ts *graph.Tree) (*graph.Tree, *Info, error) {
	info := &Info{Tour: tm.EulerTour()}

	// Line L: lineDist[i] = weighted distance from tour position 0 to
	// position i along the tour (each step is one MST edge).
	tour := info.Tour
	lineDist := make([]int64, len(tour))
	for i := 1; i < len(tour); i++ {
		a, b := tour[i-1], tour[i]
		w := g.Weight(a, b)
		lineDist[i] = lineDist[i-1] + w
	}

	// Edges of G': start from the MST.
	keep := make(map[[2]graph.NodeID]bool)
	addEdge := func(u, v graph.NodeID) {
		if u > v {
			u, v = v, u
		}
		keep[[2]graph.NodeID{u, v}] = true
	}
	for _, e := range tm.Edges() {
		addEdge(e.U, e.V)
	}
	addPath := func(path []graph.NodeID) {
		for i := 1; i < len(path); i++ {
			addEdge(path[i-1], path[i])
		}
	}
	// tsPath returns the vertices of Path(x, y, Ts): up from both ends
	// to the lowest common ancestor.
	depth := ts.Depths()
	tsPath := func(x, y graph.NodeID) []graph.NodeID {
		var up []graph.NodeID
		var down []graph.NodeID
		for x != y {
			if depth[x] >= depth[y] && x != ts.Root {
				up = append(up, x)
				x = ts.Parent[x]
			} else {
				down = append(down, y)
				y = ts.Parent[y]
			}
		}
		up = append(up, x)
		for i := len(down) - 1; i >= 0; i-- {
			up = append(up, down[i])
		}
		return up
	}
	tsDist := func(x, y graph.NodeID) int64 { return ts.TreeDist(x, y) }

	// Breakpoint scan (§2.2 step 4 / Figure 5).
	info.Breakpoints = []int{0}
	x := 0
	for y := 1; y < len(tour); y++ {
		if lineDist[y]-lineDist[x] > q*tsDist(tour[x], tour[y]) {
			addPath(tsPath(tour[x], tour[y]))
			info.Breakpoints = append(info.Breakpoints, y)
			x = y
		}
	}

	// G' and the final shortest path tree rooted at v0.
	gp := g.Subgraph(func(e graph.Edge) bool {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		return keep[[2]graph.NodeID{u, v}]
	})
	info.GPrime = gp
	t := graph.Dijkstra(gp, v0).Tree(g)
	if !t.Spanning() {
		return nil, nil, fmt.Errorf("slt: internal error: G' does not span")
	}
	return t, info, nil
}

// WeightBound returns the Lemma 2.4 bound (1 + 2/q)·𝓥, rounded up.
func WeightBound(q, mstWeight int64) int64 {
	return mstWeight + (2*mstWeight+q-1)/q
}

// DepthBound returns the conservative Lemma 2.5 depth bound (2q+1)·𝓓.
func DepthBound(q, diam int64) int64 {
	return (2*q + 1) * diam
}

// IsShallowLight verifies both SLT bounds for a tree built with
// parameter q.
func IsShallowLight(g *graph.Graph, t *graph.Tree, q int64) bool {
	vv := graph.MSTWeight(g)
	dd := graph.Diameter(g)
	return t.Weight() <= WeightBound(q, vv) && t.Height() <= DepthBound(q, dd)
}

// DistributedResult is the outcome of the distributed construction.
type DistributedResult struct {
	Tree *graph.Tree
	Info *Info
	// Stats aggregates the three distributed stages: MSTcentr,
	// SPTcentr, and the final SPTcentr on G' (Thm 2.7: O(𝓥·n²)
	// communication, O(𝓓·n²) time overall).
	Stats sim.Stats
}

// RunDistributed executes the distributed SLT construction of Theorem
// 2.7 on the simulator:
//
//  1. algorithm MSTcentr builds T_M (O(n𝓥) communication);
//  2. algorithm SPTcentr builds T_s (O(n·w(SPT)) = O(n²𝓥));
//  3. the root — which, by the full-information invariant of §6.3/6.4,
//     knows both trees entirely — computes the Euler tour, breakpoints
//     and G' locally at no communication cost;
//  4. algorithm SPTcentr restricted to G' produces the final tree.
func RunDistributed(g *graph.Graph, v0 graph.NodeID, q int64, opts ...sim.Option) (*DistributedResult, error) {
	if q < 1 {
		return nil, fmt.Errorf("slt: q must be >= 1, got %d", q)
	}
	// Each stage's counters are summed as soon as it returns: under
	// WithPool a later stage may reuse the network an earlier stage's
	// *sim.Stats points into.
	res := &DistributedResult{}
	add := func(s *sim.Stats) {
		res.Stats.Messages += s.Messages
		res.Stats.Comm += s.Comm
		res.Stats.FinishTime += s.FinishTime // stages run sequentially
	}
	mstRes, err := basic.RunMSTCentr(g, v0, opts...)
	if err != nil {
		return nil, fmt.Errorf("slt: MST stage: %w", err)
	}
	add(mstRes.Stats)
	sptRes, err := basic.RunSPTCentr(g, v0, opts...)
	if err != nil {
		return nil, fmt.Errorf("slt: SPT stage: %w", err)
	}
	add(sptRes.Stats)
	tm := mstRes.Tree(g, v0)
	ts := sptRes.Tree(g, v0)
	_, info, err := build(g, v0, q, tm, ts)
	if err != nil {
		return nil, err
	}
	finalRes, err := basic.RunSPTCentr(info.GPrime, v0, opts...)
	if err != nil {
		return nil, fmt.Errorf("slt: final SPT stage: %w", err)
	}
	add(finalRes.Stats)
	res.Tree, res.Info = finalRes.Tree(info.GPrime, v0), info
	return res, nil
}
