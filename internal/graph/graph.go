// Package graph provides the weighted undirected graphs underlying the
// cost-sensitive model of Awerbuch, Baratz and Peleg: a communication
// graph G = (V, E, w) where the weight w(e) of an edge is both the cost
// of transmitting one message over e and the worst-case delay of e.
//
// The package also computes the weighted analogs of the classical
// complexity parameters used throughout the paper:
//
//	𝓔 = w(G)        total edge weight   (TotalWeight)
//	𝓥 = w(MST(G))   weight of an MST    (MSTWeight)
//	𝓓 = Diam(G)     weighted diameter   (Diameter)
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID identifies a vertex. Vertices are always 0..n-1.
type NodeID int

// EdgeID indexes into Graph.Edges(). Every undirected edge has one ID.
type EdgeID int

// Edge is one undirected weighted edge. ID is the edge's index in
// Graph.Edges(); Build assigns it, so edges handed to a Builder may
// leave it zero.
type Edge struct {
	U, V NodeID
	W    int64
	ID   EdgeID
}

// Half is one directed half of an undirected edge, as seen from a vertex's
// adjacency list.
type Half struct {
	To NodeID
	W  int64
	ID EdgeID
}

// Graph is an immutable weighted undirected graph. Build one with a
// Builder or a generator; the zero value is an empty graph.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]Half
}

var (
	// ErrVertexRange reports an edge endpoint outside 0..n-1.
	ErrVertexRange = errors.New("graph: vertex out of range")
	// ErrSelfLoop reports a self loop, which the model disallows.
	ErrSelfLoop = errors.New("graph: self loop")
	// ErrWeightRange reports a non-positive edge weight.
	ErrWeightRange = errors.New("graph: edge weight must be >= 1")
)

// Builder accumulates edges for a Graph.
type Builder struct {
	n     int
	edges []Edge
	err   error
}

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records an undirected edge of weight w. Errors are sticky and
// reported by Build.
func (b *Builder) AddEdge(u, v NodeID, w int64) {
	if b.err != nil {
		return
	}
	switch {
	case u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n:
		b.err = fmt.Errorf("%w: (%d,%d) with n=%d", ErrVertexRange, u, v, b.n)
	case u == v:
		b.err = fmt.Errorf("%w: vertex %d", ErrSelfLoop, u)
	case w < 1:
		b.err = fmt.Errorf("%w: got %d", ErrWeightRange, w)
	default:
		b.edges = append(b.edges, Edge{U: u, V: v, W: w})
	}
}

// Build finalizes the graph.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	g := &Graph{
		n:     b.n,
		edges: make([]Edge, len(b.edges)),
		adj:   make([][]Half, b.n),
	}
	copy(g.edges, b.edges)
	for i := range g.edges {
		g.edges[i].ID = EdgeID(i)
	}
	// Every adjacency list is a capacity-capped window of one backing
	// slice: two allocations for the whole graph instead of one per
	// vertex, and an append to a list can never spill into the next.
	deg := make([]int, b.n)
	for _, e := range g.edges {
		deg[e.U]++
		deg[e.V]++
	}
	backing := make([]Half, 2*len(g.edges))
	at := 0
	for v := range g.adj {
		g.adj[v] = backing[at : at : at+deg[v]]
		at += deg[v]
	}
	for i, e := range g.edges {
		id := EdgeID(i)
		g.adj[e.U] = append(g.adj[e.U], Half{To: e.V, W: e.W, ID: id})
		g.adj[e.V] = append(g.adj[e.V], Half{To: e.U, W: e.W, ID: id})
	}
	return g, nil
}

// MustBuild is Build for tests and generators with known-good input.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the edge list. The caller must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Adj returns the adjacency list of v. The caller must not modify it.
func (g *Graph) Adj(v NodeID) []Half { return g.adj[v] }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v NodeID) int { return len(g.adj[v]) }

// Weight returns the weight of the edge between u and v, or -1 when no
// such edge exists. When parallel edges exist the lightest is returned.
func (g *Graph) Weight(u, v NodeID) int64 {
	best := int64(-1)
	for _, h := range g.adj[u] {
		if h.To == v && (best < 0 || h.W < best) {
			best = h.W
		}
	}
	return best
}

// HasEdge reports whether u and v are adjacent.
func (g *Graph) HasEdge(u, v NodeID) bool { return g.Weight(u, v) >= 0 }

// TotalWeight returns 𝓔 = w(G), the cost of sending one message over
// every edge of the network.
func (g *Graph) TotalWeight() int64 {
	var s int64
	for _, e := range g.edges {
		s += e.W
	}
	return s
}

// MaxWeight returns W = max_e w(e), 0 for an edgeless graph.
func (g *Graph) MaxWeight() int64 {
	var m int64
	for _, e := range g.edges {
		if e.W > m {
			m = e.W
		}
	}
	return m
}

// Connected reports whether the graph is connected (true for n <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.adj[v] {
			if !seen[h.To] {
				seen[h.To] = true
				count++
				stack = append(stack, h.To)
			}
		}
	}
	return count == g.n
}

// Components returns the connected components as sorted vertex lists.
func (g *Graph) Components() [][]NodeID {
	seen := make([]bool, g.n)
	var comps [][]NodeID
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []NodeID
		stack := []NodeID{NodeID(s)}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, h := range g.adj[v] {
				if !seen[h.To] {
					seen[h.To] = true
					stack = append(stack, h.To)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}

// Subgraph returns the subgraph induced by keeping exactly the edges for
// which keep returns true. Vertex set and IDs are preserved, edge IDs are
// renumbered.
func (g *Graph) Subgraph(keep func(Edge) bool) *Graph {
	b := NewBuilder(g.n)
	for _, e := range g.edges {
		if keep(e) {
			b.AddEdge(e.U, e.V, e.W)
		}
	}
	return b.MustBuild()
}

// InducedSubgraph returns G(S), the subgraph induced by the vertex set S,
// together with the mapping from new vertex IDs back to originals.
func (g *Graph) InducedSubgraph(s []NodeID) (*Graph, []NodeID) {
	idx := make(map[NodeID]NodeID, len(s))
	orig := make([]NodeID, len(s))
	for i, v := range s {
		idx[v] = NodeID(i)
		orig[i] = v
	}
	b := NewBuilder(len(s))
	for _, e := range g.edges {
		u, okU := idx[e.U]
		v, okV := idx[e.V]
		if okU && okV {
			b.AddEdge(u, v, e.W)
		}
	}
	return b.MustBuild(), orig
}
