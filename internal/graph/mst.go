package graph

import (
	"cmp"
	"slices"

	"costsense/internal/pq"
)

// DSU is a union-find structure with path compression and union by rank.
type DSU struct {
	parent []int
	rank   []byte
}

// NewDSU returns a DSU over n elements.
func NewDSU(n int) *DSU {
	d := &DSU{parent: make([]int, n), rank: make([]byte, n)}
	for i := range d.parent {
		d.parent[i] = i
	}
	return d
}

// Find returns the representative of x.
func (d *DSU) Find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

// Union merges the sets of x and y and reports whether they were distinct.
func (d *DSU) Union(x, y int) bool {
	rx, ry := d.Find(x), d.Find(y)
	if rx == ry {
		return false
	}
	if d.rank[rx] < d.rank[ry] {
		rx, ry = ry, rx
	}
	d.parent[ry] = rx
	if d.rank[rx] == d.rank[ry] {
		d.rank[rx]++
	}
	return true
}

// Kruskal computes a minimum spanning tree (forest, when disconnected)
// and returns its edges. Ties are broken by edge ID, making the result
// deterministic.
func Kruskal(g *Graph) []Edge {
	edges := g.Edges()
	dsu := NewDSU(g.N())
	out := make([]Edge, 0, max(g.N()-1, 0))
	for _, id := range byWeightThenID(edges) {
		e := edges[id]
		if dsu.Union(int(e.U), int(e.V)) {
			out = append(out, e)
		}
	}
	return out
}

// byWeightThenID returns the edge IDs in (W, ID) order. When the
// heaviest weight is at most countingSortSpan per edge it counting-sorts
// by weight, which is stable, so equal weights keep ID order. Otherwise
// it comparison-sorts the IDs by (W, ID).
func byWeightThenID(edges []Edge) []int32 {
	var maxW int64
	for _, e := range edges {
		maxW = max(maxW, e.W)
	}
	ids := make([]int32, len(edges))
	if maxW <= countingSortSpan*int64(len(edges)) {
		start := make([]int32, maxW+2)
		for _, e := range edges {
			start[e.W+1]++
		}
		for w := int64(1); w <= maxW; w++ {
			start[w+1] += start[w]
		}
		for i, e := range edges {
			ids[start[e.W]] = int32(i)
			start[e.W]++
		}
		return ids
	}
	for i := range ids {
		ids[i] = int32(i)
	}
	slices.SortFunc(ids, func(a, b int32) int {
		return cmp.Or(cmp.Compare(edges[a].W, edges[b].W), cmp.Compare(a, b))
	})
	return ids
}

// countingSortSpan bounds the counting sort's table at this many
// entries per edge, so ordering stays O(m) in time and space.
const countingSortSpan = 4

// MSTWeight returns 𝓥 = w(MST(G)), the minimum cost of disseminating a
// message to all vertices. It returns -1 when the graph is disconnected.
func MSTWeight(g *Graph) int64 {
	es := Kruskal(g)
	if len(es) != g.N()-1 && g.N() > 1 {
		return -1
	}
	var s int64
	for _, e := range es {
		s += e.W
	}
	return s
}

type primItem struct {
	v    NodeID
	from NodeID
	w    int64
}

func (x primItem) Less(y primItem) bool {
	if x.w != y.w {
		return x.w < y.w
	}
	if x.v != y.v {
		return x.v < y.v
	}
	return x.from < y.from
}

// PrimTree computes a minimum spanning tree rooted at root. Only the
// component of root is spanned. This is the centralized counterpart of
// Algorithm MSTcentr (§6.3).
//
//costsense:hotpath
func PrimTree(g *Graph, root NodeID) *Tree {
	n := g.N()
	parent := make([]NodeID, n)
	inTree := make([]bool, n)
	for i := range parent {
		parent[i] = -1
	}
	h := pq.NewHeap[primItem](n)
	//costsense:alloc-ok one closure per call, created outside the extraction loop
	add := func(v NodeID) {
		inTree[v] = true
		for _, e := range g.Adj(v) {
			if !inTree[e.To] {
				h.Push(primItem{v: e.To, from: v, w: e.W})
			}
		}
	}
	add(root)
	for h.Len() > 0 {
		it := h.Pop()
		if inTree[it.v] {
			continue
		}
		parent[it.v] = it.from
		add(it.v)
	}
	//costsense:alloc-ok one tree per call, built after the extraction loop finishes
	return NewTree(g, root, parent)
}

// MSTSubgraph returns the graph consisting of the MST edges only.
func MSTSubgraph(g *Graph) *Graph {
	keep := make(map[Edge]bool)
	for _, e := range Kruskal(g) {
		keep[e] = true
	}
	b := NewBuilder(g.N())
	used := make(map[Edge]bool)
	for _, e := range g.Edges() {
		if keep[e] && !used[e] {
			b.AddEdge(e.U, e.V, e.W)
			used[e] = true
		}
	}
	return b.MustBuild()
}
