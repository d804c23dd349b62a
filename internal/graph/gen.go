package graph

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// WeightFn assigns a weight to the i-th generated edge (u, v). Generators
// call it once per edge in a deterministic order.
type WeightFn func(i int, u, v NodeID) int64

// UnitWeights assigns weight 1 to every edge, recovering the classical
// unweighted complexity model.
func UnitWeights() WeightFn {
	return func(int, NodeID, NodeID) int64 { return 1 }
}

// ConstWeights assigns the same weight w to every edge.
func ConstWeights(w int64) WeightFn {
	return func(int, NodeID, NodeID) int64 { return w }
}

// UniformWeights draws weights uniformly from [1, maxW] with the given
// seed; deterministic for a fixed seed and generation order.
func UniformWeights(maxW int64, seed int64) WeightFn {
	rng := rand.New(rand.NewSource(seed))
	return func(int, NodeID, NodeID) int64 { return 1 + rng.Int63n(maxW) }
}

// PowerOfTwoWeights draws weights uniformly from {1, 2, 4, ..., 2^maxExp}.
// Networks with such weights are "normalized" in the sense of Def 4.3.
func PowerOfTwoWeights(maxExp int, seed int64) WeightFn {
	rng := rand.New(rand.NewSource(seed))
	return func(int, NodeID, NodeID) int64 { return int64(1) << rng.Intn(maxExp+1) }
}

// Path returns the path 0-1-...-n-1.
func Path(n int, w WeightFn) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		u, v := NodeID(i), NodeID(i+1)
		b.AddEdge(u, v, w(i, u, v))
	}
	return b.MustBuild()
}

// Ring returns the cycle on n >= 3 vertices.
func Ring(n int, w WeightFn) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		u, v := NodeID(i), NodeID((i+1)%n)
		b.AddEdge(u, v, w(i, u, v))
	}
	return b.MustBuild()
}

// Star returns the star with center 0 and n-1 leaves.
func Star(n int, w WeightFn) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, NodeID(i), w(i-1, 0, NodeID(i)))
	}
	return b.MustBuild()
}

// Complete returns the complete graph K_n.
func Complete(n int, w WeightFn) *Graph {
	b := NewBuilder(n)
	i := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(NodeID(u), NodeID(v), w(i, NodeID(u), NodeID(v)))
			i++
		}
	}
	return b.MustBuild()
}

// Grid returns the rows x cols grid graph; vertex (r, c) is r*cols + c.
func Grid(rows, cols int, w WeightFn) *Graph {
	b := NewBuilder(rows * cols)
	i := 0
	at := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(at(r, c), at(r, c+1), w(i, at(r, c), at(r, c+1)))
				i++
			}
			if r+1 < rows {
				b.AddEdge(at(r, c), at(r+1, c), w(i, at(r, c), at(r+1, c)))
				i++
			}
		}
	}
	return b.MustBuild()
}

// RandomConnected returns a connected random graph on n vertices with
// approximately m edges: a random spanning tree plus m-(n-1) random
// non-tree edges (duplicates are skipped, so the edge count may fall
// slightly short on dense requests). Deterministic for a fixed seed.
func RandomConnected(n, m int, w WeightFn, seed int64) *Graph {
	if m < n-1 {
		panic(fmt.Sprintf("graph: RandomConnected needs m >= n-1 (n=%d m=%d)", n, m))
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	i := 0
	// Random spanning tree: attach each vertex to a random earlier one.
	perm := rng.Perm(n)
	pos := make([]int, n)
	for p, v := range perm {
		pos[v] = p
	}
	have := newPairSet(min(m, maxPairs(n)))
	addEdge := func(u, v NodeID) bool {
		if u == v || !have.add(u, v) {
			return false
		}
		if u > v {
			u, v = v, u
		}
		b.AddEdge(u, v, w(i, u, v))
		i++
		return true
	}
	for p := 1; p < n; p++ {
		u := NodeID(perm[p])
		v := NodeID(perm[rng.Intn(p)])
		addEdge(u, v)
	}
	extra := m - (n - 1)
	for tries := 0; extra > 0 && tries < 20*m+100; tries++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if addEdge(u, v) {
			extra--
		}
	}
	return b.MustBuild()
}

// Caterpillar returns a path of length n/2 with a leaf hanging off each
// spine vertex — a tree with large diameter and many leaves, useful as a
// convergecast stress case.
func Caterpillar(n int, w WeightFn) *Graph {
	spine := (n + 1) / 2
	b := NewBuilder(n)
	i := 0
	for s := 0; s < spine-1; s++ {
		b.AddEdge(NodeID(s), NodeID(s+1), w(i, NodeID(s), NodeID(s+1)))
		i++
	}
	for l := spine; l < n; l++ {
		s := NodeID(l - spine)
		b.AddEdge(s, NodeID(l), w(i, s, NodeID(l)))
		i++
	}
	return b.MustBuild()
}

// HardConnectivity returns the lower-bound family G_n of §7.1: a path
// 1-2-...-n with edges of weight X, plus bypass edges (i, n+1-i) for
// 1 <= i < n/2 with weight X^4. (Vertices here are 0-based: path edge
// (i, i+1) for 0 <= i < n-1, bypass (i, n-1-i).) The MST is the path, so
// 𝓥 = (n-1)·X, while using any bypass edge costs X^4 ≥ n·𝓥.
func HardConnectivity(n int, x int64) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1), x)
	}
	x4 := x * x * x * x
	for i := 0; i < n/2; i++ {
		j := n - 1 - i
		if j > i+1 { // skip self loops and duplicates of path edges
			b.AddEdge(NodeID(i), NodeID(j), x4)
		}
	}
	return b.MustBuild()
}

// HeavyChordRing returns a unit-weight path 0-1-...-n-1 plus heavy chords
// (i, i+2) of weight heavy. Every heavy edge has a lightweight 2-hop
// bypass, so d = max neighbor distance is 2 while W = heavy: the regime
// where cost-sensitive clock synchronization (§3) wins by a factor of
// W / (d log² n).
func HeavyChordRing(n int, heavy int64) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1), 1)
	}
	for i := 0; i+2 < n; i += 2 {
		b.AddEdge(NodeID(i), NodeID(i+2), heavy)
	}
	return b.MustBuild()
}

// ShallowLightGap returns the [BKJ83] separation instance motivating
// shallow-light trees (§2.2): a unit-weight ring (one edge weight 2 to
// break MST ties) plus a hub joined to every ring vertex by an edge of
// weight ≈ √n. The SPT from the hub is the star, of weight Θ(√n·𝓥),
// while the MST is the ring path, of diameter Θ(√n·𝓓) — so neither
// tree alone is shallow-light, both ratios growing as √n.
func ShallowLightGap(n int) *Graph {
	if n < 4 {
		panic("graph: ShallowLightGap needs n >= 4")
	}
	ring := n - 1 // vertices 0..n-2 on the ring, n-1 is the hub
	b := NewBuilder(n)
	for i := 0; i < ring; i++ {
		w := int64(1)
		if i == ring-1 {
			w = 2 // break MST ties: ring edge (ring-1, 0) is excluded
		}
		b.AddEdge(NodeID(i), NodeID((i+1)%ring), w)
	}
	hubW := int64(1)
	for hubW*hubW < int64(n) {
		hubW++ // hubW = ceil(sqrt(n))
	}
	for i := 0; i < ring; i++ {
		b.AddEdge(NodeID(n-1), NodeID(i), hubW)
	}
	return b.MustBuild()
}

// BinaryTree returns the complete binary tree on n vertices (vertex 0
// the root, children of i at 2i+1 and 2i+2) — logarithmic diameter,
// maximal convergecast fan-in.
func BinaryTree(n int, w WeightFn) *Graph {
	b := NewBuilder(n)
	i := 0
	for v := 1; v < n; v++ {
		p := NodeID((v - 1) / 2)
		b.AddEdge(p, NodeID(v), w(i, p, NodeID(v)))
		i++
	}
	return b.MustBuild()
}

// RandomRegular returns a connected random d-regular multigraph
// approximation built by the pairing model with rejection of loops and
// duplicates (vertices may fall short of degree d when rejection bites;
// connectivity is ensured by retrying with fresh pairings). n·d must be
// even. Expander-like: constant degree, logarithmic diameter.
func RandomRegular(n, d int, w WeightFn, seed int64) *Graph {
	if n*d%2 != 0 {
		panic("graph: RandomRegular needs n·d even")
	}
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; ; attempt++ {
		b := NewBuilder(n)
		stubs := make([]NodeID, 0, n*d)
		for v := 0; v < n; v++ {
			for j := 0; j < d; j++ {
				stubs = append(stubs, NodeID(v))
			}
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		have := newPairSet(len(stubs) / 2)
		i := 0
		for k := 0; k+1 < len(stubs); k += 2 {
			u, v := stubs[k], stubs[k+1]
			if u == v || !have.add(u, v) {
				continue
			}
			if u > v {
				u, v = v, u
			}
			b.AddEdge(u, v, w(i, u, v))
			i++
		}
		g := b.MustBuild()
		if g.Connected() {
			return g
		}
		if attempt > 100 {
			panic("graph: RandomRegular failed to produce a connected graph")
		}
	}
}

// pairSet is a fixed-capacity set of unordered vertex pairs: open
// addressing with linear probing over packed min<<32|max keys, sized at
// construction for the most pairs it will ever hold, so an insert never
// grows or rehashes. Key 0 marks an empty slot; a stored key is never
// 0, because its larger endpoint is at least 1.
type pairSet struct {
	slots []uint64
	shift uint8 // 64 - log2(len(slots)): the multiplicative hash keeps the top bits
}

// maxPairs returns n(n-1)/2, the number of unordered pairs of n
// vertices, saturating at math.MaxInt instead of overflowing.
func maxPairs(n int) int {
	if n < 2 {
		return 0
	}
	hi, lo := bits.Mul64(uint64(n), uint64(n-1))
	if hi != 0 || lo/2 > math.MaxInt {
		return math.MaxInt
	}
	return int(lo / 2)
}

// newPairSet returns a set that holds up to max pairs at a load factor
// of at most one half.
func newPairSet(max int) *pairSet {
	size := 2
	for size < 2*max {
		size *= 2
	}
	return &pairSet{slots: make([]uint64, size), shift: uint8(64 - bits.Len(uint(size)-1))}
}

// add inserts the pair {u, v} (u != v) and reports whether it was new.
func (s *pairSet) add(u, v NodeID) bool {
	if u > v {
		u, v = v, u
	}
	k := uint64(u)<<32 | uint64(v)
	mask := uint64(len(s.slots) - 1)
	for i := (k * 0x9e3779b97f4a7c15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = k
			return true
		case k:
			return false
		}
	}
}
