package cover

import (
	"math"
	"sort"

	"costsense/internal/graph"
)

// Partition is the cluster partition underlying synchronizer γ of
// [Awe85a]: a partition of V into disjoint clusters, each with a rooted
// spanning tree of hop-depth at most k, plus one "preferred" edge
// between every pair of neighboring clusters. The classical guarantees
// are Σ tree sizes = n and at most n^{1+1/k} preferred edges.
type Partition struct {
	// ClusterOf maps each vertex to its cluster index.
	ClusterOf []int
	// Trees holds one rooted spanning tree per cluster, in host IDs.
	Trees []*graph.Tree
	// Preferred holds the minimum-weight edge between each pair of
	// neighboring clusters.
	Preferred []graph.Edge
}

// NewPartition builds the synchronizer-γ partition with parameter
// k >= 1 by greedy BFS cluster growing: a cluster keeps absorbing its
// next BFS layer while that layer would grow it by a factor of at least
// n^(1/k); this bounds the hop-radius of every cluster by k.
func NewPartition(g *graph.Graph, k int) *Partition {
	growth := math.Pow(float64(g.N()), 1/float64(k))
	return newPartitionGrowth(g, growth)
}

// NewPartitionGrowth builds the partition with an explicit growth
// factor f >= 2 — the parametrization of [Awe85a]'s synchronizer γ:
// cluster hop-radius is at most log_f(n), while the per-pulse
// communication grows with f. Larger f therefore trades communication
// for time, which is the k knob of the paper's γ_w (Lemma 4.8:
// C = O(kn·logW), T = O(log_k n·logW)).
func NewPartitionGrowth(g *graph.Graph, f int) *Partition {
	if f < 2 {
		panic("cover: NewPartitionGrowth needs factor >= 2")
	}
	return newPartitionGrowth(g, float64(f))
}

func newPartitionGrowth(g *graph.Graph, growth float64) *Partition {
	n := g.N()
	p := &Partition{ClusterOf: make([]int, n)}
	for i := range p.ClusterOf {
		p.ClusterOf[i] = -1
	}
	if n == 0 {
		return p
	}

	for start := 0; start < n; start++ {
		if p.ClusterOf[start] != -1 {
			continue
		}
		idx := len(p.Trees)
		parent := make([]graph.NodeID, n)
		for i := range parent {
			parent[i] = -1
		}
		cluster := []graph.NodeID{graph.NodeID(start)}
		p.ClusterOf[start] = idx
		frontier := []graph.NodeID{graph.NodeID(start)}
		for {
			// Next BFS layer among unassigned vertices.
			var layer []graph.NodeID
			layerParent := make(map[graph.NodeID]graph.NodeID)
			for _, v := range frontier {
				for _, h := range g.Adj(v) {
					if p.ClusterOf[h.To] == -1 {
						if _, seen := layerParent[h.To]; !seen {
							layerParent[h.To] = v
							layer = append(layer, h.To)
						}
					}
				}
			}
			if len(layer) == 0 {
				break
			}
			if float64(len(cluster)+len(layer)) < growth*float64(len(cluster)) {
				break // growth too slow: stop expanding this cluster
			}
			sort.Slice(layer, func(i, j int) bool { return layer[i] < layer[j] })
			for _, v := range layer {
				p.ClusterOf[v] = idx
				parent[v] = layerParent[v]
				cluster = append(cluster, v)
			}
			frontier = layer
		}
		p.Trees = append(p.Trees, graph.NewTree(g, graph.NodeID(start), parent))
	}

	// Preferred edges: lightest edge between each neighboring cluster
	// pair, ties broken by edge order.
	best := make(map[[2]int]graph.Edge)
	for _, e := range g.Edges() {
		cu, cv := p.ClusterOf[e.U], p.ClusterOf[e.V]
		if cu == cv {
			continue
		}
		if cu > cv {
			cu, cv = cv, cu
		}
		key := [2]int{cu, cv}
		if cur, ok := best[key]; !ok || e.W < cur.W {
			best[key] = e
		}
	}
	keys := make([][2]int, 0, len(best))
	//costsense:nondet-ok keys are sorted immediately below before any use
	for k := range best {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		p.Preferred = append(p.Preferred, best[k])
	}
	return p
}

// NumClusters returns the number of clusters.
func (p *Partition) NumClusters() int { return len(p.Trees) }

// MaxHopDepth returns the maximum hop (unweighted) depth over cluster
// trees — bounded by k for NewPartition(g, k).
func (p *Partition) MaxHopDepth() int {
	m := 0
	for _, t := range p.Trees {
		var rec func(v graph.NodeID, d int)
		rec = func(v graph.NodeID, d int) {
			if d > m {
				m = d
			}
			for _, c := range t.Children(v) {
				rec(c, d+1)
			}
		}
		rec(t.Root, 0)
	}
	return m
}

// TreeEdgeTotal returns the total number of tree edges (= n − #clusters).
func (p *Partition) TreeEdgeTotal() int {
	s := 0
	for _, t := range p.Trees {
		s += t.Size() - 1
	}
	return s
}
