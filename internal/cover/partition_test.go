package cover

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"costsense/internal/graph"
)

func checkPartition(t *testing.T, g *graph.Graph, k int) *Partition {
	t.Helper()
	p := NewPartition(g, k)
	n := g.N()
	// Every vertex in exactly one cluster.
	for v := 0; v < n; v++ {
		c := p.ClusterOf[v]
		if c < 0 || c >= p.NumClusters() {
			t.Fatalf("vertex %d unassigned", v)
		}
		if !p.Trees[c].Contains(graph.NodeID(v)) {
			t.Fatalf("vertex %d not in its cluster tree %d", v, c)
		}
	}
	// Trees are disjoint and their sizes sum to n.
	total := 0
	for _, tr := range p.Trees {
		total += tr.Size()
	}
	if total != n {
		t.Fatalf("cluster tree sizes sum to %d, want %d", total, n)
	}
	// Hop depth <= k.
	if d := p.MaxHopDepth(); d > k {
		t.Fatalf("MaxHopDepth = %d > k = %d", d, k)
	}
	// Preferred edge count <= n^{1+1/k} (the γ bound).
	bound := math.Pow(float64(n), 1+1/float64(k))
	if float64(len(p.Preferred)) > bound {
		t.Fatalf("preferred edges %d > n^{1+1/k} = %.1f", len(p.Preferred), bound)
	}
	// Preferred edges connect distinct clusters, one per pair.
	seen := make(map[[2]int]bool)
	for _, e := range p.Preferred {
		cu, cv := p.ClusterOf[e.U], p.ClusterOf[e.V]
		if cu == cv {
			t.Fatalf("preferred edge %v inside one cluster", e)
		}
		if cu > cv {
			cu, cv = cv, cu
		}
		if seen[[2]int{cu, cv}] {
			t.Fatalf("duplicate preferred edge for pair (%d,%d)", cu, cv)
		}
		seen[[2]int{cu, cv}] = true
	}
	// Every neighboring cluster pair has a preferred edge.
	for _, e := range g.Edges() {
		cu, cv := p.ClusterOf[e.U], p.ClusterOf[e.V]
		if cu == cv {
			continue
		}
		if cu > cv {
			cu, cv = cv, cu
		}
		if !seen[[2]int{cu, cv}] {
			t.Fatalf("neighboring clusters (%d,%d) lack a preferred edge", cu, cv)
		}
	}
	return p
}

func TestPartitionGrid(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		checkPartition(t, graph.Grid(6, 6, graph.UnitWeights()), k)
	}
}

func TestPartitionRandom(t *testing.T) {
	g := graph.RandomConnected(60, 150, graph.UniformWeights(20, 4), 4)
	for _, k := range []int{1, 2, 4} {
		checkPartition(t, g, k)
	}
}

func TestPartitionExtremes(t *testing.T) {
	g := graph.Path(12, graph.UnitWeights())
	// k = 1: growth factor n, clusters are single BFS layers ≈ stars.
	p1 := checkPartition(t, g, 1)
	// Large k: growth factor → 1, one cluster swallows the whole path.
	pBig := checkPartition(t, g, 100)
	if pBig.NumClusters() > p1.NumClusters() {
		t.Fatalf("larger k should give fewer clusters: k=100 gives %d, k=1 gives %d",
			pBig.NumClusters(), p1.NumClusters())
	}
	if pBig.NumClusters() != 1 {
		t.Fatalf("k=100 on a path should give one cluster, got %d", pBig.NumClusters())
	}
}

func TestPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := graph.RandomConnected(n, n-1+rng.Intn(2*n), graph.UniformWeights(9, seed), seed)
		k := 1 + rng.Intn(5)
		p := NewPartition(g, k)
		if p.MaxHopDepth() > k {
			return false
		}
		total := 0
		for _, tr := range p.Trees {
			total += tr.Size()
		}
		return total == n && p.TreeEdgeTotal() == n-p.NumClusters()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionGrowthBalance characterizes the cluster-size
// distribution NewPartitionGrowth produces on random connected graphs —
// the input the sharded engine's partitioner (internal/sim) bin-packs
// onto workers. Two regimes, both pinned here because the engine's
// fallback logic depends on them:
//
//   - Sparse (m ~ 1.5n): the BFS growing stops early and often, so
//     there are plenty of clusters and the largest stays a bounded
//     fraction of the graph — LPT packing onto a handful of shards is
//     balanced.
//   - Dense (m >> n): the diameter is tiny, the first cluster swallows
//     a majority of the vertices, and no packing of whole clusters can
//     balance — the engine must take its contiguous-split fallback
//     (exercised by TestShardedDegeneratePartitions in internal/sim).
func TestPartitionGrowthBalance(t *testing.T) {
	largest := func(p *Partition) int {
		size := make([]int, p.NumClusters())
		for _, cl := range p.ClusterOf {
			size[cl]++
		}
		max := 0
		for _, s := range size {
			if s > max {
				max = s
			}
		}
		return max
	}

	sparse := []struct {
		n, m int
		seed int64
	}{
		{n: 60, m: 90, seed: 1},
		{n: 120, m: 180, seed: 2},
		{n: 200, m: 300, seed: 3},
		{n: 300, m: 450, seed: 4},
		{n: 400, m: 520, seed: 5},
	}
	for _, c := range sparse {
		g := graph.RandomConnected(c.n, c.m, graph.UniformWeights(64, c.seed), c.seed)
		p := NewPartitionGrowth(g, 2)
		if nc := p.NumClusters(); nc < 8 {
			t.Errorf("sparse n=%d m=%d seed=%d: %d clusters, want >= 8 for sharding", c.n, c.m, c.seed, nc)
		}
		if max := largest(p); 5*max > 3*c.n {
			t.Errorf("sparse n=%d m=%d seed=%d: largest cluster %d of %d vertices — too dominant to pack", c.n, c.m, c.seed, max, c.n)
		}
	}

	dense := []struct {
		n, m int
		seed int64
	}{
		{n: 60, m: 180, seed: 1},
		{n: 200, m: 800, seed: 3},
	}
	for _, c := range dense {
		g := graph.RandomConnected(c.n, c.m, graph.UniformWeights(64, c.seed), c.seed)
		p := NewPartitionGrowth(g, 2)
		if max := largest(p); 2*max <= c.n {
			t.Errorf("dense n=%d m=%d seed=%d: largest cluster %d of %d — expected a dominant cluster (fallback regime)", c.n, c.m, c.seed, max, c.n)
		}
	}
}

// ClusterGrowth is NewPartitionGrowth minus the tree/preferred-edge
// materialization; the assignment itself must be bit-for-bit the same
// map, cluster indices included.
func TestClusterGrowthMatchesPartition(t *testing.T) {
	for _, f := range []int{2, 3} {
		for _, tc := range []struct{ n, m int }{{1, 0}, {2, 1}, {60, 90}, {200, 300}, {200, 800}, {317, 1000}} {
			g := graph.RandomConnected(tc.n, tc.m, graph.UniformWeights(32, int64(tc.n)), int64(7*tc.n+f))
			want := NewPartitionGrowth(g, f)
			got, nc := ClusterGrowth(g, f)
			if nc != want.NumClusters() {
				t.Fatalf("f=%d n=%d m=%d: %d clusters, partition has %d", f, tc.n, tc.m, nc, want.NumClusters())
			}
			for v, c := range got {
				if c != want.ClusterOf[v] {
					t.Fatalf("f=%d n=%d m=%d: vertex %d in cluster %d, partition says %d", f, tc.n, tc.m, v, c, want.ClusterOf[v])
				}
			}
		}
	}
}
