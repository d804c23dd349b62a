package spt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"costsense/internal/graph"
	"costsense/internal/sim"
)

func checkSPT(t *testing.T, g *graph.Graph, src graph.NodeID, res *Result) {
	t.Helper()
	want := graph.Dijkstra(g, src)
	for v := range res.Dist {
		if res.Dist[v] != want.Dist[v] {
			t.Fatalf("Dist[%d] = %d, want %d", v, res.Dist[v], want.Dist[v])
		}
	}
	tree := res.Tree(g, src)
	if !tree.Spanning() {
		t.Fatal("SPT parents do not span")
	}
	depths := tree.Depths()
	for v := range depths {
		if depths[v] != want.Dist[v] {
			t.Fatalf("tree depth[%d] = %d, want %d (parents not shortest)", v, depths[v], want.Dist[v])
		}
	}
}

func TestSPTRecurKnown(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 2, 7)
	b.AddEdge(2, 3, 2)
	b.AddEdge(0, 3, 10)
	g := b.MustBuild()
	for _, l := range []int64{1, 3, 100} {
		res, err := RunSPTRecur(g, 0, l)
		if err != nil {
			t.Fatalf("stripLen %d: %v", l, err)
		}
		checkSPT(t, g, 0, res)
	}
}

func TestSPTRecurFamilies(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(20, graph.UniformWeights(9, 1))},
		{"ring", graph.Ring(15, graph.UniformWeights(9, 2))},
		{"grid", graph.Grid(5, 5, graph.UniformWeights(12, 3))},
		{"complete", graph.Complete(12, graph.UniformWeights(40, 4))},
		{"heavychord", graph.HeavyChordRing(20, 64)},
		{"random", graph.RandomConnected(35, 90, graph.UniformWeights(25, 5), 5)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for _, l := range []int64{1, 4, DefaultStripLen(tt.g, 0)} {
				res, err := RunSPTRecur(tt.g, 0, l)
				if err != nil {
					t.Fatalf("stripLen %d: %v", l, err)
				}
				checkSPT(t, tt.g, 0, res)
			}
		})
	}
}

func TestSPTRecurProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := graph.RandomConnected(n, n-1+rng.Intn(2*n), graph.UniformWeights(30, seed), seed)
		src := graph.NodeID(rng.Intn(n))
		l := 1 + rng.Int63n(10)
		res, err := RunSPTRecur(g, src, l)
		if err != nil {
			t.Log(err)
			return false
		}
		want := graph.Dijkstra(g, src)
		for v := range res.Dist {
			if res.Dist[v] != want.Dist[v] {
				t.Logf("seed %d l=%d: Dist[%d]=%d want %d", seed, l, v, res.Dist[v], want.Dist[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(25))}); err != nil {
		t.Fatal(err)
	}
}

func TestSPTRecurRandomDelays(t *testing.T) {
	// Within-strip relaxation is unsynchronized; it must stay correct
	// under arbitrary delay interleavings.
	g := graph.RandomConnected(25, 60, graph.UniformWeights(20, 7), 7)
	for seed := int64(0); seed < 8; seed++ {
		res, err := RunSPTRecur(g, 0, 5, sim.WithDelay(sim.DelayUniform{}), sim.WithSeed(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkSPT(t, g, 0, res)
	}
}

func TestSPTRecurStripTradeoff(t *testing.T) {
	// Figure 9 shape: growing ℓ cuts synchronization rounds (less sync
	// comm) at similar or better time, until cascades dominate.
	g := graph.Grid(6, 6, graph.UniformWeights(10, 9))
	res1, err := RunSPTRecur(g, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	resL, err := RunSPTRecur(g, 0, DefaultStripLen(g, 0))
	if err != nil {
		t.Fatal(err)
	}
	if resL.Stats.CommOf(sim.ClassSync) >= res1.Stats.CommOf(sim.ClassSync) {
		t.Errorf("sync comm should fall with strip length: l=1 gives %d, l=√D gives %d",
			res1.Stats.CommOf(sim.ClassSync), resL.Stats.CommOf(sim.ClassSync))
	}
}

func TestSPTSynch(t *testing.T) {
	g := graph.RandomConnected(20, 50, graph.UniformWeights(10, 11), 11)
	res, err := RunSPTSynch(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkSPT(t, g, 0, res)
}

func TestSPTSynchSweepK(t *testing.T) {
	g := graph.HeavyChordRing(16, 16)
	for _, k := range []int{1, 2, 4} {
		res, err := RunSPTSynch(g, 0, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		checkSPT(t, g, 0, res)
	}
}

func TestSPTHybrid(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"dense", graph.Complete(14, graph.UniformWeights(20, 13))},
		{"sparse long", graph.Path(25, graph.UniformWeights(15, 14))},
		{"random", graph.RandomConnected(25, 60, graph.UniformWeights(20, 15), 15)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, winner, err := RunSPTHybrid(tt.g, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			if winner != "synch" && winner != "recur" {
				t.Fatalf("unknown winner %q", winner)
			}
			checkSPT(t, tt.g, 0, res)
		})
	}
}

func TestSPTErrors(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights())
	if _, err := RunSPTRecur(g, 0, 0); err == nil {
		t.Error("stripLen 0 should error")
	}
	disc := graph.NewBuilder(3).MustBuild()
	if _, err := RunSPTRecur(disc, 0, 1); err == nil {
		t.Error("disconnected should error")
	}
	if _, err := RunSPTSynch(disc, 0, 2); err == nil {
		t.Error("disconnected should error (synch)")
	}
}
