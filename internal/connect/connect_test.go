package connect

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"costsense/internal/basic"
	"costsense/internal/graph"
	"costsense/internal/mst"
	"costsense/internal/sim"
)

func TestHybridBuildsSpanningTree(t *testing.T) {
	g := graph.RandomConnected(30, 80, graph.UniformWeights(20, 3), 3)
	res, err := RunCONHybrid(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree := graph.NewTree(g, 0, res.Parent)
	if !tree.Spanning() {
		t.Fatalf("CONhybrid (%s won) did not build a spanning tree", res.Winner)
	}
}

func TestHybridProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := graph.RandomConnected(n, n-1+rng.Intn(2*n), graph.UniformWeights(40, seed), seed)
		root := graph.NodeID(rng.Intn(n))
		res, err := RunCONHybrid(g, root)
		if err != nil {
			t.Log(err)
			return false
		}
		return graph.NewTree(g, root, res.Parent).Spanning()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func TestHybridTracksCheaperAlgorithm(t *testing.T) {
	// Claim 7.3: comm(CONhybrid) = O(min{comm(DFS), comm(MSTcentr)}).
	// The suspension argument bounds it by ~4x the cheaper one; allow 6x.
	check := func(t *testing.T, g *graph.Graph) {
		t.Helper()
		dfs, err := basic.RunDFS(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		mst, err := basic.RunMSTCentr(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		hy, err := RunCONHybrid(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		cheaper := dfs.Stats.Comm
		if mst.Stats.Comm < cheaper {
			cheaper = mst.Stats.Comm
		}
		if hy.Stats.Comm > 6*cheaper {
			t.Errorf("hybrid comm %d > 6·min(dfs %d, mst %d)", hy.Stats.Comm, dfs.Stats.Comm, mst.Stats.Comm)
		}
	}
	t.Run("dfs-favoring sparse", func(t *testing.T) {
		// 𝓔 << n𝓥 is impossible (𝓔 >= 𝓥), but on a bare tree
		// 𝓔 = 𝓥 << n𝓥, so DFS should win.
		check(t, graph.RandomConnected(40, 39, graph.UniformWeights(30, 7), 7))
	})
	t.Run("mst-favoring Gn", func(t *testing.T) {
		// On G_n the bypass edges make 𝓔 = Θ(nX⁴) >> n𝓥 = Θ(n²X).
		check(t, graph.HardConnectivity(24, 24))
	})
	t.Run("random", func(t *testing.T) {
		check(t, graph.RandomConnected(30, 90, graph.UniformWeights(25, 9), 9))
	})
}

func TestHybridWinnerFollowsRegime(t *testing.T) {
	// On a tree, DFS costs Θ(𝓔) = Θ(𝓥) and must win; on G_n, MSTcentr
	// costs Θ(n²X) << Θ(nX⁴) and must win.
	tree := graph.RandomConnected(30, 29, graph.UniformWeights(10, 5), 5)
	res, err := RunCONHybrid(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "dfs" {
		t.Errorf("on a tree, winner = %s, want dfs", res.Winner)
	}
	gn := graph.HardConnectivity(20, 20)
	res, err = RunCONHybrid(gn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "mst" {
		t.Errorf("on G_n, winner = %s, want mst", res.Winner)
	}
}

func TestGnLowerBoundExperiment(t *testing.T) {
	rep, err := RunGnExperiment(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Edge-bound algorithms pay the bypass price: Ω(𝓔) >> n𝓥.
	if rep.FloodComm < rep.E {
		t.Errorf("flood comm %d should be >= 𝓔 = %d (every edge used)", rep.FloodComm, rep.E)
	}
	if rep.DFSComm < rep.E {
		t.Errorf("DFS comm %d should be >= 𝓔 = %d", rep.DFSComm, rep.E)
	}
	// The hybrid stays within a constant of min{𝓔, n𝓥} = n𝓥 here.
	if rep.MinBound() != rep.NV {
		t.Fatalf("on G_n, min{𝓔, n𝓥} should be n𝓥: 𝓔=%d n𝓥=%d", rep.E, rep.NV)
	}
	if rep.HybridComm > 8*rep.NV {
		t.Errorf("hybrid comm %d > 8·n𝓥 = %d", rep.HybridComm, 8*rep.NV)
	}
	// Lemma 7.2's Ω(n𝓥): even the cheap algorithms cannot go far below
	// n𝓥 on G_n; MSTcentr's phases alone sum to Θ(n𝓥).
	if rep.MSTComm < rep.NV/4 {
		t.Errorf("MSTcentr comm %d implausibly below n𝓥/4 = %d", rep.MSTComm, rep.NV/4)
	}
}

func TestGnScaling(t *testing.T) {
	// Lemma 7.2: communication on G_n grows as Ω(n²X) for the
	// tree-bound algorithms. Doubling n should roughly quadruple
	// MSTcentr's comm (at fixed X).
	x := int64(8)
	repSmall, err := RunGnExperiment(16, x)
	if err != nil {
		t.Fatal(err)
	}
	repBig, err := RunGnExperiment(32, x)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(repBig.MSTComm) / float64(repSmall.MSTComm)
	if ratio < 2.5 || ratio > 8 {
		t.Errorf("MSTcentr comm scaling n:16->32 gave ratio %.2f, want ~4 (quadratic)", ratio)
	}
}

func TestHybridDetectsDisconnection(t *testing.T) {
	// CONhybrid is a connectivity algorithm: on a disconnected graph it
	// must report the root's component rather than fail.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	g := b.MustBuild()
	res, err := RunCONHybrid(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	for v, want := range []bool{true, true, true, false, false, false} {
		if res.InComponent[v] != want {
			t.Fatalf("InComponent[%d] = %v, want %v", v, res.InComponent[v], want)
		}
	}
}

func TestHybridConnectedReport(t *testing.T) {
	g := graph.Ring(10, graph.UniformWeights(7, 3))
	res, err := RunCONHybrid(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Connected() {
		t.Fatal("ring reported disconnected")
	}
}

func TestCONHybridUnderRandomDelays(t *testing.T) {
	g := graph.RandomConnected(22, 60, graph.UniformWeights(20, 71), 71)
	for seed := int64(0); seed < 5; seed++ {
		res, err := RunCONHybrid(g, 0, sim.WithDelay(sim.DelayUniform{}), sim.WithSeed(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !graph.NewTree(g, 0, res.Parent).Spanning() {
			t.Fatalf("seed %d: not spanning (%s won)", seed, res.Winner)
		}
	}
}

// strayMsg belongs to neither of CONhybrid's cores.
type strayMsg struct{}

// TestHybridHandleRejectsForeignMessage checks that a message of no
// core — here GHS's, or a type no algorithm knows — panics with its
// type name instead of reaching DFS or MSTcentr.
func TestHybridHandleRejectsForeignMessage(t *testing.T) {
	for _, m := range []sim.Message{mst.MsgConnect{}, strayMsg{}} {
		want := fmt.Sprintf("%T", m)
		func() {
			defer func() {
				if s, _ := recover().(string); !strings.Contains(s, want) {
					t.Errorf("Handle(%s) panicked with %q, want the type name", want, s)
				}
			}()
			(&HybridProc{}).Handle(nil, 1, m)
		}()
	}
}
