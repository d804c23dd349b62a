package synch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"costsense/internal/graph"
	"costsense/internal/sim"
)

func TestPowerAndNextMultiple(t *testing.T) {
	powers := map[int64]int64{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 7: 8, 8: 8, 9: 16, 1000: 1024}
	for w, want := range powers {
		if got := Power(w); got != want {
			t.Errorf("Power(%d) = %d, want %d", w, got, want)
		}
	}
	if NextMultiple(7, 4) != 8 || NextMultiple(8, 4) != 8 || NextMultiple(0, 4) != 0 {
		t.Error("NextMultiple wrong")
	}
}

func TestNormalizeGraph(t *testing.T) {
	g := graph.Path(5, graph.UniformWeights(100, 3))
	gh := NormalizeGraph(g)
	for i, e := range gh.Edges() {
		orig := g.Edges()[i]
		if e.W&(e.W-1) != 0 {
			t.Fatalf("weight %d not a power of two", e.W)
		}
		if e.W < orig.W || e.W >= 2*orig.W {
			t.Fatalf("power(%d) = %d outside [w, 2w)", orig.W, e.W)
		}
	}
}

func refSPT(t *testing.T, g *graph.Graph, src graph.NodeID) ([]int64, int64) {
	t.Helper()
	procs := NewSPTProcs(g, src)
	res, err := sim.SyncRun(g, procs, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return SPTDists(procs), res.Stats.Pulses
}

func TestSPTProtoMatchesDijkstraOnReference(t *testing.T) {
	g := graph.RandomConnected(30, 70, graph.UniformWeights(20, 5), 5)
	dists, _ := refSPT(t, g, 0)
	want := graph.Dijkstra(g, 0)
	for v := range dists {
		if dists[v] != want.Dist[v] {
			t.Fatalf("reference Dist[%d] = %d, want %d", v, dists[v], want.Dist[v])
		}
	}
}

func TestInSynchTransformation(t *testing.T) {
	// Lemma 4.5: the transformed protocol runs on the normalized graph,
	// is in synch with it, produces identical outputs, and is at most
	// ~4x slower.
	g := graph.RandomConnected(25, 60, graph.UniformWeights(13, 7), 7)
	want, refPulses := refSPT(t, g, 0)

	ghat := NormalizeGraph(g)
	procs := NewSPTProcs(g, 0)
	wrapped := make([]sim.SyncProcess, g.N())
	for v := range wrapped {
		wrapped[v] = NewInSynch(procs[v], g)
	}
	res, err := sim.SyncRun(ghat, wrapped, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.InSynch {
		t.Fatal("transformed protocol is not in synch with Ĝ (Def 4.2 violated)")
	}
	got := SPTDists(procs)
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("Dist[%d] = %d under transformation, want %d", v, got[v], want[v])
		}
	}
	if res.Stats.Pulses > 4*refPulses+8 {
		t.Errorf("transformed run took %d pulses, want <= 4·%d+8 (Lemma 4.5(4))", res.Stats.Pulses, refPulses)
	}
}

func checkSynchronizerEquivalence(t *testing.T, g *graph.Graph, src graph.NodeID,
	run func([]sim.SyncProcess, int64) (*Overhead, error)) *Overhead {
	t.Helper()
	want, refPulses := refSPT(t, g, src)
	procs := NewSPTProcs(g, src)
	ov, err := run(procs, refPulses+2)
	if err != nil {
		t.Fatal(err)
	}
	got := SPTDists(procs)
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("Dist[%d] = %d under synchronizer, want %d", v, got[v], want[v])
		}
	}
	return ov
}

func TestAlphaEquivalence(t *testing.T) {
	g := graph.RandomConnected(25, 60, graph.UniformWeights(11, 9), 9)
	ov := checkSynchronizerEquivalence(t, g, 0, func(p []sim.SyncProcess, pulses int64) (*Overhead, error) {
		return RunAlpha(g, p, pulses)
	})
	// C(α) = O(𝓔) per pulse: one safe message per edge direction.
	if ov.CommPerPulse > 3*float64(g.TotalWeight()) {
		t.Errorf("C(α) = %.0f per pulse > 3𝓔 = %d", ov.CommPerPulse, 3*g.TotalWeight())
	}
}

func TestBetaEquivalence(t *testing.T) {
	g := graph.RandomConnected(25, 60, graph.UniformWeights(11, 10), 10)
	ov := checkSynchronizerEquivalence(t, g, 0, func(p []sim.SyncProcess, pulses int64) (*Overhead, error) {
		return RunBeta(g, p, pulses)
	})
	// C(β) = O(𝓥) per pulse over the SLT (weight <= 2𝓥 at q=2).
	vv := graph.MSTWeight(g)
	if ov.CommPerPulse > 5*float64(vv) {
		t.Errorf("C(β) = %.0f per pulse > 5𝓥 = %d", ov.CommPerPulse, 5*vv)
	}
}

func TestGammaWEquivalence(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		g := graph.RandomConnected(25, 60, graph.UniformWeights(11, 12), 12)
		checkSynchronizerEquivalence(t, g, 0, func(p []sim.SyncProcess, pulses int64) (*Overhead, error) {
			return RunGammaW(g, p, pulses, k)
		})
	}
}

func TestGammaWEquivalenceFamilies(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(12, graph.UniformWeights(9, 1))},
		{"ring heavy", graph.HeavyChordRing(16, 32)},
		{"grid", graph.Grid(4, 4, graph.PowerOfTwoWeights(4, 2))},
		{"two nodes", graph.Path(2, graph.ConstWeights(6))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			checkSynchronizerEquivalence(t, tt.g, 0, func(p []sim.SyncProcess, pulses int64) (*Overhead, error) {
				return RunGammaW(tt.g, p, pulses, 2)
			})
		})
	}
}

func TestSynchronizerProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		g := graph.RandomConnected(n, n-1+rng.Intn(n), graph.UniformWeights(10, seed), seed)
		src := graph.NodeID(rng.Intn(n))
		want, refPulses := func() ([]int64, int64) {
			procs := NewSPTProcs(g, src)
			res, err := sim.SyncRun(g, procs, 1_000_000)
			if err != nil {
				return nil, 0
			}
			return SPTDists(procs), res.Stats.Pulses
		}()
		if want == nil {
			return false
		}
		procs := NewSPTProcs(g, src)
		if _, err := RunGammaW(g, procs, refPulses+2, 1+rng.Intn(3)); err != nil {
			t.Log(err)
			return false
		}
		got := SPTDists(procs)
		for v := range got {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(27))}); err != nil {
		t.Fatal(err)
	}
}

func TestGammaWBeatsAlphaOnDenseHeavy(t *testing.T) {
	// γ_w's point: per-pulse communication O(kn log W) instead of α's
	// O(𝓔). On a dense graph with heavy edges the gap is large.
	g := graph.Complete(24, graph.UniformWeights(64, 15))
	pulses := graph.Diameter(g) + 2

	alphaProcs := NewSPTProcs(g, 0)
	alphaOv, err := RunAlpha(g, alphaProcs, pulses)
	if err != nil {
		t.Fatal(err)
	}
	gammaProcs := NewSPTProcs(g, 0)
	gammaOv, err := RunGammaW(g, gammaProcs, pulses, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gammaOv.CommPerPulse >= alphaOv.CommPerPulse {
		t.Errorf("C(γ_w) = %.0f should beat C(α) = %.0f on dense heavy graphs",
			gammaOv.CommPerPulse, alphaOv.CommPerPulse)
	}
}

func TestGammaWUnderRandomDelays(t *testing.T) {
	// The synchronizer's equivalence guarantee is against ANY delay
	// assignment, not just the maximal adversary.
	g := graph.RandomConnected(18, 40, graph.UniformWeights(10, 21), 21)
	want, refPulses := refSPT(t, g, 0)
	for seed := int64(0); seed < 6; seed++ {
		procs := NewSPTProcs(g, 0)
		_, err := RunGammaW(g, procs, refPulses+2, 2,
			sim.WithDelay(sim.DelayUniform{}), sim.WithSeed(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := SPTDists(procs)
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("seed %d: Dist[%d] = %d, want %d", seed, v, got[v], want[v])
			}
		}
	}
}

func TestAlphaBetaUnderRandomDelays(t *testing.T) {
	g := graph.RandomConnected(16, 36, graph.UniformWeights(8, 23), 23)
	want, refPulses := refSPT(t, g, 0)
	for seed := int64(0); seed < 4; seed++ {
		for name, run := range map[string]func([]sim.SyncProcess) error{
			"alpha": func(p []sim.SyncProcess) error {
				_, err := RunAlpha(g, p, refPulses+2, sim.WithDelay(sim.DelayUniform{}), sim.WithSeed(seed))
				return err
			},
			"beta": func(p []sim.SyncProcess) error {
				_, err := RunBeta(g, p, refPulses+2, sim.WithDelay(sim.DelayUniform{}), sim.WithSeed(seed))
				return err
			},
		} {
			procs := NewSPTProcs(g, 0)
			if err := run(procs); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			got := SPTDists(procs)
			for v := range got {
				if got[v] != want[v] {
					t.Fatalf("%s seed %d: Dist[%d] = %d, want %d", name, seed, v, got[v], want[v])
				}
			}
		}
	}
}

func TestGammaWUnderCongestion(t *testing.T) {
	// Capacitated links only reorder timing, never semantics.
	g := graph.HeavyChordRing(16, 32)
	want, refPulses := refSPT(t, g, 0)
	procs := NewSPTProcs(g, 0)
	if _, err := RunGammaW(g, procs, refPulses+2, 2, sim.WithCongestion()); err != nil {
		t.Fatal(err)
	}
	got := SPTDists(procs)
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("congested: Dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}
