package synch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"costsense/internal/graph"
	"costsense/internal/sim"
	"costsense/internal/slt"
)

func checkMaxFind(t *testing.T, g *graph.Graph, got []graph.NodeID) {
	t.Helper()
	want := graph.NodeID(g.N() - 1)
	for v, m := range got {
		if m != want {
			t.Fatalf("node %d learned max %d, want %d", v, m, want)
		}
	}
}

func TestMaxFindReference(t *testing.T) {
	g := graph.RandomConnected(30, 70, graph.UniformWeights(12, 3), 3)
	procs := NewMaxFindProcs(g)
	if _, err := sim.SyncRun(g, procs, 1_000_000); err != nil {
		t.Fatal(err)
	}
	checkMaxFind(t, g, MaxSeenOf(procs))
}

func TestMaxFindUnderAllSynchronizers(t *testing.T) {
	// Multi-source concurrent waves: a harder conformance workload for
	// the synchronizers than the single-source SPT flood.
	g := graph.RandomConnected(20, 50, graph.UniformWeights(9, 5), 5)
	refProcs := NewMaxFindProcs(g)
	ref, err := sim.SyncRun(g, refProcs, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	pulses := ref.Stats.Pulses + 2

	runs := []struct {
		name string
		run  func([]sim.SyncProcess) error
	}{
		{"alpha", func(p []sim.SyncProcess) error { _, err := RunAlpha(g, p, pulses); return err }},
		{"beta", func(p []sim.SyncProcess) error { _, err := RunBeta(g, p, pulses); return err }},
		{"gammaW k=2", func(p []sim.SyncProcess) error { _, err := RunGammaW(g, p, pulses, 2); return err }},
		{"gammaW k=4", func(p []sim.SyncProcess) error { _, err := RunGammaW(g, p, pulses, 4); return err }},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			procs := NewMaxFindProcs(g)
			if err := r.run(procs); err != nil {
				t.Fatal(err)
			}
			checkMaxFind(t, g, MaxSeenOf(procs))
		})
	}
}

func TestMaxFindProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(16)
		g := graph.RandomConnected(n, n-1+rng.Intn(n), graph.UniformWeights(8, seed), seed)
		procs := NewMaxFindProcs(g)
		ref, err := sim.SyncRun(g, procs, 1_000_000)
		if err != nil {
			return false
		}
		for _, m := range MaxSeenOf(procs) {
			if m != graph.NodeID(n-1) {
				return false
			}
		}
		gw := NewMaxFindProcs(g)
		if _, err := RunGammaW(g, gw, ref.Stats.Pulses+2, 2); err != nil {
			t.Log(err)
			return false
		}
		for _, m := range MaxSeenOf(gw) {
			if m != graph.NodeID(n-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(26))}); err != nil {
		t.Fatal(err)
	}
}

func TestBetaTreeAblation(t *testing.T) {
	// β over the SLT must simultaneously approach the MST's comm and
	// the SPT's time on the separation instance.
	g := graph.ShallowLightGap(64)
	hub := graph.NodeID(g.N() - 1)
	pulses := graph.Diameter(g) + 2

	runOn := func(t *testing.T, tree *graph.Tree) *Overhead {
		t.Helper()
		ov, err := RunBetaTree(g, NewSPTProcs(g, hub), pulses, tree)
		if err != nil {
			t.Fatal(err)
		}
		return ov
	}
	sltTree, _, err := slt.Build(g, hub, 2)
	if err != nil {
		t.Fatal(err)
	}
	mstTree := graph.PrimTree(g, hub)
	sptTree := graph.Dijkstra(g, hub).Tree(g)

	ovSLT := runOn(t, sltTree)
	ovMST := runOn(t, mstTree)
	ovSPT := runOn(t, sptTree)
	if ovSLT.CommPerPulse > 2*ovMST.CommPerPulse {
		t.Errorf("SLT comm/pulse %.0f should be within 2x of MST's %.0f", ovSLT.CommPerPulse, ovMST.CommPerPulse)
	}
	if ovSLT.TimePerPulse > 4*ovSPT.TimePerPulse {
		t.Errorf("SLT time/pulse %.0f should be within 4x of SPT's %.0f", ovSLT.TimePerPulse, ovSPT.TimePerPulse)
	}
	if ovMST.TimePerPulse < 2*ovSLT.TimePerPulse {
		t.Errorf("MST time/pulse %.0f should be far above SLT's %.0f on the separation instance",
			ovMST.TimePerPulse, ovSLT.TimePerPulse)
	}
	if ovSPT.CommPerPulse < 2*ovSLT.CommPerPulse {
		t.Errorf("SPT comm/pulse %.0f should be far above SLT's %.0f on the separation instance",
			ovSPT.CommPerPulse, ovSLT.CommPerPulse)
	}
}
