package serve

import (
	"testing"

	"costsense/internal/graph"
	"costsense/internal/sim"
)

// TestProtocolMixAllocsPerEvent gates the engine's allocations per
// delivered event beyond flood. Each kind runs a warm 8-trial sweep on
// one pooled worker, with the server's trial options, as the service
// benchmark's protocol-mix workload submits it: its substrate, uniform
// delays, and drop/dup faults plus a down window on ghs and flood. The
// bounds are the measured figures plus a small margin. What remains is
// mostly message boxing into sim.Message and the hybrids' port
// wrappers, so a bound only ever moves down.
func TestProtocolMixAllocsPerEvent(t *testing.T) {
	for _, c := range []struct {
		kind  string
		bound float64
	}{
		{"ghs", 1.95}, {"mstfast", 1.60}, {"msthybrid", 3.00}, {"conhybrid", 3.00},
		{"dfs", 1.05}, {"sptcentr", 0.75}, {"mstcentr", 0.75}, {"flood", 2.65},
	} {
		kind := c.kind
		spec := Spec{
			Experiment: kind,
			Graph: GraphSpec{Family: "random", N: 120, M: 360, Seed: 9,
				Weights: WeightSpec{Kind: "uniform", Max: 64, Seed: 9}},
			Delay:  "uniform",
			Trials: 8,
			Seed:   1,
		}
		if kind == "ghs" || kind == "flood" {
			spec.Faults = &FaultSpec{Drop: 0.05, Dup: 0.02, Downs: 1}
		}
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		g := spec.Graph.Build()
		delay := delayModel(spec.Delay)
		var plan sim.FaultPlan
		if f := spec.Faults; f != nil {
			plan = sim.RandomFaultPlan(g, f.Seed, f.Drop, f.Dup, f.Crashes, f.Downs, f.Horizon)
		}
		pool := sim.NewPool(2)
		var events int64
		sweep := func() {
			events = 0
			for i := range spec.Trials {
				st, err := runExperiment(kind, g, graph.NodeID(spec.Root), trialOpts(spec, delay, plan, spec.Seed+int64(i), pool))
				if err != nil {
					t.Fatal(err)
				}
				events += st.Events
			}
		}
		sweep() // fill the pool
		perEvent := testing.AllocsPerRun(1, sweep) / float64(events)
		t.Logf("%-9s %7d events per sweep, %.2f allocs/event", kind, events, perEvent)
		if perEvent > c.bound {
			t.Errorf("%s: %.2f allocs per event, bound %.2f", kind, perEvent, c.bound)
		}
	}
}
