package mst

import (
	"fmt"
	"hash/fnv"
	"testing"

	"costsense/internal/graph"
	"costsense/internal/sim"
)

// hybridGoldenLine renders everything an MSThybrid run reports: the
// winning side, the Stats counters, a hash of the used edges and a hash
// of the tree's edges in result order.
func hybridGoldenLine(res *HybridResult) string {
	st := res.Result.Stats
	used := fnv.New64a()
	for _, u := range st.UsedEdges {
		if u {
			used.Write([]byte{1})
		} else {
			used.Write([]byte{0})
		}
	}
	tree := fnv.New64a()
	for _, e := range res.Result.Edges {
		fmt.Fprintf(tree, "%d-%d:%d,", e.U, e.V, e.W)
	}
	return fmt.Sprintf("%s ev=%d msg=%d comm=%d fin=%d timers=%d used=%016x tree=%016x",
		res.Winner, st.Events, st.Messages, st.Comm, st.FinishTime, st.Timers, used.Sum64(), tree.Sum64())
}

// TestHybridGolden pins MSThybrid byte for byte on three graphs under
// every delay model, fresh and through one shared Pool: any change to
// the multiplexing of DFS, GHS and MSTcentr or to the root's
// arbitration that moves a single message shows here.
func TestHybridGolden(t *testing.T) {
	want := map[string]string{
		"sparse/max":        "ghs ev=2070 msg=2070 comm=10173 fin=7079 timers=0 used=58fb9d556e1e9831 tree=d24214f851dd66a4",
		"sparse/unit":       "ghs ev=2070 msg=2070 comm=10131 fin=1293 timers=0 used=58fb9d556e1e9831 tree=d24214f851dd66a4",
		"sparse/uniform/3":  "ghs ev=2070 msg=2070 comm=10156 fin=4230 timers=0 used=58fb9d556e1e9831 tree=d24214f851dd66a4",
		"sparse/uniform/11": "ghs ev=2070 msg=2070 comm=10155 fin=4262 timers=0 used=58fb9d556e1e9831 tree=d24214f851dd66a4",
		"gn/max":            "mstcentr ev=969 msg=969 comm=19380 fin=15580 timers=0 used=1dc3c8e95e094ff6 tree=ee3789f56e09781a",
		"gn/unit":           "mstcentr ev=969 msg=969 comm=19380 fin=779 timers=0 used=1dc3c8e95e094ff6 tree=ee3789f56e09781a",
		"gn/uniform/3":      "mstcentr ev=969 msg=969 comm=19380 fin=8558 timers=0 used=1dc3c8e95e094ff6 tree=ee3789f56e09781a",
		"gn/uniform/11":     "mstcentr ev=969 msg=969 comm=19380 fin=8629 timers=0 used=1dc3c8e95e094ff6 tree=ee3789f56e09781a",
		"random/max":        "ghs ev=2536 msg=2536 comm=33103 fin=23123 timers=0 used=7e79301e6ad93db5 tree=29b58703fffb494a",
		"random/unit":       "ghs ev=2537 msg=2537 comm=33011 fin=1534 timers=0 used=7e79301e6ad93db5 tree=29b58703fffb494a",
		"random/uniform/3":  "ghs ev=2538 msg=2538 comm=33089 fin=12369 timers=0 used=7e79301e6ad93db5 tree=29b58703fffb494a",
		"random/uniform/11": "ghs ev=2538 msg=2538 comm=33079 fin=12645 timers=0 used=7e79301e6ad93db5 tree=29b58703fffb494a",
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"sparse", graph.RandomConnected(40, 60, graph.UniformWeights(10, 31), 31)}, // GHS wins
		{"gn", graph.HardConnectivity(20, 20)},                                      // MSTcentr wins
		{"random", graph.RandomConnected(30, 80, graph.UniformWeights(25, 23), 23)},
	}
	delays := []struct {
		name string
		opts []sim.Option
	}{
		{"max", []sim.Option{sim.WithDelay(sim.DelayMax{})}},
		{"unit", []sim.Option{sim.WithDelay(sim.DelayUnit{})}},
		{"uniform/3", []sim.Option{sim.WithDelay(sim.DelayUniform{}), sim.WithSeed(3)}},
		{"uniform/11", []sim.Option{sim.WithDelay(sim.DelayUniform{}), sim.WithSeed(11)}},
	}
	pool := sim.NewPool(2)
	for _, gc := range graphs {
		for _, dc := range delays {
			key := gc.name + "/" + dc.name
			fresh, err := RunMSTHybrid(gc.g, 0, dc.opts...)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got := hybridGoldenLine(fresh)
			if got != want[key] {
				t.Errorf("%s fresh:\n got %q\nwant %q", key, got, want[key])
			}
			pooled, err := RunMSTHybrid(gc.g, 0, append(dc.opts, sim.WithPool(pool))...)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := hybridGoldenLine(pooled); got != want[key] {
				t.Errorf("%s pooled:\n got %q\nwant %q", key, got, want[key])
			}
		}
	}
}
