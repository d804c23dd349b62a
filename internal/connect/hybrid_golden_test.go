package connect

import (
	"fmt"
	"hash/fnv"
	"testing"

	"costsense/internal/graph"
	"costsense/internal/sim"
)

// hybridGoldenGraphs are the substrates of the CONhybrid golden: a
// tree (DFS wins), G_n (MSTcentr wins) and a random graph between them.
func hybridGoldenGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"tree", graph.RandomConnected(30, 29, graph.UniformWeights(10, 5), 5)},
		{"gn", graph.HardConnectivity(20, 20)},
		{"random", graph.RandomConnected(30, 90, graph.UniformWeights(25, 9), 9)},
	}
}

// hybridGoldenDelays are the delay models of the golden; the uniform
// one runs under two seeds.
var hybridGoldenDelays = []struct {
	name string
	opts []sim.Option
}{
	{"max", []sim.Option{sim.WithDelay(sim.DelayMax{})}},
	{"unit", []sim.Option{sim.WithDelay(sim.DelayUnit{})}},
	{"uniform/3", []sim.Option{sim.WithDelay(sim.DelayUniform{}), sim.WithSeed(3)}},
	{"uniform/11", []sim.Option{sim.WithDelay(sim.DelayUniform{}), sim.WithSeed(11)}},
}

// hybridGoldenLine renders everything a CONhybrid run reports: the
// winner, the Stats counters, a hash of the used edges and a hash of
// the tree and component.
func hybridGoldenLine(res *HybridResult) string {
	st := res.Stats
	used := fnv.New64a()
	for _, u := range st.UsedEdges {
		if u {
			used.Write([]byte{1})
		} else {
			used.Write([]byte{0})
		}
	}
	tree := fnv.New64a()
	for v, p := range res.Parent {
		fmt.Fprintf(tree, "%d:%d:%t,", v, p, res.InComponent[v])
	}
	return fmt.Sprintf("%s ev=%d msg=%d comm=%d fin=%d timers=%d used=%016x tree=%016x",
		res.Winner, st.Events, st.Messages, st.Comm, st.FinishTime, st.Timers, used.Sum64(), tree.Sum64())
}

// TestHybridGolden pins CONhybrid byte for byte on three graphs under
// every delay model, fresh and through one shared Pool: any change to
// the multiplexing of DFS and MSTcentr or to the root's arbitration
// that moves a single message shows here.
func TestHybridGolden(t *testing.T) {
	want := map[string]string{
		"tree/max":          "dfs ev=270 msg=270 comm=1270 fin=1142 timers=0 used=e31d88c033967db0 tree=3fa80852734be622",
		"tree/unit":         "dfs ev=270 msg=270 comm=1270 fin=230 timers=0 used=e31d88c033967db0 tree=3fa80852734be622",
		"tree/uniform/3":    "dfs ev=270 msg=270 comm=1270 fin=733 timers=0 used=e31d88c033967db0 tree=3fa80852734be622",
		"tree/uniform/11":   "dfs ev=270 msg=270 comm=1270 fin=744 timers=0 used=e31d88c033967db0 tree=3fa80852734be622",
		"gn/max":            "mst ev=969 msg=969 comm=19380 fin=15580 timers=0 used=1dc3c8e95e094ff6 tree=03eea0770a024d67",
		"gn/unit":           "mst ev=969 msg=969 comm=19380 fin=779 timers=0 used=1dc3c8e95e094ff6 tree=03eea0770a024d67",
		"gn/uniform/3":      "mst ev=969 msg=969 comm=19380 fin=8558 timers=0 used=1dc3c8e95e094ff6 tree=03eea0770a024d67",
		"gn/uniform/11":     "mst ev=969 msg=969 comm=19380 fin=8629 timers=0 used=1dc3c8e95e094ff6 tree=03eea0770a024d67",
		"random/max":        "dfs ev=2356 msg=2356 comm=24755 fin=21406 timers=0 used=7c2b313dcff103ef tree=f094f70bf4a539bc",
		"random/unit":       "dfs ev=2356 msg=2356 comm=24755 fin=1650 timers=0 used=7c2b313dcff103ef tree=f094f70bf4a539bc",
		"random/uniform/3":  "dfs ev=2356 msg=2356 comm=24755 fin=11466 timers=0 used=7c2b313dcff103ef tree=f094f70bf4a539bc",
		"random/uniform/11": "dfs ev=2356 msg=2356 comm=24755 fin=11793 timers=0 used=7c2b313dcff103ef tree=f094f70bf4a539bc",
	}
	pool := sim.NewPool(2)
	for _, gc := range hybridGoldenGraphs() {
		for _, dc := range hybridGoldenDelays {
			key := gc.name + "/" + dc.name
			fresh, err := RunCONHybrid(gc.g, 0, dc.opts...)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got := hybridGoldenLine(fresh)
			if got != want[key] {
				t.Errorf("%s fresh:\n got %q\nwant %q", key, got, want[key])
			}
			pooled, err := RunCONHybrid(gc.g, 0, append(dc.opts, sim.WithPool(pool))...)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := hybridGoldenLine(pooled); got != want[key] {
				t.Errorf("%s pooled:\n got %q\nwant %q", key, got, want[key])
			}
		}
	}
}
