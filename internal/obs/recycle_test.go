package obs

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"costsense/internal/graph"
	"costsense/internal/sim"
)

// drawLog is DelayUniform that logs every delay it draws, so two runs
// can be compared draw for draw, not only by their outcomes.
type drawLog struct{ draws *[]int64 }

func (d drawLog) Delay(e graph.Edge, rng *rand.Rand) int64 {
	x := sim.DelayUniform{}.Delay(e, rng)
	*d.draws = append(*d.draws, x)
	return x
}

// recycleRun is everything one run shows: its Stats, copied out of the
// network before the next run can reuse it, its three exports and its
// delay draws.
type recycleRun struct {
	stats               sim.Stats
	metrics, csv, trace []byte
	draws               []int64
	network             *sim.Network
}

func runRecycleCase(t *testing.T, g *graph.Graph, pool *sim.Pool) recycleRun {
	t.Helper()
	var r recycleRun
	m, tr := NewMetrics(g), NewTrace(g)
	plan := sim.FaultPlan{
		Drop: 0.05, Dup: 0.05,
		Down: []sim.LinkDown{
			{Edge: 0, From: 1, Until: 30},
			{Edge: graph.EdgeID(g.M() / 2), From: 4, Until: 20},
			{Edge: graph.EdgeID(g.M() - 1), From: 10, Until: 50},
		},
	}
	opts := []sim.Option{
		sim.WithDelay(drawLog{&r.draws}), sim.WithSeed(int64(g.N())),
		sim.WithFaults(plan), sim.WithObserver(NewTee(m, tr)),
	}
	if pool != nil {
		opts = append(opts, sim.WithPool(pool))
	}
	procs := make([]sim.Process, g.N())
	for v := range procs {
		procs[v] = &ackFlooder{}
	}
	n, err := sim.NewNetwork(g, procs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	st, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	r.stats = *st
	r.stats.UsedEdges = slices.Clone(st.UsedEdges)
	r.network = n
	var buf bytes.Buffer
	for _, export := range []struct {
		dst   *[]byte
		write func() error
	}{
		{&r.metrics, func() error { return m.WriteJSON(&buf) }},
		{&r.csv, func() error { return m.WriteEdgeCSV(&buf) }},
		{&r.trace, func() error { return tr.Export(&buf) }},
	} {
		buf.Reset()
		if err := export.write(); err != nil {
			t.Fatal(err)
		}
		*export.dst = slices.Clone(buf.Bytes())
	}
	return r
}

// TestPoolRecycleByteIdentical: one full pool rebinds its network from
// a large graph to a small, a medium and another large one. Each run —
// under uniform delays, a fault plan with down-windows, drops and
// duplicates, and a metrics + trace observer — has the Stats, exports
// and RNG draws of the same run on a fresh network.
func TestPoolRecycleByteIdentical(t *testing.T) {
	graphs := []*graph.Graph{
		graph.RandomConnected(900, 3600, graph.UniformWeights(64, 1), 1),
		graph.RandomConnected(12, 20, graph.UniformWeights(8, 2), 2),
		graph.RandomConnected(300, 700, graph.PowerOfTwoWeights(5, 3), 3),
		graph.RandomConnected(1000, 3000, graph.UniformWeights(64, 4), 4),
	}
	pool := sim.NewPool(1)
	var first *sim.Network
	for i, g := range graphs {
		got := runRecycleCase(t, g, pool)
		want := runRecycleCase(t, g, nil)
		if i == 0 {
			first = got.network
		} else if got.network != first {
			t.Fatalf("graph %d: the full pool built a new network instead of recycling", i)
		}
		switch {
		case !reflect.DeepEqual(got.stats, want.stats):
			t.Errorf("graph %d: recycled Stats %+v, fresh %+v", i, got.stats, want.stats)
		case !slices.Equal(got.draws, want.draws):
			t.Errorf("graph %d: recycled network drew %d delays, fresh %d, or different ones", i, len(got.draws), len(want.draws))
		case !bytes.Equal(got.metrics, want.metrics):
			t.Errorf("graph %d: metrics JSON differs", i)
		case !bytes.Equal(got.csv, want.csv):
			t.Errorf("graph %d: edge CSV differs", i)
		case !bytes.Equal(got.trace, want.trace):
			t.Errorf("graph %d: trace JSON differs", i)
		}
		if want.stats.Dropped == 0 || want.stats.Duplicated == 0 {
			t.Errorf("graph %d: the fault plan dropped %d and duplicated %d messages; the case must exercise both",
				i, want.stats.Dropped, want.stats.Duplicated)
		}
	}
}
