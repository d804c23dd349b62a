package sim

import (
	"fmt"
	"reflect"
	"testing"

	"costsense/internal/cover"
	"costsense/internal/graph"
)

// arrival is one event the loop handed to a destination, keyed the
// way the queue orders it: (time, sender, sender's send sequence).
// The probe Seq stands in for the per-node push counter — both grow
// with every transmission a sender schedules, duplicates included.
type arrival struct {
	at   int64
	from graph.NodeID
	seq  int64
	to   graph.NodeID
}

func (a arrival) before(b arrival) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.from != b.from {
		return a.from < b.from
	}
	return a.seq < b.seq
}

// arrivalLog records every arrival in loop order: deliveries and dead
// letters to crashed nodes, the two outcomes of a dequeued message.
type arrivalLog struct{ got []arrival }

func (o *arrivalLog) OnSend(SendEvent, Message) {}
func (o *arrivalLog) OnDeliver(e DeliverEvent, _ Message) {
	o.got = append(o.got, arrival{at: e.Time, from: e.From, seq: e.Seq, to: e.To})
}
func (o *arrivalLog) OnDrop(e DropEvent, _ Message) {
	if e.Reason == DropCrash {
		o.got = append(o.got, arrival{at: e.Time, from: e.From, seq: e.Seq, to: e.To})
	}
}
func (o *arrivalLog) OnCrash(graph.NodeID, int64)                 {}
func (o *arrivalLog) OnLinkDown(graph.EdgeID, int64, int64)       {}
func (o *arrivalLog) OnRecord(graph.NodeID, int64, string, int64) {}
func (o *arrivalLog) OnQuiesce(*Stats)                            {}

// mergeShards splits the serial arrival stream by the destination's
// shard, checks that every shard's own stream is strictly ordered by
// the queue key, and merges the streams back by that key.
func mergeShards(t *testing.T, serial []arrival, shardOf func(graph.NodeID) int, k int) []arrival {
	t.Helper()
	streams := make([][]arrival, k)
	for _, a := range serial {
		s := shardOf(a.to)
		if n := len(streams[s]); n > 0 && !streams[s][n-1].before(a) {
			t.Fatalf("shard %d: arrival %+v not after %+v", s, a, streams[s][n-1])
		}
		streams[s] = append(streams[s], a)
	}
	merged := make([]arrival, 0, len(serial))
	for {
		best := -1
		for s, st := range streams {
			if len(st) > 0 && (best < 0 || st[0].before(streams[best][0])) {
				best = s
			}
		}
		if best < 0 {
			return merged
		}
		merged = append(merged, streams[best][0])
		streams[best] = streams[best][1:]
	}
}

// TestShardedMatchesSerial checks the property the per-node push
// sequence and per-node RNG streams exist for: the engine's order is
// the total order (time, sender, sender's sequence), so it is the same
// whichever way the nodes are grouped. For every golden case, clean
// and under a fault plan, the serial run's arrivals are split into 2,
// 4 and #clusters shards along the synchronizer-γ clusters; each
// shard's stream must be key-ordered on its own and merging the shards
// by key must give back the serial stream exactly. The observed run's
// Stats must equal an unobserved run's, and the clean ones the golden.
func TestShardedMatchesSerial(t *testing.T) {
	g := graph.RandomConnected(40, 120, graph.UniformWeights(32, 7), 7)
	clusterOf := cover.NewPartitionGrowth(g, 2).ClusterOf
	nc := cover.NewPartitionGrowth(g, 2).NumClusters()
	plans := []struct {
		name string
		plan *FaultPlan
	}{
		{name: "clean", plan: nil},
		{name: "faulty", plan: &FaultPlan{Drop: 0.05, Dup: 0.07,
			Down:    []LinkDown{{Edge: 3, From: 2, Until: 40}, {Edge: 17, From: 0, Until: 9}, {Edge: 55, From: 10, Until: 11}},
			Crashes: []Crash{{Node: 7, At: 25}, {Node: 31, At: 3}}}},
	}
	run := func(t *testing.T, opts ...Option) *Stats {
		t.Helper()
		procs := make([]Process, g.N())
		for v := range procs {
			procs[v] = &ackFlooder{}
		}
		st, err := Run(g, procs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, c := range detCases() {
		for _, fp := range plans {
			for _, k := range []int{2, 4, nc} {
				name := fmt.Sprintf("%s/%s/shards%d", c.name, fp.name, k)
				t.Run(name, func(t *testing.T) {
					opts := []Option{WithDelay(c.delay), WithSeed(c.seed)}
					if c.congested {
						opts = append(opts, WithCongestion())
					}
					if fp.plan != nil {
						opts = append(opts, WithFaults(*fp.plan))
					}
					plain := run(t, opts...)
					log := &arrivalLog{}
					observed := run(t, append(opts, WithObserver(log))...)
					if !reflect.DeepEqual(plain, observed) {
						t.Errorf("observer changed Stats:\n plain    %+v\n observed %+v", plain, observed)
					}
					if fp.plan == nil && flatten(plain) != c.want {
						t.Errorf("stats diverged from golden:\n got  %+v\n want %+v", flatten(plain), c.want)
					}
					if int64(len(log.got)) != plain.Events {
						t.Fatalf("%d arrivals logged, Stats.Events = %d", len(log.got), plain.Events)
					}
					merged := mergeShards(t, log.got, func(v graph.NodeID) int { return clusterOf[v] % k }, k)
					if !reflect.DeepEqual(merged, log.got) {
						t.Fatal("merging the shard streams by key does not give back the serial order")
					}
				})
			}
		}
	}
}
