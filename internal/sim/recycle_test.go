package sim

import (
	"testing"
	"unsafe"

	"costsense/internal/graph"
)

// newPooled builds a network for the tracing flooder on g under
// uniform delays through p; runPooled also runs it.
func newPooled(t *testing.T, p *Pool, g *graph.Graph) *Network {
	t.Helper()
	n, err := NewNetwork(g, resetTestProcs(g), WithDelay(DelayUniform{}), WithSeed(3), WithPool(p))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func runPooled(t *testing.T, p *Pool, g *graph.Graph) *Network {
	t.Helper()
	n := newPooled(t, p, g)
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	return n
}

// storageBound checks that every graph-sized buffer of a just-bound n
// covers what its graph needs and holds at most twice that. A run may
// grow the arena and the queue past the bound; binding trims them.
func storageBound(t *testing.T, n *Network) {
	t.Helper()
	nv, m2 := n.g.N(), 2*n.g.M()
	qcap := cap(n.queue.front) + cap(n.queue.tmp)
	for i := range n.queue.later {
		qcap += cap(n.queue.block[i]) + cap(n.queue.later[i])
	}
	for _, b := range []struct {
		name         string
		length, capa int
		need, max    int
	}{
		{"lastArrive", len(n.lastArrive), cap(n.lastArrive), m2, 2 * m2},
		{"UsedEdges", len(n.stats.UsedEdges), cap(n.stats.UsedEdges), m2 / 2, m2},
		{"ctxs", len(n.ctxs), cap(n.ctxs), nv, 2 * nv},
		{"nbr", len(n.nbr), cap(n.nbr), nv, 2 * nv},
		{"nbrAll", len(n.nbrAll), cap(n.nbrAll), m2, 2 * m2},
		{"msgs", 0, cap(n.msgs), 0, 2 * m2},
		{"msgSeq", 0, cap(n.msgSeq), 0, 2 * m2},
		{"msgFree", 0, cap(n.msgFree), 0, 2 * m2},
		{"queue", 0, qcap, 0, 2 * m2},
	} {
		if b.length < b.need || b.capa > b.max {
			t.Errorf("%s: len %d cap %d on a graph with n=%d m=%d; want len >= %d and cap <= %d",
				b.name, b.length, b.capa, nv, m2/2, b.need, b.max)
		}
	}
}

// TestPoolRecycleBoundsStorage: a full pool that misses rebinds its
// network to the new graph, and the rebound network never holds more
// than twice the storage the new graph needs — a buffer grown on a big
// graph is released on a small one, not carried along — while a buffer
// within the bound is kept rather than reallocated.
func TestPoolRecycleBoundsStorage(t *testing.T) {
	big := graph.RandomConnected(2000, 12000, graph.UniformWeights(64, 1), 1)
	small := graph.Ring(10, graph.UnitWeights())
	near := graph.RandomConnected(1600, 9000, graph.UniformWeights(64, 2), 2)
	p := NewPool(1)

	n := runPooled(t, p, big)
	if got := newPooled(t, p, small); got != n {
		t.Fatal("a full pool built a new network instead of recycling its idle one")
	}
	storageBound(t, n)
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if p.Size() != 1 {
		t.Fatalf("pool size = %d after a recycle, want 1", p.Size())
	}

	runPooled(t, p, big)
	before := unsafe.SliceData(n.nbrAll)
	if got := newPooled(t, p, near); got != n {
		t.Fatal("a full pool built a new network instead of recycling its idle one")
	}
	storageBound(t, n)
	if unsafe.SliceData(n.nbrAll) != before {
		t.Error("the neighbor index was reallocated although the old one was within the bound")
	}
}

// TestPoolRecyclesOnlyWhenFull: a pool with room builds a fresh network
// on a miss, exactly as before recycling existed, and a hit still wins
// over a recycle when the pool is full.
func TestPoolRecyclesOnlyWhenFull(t *testing.T) {
	g1 := graph.Ring(8, graph.UnitWeights())
	g2 := graph.Ring(9, graph.UnitWeights())
	p := NewPool(2)
	n1 := runPooled(t, p, g1)
	if n2 := runPooled(t, p, g2); n2 == n1 {
		t.Fatal("a pool with room recycled instead of building afresh")
	}
	if got := runPooled(t, p, g1); got != n1 {
		t.Fatal("a full pool recycled although it held a network over the same graph")
	}
}
