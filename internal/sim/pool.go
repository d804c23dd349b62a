package sim

import "costsense/internal/graph"

// Pool recycles Networks across runs so the per-run construction cost
// — event queue, payload arena, neighbor index, accounting slices — is
// paid once per pooled network instead of once per trial. Build
// networks with NewNetwork(..., WithPool(p)) as usual; after Run
// finishes, the Network parks itself back in the pool. NewNetwork then
// serves, in order of preference:
//
//   - a hit: the most recently released idle Network over the same
//     *graph.Graph pointer, Reset under the new options;
//   - a recycle: when the pool is full, its least recently released
//     Network, rebound to the new graph — every graph-sized buffer is
//     kept if its capacity is at least what the new graph needs and at
//     most twice that, reallocated otherwise, and cleared either way —
//     then Reset;
//   - a fresh Network, while the pool still has room.
//
// All three run byte-identically (the fresh-vs-reused golden tests pin
// it). A recycle is still a miss: lookup stays exact-match on the graph
// pointer, because a network bound to the graph already has its
// neighbor index built and its buffers sized, and a sweep of many
// trials over one substrate — the common case — must keep getting that
// for free rather than pay a rebind per trial. Recycling changes only
// what a miss on a full pool does: rather than drop a network and build
// another, it rebinds the one it would have dropped.
//
// A Pool is deliberately NOT safe for concurrent use: it is per-worker
// state, one goroutine's for as long as it lives. A harness.Workers set
// gives each worker goroutine its own — for one sweep under
// harness.RunIndexedPooled, for the server's whole life under
// internal/serve, where a worker's pool outlives jobs and substrates
// and serves trials of whichever job the worker claims next.
//
// The *Stats returned by a pooled Run aliases network storage. It is
// invalidated when the same pool next hands that network out, on a hit
// over the same graph or on a recycle for a different one. So results
// must be copied out before the goroutine starts its next pooled run,
// on any graph, and never shared across goroutines.
//
// A Network returns to its pool when Run returns. If the run panics it
// never does: a half-executed network is not reusable, so whoever
// recovers the panic finds the pool consistent, just one network short.
//
// Graphs are keyed by pointer identity, not content: a hit requires
// handing the literal same *graph.Graph to every run (the substrate
// cache in internal/serve guarantees this for server sweeps, across
// jobs as well as within one). An idle Network keeps its graph alive
// until it is hit or recycled, so a pool pins at most limit networks
// and their graphs.
type Pool struct {
	limit int
	idle  []*Network // least-recently released first
}

// NewPool builds a pool keeping at most limit idle Networks
// (limit <= 0 means a small default). One or two is enough for a
// sweep over a single substrate; the bound only matters when one
// worker alternates between many graphs.
func NewPool(limit int) *Pool {
	if limit <= 0 {
		limit = 4
	}
	return &Pool{limit: limit}
}

// WithPool attaches the Network to a Pool: NewNetwork will reuse an
// idle pooled instance, and Run releases the Network back to the pool
// when it completes. See Pool for the single-goroutine and
// Stats-lifetime contract.
func WithPool(p *Pool) Option {
	return func(n *Network) { n.pool = p }
}

// Size reports the number of idle Networks currently pooled.
func (p *Pool) Size() int { return len(p.idle) }

// take removes and returns an idle Network built over g, preferring
// the most recently released one, or nil when none is pooled.
func (p *Pool) take(g *graph.Graph) *Network {
	for i := len(p.idle) - 1; i >= 0; i-- {
		if p.idle[i].g == g {
			n := p.idle[i]
			p.idle = append(p.idle[:i], p.idle[i+1:]...)
			return n
		}
	}
	return nil
}

// recycle removes and returns the least recently released Network when
// the pool is full, for NewNetwork to rebind to the graph take missed
// on; it returns nil while the pool has room, so a pool still filling
// builds afresh.
func (p *Pool) recycle() *Network {
	if len(p.idle) < p.limit {
		return nil
	}
	n := p.idle[0]
	p.idle = append(p.idle[:0], p.idle[1:]...)
	return n
}

// put parks a Network after its run. A network is out of the pool for
// the whole time it is in use, so no instance is ever pooled twice. The
// pool can be full here only when more networks were in use at once
// than it holds; the surplus network is then left to the GC.
func (p *Pool) put(n *Network) {
	if len(p.idle) < p.limit {
		p.idle = append(p.idle, n)
	}
}
