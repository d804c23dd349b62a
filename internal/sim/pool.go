package sim

import "costsense/internal/graph"

// Pool recycles Networks across runs of a sweep so the per-run
// construction cost — event heap, payload arena, neighbor index,
// accounting slices — is paid once per graph instead of once per
// trial. Build networks with NewNetwork(..., WithPool(p)) as usual:
// on a pool hit (an idle Network over the same *graph.Graph pointer)
// the cached instance is Reset under the new options and returned;
// after Run finishes, the Network parks itself back in the pool.
//
// A Pool is deliberately NOT safe for concurrent use: it is per-worker
// state, one goroutine's for as long as it lives. A harness.Workers set
// gives each worker goroutine its own — for one sweep under
// harness.RunIndexedPooled, for the server's whole life under
// internal/serve, where a worker's pool outlives jobs and serves trials
// of whichever job the worker claims next — which also preserves the
// sequencing a pooled run relies on: the *Stats returned by Run aliases
// network storage and is invalidated when the same worker starts its
// next pooled run, so results must be copied out between runs of one
// goroutine, never shared across goroutines.
//
// A Network returns to its pool when Run returns. If the run panics it
// never does: a half-executed network is not reusable, so whoever
// recovers the panic finds the pool consistent, just one network short.
//
// Graphs are keyed by pointer identity, not content: reuse requires
// handing the literal same *graph.Graph to every run (the substrate
// cache in internal/serve guarantees this for server sweeps, across
// jobs as well as within one).
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
// idle pooled instance over the same graph, and Run releases the
// Network back to the pool when it completes. See Pool for the
// single-goroutine and Stats-lifetime contract.
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

// put parks a Network after its run, evicting the least recently
// released instance when the pool is full. A network is out of the
// pool for the whole time it is in use, so no instance is ever pooled
// twice.
func (p *Pool) put(n *Network) {
	if len(p.idle) >= p.limit {
		copy(p.idle, p.idle[1:])
		p.idle = p.idle[:len(p.idle)-1]
	}
	p.idle = append(p.idle, n)
}
