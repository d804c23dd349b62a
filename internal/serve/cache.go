package serve

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"costsense/internal/graph"
	"costsense/internal/sim"
)

// Substrate is one cached, immutable experiment substrate: a generated
// graph plus the derived artifacts every trial of a sweep would
// otherwise recompute — total weight 𝓔, MST weight 𝓥, and (for
// sharded runs) the node→shard partition. A Substrate is shared by
// every job whose spec hashes to the same key, concurrently, so it
// must never be mutated; since Go cannot hand out read-only slices,
// immutability is enforced defensively instead: the content
// fingerprint taken at build time is re-checked on every cache hit,
// and a mismatch panics (see Verify).
type Substrate struct {
	key         string
	g           *graph.Graph
	totalWeight int64 // 𝓔 = w(G)
	mstWeight   int64 // 𝓥 = w(MST(G))
	shardOf     []int32
	bytes       int64
	fp          uint64
}

// buildSubstrate generates the substrate a normalized spec describes.
func buildSubstrate(key string, gs GraphSpec, shards int) *Substrate {
	g := gs.Build()
	s := &Substrate{
		key:         key,
		g:           g,
		totalWeight: g.TotalWeight(),
		mstWeight:   graph.MSTWeight(g),
	}
	if shards > 1 {
		s.shardOf = sim.ShardAssignment(g, shards)
	}
	// Size estimate for the byte-bounded cache: the graph's adjacency
	// is ~2 edge records per endpoint plus the edge list itself; 48
	// bytes per edge and 16 per vertex over-approximates both.
	s.bytes = int64(g.M())*48 + int64(g.N())*16 + int64(len(s.shardOf))*4 + 256
	s.fp = s.fingerprint()
	return s
}

// Key is the substrate's content address (Spec.SubstrateKey).
func (s *Substrate) Key() string { return s.key }

// Graph returns the shared graph. Callers must treat it as read-only;
// Verify will panic the process if they don't.
func (s *Substrate) Graph() *graph.Graph { return s.g }

// TotalWeight is 𝓔, cached at build time.
func (s *Substrate) TotalWeight() int64 { return s.totalWeight }

// MSTWeight is 𝓥, cached at build time.
func (s *Substrate) MSTWeight() int64 { return s.mstWeight }

// ShardAssignment is the cached node→shard partition (nil for serial
// substrates). Shared and read-only, like the graph.
func (s *Substrate) ShardAssignment() []int32 { return s.shardOf }

// Bytes is the substrate's estimated memory footprint, the unit of
// the cache's eviction budget.
func (s *Substrate) Bytes() int64 { return s.bytes }

// fingerprint hashes everything reachable through the substrate's
// accessors: vertex count, the full edge list, the shard assignment
// and the derived weights. FNV-1a, not SHA — this runs on every cache
// hit and only has to catch accidents, not adversaries.
func (s *Substrate) fingerprint() uint64 {
	// FNV-1a over each value's eight little-endian bytes, written out
	// so the edge loop makes no call per word.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	word := func(v int64) {
		for i := 0; i < 64; i += 8 {
			h ^= uint64(v) >> i & 0xff
			h *= prime64
		}
	}
	word(int64(s.g.N()))
	word(int64(s.g.M()))
	for _, e := range s.g.Edges() {
		word(int64(e.U))
		word(int64(e.V))
		word(e.W)
	}
	for _, sh := range s.shardOf {
		word(int64(sh))
	}
	word(s.totalWeight)
	word(s.mstWeight)
	return h
}

// Verify re-hashes the substrate and panics on any divergence from the
// build-time fingerprint. A mutated substrate would silently poison
// every later job that shares it — results would stop being a function
// of the spec — so this is deliberately a crash, not an error return.
// The cache calls it on every hit.
func (s *Substrate) Verify() {
	if got := s.fingerprint(); got != s.fp {
		panic(fmt.Sprintf("serve: cached substrate %s was mutated (fingerprint %016x, want %016x); substrates are shared and read-only", s.key, got, s.fp))
	}
}

// CacheStats is a point-in-time snapshot of the cache's counters.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Cache is the content-addressed substrate store: a map from substrate
// key to built Substrate with LRU eviction bounded by total estimated
// bytes. Safe for concurrent use. Eviction only drops the *cache's*
// reference — jobs already holding a substrate keep it alive and
// valid; a later identical spec just rebuilds.
type Cache struct {
	mu        sync.Mutex
	maxBytes  int64
	bytes     int64
	ll        *list.List               // front = most recently used
	items     map[string]*list.Element // key -> element whose Value is *cacheEntry
	building  map[string]chan struct{} // key -> closed when the build in flight for it ends
	hits      int64
	misses    int64
	evictions int64
}

// cacheEntry pairs a substrate with the key it is stored under. The
// store key is normally Substrate.Key(), but eviction must delete by
// the key the entry was *inserted* with, so it is carried explicitly.
type cacheEntry struct {
	key string
	sub *Substrate
}

// NewCache builds a cache bounded to maxBytes of estimated substrate
// footprint (maxBytes <= 0 means 256 MiB).
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	return &Cache{
		maxBytes: maxBytes, ll: list.New(),
		items: make(map[string]*list.Element), building: make(map[string]chan struct{}),
	}
}

// GetOrBuild returns the substrate stored under key, building and
// inserting it with build on a miss. hit reports whether the substrate
// came from the cache. On a hit the substrate's integrity fingerprint
// is re-verified (panicking on mutation). The newest entry is never
// evicted, so a substrate larger than the whole budget still builds
// and serves its job — it just won't outlive it in the cache.
//
// Builds are single-flight per key: of concurrent callers that miss on
// one key, one builds and the rest wait for it and take the hit. Both
// build and Verify run outside the cache lock, so jobs on different
// substrates build side by side. A caller waiting for another's build
// gives up with ctx's error when ctx is cancelled; if that build
// panics, its waiters are released and the first of them builds in its
// place (and meets the same panic in its own job).
func (c *Cache) GetOrBuild(ctx context.Context, key string, build func() *Substrate) (sub *Substrate, hit bool, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			c.hits++
			sub = el.Value.(*cacheEntry).sub
			c.mu.Unlock()
			sub.Verify()
			return sub, true, nil
		}
		built, waiting := c.building[key]
		if !waiting {
			built = make(chan struct{})
			c.building[key] = built
			c.misses++
		}
		c.mu.Unlock()
		if !waiting {
			return c.buildAndInsert(key, built, build), false, nil
		}
		select {
		case <-built:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// buildAndInsert runs the one build in flight for key and publishes
// its outcome; built is closed however build returns, so a panicking
// build strands no waiter.
func (c *Cache) buildAndInsert(key string, built chan struct{}, build func() *Substrate) (sub *Substrate) {
	defer func() {
		c.mu.Lock()
		delete(c.building, key)
		if sub != nil {
			c.insert(key, sub)
		}
		c.mu.Unlock()
		close(built)
	}()
	return build()
}

// insert stores a freshly built substrate as the most recently used
// entry and evicts from the cold end until the cache is back inside its
// byte budget. The caller holds mu.
func (c *Cache) insert(key string, sub *Substrate) {
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, sub: sub})
	c.bytes += sub.Bytes()
	for c.bytes > c.maxBytes && c.ll.Len() > 1 {
		oldest := c.ll.Back()
		victim := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.items, victim.key)
		c.bytes -= victim.sub.Bytes()
		c.evictions++
	}
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
