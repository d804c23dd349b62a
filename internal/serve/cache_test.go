package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"strings"
	"sync"
	"testing"
	"time"
)

// getOrBuild is GetOrBuild for callers no other builder can keep
// waiting: the context is never consulted, so its error is a failure.
func getOrBuild(t *testing.T, c *Cache, key string, build func() *Substrate) (*Substrate, bool) {
	t.Helper()
	sub, hit, err := c.GetOrBuild(context.Background(), key, build)
	if err != nil {
		t.Fatalf("GetOrBuild(%q): %v", key, err)
	}
	return sub, hit
}

func testSubstrate(t *testing.T, n int, shards int) *Substrate {
	t.Helper()
	s := Spec{Experiment: "flood", Graph: GraphSpec{Family: "ring", N: n}, Shards: shards}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	return buildSubstrate(s.SubstrateKey(), s.Graph, s.Shards)
}

func TestSubstrateDerivedArtifacts(t *testing.T) {
	s := testSubstrate(t, 8, 4)
	// A unit-weight ring: 𝓔 = n, 𝓥 = n-1.
	if s.TotalWeight() != 8 || s.MSTWeight() != 7 {
		t.Fatalf("ring weights: 𝓔=%d 𝓥=%d, want 8/7", s.TotalWeight(), s.MSTWeight())
	}
	if len(s.ShardAssignment()) != 8 {
		t.Fatalf("shard assignment has %d entries, want 8", len(s.ShardAssignment()))
	}
	if testSubstrate(t, 8, 0).ShardAssignment() != nil {
		t.Fatal("serial substrate should have no shard assignment")
	}
}

func TestCacheHitAndMiss(t *testing.T) {
	c := NewCache(1 << 20)
	builds := 0
	build := func() *Substrate { builds++; return testSubstrate(t, 8, 0) }
	a, hit := getOrBuild(t, c, "k1", build)
	if hit || builds != 1 {
		t.Fatalf("first get: hit=%v builds=%d, want miss/1", hit, builds)
	}
	b, hit := getOrBuild(t, c, "k1", build)
	if !hit || builds != 1 || a != b {
		t.Fatalf("second get: hit=%v builds=%d same=%v, want hit/1/true", hit, builds, a == b)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// LRU eviction: filling past the byte budget drops the least recently
// used entry, and a Get refreshes recency.
func TestCacheEviction(t *testing.T) {
	one := testSubstrate(t, 8, 0)
	c := NewCache(one.Bytes()*2 + one.Bytes()/2) // room for two entries
	get := func(key string) (*Substrate, bool) {
		return getOrBuild(t, c, key, func() *Substrate { return testSubstrate(t, 8, 0) })
	}
	get("a")
	get("b")
	get("a") // refresh a: LRU order is now b, a
	get("c") // evicts b
	_, hitA := get("a")
	_, hitB := get("b")
	if !hitA {
		t.Error("a was evicted despite being recently used")
	}
	if hitB {
		t.Error("b survived eviction")
	}
	if st := c.Stats(); st.Evictions < 1 {
		t.Errorf("stats = %+v, want at least one eviction", st)
	}
}

// An entry larger than the whole budget still builds and serves (the
// newest entry is never evicted).
func TestCacheOversizedEntry(t *testing.T) {
	c := NewCache(1) // absurdly small
	s, hit := getOrBuild(t, c, "big", func() *Substrate { return testSubstrate(t, 8, 0) })
	if s == nil || hit {
		t.Fatalf("oversized build: sub=%v hit=%v", s, hit)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("stats = %+v, want the oversized entry retained", st)
	}
}

// Mutating a cached substrate must panic at the next hit: substrates
// are shared across jobs, and a silent mutation would make results
// stop being a function of the spec.
func TestCacheVerifyPanicsOnMutation(t *testing.T) {
	c := NewCache(1 << 20)
	s, _ := getOrBuild(t, c, "k", func() *Substrate { return testSubstrate(t, 8, 4) })
	s.ShardAssignment()[3] = 0 // the forbidden write
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cache hit on a mutated substrate did not panic")
		}
		if !strings.Contains(r.(string), "mutated") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	getOrBuild(t, c, "k", func() *Substrate { t.Fatal("must not rebuild"); return nil })
}

// Single-flight: concurrent misses on one key run one build, and every
// other caller takes the built substrate as a hit.
func TestCacheConcurrentSameKeyBuildsOnce(t *testing.T) {
	c := NewCache(1 << 20)
	building := make(chan struct{})
	release := make(chan struct{})
	var builds int
	build := func() *Substrate {
		builds++ // unsynchronized on purpose: -race fails the test if two builds ever run
		close(building)
		<-release
		return testSubstrate(t, 8, 0)
	}
	const callers = 4
	subs := make([]*Substrate, callers)
	hits := make([]bool, callers)
	var wg sync.WaitGroup
	get := func(i int) {
		defer wg.Done()
		var err error
		if subs[i], hits[i], err = c.GetOrBuild(context.Background(), "k", build); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go get(0)
	<-building // caller 0 is the builder, parked in build
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go get(i)
	}
	close(release)
	wg.Wait()
	if builds != 1 {
		t.Fatalf("%d builds for one key, want 1", builds)
	}
	for i := range subs {
		if subs[i] != subs[0] || hits[i] != (i != 0) {
			t.Fatalf("caller %d: same substrate %v, hit %v; want true and %v", i, subs[i] == subs[0], hits[i], i != 0)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss, %d hits, 1 entry", st, callers-1)
	}
}

// Builds of different keys overlap: one parked on a channel holds no
// lock the other needs, and neither do Stats or a hit on a third key.
func TestCacheBuildsOfDifferentKeysOverlap(t *testing.T) {
	c := NewCache(1 << 20)
	getOrBuild(t, c, "warm", func() *Substrate { return testSubstrate(t, 8, 0) })
	parked := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, err := c.GetOrBuild(context.Background(), "slow", func() *Substrate {
			close(parked)
			<-release
			return testSubstrate(t, 8, 0)
		}); err != nil {
			t.Error(err)
		}
	}()
	<-parked
	if _, hit := getOrBuild(t, c, "fast", func() *Substrate { return testSubstrate(t, 8, 0) }); hit {
		t.Fatal("first get of a key reported a hit")
	}
	if _, hit := getOrBuild(t, c, "warm", nil); !hit {
		t.Fatal("a hit was lost while another key was building")
	}
	if st := c.Stats(); st.Entries != 2 || st.Misses != 3 {
		t.Fatalf("stats while a build is parked = %+v, want 2 entries and 3 misses", st)
	}
	close(release)
	<-done
	if st := c.Stats(); st.Entries != 3 {
		t.Fatalf("stats = %+v, want 3 entries", st)
	}
}

// A caller waiting for another's build gives up when its context does,
// and the build it was waiting for still lands.
func TestCacheWaiterHonorsContext(t *testing.T) {
	c := NewCache(1 << 20)
	parked := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.GetOrBuild(context.Background(), "k", func() *Substrate {
			close(parked)
			<-release
			return testSubstrate(t, 8, 0)
		})
	}()
	<-parked
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.GetOrBuild(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter with a cancelled context: err = %v, want context.Canceled", err)
	}
	close(release)
	<-done
	if _, hit := getOrBuild(t, c, "k", nil); !hit {
		t.Fatal("the build the waiter abandoned did not land")
	}
}

// A panicking build releases its waiters: the panic reaches the caller
// that ran the build, and a waiter then builds in its place.
func TestCachePanickingBuildReleasesWaiters(t *testing.T) {
	c := NewCache(1 << 20)
	parked := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.GetOrBuild(context.Background(), "k", func() *Substrate {
			close(parked)
			<-release
			panic("build blew up")
		})
	}()
	<-parked
	type got struct {
		sub *Substrate
		hit bool
	}
	waiter := make(chan got, 1)
	go func() {
		sub, hit, err := c.GetOrBuild(context.Background(), "k", func() *Substrate { return testSubstrate(t, 8, 0) })
		if err != nil {
			t.Error(err)
		}
		waiter <- got{sub, hit}
	}()
	// Whether the second caller has parked behind the build or arrives
	// after it failed, it must end up building for itself.
	time.Sleep(5 * time.Millisecond)
	close(release)
	if v := <-panicked; v != "build blew up" {
		t.Fatalf("builder recovered %v, want the build's panic", v)
	}
	select {
	case g := <-waiter:
		if g.sub == nil || g.hit {
			t.Fatalf("waiter after a failed build: sub=%v hit=%v, want its own build", g.sub, g.hit)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter stranded by a panicking build")
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 entry and 2 misses", st)
	}
}

// TestFingerprintIsFNV1a: the inline fingerprint loop is FNV-1a over
// each value's eight little-endian bytes, value for value what
// hash/fnv computes, on a substrate with a shard assignment.
func TestFingerprintIsFNV1a(t *testing.T) {
	s := testSubstrate(t, 64, 4)
	h := fnv.New64a()
	word := func(v int64) {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
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
	if got, want := s.fingerprint(), h.Sum64(); got != want {
		t.Fatalf("fingerprint %016x, hash/fnv %016x", got, want)
	}
}
