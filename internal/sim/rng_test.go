package sim

import (
	"math"
	"math/rand"
	"testing"
)

// streamSeeds are the seeds the node stream is checked on against
// math/rand: the ones its seeding special-cases (0, and the residues
// of ±(2³¹−1) that fold to 0), the extremes of int64, and 300 more
// drawn from a fixed seed.
func streamSeeds() []int64 {
	const p = 1<<31 - 1
	seeds := []int64{
		0, 1, -1, 89482311, -89482311,
		p, -p, 2 * p, -2 * p, 3 * p, -3 * p, p * p, -p * p, p - 1, p + 1, -p + 1, -p - 1,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	}
	r := rand.New(rand.NewSource(20261019))
	for range 300 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// sameDraws compares want (math/rand) and got (the node stream) over
// draws outputs, cycling through the three draw kinds the engine and
// its protocols use; draws past srcLen cover the state's wrap.
func sameDraws(t testing.TB, seed int64, want, got *rand.Rand, draws int) {
	t.Helper()
	for i := range draws {
		switch i % 3 {
		case 0:
			n := int64(i%97) + 1
			if w, g := want.Int63n(n), got.Int63n(n); w != g {
				t.Fatalf("seed %d draw %d: Int63n(%d) = %d, math/rand gives %d", seed, i, n, g, w)
			}
		case 1:
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("seed %d draw %d: Float64 = %v, math/rand gives %v", seed, i, g, w)
			}
		case 2:
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: Uint64 = %d, math/rand gives %d", seed, i, g, w)
			}
		}
	}
}

// TestNodeSourceMatchesMathRand: for every seed, a rand.Rand over the
// node stream draws what one over rand.NewSource draws, fresh and
// again after an in-place Seed that follows draws (the pooled path).
func TestNodeSourceMatchesMathRand(t *testing.T) {
	seeds := streamSeeds()
	for i, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(newSource(seed))
		sameDraws(t, seed, want, got, 2000)

		next := seeds[(i+1)%len(seeds)]
		want.Seed(next)
		got.Seed(next)
		sameDraws(t, next, want, got, 2000)
	}
}

// FuzzNodeStream compares the node stream with math/rand on arbitrary
// seeds, over a fuzzed number of draws and an in-place re-seed. The
// corpus under testdata/fuzz/FuzzNodeStream holds the special seeds.
func FuzzNodeStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed, reseed int64, draws uint16) {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(newSource(seed))
		sameDraws(t, seed, want, got, int(draws))
		want.Seed(reseed)
		got.Seed(reseed)
		sameDraws(t, reseed, want, got, srcLen+1)
	})
}

// BenchmarkSeed times one in-place re-seed, the per-node cost a pooled
// random-delay trial pays at its start: the node stream against
// math/rand's own source.
func BenchmarkSeed(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source
	}{
		{"node", newSource(1)},
		{"mathrand", rand.NewSource(1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := range b.N {
				c.src.Seed(int64(i))
			}
		})
	}
}
