package sim

import "math/rand"

// The per-node RNG streams are math/rand's additive lagged-Fibonacci
// generator: the same 607-word state, the same tap, the same outputs
// for every seed. Only seeding differs. math/rand's Seed fills the
// state from a chain of 1,841 dependent Lehmer steps
// (x ← 48271·x mod 2³¹−1), ~14 µs per seed; a pooled trial under
// DelayUniform re-seeds one stream per node, so that chain was the
// largest single cost of a short random-delay trial. Seed below
// computes chain word k directly as (48271^k mod p)·x₀ mod p from a
// table of powers built once: 1,821 independent multiplies that the
// CPU overlaps, reduced by a Mersenne fold instead of a division.
const (
	srcLen  = 607       // state words (math/rand's rngLen)
	srcTap  = 273       // lag of the second tap (math/rand's rngTap)
	srcSkip = 20        // Lehmer words discarded before the first state word
	lehmerA = 48271     // Lehmer multiplier
	lehmerP = 1<<31 - 1 // Lehmer modulus, a Mersenne prime
	seedAlt = 89482311  // what math/rand seeds with in place of 0
)

var (
	// lehmerPow[i][j] = lehmerA^(srcSkip+1+3i+j) mod lehmerP: the
	// multipliers of the three chain words math/rand packs into state
	// word i.
	lehmerPow [srcLen][3]uint64
	// srcCooked is math/rand's rngCooked table, which it XORs into the
	// seeded state. It is recovered at init from math/rand itself
	// rather than copied (see recoverCooked).
	srcCooked [srcLen]int64
)

func init() {
	a := uint64(1)
	for range srcSkip {
		a = mulModP(a, lehmerA)
	}
	for i := range lehmerPow {
		for j := range lehmerPow[i] {
			a = mulModP(a, lehmerA)
			lehmerPow[i][j] = a
		}
	}
	recoverCooked()
}

// mulModP returns a·x mod 2³¹−1 for a, x in [1, 2³¹−2], without a
// division or a branch: a number's high and low 31-bit halves sum to
// it mod 2³¹−1 (the Mersenne fold). The first fold leaves a value in
// (0, 2p), as the product is never a multiple of the prime; the
// second brings it under p.
func mulModP(a, x uint64) uint64 {
	t := a * x
	t = t&lehmerP + t>>31
	return t&lehmerP + t>>31
}

// recoverCooked derives srcCooked from a math/rand source seeded with
// 1. One lap of srcLen outputs writes every state word exactly once,
// each output being the word it wrote; undoing the additions in
// reverse order (s[feed] -= s[tap]) restores the seeded state, and
// XORing away the seed's own Lehmer words leaves the cooked table.
func recoverCooked() {
	var bare nodeSource
	bare.Seed(1) // srcCooked is still all zero here: the seed's own Lehmer words
	ref := rand.NewSource(1).(rand.Source64)
	var feeds, taps [srcLen]int
	s := nodeSource{feed: srcLen - srcTap}
	for k := range srcLen {
		s.step()
		feeds[k], taps[k] = s.feed, s.tap
		s.vec[s.feed] = int64(ref.Uint64())
	}
	for k := srcLen - 1; k >= 0; k-- {
		s.vec[feeds[k]] -= s.vec[taps[k]]
	}
	for i := range srcCooked {
		srcCooked[i] = s.vec[i] ^ bare.vec[i]
	}
}

// nodeSource is a rand.Source64 drawing exactly math/rand's sequence
// for every seed (rand.NewSource), with a Seed ~3.7× cheaper (BenchmarkSeed).
type nodeSource struct {
	tap  int
	feed int
	vec  [srcLen]int64
}

var _ rand.Source64 = (*nodeSource)(nil)

// newSource returns a stream seeded with seed.
func newSource(seed int64) *nodeSource {
	s := new(nodeSource)
	s.Seed(seed)
	return s
}

// Seed resets the stream to the state rand.NewSource(seed) starts in.
func (s *nodeSource) Seed(seed int64) {
	s.tap = 0
	s.feed = srcLen - srcTap
	seed %= lehmerP
	if seed < 0 {
		seed += lehmerP
	}
	if seed == 0 {
		seed = seedAlt
	}
	x := uint64(seed)
	for i := range s.vec { // chain words packed as math/rand packs them
		a := &lehmerPow[i]
		s.vec[i] = int64(mulModP(a[0], x))<<40 ^
			int64(mulModP(a[1], x))<<20 ^
			int64(mulModP(a[2], x)) ^
			srcCooked[i]
	}
}

// step moves both taps back one word.
func (s *nodeSource) step() {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
}

// Uint64 returns the next 64-bit output.
func (s *nodeSource) Uint64() uint64 {
	s.step()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next output with its top bit cleared.
func (s *nodeSource) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}
