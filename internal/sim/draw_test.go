package sim

import (
	"math"
	"slices"
	"testing"

	"costsense/internal/graph"
)

// burster sends k messages to its ring successor at time 0 and nothing
// after: k·n transmissions whose fates are all drawn at once.
type burster struct{ k int }

func (b burster) Init(ctx Context) {
	to := (ctx.ID() + 1) % graph.NodeID(ctx.Graph().N())
	for range b.k {
		ctx.Send(to, "x")
	}
}

func (burster) Handle(Context, graph.NodeID, Message) {}

// TestKeyedDraws checks the engine's one random source, draw, and its
// consumers on fixed keys, so every number below is deterministic:
//
//   - DelayUniform over 10⁵ draws hits every value of [1, w] for each
//     w, with Pearson's χ² (w−1 degrees of freedom, df) at most
//     df + 6·√(2·df), six standard deviations above its mean;
//   - a run whose 64 nodes send 1600 messages each loses and
//     duplicates them at the plan's rates, within 4σ of the binomial;
//   - no two of the 64 nodes × 4096 seqs × 3 purposes draw one word.
func TestKeyedDraws(t *testing.T) {
	key := nodeSeed(20261019, 5)
	const draws = 100_000
	for _, w := range []int64{1, 2, 3, 24, 1024} {
		counts := make([]int, w+1)
		for seq := int64(1); seq <= draws; seq++ {
			d := DelayUniform{}.Delay(graph.Edge{W: w}, draw(key, seq, drawDelay))
			if d < 1 || d > w {
				t.Fatalf("w=%d: delay %d outside [1, %d]", w, d, w)
			}
			counts[d]++
		}
		want := float64(draws) / float64(w)
		var chi2 float64
		for d := int64(1); d <= w; d++ {
			if counts[d] == 0 {
				t.Errorf("w=%d: delay %d never drawn", w, d)
			}
			chi2 += (float64(counts[d]) - want) * (float64(counts[d]) - want) / want
		}
		df := float64(w - 1)
		if bound := df + 6*math.Sqrt(2*df); chi2 > bound {
			t.Errorf("w=%d: χ² = %.1f over %d draws, bound %.1f", w, chi2, draws, bound)
		}
	}

	g := graph.Ring(64, graph.UniformWeights(24, 3))
	procs := make([]Process, g.N())
	for v := range procs {
		procs[v] = burster{k: 1600}
	}
	for _, p := range []float64{0.02, 0.05, 0.2} {
		st, err := Run(g, procs, WithDelay(DelayUniform{}), WithSeed(77), WithFaults(FaultPlan{Drop: p, Dup: p}))
		if err != nil {
			t.Fatal(err)
		}
		// Every send draws its drop; only the ones not dropped draw a dup.
		for _, c := range []struct {
			what        string
			got, trials int64
		}{
			{"dropped", st.Dropped, st.Messages},
			{"duplicated", st.Duplicated, st.Messages - st.Dropped},
		} {
			mean := p * float64(c.trials)
			sigma := math.Sqrt(mean * (1 - p))
			if math.Abs(float64(c.got)-mean) > 4*sigma {
				t.Errorf("p=%v: %d of %d %s, want %.0f ± %.0f (4σ)", p, c.got, c.trials, c.what, mean, 4*sigma)
			}
		}
	}

	var all []uint64
	for v := int32(0); v < 64; v++ {
		k := nodeSeed(1, v)
		for seq := int64(1); seq <= 4096; seq++ {
			for _, purpose := range []uint64{drawDelay, drawDrop, drawDup} {
				all = append(all, draw(k, seq, purpose))
			}
		}
	}
	slices.Sort(all)
	for i := 1; i < len(all); i++ {
		if all[i] == all[i-1] {
			t.Fatalf("two of %d keyed draws are both %#x", len(all), all[i])
		}
	}
}
