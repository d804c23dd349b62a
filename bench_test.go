// Benchmarks: one testing.B benchmark per table/figure of the paper's
// evaluation. Each benchmark runs the workload that regenerates its
// figure (see cmd/costsense and EXPERIMENTS.md for the tabulated
// numbers) and reports the cost-sensitive metrics as custom units, so
// `go test -bench . -benchmem` reproduces both the performance of the
// simulator and the measured complexity of every experiment.
package costsense_test

import (
	"context"
	"math/rand"
	"testing"

	"costsense"
)

func report(b *testing.B, stats *costsense.Stats) {
	b.Helper()
	b.ReportMetric(float64(stats.Comm), "wcomm/op")
	b.ReportMetric(float64(stats.FinishTime), "wtime/op")
	b.ReportMetric(float64(stats.Messages), "msgs/op")
}

// BenchmarkFig1GlobalFunction — Figure 1: global symmetric compact
// function computation over an SLT at O(𝓥) comm / O(𝓓) time.
func BenchmarkFig1GlobalFunction(b *testing.B) {
	g := costsense.RandomConnected(100, 300, costsense.UniformWeights(32, 1), 1)
	rng := rand.New(rand.NewSource(2))
	inputs := make([]int64, g.N())
	for i := range inputs {
		inputs[i] = rng.Int63n(1000)
	}
	var last *costsense.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := costsense.ComputeViaSLT(g, 0, 2, inputs, costsense.Sum)
		if err != nil {
			b.Fatal(err)
		}
		last = res.Stats
	}
	report(b, last)
}

// BenchmarkFig5SLT — Figure 5: the shallow-light tree construction.
func BenchmarkFig5SLT(b *testing.B) {
	g := costsense.ShallowLightGap(128)
	hub := costsense.NodeID(g.N() - 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := costsense.BuildSLT(g, hub, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThm27DistributedSLT — Theorem 2.7: distributed SLT.
func BenchmarkThm27DistributedSLT(b *testing.B) {
	g := costsense.RandomConnected(32, 96, costsense.UniformWeights(16, 3), 3)
	var last *costsense.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := costsense.BuildSLTDistributed(g, 0, 2)
		if err != nil {
			b.Fatal(err)
		}
		last = &res.Stats
	}
	report(b, last)
}

// BenchmarkClockSync — §3: pulse generation under α*, β*, γ* on the
// d << W regime.
func BenchmarkClockSync(b *testing.B) {
	g := costsense.HeavyChordRing(64, 100_000)
	runs := []struct {
		name string
		run  func(*costsense.Graph, int64, ...costsense.Option) (*costsense.ClockResult, error)
	}{
		{"AlphaStar", costsense.RunClockAlpha},
		{"BetaStar", costsense.RunClockBeta},
		{"GammaStar", costsense.RunClockGamma},
	}
	for _, r := range runs {
		b.Run(r.name, func(b *testing.B) {
			var delay int64
			var last *costsense.Stats
			for i := 0; i < b.N; i++ {
				res, err := r.run(g, 10)
				if err != nil {
					b.Fatal(err)
				}
				delay = res.MaxDelay()
				last = res.Stats
			}
			report(b, last)
			b.ReportMetric(float64(delay), "pulsedelay")
		})
	}
}

// BenchmarkSynchronizer — §4 / Lemma 4.8: per-pulse overhead of α, β,
// γ_w running the synchronous SPT protocol.
func BenchmarkSynchronizer(b *testing.B) {
	g := costsense.Complete(32, costsense.UniformWeights(64, 5))
	pulses := costsense.Diameter(g) + 2
	runs := []struct {
		name string
		run  func() (*costsense.SynchOverhead, error)
	}{
		{"Alpha", func() (*costsense.SynchOverhead, error) {
			return costsense.RunSynchAlpha(g, costsense.NewSPTSyncProcs(g, 0), pulses)
		}},
		{"Beta", func() (*costsense.SynchOverhead, error) {
			return costsense.RunSynchBeta(g, costsense.NewSPTSyncProcs(g, 0), pulses)
		}},
		{"GammaW", func() (*costsense.SynchOverhead, error) {
			return costsense.RunSynchGammaW(g, costsense.NewSPTSyncProcs(g, 0), pulses, 2)
		}},
	}
	for _, r := range runs {
		b.Run(r.name, func(b *testing.B) {
			var ov *costsense.SynchOverhead
			for i := 0; i < b.N; i++ {
				res, err := r.run()
				if err != nil {
					b.Fatal(err)
				}
				ov = res
			}
			report(b, ov.Stats)
			b.ReportMetric(ov.CommPerPulse, "commPerPulse")
			b.ReportMetric(ov.TimePerPulse, "timePerPulse")
		})
	}
}

// BenchmarkController — §5 / Corollary 5.1: controlled flood.
func BenchmarkController(b *testing.B) {
	g := costsense.RandomConnected(48, 120, costsense.UniformWeights(16, 7), 7)
	cpi := 2 * g.TotalWeight() // schedule-free flood bound
	var last *costsense.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		procs := make([]costsense.Process, g.N())
		for v := range procs {
			procs[v] = &floodBench{}
		}
		res, _, err := costsense.RunControlled(g, procs, 0, cpi)
		if err != nil {
			b.Fatal(err)
		}
		last = res.Stats
	}
	report(b, last)
}

// floodBench is a minimal flood used as the controlled workload.
type floodBench struct{ got bool }

func (f *floodBench) Init(ctx costsense.Context) {
	if ctx.ID() == 0 {
		f.got = true
		for _, h := range ctx.Neighbors() {
			ctx.Send(h.To, "f")
		}
	}
}

func (f *floodBench) Handle(ctx costsense.Context, from costsense.NodeID, _ costsense.Message) {
	if f.got {
		return
	}
	f.got = true
	for _, h := range ctx.Neighbors() {
		if h.To != from {
			ctx.Send(h.To, "f")
		}
	}
}

// BenchmarkFig2Connectivity — Figure 2: CONhybrid on both regimes.
func BenchmarkFig2Connectivity(b *testing.B) {
	cases := []struct {
		name string
		g    *costsense.Graph
	}{
		{"SparseDFSWins", costsense.RandomConnected(48, 70, costsense.UniformWeights(16, 9), 9)},
		{"GnMSTWins", costsense.HardConnectivity(24, 24)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var last *costsense.Stats
			for i := 0; i < b.N; i++ {
				res, err := costsense.RunCONHybrid(c.g, 0)
				if err != nil {
					b.Fatal(err)
				}
				last = res.Stats
			}
			report(b, last)
		})
	}
}

// BenchmarkFig78LowerBound — §7.1: the G_n experiment.
func BenchmarkFig78LowerBound(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := costsense.RunGnExperiment(24, 24); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3MST — Figure 3: the four MST algorithms.
func BenchmarkFig3MST(b *testing.B) {
	g := costsense.RandomConnected(64, 160, costsense.UniformWeights(32, 11), 11)
	runs := []struct {
		name string
		run  func() (*costsense.Stats, error)
	}{
		{"GHS", func() (*costsense.Stats, error) {
			r, err := costsense.RunGHS(g)
			if err != nil {
				return nil, err
			}
			return r.Stats, nil
		}},
		{"Fast", func() (*costsense.Stats, error) {
			r, err := costsense.RunMSTFast(g)
			if err != nil {
				return nil, err
			}
			return r.Stats, nil
		}},
		{"Centr", func() (*costsense.Stats, error) {
			r, err := costsense.RunMSTCentr(g, 0)
			if err != nil {
				return nil, err
			}
			return r.Stats, nil
		}},
		{"Hybrid", func() (*costsense.Stats, error) {
			r, err := costsense.RunMSTHybrid(g, 0)
			if err != nil {
				return nil, err
			}
			return r.Result.Stats, nil
		}},
	}
	for _, r := range runs {
		b.Run(r.name, func(b *testing.B) {
			var last *costsense.Stats
			for i := 0; i < b.N; i++ {
				stats, err := r.run()
				if err != nil {
					b.Fatal(err)
				}
				last = stats
			}
			report(b, last)
		})
	}
}

// BenchmarkFig4SPT — Figure 4: the SPT algorithms.
func BenchmarkFig4SPT(b *testing.B) {
	g := costsense.Grid(8, 8, costsense.UniformWeights(16, 13))
	strip := costsense.DefaultStripLen(g, 0)
	runs := []struct {
		name string
		run  func() (*costsense.Stats, error)
	}{
		{"Centr", func() (*costsense.Stats, error) {
			r, err := costsense.RunSPTCentr(g, 0)
			if err != nil {
				return nil, err
			}
			return r.Stats, nil
		}},
		{"Recur", func() (*costsense.Stats, error) {
			r, err := costsense.RunSPTRecur(g, 0, strip)
			if err != nil {
				return nil, err
			}
			return r.Stats, nil
		}},
		{"Synch", func() (*costsense.Stats, error) {
			r, err := costsense.RunSPTSynch(g, 0, 2)
			if err != nil {
				return nil, err
			}
			return r.Stats, nil
		}},
		{"Hybrid", func() (*costsense.Stats, error) {
			r, _, err := costsense.RunSPTHybrid(g, 0, 2)
			if err != nil {
				return nil, err
			}
			return r.Stats, nil
		}},
	}
	for _, r := range runs {
		b.Run(r.name, func(b *testing.B) {
			var last *costsense.Stats
			for i := 0; i < b.N; i++ {
				stats, err := r.run()
				if err != nil {
					b.Fatal(err)
				}
				last = stats
			}
			report(b, last)
		})
	}
}

// BenchmarkFig9Strips — Figure 9: SPTrecur strip-depth sweep.
func BenchmarkFig9Strips(b *testing.B) {
	g := costsense.Grid(8, 8, costsense.UniformWeights(16, 15))
	for _, l := range []int64{1, 8, 64} {
		l := l
		b.Run("strip"+itoa(l), func(b *testing.B) {
			var last *costsense.Stats
			for i := 0; i < b.N; i++ {
				res, err := costsense.RunSPTRecur(g, 0, l)
				if err != nil {
					b.Fatal(err)
				}
				last = res.Stats
			}
			report(b, last)
		})
	}
}

// BenchmarkCover — Theorem 1.1: cover coarsening.
func BenchmarkCover(b *testing.B) {
	g := costsense.Grid(12, 12, costsense.UnitWeights())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := costsense.NewTreeCover(g)
		if !tc.CoversAllEdges() {
			b.Fatal("cover incomplete")
		}
	}
}

// BenchmarkSimulator measures the raw event engine: a flood on a large
// random network.
func BenchmarkSimulator(b *testing.B) {
	g := costsense.RandomConnected(1000, 5000, costsense.UniformWeights(64, 17), 17)
	var last *costsense.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := costsense.RunFlood(g, 0)
		if err != nil {
			b.Fatal(err)
		}
		last = res.Stats
	}
	report(b, last)
}

// BenchmarkEngineFlood measures the event engine alone: flooding on a
// large random network, reporting raw event throughput (events/sec) and
// allocations per operation. This is the hot-path regression benchmark:
// the whole workload is Send/queue/deliver, with a trivial process
// automaton, so any per-event allocation or queue slowdown shows up
// directly. BENCH_sim.json (see scripts/bench.sh) tracks it across PRs.
func BenchmarkEngineFlood(b *testing.B) {
	g := costsense.RandomConnected(5000, 40000, costsense.UniformWeights(64, 21), 21)
	var events int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := costsense.RunFlood(g, 0)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Stats.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkEngineObserved is BenchmarkEngineFlood with the full metrics
// observer attached — the cost of instrumentation, measured against the
// nil-observer baseline above. scripts/bench.sh records both so the
// observer overhead (and the baseline's continued 0 allocs/op) is
// tracked across PRs; the per-event allocations stay amortized
// (preallocated edge arrays, growing series slices).
func BenchmarkEngineObserved(b *testing.B) {
	g := costsense.RandomConnected(5000, 40000, costsense.UniformWeights(64, 21), 21)
	var events int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := costsense.NewMetricsObserver(g)
		res, err := costsense.RunFlood(g, 0, costsense.WithObserver(m))
		if err != nil {
			b.Fatal(err)
		}
		if _, load := m.MaxEdgeLoad(); load == 0 {
			b.Fatal("observer recorded nothing")
		}
		events += res.Stats.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkEngineCausal is BenchmarkEngineFlood with the causal
// observer attached — the cost of recording the full happens-before
// DAG plus one critical-path extraction per run, measured against the
// same nil-observer baseline. The probe threading itself (the Cause
// field every SendEvent now carries) is an unconditional scalar store,
// so BenchmarkEngineFlood's allocs/op contract is the regression gate
// for it; this benchmark tracks the opt-in observer's own overhead.
func BenchmarkEngineCausal(b *testing.B) {
	g := costsense.RandomConnected(5000, 40000, costsense.UniformWeights(64, 21), 21)
	var events int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ca := costsense.NewCausalObserver(g)
		res, err := costsense.RunFlood(g, 0, costsense.WithObserver(ca))
		if err != nil {
			b.Fatal(err)
		}
		r := ca.Report()
		if r.PathHops == 0 || r.PathEnd != res.Stats.FinishTime {
			b.Fatalf("implausible critical path: %d hops ending at %d (finish %d)",
				r.PathHops, r.PathEnd, res.Stats.FinishTime)
		}
		events += res.Stats.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkEngineFaulty is BenchmarkEngineFlood under a fault plan
// (drops, duplication, one link outage, one fail-stop crash) — the
// cost of the fault-injection branches in the hot path, measured
// against the nil-fault baseline above. Informational: scripts/bench.sh
// records it next to the gated nil-fault numbers, whose allocs/op
// contract is unaffected because the fault state is all scalar.
func BenchmarkEngineFaulty(b *testing.B) {
	g := costsense.RandomConnected(5000, 40000, costsense.UniformWeights(64, 21), 21)
	plan := costsense.FaultPlan{
		Drop:    0.05,
		Dup:     0.02,
		Down:    []costsense.LinkDown{{Edge: 0, From: 10, Until: 200}},
		Crashes: []costsense.Crash{{Node: costsense.NodeID(g.N() - 1), At: 500}},
	}
	var events int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := costsense.RunFlood(g, 0, costsense.WithFaults(plan))
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Dropped == 0 {
			b.Fatal("fault plan injected nothing")
		}
		events += res.Stats.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// sweepTrials is the sweep size of the BenchmarkEngineSweep pair: a
// fig2-style many-trial sweep over one substrate, the workload
// `costsense serve` schedules per job.
const sweepTrials = 100

// BenchmarkEngineSweepFresh is the no-reuse baseline: every trial
// regenerates the graph (no substrate cache) and builds a fresh
// Network (no pool) — what a sweep cost before the experiment
// service. One op = a full 100-trial sweep.
func BenchmarkEngineSweepFresh(b *testing.B) {
	var comm int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := costsense.RunTrials(sweepTrials, func(t int) (int64, error) {
			g := costsense.RandomConnected(2000, 6000, costsense.UniformWeights(64, 21), 21)
			res, err := costsense.RunFlood(g, 0, costsense.WithSeed(int64(t)+1))
			if err != nil {
				return 0, err
			}
			return res.Stats.Comm, nil
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range rows {
			comm += c
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/sweep")
	if comm == 0 {
		b.Fatal("sweep moved no traffic")
	}
}

// BenchmarkEngineSweepPooled is the same sweep the way `costsense
// serve` runs it: the substrate is built once and shared (the cache
// hit), and each worker recycles one Network allocation through a
// NetworkPool (the Reset reuse path, byte-identical to fresh runs by
// the sim/obs golden suites). The ms/sweep ratio against the fresh
// twin is the service's caching + pooling win, recorded in
// BENCH_sim.json.
func BenchmarkEngineSweepPooled(b *testing.B) {
	g := costsense.RandomConnected(2000, 6000, costsense.UniformWeights(64, 21), 21)
	ctx := context.Background()
	var comm int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := costsense.RunTrialsPooled(ctx, sweepTrials,
			func() *costsense.NetworkPool { return costsense.NewPool(2) },
			func(_ context.Context, pool *costsense.NetworkPool, t int) (int64, error) {
				res, err := costsense.RunFlood(g, 0,
					costsense.WithSeed(int64(t)+1), costsense.WithPool(pool))
				if err != nil {
					return 0, err
				}
				return res.Stats.Comm, nil
			}, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range rows {
			comm += c
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/sweep")
	if comm == 0 {
		b.Fatal("sweep moved no traffic")
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationBetaTree — the β-synchronizer tree-choice ablation:
// SLT vs MST vs SPT on the separation instance.
func BenchmarkAblationBetaTree(b *testing.B) {
	g := costsense.ShallowLightGap(96)
	hub := costsense.NodeID(g.N() - 1)
	pulses := costsense.Diameter(g) + 2
	sltTree, _, err := costsense.BuildSLT(g, hub, 2)
	if err != nil {
		b.Fatal(err)
	}
	trees := []struct {
		name string
		t    *costsense.Tree
	}{
		{"SLT", sltTree},
		{"MST", costsense.PrimTree(g, hub)},
		{"SPT", costsense.Dijkstra(g, hub).Tree(g)},
	}
	for _, tc := range trees {
		b.Run(tc.name, func(b *testing.B) {
			var ov *costsense.SynchOverhead
			for i := 0; i < b.N; i++ {
				res, err := costsense.RunSynchBetaTree(g, costsense.NewSPTSyncProcs(g, hub), pulses, tc.t)
				if err != nil {
					b.Fatal(err)
				}
				ov = res
			}
			report(b, ov.Stats)
			b.ReportMetric(ov.CommPerPulse, "commPerPulse")
			b.ReportMetric(ov.TimePerPulse, "timePerPulse")
		})
	}
}

// BenchmarkAblationGammaStarK — the γ* cover-parameter ablation.
func BenchmarkAblationGammaStarK(b *testing.B) {
	g := costsense.Grid(7, 7, costsense.UniformWeights(12, 5))
	for _, k := range []int{2, 4, 8} {
		k := k
		b.Run("k"+itoa(int64(k)), func(b *testing.B) {
			var last *costsense.Stats
			var delay int64
			for i := 0; i < b.N; i++ {
				res, err := costsense.RunClockGammaK(g, 8, k)
				if err != nil {
					b.Fatal(err)
				}
				last = res.Stats
				delay = res.MaxDelay()
			}
			report(b, last)
			b.ReportMetric(float64(delay), "pulsedelay")
		})
	}
}
