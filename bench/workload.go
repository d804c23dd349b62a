package main

import (
	"fmt"

	"costsense/internal/serve"
)

// workload is one traffic mix. Job i of a run is spec(seed, i): the
// server only ever sees the generated specs. Jobs 0..warmup-1 are the
// warm-up (part of set-up); the measured phase continues from warmup
// and runs for the requested number of seconds.
type workload struct {
	name    string
	why     string
	journal bool // start the server with -journal
	// journalSlice adds a slice against a second, journaled server to
	// the traced run (serve.journal.large_result_ratio).
	journalSlice bool
	warmup       int
	// mark is the number of measured jobs the run-length-independent
	// readings are taken over: results_digest and result_bytes_per_job
	// cover measured jobs 0..mark-1, and server_rss_peak_mb is read when
	// mark measured jobs have been verified. The measured phase is timed,
	// so a faster server completes more jobs; without a fixed mark it
	// would also retain more results and report a higher peak.
	mark int
	// block is the number of jobs per block of the measured phase; the
	// throughput and CPU metrics are medians over blocks (see blockMeter).
	// About a second of work, and on protocol-mix a multiple of the eight
	// kinds.
	block int
	spec  func(seed int64, i int) serve.Spec
}

// protocolMixKinds is the experiment of job i mod 8 in protocol-mix.
var protocolMixKinds = [...]string{"ghs", "mstfast", "msthybrid", "conhybrid", "dfs", "sptcentr", "mstcentr", "flood"}

var workloads = []workload{
	{
		name:   "sweep-hot",
		why:    "one cached substrate, 64-trial flood sweeps: the pooled trial loop (sim engine, Pool reset, harness fan-out) does the work; substrate build and journal are bypassed",
		warmup: 12,
		mark:   160,
		block:  16,
		spec: func(seed int64, i int) serve.Spec {
			return serve.Spec{
				Experiment: "flood",
				Graph: serve.GraphSpec{Family: "random", N: 1000, M: 3000, Seed: 21,
					Weights: serve.WeightSpec{Kind: "uniform", Max: 64, Seed: 21}},
				Delay:  "max",
				Trials: sweepHotTrials,
				Seed:   seed*100000 + sweepHotTrials*int64(i) + 1,
			}
		},
	},
	{
		name:   "one-shot-large",
		why:    "a distinct 3200-node substrate per job, one observed trial: graph build, the cache miss path, obs export and a multi-MB result encode and fetch dominate; pooled reuse does nothing",
		warmup: 10,
		mark:   128,
		block:  16,
		// As an end-to-end workload journaling multi-MB results is too
		// disk-noisy to bound; the traced run reports it as a ratio.
		journalSlice: true,
		spec: func(seed int64, i int) serve.Spec {
			return serve.Spec{
				Experiment: "flood",
				Graph: serve.GraphSpec{Family: "random", N: 3200, M: 12800, Seed: seed*100000 + int64(i) + 1,
					Weights: serve.WeightSpec{Kind: "uniform", Max: 64, Seed: 5}},
				Trials: 1,
				Seed:   1,
			}
		},
	},
	{
		name:    "tiny-durable",
		why:     "256-event jobs on a 128-ring with the journal on: three HTTP round trips, spec decode, three fsync'd records and the queue hand-off are over half the cost; the simulator is bypassed",
		journal: true,
		warmup:  300,
		mark:    4000,
		block:   400,
		// A 128-ring, not the 32-ring ISSUE 12 sized: a 32-ring job is
		// little but blocking hand-offs between two processes, and what a
		// hand-off costs a guest is the host's business — a busy spell
		// raised the server's CPU time per job by 72 % on the 32-ring and
		// by 31 % on this one (README, Noise). The 42 KB result adds
		// encode, journal-write and fetch work that a busy host slows no
		// more than any other computation.
		spec: func(seed int64, i int) serve.Spec {
			return serve.Spec{
				Experiment: "flood",
				Graph:      serve.GraphSpec{Family: "ring", N: 128},
				Trials:     1,
				Seed:       seed*1000000 + int64(i) + 1,
			}
		},
	},
	{
		name:   "protocol-mix",
		why:    "eight protocols in rotation on one small substrate, uniform delays, faults on ghs and flood: timers, RNG draws, the fault branch, the reliable wrapper, short 8-trial sweeps; sweep-hot touches none",
		warmup: 16,
		mark:   192,
		block:  24,
		spec: func(seed int64, i int) serve.Spec {
			s := serve.Spec{
				Experiment: protocolMixKinds[i%len(protocolMixKinds)],
				Graph: serve.GraphSpec{Family: "random", N: 120, M: 360, Seed: 9,
					Weights: serve.WeightSpec{Kind: "uniform", Max: 64, Seed: 9}},
				Delay:  "uniform",
				Trials: 8,
				Seed:   seed*1000 + 8*int64(i) + 1,
			}
			if s.Experiment == "ghs" || s.Experiment == "flood" {
				s.Faults = &serve.FaultSpec{Drop: 0.05, Dup: 0.02, Downs: 1}
			}
			return s
		},
	},
}

// sweepHotTrials is the sweep size of a sweep-hot job.
const sweepHotTrials = 64

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
