// Command benchguard compares a fresh engine measurement against the
// checked-in BENCH_sim.json and fails when the allocation contract
// regresses. It is the dynamic counterpart of costsense-vet's
// hotpathalloc analyzer: the analyzer catches allocating constructs at
// vet time, this guard catches whatever slips through (compiler
// escape-analysis changes, library churn) at bench time.
//
// Usage:
//
//	go run ./scripts/benchguard BENCH_sim.json fresh.json [max-allocs-regress]
//
// The third argument is the tolerated fractional increase of
// allocs/op, default 0.15 (+15%). It gates two counts: the flood's
// (BenchmarkEngineFlood) and the pooled sweep's
// (BenchmarkEngineSweepPooled, one op = a 100-trial sweep, which
// scripts/bench.sh runs at a fixed GOMAXPROCS so that the number of
// pooled networks, and with it the count, does not depend on the
// machine). Throughput (events/sec) and wall clock are reported as
// information only — CI machines are too noisy to gate on timing —
// but allocs/op is scheduler-independent, so it gates.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

type run struct {
	Engine       string  `json:"engine"`
	NsPerOp      float64 `json:"ns_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
}

type doc struct {
	Current     run  `json:"current"`
	Observed    *run `json:"observed"`
	Causal      *run `json:"causal"`
	Faulty      *run `json:"faulty"`
	SweepFresh  *run `json:"sweep_fresh"`
	SweepPooled *run `json:"sweep_pooled"`
}

func main() {
	if err := guard(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

func guard(args []string) error {
	if len(args) < 2 || len(args) > 3 {
		return fmt.Errorf("usage: benchguard <baseline.json> <fresh.json> [max-allocs-regress]")
	}
	maxRegress := 0.15
	if len(args) == 3 {
		v, err := strconv.ParseFloat(args[2], 64)
		if err != nil {
			return fmt.Errorf("bad threshold %q: %w", args[2], err)
		}
		maxRegress = v
	}
	base, err := load(args[0])
	if err != nil {
		return err
	}
	fresh, err := load(args[1])
	if err != nil {
		return err
	}
	if base.AllocsPerOp <= 0 {
		return fmt.Errorf("%s: baseline allocs_per_op %.0f is not positive", args[0], base.AllocsPerOp)
	}

	allocsRatio := fresh.AllocsPerOp / base.AllocsPerOp
	fmt.Printf("allocs/op:   baseline %.0f, fresh %.0f (%+.1f%%)\n",
		base.AllocsPerOp, fresh.AllocsPerOp, (allocsRatio-1)*100)
	if base.EventsPerSec > 0 {
		fmt.Printf("events/sec:  baseline %.0f, fresh %.0f (%+.1f%%, informational)\n",
			base.EventsPerSec, fresh.EventsPerSec, (fresh.EventsPerSec/base.EventsPerSec-1)*100)
	}

	if err := allocGate("flood", base.AllocsPerOp, fresh.AllocsPerOp, maxRegress); err != nil {
		return err
	}

	// The pooled sweep gates under the same budget when both documents
	// carry it (BENCH_SWEEP=0 skips measuring it).
	if baseDoc, err := loadDoc(args[0]); err == nil && baseDoc.SweepPooled != nil && baseDoc.SweepPooled.AllocsPerOp > 0 {
		if freshDoc, err := loadDoc(args[1]); err == nil && freshDoc.SweepPooled != nil {
			b, f := baseDoc.SweepPooled.AllocsPerOp, freshDoc.SweepPooled.AllocsPerOp
			fmt.Printf("sweep allocs/op: baseline %.0f, fresh %.0f (%+.1f%%)\n", b, f, (f/b-1)*100)
			if err := allocGate("pooled sweep", b, f, maxRegress); err != nil {
				return err
			}
		}
	}

	// Observer-disabled overhead: the gated numbers above ARE the
	// disabled path (BenchmarkEngineFlood runs with no observer), so the
	// allocation gate doubles as the "observability is free when off"
	// contract. The attached-observer cost is reported for the record.
	if freshObs, err := loadObserved(args[1]); err == nil && freshObs != nil && fresh.NsPerOp > 0 {
		fmt.Printf("observer on: %.0f ns/op vs %.0f off (%+.1f%%, informational)\n",
			freshObs.NsPerOp, fresh.NsPerOp, (freshObs.NsPerOp/fresh.NsPerOp-1)*100)
	}
	// The causal twin is informational for the same reason: the gated
	// nil-observer numbers already prove the probe threading free.
	if d, err := loadDoc(args[1]); err == nil && d.Causal != nil && fresh.NsPerOp > 0 {
		fmt.Printf("causal on:   %.0f ns/op vs %.0f off (%+.1f%%, informational; DAG + critical path)\n",
			d.Causal.NsPerOp, fresh.NsPerOp, (d.Causal.NsPerOp/fresh.NsPerOp-1)*100)
	}
	// The fault-injected twin is informational too: its workload differs
	// (drops prune the flood), so only the nil-fault path gates.
	if freshFaulty, err := loadFaulty(args[1]); err == nil && freshFaulty != nil && fresh.NsPerOp > 0 {
		fmt.Printf("faults on:   %.0f ns/op vs %.0f off (%+.1f%%, informational; smaller workload)\n",
			freshFaulty.NsPerOp, fresh.NsPerOp, (freshFaulty.NsPerOp/fresh.NsPerOp-1)*100)
	}
	// The sweep pair tracks the experiment service's caching + pooled
	// Reset win; wall clock, so informational only.
	if d, err := loadDoc(args[1]); err == nil && d.SweepFresh != nil && d.SweepPooled != nil && d.SweepPooled.NsPerOp > 0 {
		fmt.Printf("sweep:       %.0f ns fresh vs %.0f pooled (%.2fx, informational; substrate cache + sim.Pool)\n",
			d.SweepFresh.NsPerOp, d.SweepPooled.NsPerOp, d.SweepFresh.NsPerOp/d.SweepPooled.NsPerOp)
	}
	fmt.Println("benchguard: allocation contract holds")
	return nil
}

// allocGate fails when fresh allocs/op exceed base by more than the
// maxRegress fraction.
func allocGate(what string, base, fresh, maxRegress float64) error {
	if r := fresh / base; r > 1+maxRegress {
		return fmt.Errorf("%s allocs/op regressed %.1f%% (> %.0f%% budget): %.0f -> %.0f; "+
			"run ./scripts/bench.sh locally and either fix the allocation or update BENCH_sim.json with justification",
			what, (r-1)*100, maxRegress*100, base, fresh)
	}
	return nil
}

func load(path string) (run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return run{}, err
	}
	var d doc
	if err := json.Unmarshal(data, &d); err != nil {
		return run{}, fmt.Errorf("%s: %w", path, err)
	}
	return d.Current, nil
}

func loadObserved(path string) (*run, error) {
	d, err := loadDoc(path)
	if err != nil {
		return nil, err
	}
	return d.Observed, nil
}

func loadFaulty(path string) (*run, error) {
	d, err := loadDoc(path)
	if err != nil {
		return nil, err
	}
	return d.Faulty, nil
}

func loadDoc(path string) (*doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	return &d, nil
}
