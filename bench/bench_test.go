package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"costsense/internal/serve"
)

func TestPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1: the helper must not rely on order
	}
	if got, err := percentile(xs, 95); err != nil || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 (10 samples beyond)", got, err)
	}
	if got, err := percentile(xs, 50); err != nil || got != 100 {
		t.Errorf("p50 of 1..200 = %v, %v; want 100", got, err)
	}
	if _, err := percentile(xs[:199], 95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 200 samples has 2 beyond it and must be refused")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples must be refused")
	}
	if _, err := percentile(xs, 100); err == nil {
		t.Error("p100 must be refused")
	}
	if xs[0] != 200 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},   // overlaps a: 10..60 is covered once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},  // clipped to the parent's end
		{ID: 5, Parent: 2, Name: "a.1", Start: 10, End: 20}, // a grandchild covers nothing of root
		{ID: 6, Parent: 1, Name: "d", Start: 35, End: 50},   // wholly inside b
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 40, 2: 20, 3: 30, 4: 30, 5: 10, 6: 15} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// TestWorkloadsArePureFunctionsOfSeed: the same seed generates the same
// specs and substrates, another seed generates other run seeds, and
// one-shot-large never repeats a graph seed.
func TestWorkloadsArePureFunctionsOfSeed(t *testing.T) {
	const n = 64
	gen := func(w workload, seed int64) (specs []serve.Spec, keys []string) {
		for i := 0; i < n; i++ {
			s := w.spec(seed, i)
			if err := s.Normalize(); err != nil {
				t.Fatalf("%s job %d does not normalize: %v", w.name, i, err)
			}
			specs = append(specs, s)
			keys = append(keys, s.SubstrateKey())
		}
		return specs, keys
	}
	for _, w := range workloads {
		a, aKeys := gen(w, 1)
		b, bKeys := gen(w, 1)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(aKeys, bKeys) {
			t.Errorf("%s: seed 1 generated two different spec lists", w.name)
		}
		c, cKeys := gen(w, 2)
		distinctSubstrates := make(map[string]bool)
		for i := range a {
			distinctSubstrates[aKeys[i]] = true
			if w.name == "one-shot-large" { // the graph seed is what varies
				if a[i].Graph.Seed == c[i].Graph.Seed || aKeys[i] == cKeys[i] {
					t.Errorf("%s job %d: seeds 1 and 2 share a substrate", w.name, i)
				}
			} else if a[i].Seed == c[i].Seed {
				t.Errorf("%s job %d: seeds 1 and 2 share run seed %d", w.name, i, a[i].Seed)
			}
		}
		want := 1
		if w.name == "one-shot-large" {
			want = n
		}
		if len(distinctSubstrates) != want {
			t.Errorf("%s: %d distinct substrates in %d jobs, want %d", w.name, len(distinctSubstrates), n, want)
		}
		if w.mark <= 0 || w.warmup <= 0 || w.why == "" {
			t.Errorf("%s: incomplete workload definition", w.name)
		}
	}
}

// TestReplicaEqualsServer drives an in-process serve.New behind httptest
// through the real closed loop and requires the replica to reproduce
// every served result byte for byte: plain sweeps, a faulty sweep on the
// reliable layer, and every experiment kind the replica dispatches.
func TestReplicaEqualsServer(t *testing.T) {
	srv := serve.New(serve.Config{})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()

	wl := workload{name: "test", mark: 1, spec: func(seed int64, i int) serve.Spec {
		s := serve.Spec{
			Experiment: protocolMixKinds[i%len(protocolMixKinds)],
			Graph: serve.GraphSpec{Family: "random", N: 24, M: 60, Seed: seed,
				Weights: serve.WeightSpec{Kind: "uniform", Max: 16, Seed: 3}},
			Delay:  []string{"max", "unit", "uniform"}[i%3],
			Trials: 3,
			Seed:   seed*100 + int64(i),
		}
		if i%2 == 0 {
			s.Faults = &serve.FaultSpec{Drop: 0.05, Dup: 0.02, Downs: 1}
		}
		return s
	}}
	tr := &tracer{}
	ph := phase{wl: wl, seed: 7, base: ts.URL, count: 2 * len(protocolMixKinds), tracer: tr,
		keepBody: func(*jobRecord) bool { return true }}
	res := ph.run(context.Background())
	if err := firstFailure(res.jobs); err != nil {
		t.Fatal(err)
	}
	if len(res.jobs) != ph.count {
		t.Fatalf("phase ran %d jobs, want %d", len(res.jobs), ph.count)
	}
	r := &run{wl: wl, seed: 7}
	rp := newReplica(tr)
	for i := range res.jobs {
		if res.jobs[i].index != i {
			t.Fatalf("job records are not in index order: %d at %d", res.jobs[i].index, i)
		}
		if err := r.checkReplica(context.Background(), rp, &res.jobs[i]); err != nil {
			t.Error(err)
		}
	}
	if err := rp.benchSim(wl.spec(7, 0)); err != nil {
		t.Errorf("benchSim: %v", err)
	}

	// One root per served job and per replica job, every child inside its
	// trace, and the server-side stretches in order.
	roots := 0
	byID := make(map[int]span)
	for _, s := range tr.spans {
		byID[s.ID] = s
		if s.Parent == 0 {
			roots++
		}
	}
	if roots != 2*ph.count {
		t.Errorf("%d root spans, want %d", roots, 2*ph.count)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s of %s ends before it starts", s.Name, s.TraceID)
		}
		if p, ok := byID[s.Parent]; s.Parent != 0 && (!ok || p.TraceID != s.TraceID) {
			t.Errorf("span %s of %s has a parent outside its trace", s.Name, s.TraceID)
		}
	}

	// A served body that is cut short or answers another spec is caught.
	body := res.jobs[0].body
	if err := checkResult(wl.spec(7, 0), body[:len(body)/2], &jobRecord{}); err == nil {
		t.Error("checkResult accepted a truncated body")
	}
	if err := checkResult(wl.spec(7, 1), body, &jobRecord{}); err == nil {
		t.Error("checkResult accepted the result of another spec")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric and
// workload tables in step: a name in one and not the other would make
// the driver reject the run.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Why string }
	var bm struct {
		Command    []string
		Paths      []string
		RunSeconds int     `json:"run_seconds"`
		Workloads  []entry `json:"workloads"`
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bm.Paths, []string{"bench"}) || !reflect.DeepEqual(bm.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v paths %v", bm.Command, bm.Paths)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workload.go", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), workload.go has %q (%q)", i, bm.Workloads[i].Name, bm.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	for _, c := range []struct {
		what string
		json []entry
		defs []metricDef
	}{{"end_to_end", bm.EndToEnd, endToEndDefs}, {"per_layer", bm.PerLayer, perLayerDefs}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in main.go", c.what, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], main.go has %s [%s]", c.what, i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}
