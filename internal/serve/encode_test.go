package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"costsense/internal/graph"
	"costsense/internal/harness"
	"costsense/internal/obs"
	"costsense/internal/sim"
)

// oracleResult is the contract the direct encoder is held to: the
// Result schema through encoding/json, with the metrics export as the
// RawMessage member it has always been.
func oracleResult(tb testing.TB, spec Spec, sub SubstrateInfo, agg Aggregate, rows []TrialRow, metrics *obs.Metrics) []byte {
	tb.Helper()
	var export bytes.Buffer
	enc := json.NewEncoder(&export)
	enc.SetIndent("", "  ")
	if err := enc.Encode(metrics.Snapshot()); err != nil {
		tb.Fatal(err)
	}
	b, err := json.MarshalIndent(Result{
		Spec: spec, Substrate: sub, Aggregate: agg, Trials: rows, Metrics: export.Bytes(),
	}, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// requireSameBytes fails with the neighbourhood of the first difference.
func requireSameBytes(tb testing.TB, got, want []byte) {
	tb.Helper()
	if bytes.Equal(got, want) {
		return
	}
	at := 0
	for at < len(got) && at < len(want) && got[at] == want[at] {
		at++
	}
	around := func(b []byte) []byte { return b[max(0, at-60):min(len(b), at+60)] }
	tb.Fatalf("direct encoding (%d B) differs from encoding/json (%d B) at byte %d\n got  %q\n want %q",
		len(got), len(want), at, around(got), around(want))
}

// soloWorkers starts a trial worker set of the server's shape for one
// test's own sweeps, closed with the test.
func soloWorkers(tb testing.TB) *harness.Workers[*trialWorker] {
	tb.Helper()
	ws := harness.StartWorkers(context.Background(), runtime.GOMAXPROCS(0), newTrialWorker)
	tb.Cleanup(ws.Close)
	return ws
}

// sweepParts runs a spec's sweep in-process and returns what the
// encoder gets.
func sweepParts(tb testing.TB, spec Spec) (Spec, SubstrateInfo, Aggregate, []TrialRow, *obs.Metrics) {
	tb.Helper()
	if err := spec.Normalize(); err != nil {
		tb.Fatal(err)
	}
	sub := buildSubstrate(spec.SubstrateKey(), spec.Graph, spec.Shards)
	rows, metrics, err := runSweep(context.Background(), soloWorkers(tb), spec, sub, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return spec, sub.info(), aggregate(rows), rows, metrics
}

// TestResultEncodeMatchesEncodingJSON is the oracle property: for every
// experiment kind, delay model, fault setting and a sparse, a random
// and a dense topology, the direct encoder writes exactly the bytes
// json.MarshalIndent writes for the same Result.
func TestResultEncodeMatchesEncodingJSON(t *testing.T) {
	graphs := map[string]GraphSpec{
		"ring":     {Family: "ring", N: 12, Weights: WeightSpec{Kind: "uniform", Max: 9, Seed: 3}},
		"random":   {Family: "random", N: 24, M: 60, Seed: 5, Weights: WeightSpec{Kind: "uniform", Max: 16, Seed: 5}},
		"complete": {Family: "complete", N: 9, Weights: WeightSpec{Kind: "pow2", Exp: 5, Seed: 2}},
	}
	kinds := make([]string, 0, len(experimentKinds))
	for k := range experimentKinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		for _, delay := range []string{"max", "unit", "uniform"} {
			for _, faults := range []bool{false, true} {
				for _, family := range []string{"ring", "random", "complete"} {
					spec := Spec{Experiment: kind, Graph: graphs[family], Delay: delay, Trials: 3, Seed: 11}
					if faults {
						spec.Faults = &FaultSpec{Drop: 0.05, Dup: 0.03, Downs: 1}
					}
					t.Run(fmt.Sprintf("%s/%s/faults=%v/%s", kind, delay, faults, family), func(t *testing.T) {
						spec, sub, agg, rows, metrics := sweepParts(t, spec)
						got, err := appendResult([]byte("head"), spec, sub, agg, rows, metrics)
						if err != nil {
							t.Fatal(err)
						}
						requireSameBytes(t, got[4:], oracleResult(t, spec, sub, agg, rows, metrics))
						if faults && !bytes.Contains(got, []byte(`"faults": {`)) {
							t.Fatal("faulty sweep encoded no fault section")
						}
					})
				}
			}
		}
	}
}

// fuzzInput deals a fuzz input out as the values the synthetic rows are
// made of; an exhausted input deals zeros.
type fuzzInput struct{ data []byte }

func (in *fuzzInput) byte() byte {
	if len(in.data) == 0 {
		return 0
	}
	b := in.data[0]
	in.data = in.data[1:]
	return b
}

// int deals a value that is often zero (the omitempty case), often
// small or negative, and sometimes wide.
func (in *fuzzInput) int() int64 {
	switch b := in.byte(); b % 4 {
	case 0:
		return 0
	case 1:
		return int64(int8(in.byte()))
	case 2:
		return int64(in.byte())<<8 | int64(in.byte())
	}
	var v int64
	for i := 0; i < 8; i++ {
		v = v<<8 | int64(in.byte())
	}
	return v
}

// fuzzNames are class names encoding/json has to work on: quotes and
// backslashes, the HTML set, the JS line separators, control bytes,
// invalid UTF-8.
var fuzzNames = []string{
	"proto", "ack", "", "a\"b", "back\\slash", "<script>&", "\u2028\u2029", "tab\tnl\n\x00\x1f\x7f", "bad\xff\xc0utf8", "ünï",
}

// name deals one of fuzzNames or a string of raw input bytes.
func (in *fuzzInput) name() string {
	b := in.byte()
	if int(b) < len(fuzzNames) {
		return fuzzNames[b]
	}
	n := int(b % 6)
	s := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, in.byte())
	}
	return string(s)
}

// rows deals a trial-row slice: nil, empty, or up to four rows whose
// by_class is nil, empty or up to three classes.
func (in *fuzzInput) rows() []TrialRow {
	n := int(in.byte() % 6)
	if n == 5 {
		return nil
	}
	rows := make([]TrialRow, n)
	for i := range rows {
		rows[i] = TrialRow{
			Trial: int(in.int()), Seed: in.int(), Messages: in.int(), Comm: in.int(), Time: in.int(), Events: in.int(),
			Dropped: in.int(), Duplicated: in.int(), DeadLetters: in.int(), Timers: in.int(),
			UsedWeight: in.int(), Spans: in.byte()%2 == 1,
		}
		if k := int(in.byte() % 5); k < 4 {
			rows[i].ByClass = make([]ClassRow, k)
			for c := range rows[i].ByClass {
				rows[i].ByClass[c] = ClassRow{Class: in.name(), Messages: in.int(), Comm: in.int()}
			}
		}
	}
	return rows
}

// metrics deals a metrics observer driven through its probe callbacks,
// so the export sees dup-only classes (a nil comm_series), undelivered
// ones (a nil deliveries_series), drops, crashes and outages.
func (in *fuzzInput) metrics() *obs.Metrics {
	g := graph.Ring(3+int(in.byte()%4), graph.UnitWeights())
	m := obs.NewMetrics(g)
	sends := int64(0)
	for ops := int(in.byte() % 24); ops > 0; ops-- {
		edge := graph.EdgeID(int(in.byte()) % g.M())
		switch in.byte() % 6 {
		case 0, 1:
			sends++
			t := in.int()
			m.OnSend(sim.SendEvent{
				Time: t, Arrive: t + in.int(), Delay: in.int(), Seq: sends, W: in.int(),
				Edge: edge, Class: sim.Class(in.name()), Dup: in.byte()%4 == 0,
			}, nil)
		case 2:
			if sends > 0 {
				m.OnDeliver(sim.DeliverEvent{Time: in.int(), Seq: 1 + int64(in.byte())%sends, Edge: edge}, nil)
			}
		case 3:
			m.OnDrop(sim.DropEvent{Edge: edge, Reason: sim.DropReason(1 + in.byte()%3)}, nil)
		case 4:
			m.OnCrash(graph.NodeID(in.byte()%3), in.int())
		case 5:
			m.OnLinkDown(edge, in.int(), in.int())
		}
	}
	if in.byte()%2 == 1 {
		m.OnQuiesce(&sim.Stats{FinishTime: in.int()})
	}
	return m
}

// FuzzResultEncode holds the direct encoder to encoding/json on
// synthetic results no sweep would produce. The seed corpus is
// committed under testdata/fuzz/FuzzResultEncode.
func FuzzResultEncode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 3, 6, 2, 0, 0, 1, 3, 0, 9, 1, 8, 1, 1})
	f.Add(bytes.Repeat([]byte{1, 0xff, 3, 7}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzInput{data: data}
		spec := Spec{Experiment: in.name(), Graph: GraphSpec{Family: in.name(), N: int(in.int())}, Delay: in.name(), Seed: in.int()}
		if in.byte()%2 == 1 {
			spec.Faults = &FaultSpec{Drop: float64(in.byte()) / 256, Crashes: int(in.int())}
		}
		sub := SubstrateInfo{Key: in.name(), N: int(in.int()), TotalWeight: in.int()}
		agg := Aggregate{Trials: int(in.int()), SumComm: in.int(), AllSpan: in.byte()%2 == 1}
		rows, metrics := in.rows(), in.metrics()
		got, err := appendResult(nil, spec, sub, agg, rows, metrics)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBytes(t, got, oracleResult(t, spec, sub, agg, rows, metrics))
	})
}

// resultShapes are the benchmark's four workload shapes (bench/
// workload.go), as the specs their first job submits.
func resultShapes() map[string]Spec {
	small := GraphSpec{Family: "random", N: 120, M: 360, Seed: 9, Weights: WeightSpec{Kind: "uniform", Max: 64, Seed: 9}}
	return map[string]Spec{
		"sweep-hot": {Experiment: "flood", Delay: "max", Trials: 64, Seed: 1,
			Graph: GraphSpec{Family: "random", N: 1000, M: 3000, Seed: 21, Weights: WeightSpec{Kind: "uniform", Max: 64, Seed: 21}}},
		"one-shot-large": {Experiment: "flood", Trials: 1, Seed: 1,
			Graph: GraphSpec{Family: "random", N: 3200, M: 12800, Seed: 100001, Weights: WeightSpec{Kind: "uniform", Max: 64, Seed: 5}}},
		"tiny-durable": {Experiment: "flood", Trials: 1, Seed: 1, Graph: GraphSpec{Family: "ring", N: 128}},
		"protocol-mix": {Experiment: "dfs", Delay: "uniform", Trials: 8, Seed: 33, Graph: small},
	}
}

// TestResultEncodeAllocsIndependentOfSize: encoding into a warmed
// scratch buffer costs the same few allocations — the three headers
// through encoding/json and the class ordering — whether the result has
// one trial on 128 edges or 64 trials, or 12 800 edges.
func TestResultEncodeAllocsIndependentOfSize(t *testing.T) {
	shapes := resultShapes()
	allocs := make(map[string]float64)
	for _, name := range []string{"tiny-durable", "sweep-hot", "one-shot-large"} {
		spec, sub, agg, rows, metrics := sweepParts(t, shapes[name])
		buf, err := appendResult(nil, spec, sub, agg, rows, metrics)
		if err != nil {
			t.Fatal(err)
		}
		allocs[name] = testing.AllocsPerRun(5, func() {
			if buf, err = appendResult(buf[:0], spec, sub, agg, rows, metrics); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The headers' share moves by a few with the state of encoding/json's
	// buffer pool (and under -race); one allocation per row would move it
	// by 64 or by 12 800.
	lo, hi := allocs["tiny-durable"], allocs["tiny-durable"]
	for _, a := range allocs {
		lo, hi = min(lo, a), max(hi, a)
	}
	if hi-lo > 8 {
		t.Fatalf("allocations per encode grow with the result: %v", allocs)
	}
	if hi > 48 {
		t.Fatalf("%v allocations per encode; three small headers and a class ordering should not need that many", hi)
	}
}

// BenchmarkResultEncode: the reflection pipeline the server used to run
// (Snapshot → Encoder → RawMessage → MarshalIndent) against the direct
// encoder into a reused buffer, on the four workload shapes.
//
//	go test -run '^$' -bench ResultEncode -benchmem ./internal/serve
func BenchmarkResultEncode(b *testing.B) {
	shapes := resultShapes()
	for _, name := range []string{"sweep-hot", "one-shot-large", "tiny-durable", "protocol-mix"} {
		spec, sub, agg, rows, metrics := sweepParts(b, shapes[name])
		b.Run(name+"/oracle", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.SetBytes(int64(len(oracleResult(b, spec, sub, agg, rows, metrics))))
			}
		})
		b.Run(name+"/direct", func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			var err error
			for i := 0; i < b.N; i++ {
				if buf, err = appendResult(buf[:0], spec, sub, agg, rows, metrics); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(buf)))
			}
		})
	}
}
