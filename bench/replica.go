package main

// The replica: every call the benchmark makes into the program's
// layers in-process lives in this file, so the coupling to internal
// entry points is visible in one place. It re-executes a served spec
// through public functions only, in the order serve's runJob/runSpec
// do, under spans, and must reproduce the served result byte for byte
// — that identity is what licenses reading the replica's spans as the
// server's. The unexported glue it restates (delay lookup, experiment
// dispatch, trial-row flattening) is kept honest by the same check.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"costsense/internal/basic"
	"costsense/internal/connect"
	"costsense/internal/graph"
	"costsense/internal/harness"
	"costsense/internal/mst"
	"costsense/internal/obs"
	"costsense/internal/reliable"
	"costsense/internal/serve"
	"costsense/internal/sim"
)

// replica carries its own substrate table, standing in for
// serve.Cache: a spec whose substrate an earlier replica job built
// reuses it, as a cache hit would.
type replica struct {
	tr         *tracer
	substrates map[string]*replicaSubstrate
	jobs       int
	// samples collects, per per-layer metric name, one sample per replica
	// job (or per benched kind for the sim.* and obs.overhead_ratio
	// entries); the reported value is the median.
	samples map[string][]float64
}

type replicaSubstrate struct {
	g           *graph.Graph
	totalWeight int64
	mstWeight   int64
}

func newReplica(tr *tracer) *replica {
	return &replica{tr: tr, substrates: make(map[string]*replicaSubstrate), samples: make(map[string][]float64)}
}

func (rp *replica) sample(name string, v float64) {
	rp.samples[name] = append(rp.samples[name], v)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// run re-executes raw as the server would and returns the result
// bytes.
func (rp *replica) run(ctx context.Context, raw serve.Spec, traceID string) ([]byte, error) {
	jobStart := time.Now()
	root := rp.tr.add(0, traceID, "replica.job", jobStart.UnixNano(), jobStart.UnixNano())
	defer func() { rp.tr.setEnd(root, time.Now().UnixNano()) }()

	// serve.spec: what handleSubmit does with a request body.
	wire, err := json.Marshal(raw)
	if err != nil {
		return nil, err
	}
	var spec serve.Spec
	var key string
	normalizeMS := rp.tr.timed(root, traceID, "serve.spec.normalize", func() {
		dec := json.NewDecoder(bytes.NewReader(wire))
		dec.DisallowUnknownFields()
		if err = dec.Decode(&spec); err != nil {
			return
		}
		if err = spec.Normalize(); err != nil {
			return
		}
		key = spec.SubstrateKey()
	})
	if err != nil {
		return nil, fmt.Errorf("replica: spec: %w", err)
	}
	rp.sample("serve.spec.normalize_us", 1000*normalizeMS)
	if spec.Shards > 1 {
		return nil, fmt.Errorf("replica: sharded specs are not modelled")
	}

	// serve.cache miss path: graph, 𝓔 and 𝓥.
	sub, hit := rp.substrates[key]
	if !hit {
		sub = &replicaSubstrate{}
		rp.sample("graph.build_ms", rp.tr.timed(root, traceID, "graph.build", func() { sub.g = spec.Graph.Build() }))
		rp.sample("graph.mst_weight_ms", rp.tr.timed(root, traceID, "graph.mst_weight", func() {
			sub.totalWeight = sub.g.TotalWeight()
			sub.mstWeight = graph.MSTWeight(sub.g)
		}))
		rp.substrates[key] = sub
	}
	g := sub.g

	// serve.run: the sweep, trial 0 observed.
	plan := faultPlan(spec, g)
	metrics := obs.NewMetrics(g)
	type timedRow struct {
		row        serve.TrialRow
		start, end int64
	}
	t := time.Now()
	rows, err := harness.RunIndexedPooled(ctx, spec.Trials,
		func() *sim.Pool { return sim.NewPool(2) },
		func(_ context.Context, pool *sim.Pool, i int) (timedRow, error) {
			var o sim.Observer
			if i == 0 {
				o = metrics
			}
			start := time.Now().UnixNano()
			row, err := runTrial(spec, g, plan, pool, i, o)
			return timedRow{row, start, time.Now().UnixNano()}, err
		}, nil)
	runPooledMS := msSince(t)
	if err != nil {
		return nil, fmt.Errorf("replica: sweep: %w", err)
	}
	pooled := rp.tr.add(root, traceID, "harness.run_pooled", t.UnixNano(), time.Now().UnixNano())
	var trialNS int64
	res := serve.Result{
		Spec: spec,
		Substrate: serve.SubstrateInfo{Key: key, N: g.N(), M: g.M(),
			TotalWeight: sub.totalWeight, MSTWeight: sub.mstWeight},
		Aggregate: serve.Aggregate{Trials: len(rows), AllSpan: true},
		Trials:    make([]serve.TrialRow, len(rows)),
	}
	for i, r := range rows {
		rp.tr.add(pooled, traceID, "sim.trial", r.start, r.end)
		trialNS += r.end - r.start
		res.Trials[i] = r.row
		res.Aggregate.SumMessages += r.row.Messages
		res.Aggregate.SumComm += r.row.Comm
		res.Aggregate.SumEvents += r.row.Events
		res.Aggregate.MaxTime = max(res.Aggregate.MaxTime, r.row.Time)
		res.Aggregate.AllSpan = res.Aggregate.AllSpan && r.row.Spans
	}
	workers := min(runtime.GOMAXPROCS(0), spec.Trials)
	rp.sample("harness.run_pooled_ms", runPooledMS)
	rp.sample("harness.parallel_efficiency", float64(trialNS)/1e6/(float64(workers)*runPooledMS))

	var export bytes.Buffer
	exportMS := rp.tr.timed(root, traceID, "obs.export", func() { err = metrics.WriteJSON(&export) })
	if err != nil {
		return nil, fmt.Errorf("replica: metrics export: %w", err)
	}
	rp.sample("obs.export_ms", exportMS)
	rp.sample("obs.export_bytes", float64(export.Len()))
	res.Metrics = json.RawMessage(export.Bytes())

	var body []byte
	encodeMS := rp.tr.timed(root, traceID, "serve.result.encode", func() { body, err = json.MarshalIndent(&res, "", "  ") })
	if err != nil {
		return nil, fmt.Errorf("replica: result encode: %w", err)
	}
	body = append(body, '\n')
	rp.sample("serve.result.encode_ms", encodeMS)
	rp.sample("serve.result.bytes", float64(len(body)))
	rp.jobs++
	return body, nil
}

// faultPlan derives the sweep's one fault plan, as runSpec does.
func faultPlan(spec serve.Spec, g *graph.Graph) sim.FaultPlan {
	var plan sim.FaultPlan
	if f := spec.Faults; f != nil {
		plan = sim.RandomFaultPlan(g, f.Seed, f.Drop, f.Dup, f.Crashes, f.Downs, f.Horizon)
	}
	return plan
}

// runTrial runs trial i of a normalized spec and flattens its Stats
// into the result row. pool and o may be nil.
func runTrial(spec serve.Spec, g *graph.Graph, plan sim.FaultPlan, pool *sim.Pool, i int, o sim.Observer) (serve.TrialRow, error) {
	var delay sim.DelayModel = sim.DelayMax{}
	switch spec.Delay {
	case "unit":
		delay = sim.DelayUnit{}
	case "uniform":
		delay = sim.DelayUniform{}
	}
	seed := spec.Seed + int64(i)
	opts := []sim.Option{sim.WithDelay(delay), sim.WithSeed(seed)}
	if pool != nil {
		opts = append(opts, sim.WithPool(pool))
	}
	if spec.EventLimit > 0 {
		opts = append(opts, sim.WithEventLimit(spec.EventLimit))
	}
	if spec.Faults != nil {
		rel, _ := reliable.Install(reliable.Config{})
		opts = append(opts, sim.WithFaults(plan), rel)
	}
	if o != nil {
		opts = append(opts, sim.WithObserver(o))
	}
	st, err := runExperiment(spec.Experiment, g, graph.NodeID(spec.Root), opts)
	if err != nil {
		return serve.TrialRow{}, fmt.Errorf("trial %d (seed %d): %w", i, seed, err)
	}
	row := serve.TrialRow{
		Trial: i, Seed: seed,
		Messages: st.Messages, Comm: st.Comm, Time: st.FinishTime, Events: st.Events,
		Dropped: st.Dropped, Duplicated: st.Duplicated, DeadLetters: st.DeadLetters, Timers: st.Timers,
		UsedWeight: st.UsedWeight(g), Spans: st.UsedSpans(g),
		ByClass: make([]serve.ClassRow, 0, len(st.ByClass)),
	}
	for c, cs := range st.ByClass {
		row.ByClass = append(row.ByClass, serve.ClassRow{Class: string(c), Messages: cs.Messages, Comm: cs.Comm})
	}
	sort.Slice(row.ByClass, func(a, b int) bool { return row.ByClass[a].Class < row.ByClass[b].Class })
	return row, nil
}

// runExperiment dispatches an experiment kind to its protocol runner.
func runExperiment(kind string, g *graph.Graph, root graph.NodeID, opts []sim.Option) (*sim.Stats, error) {
	switch kind {
	case "flood":
		r, err := basic.RunFlood(g, root, opts...)
		if err != nil {
			return nil, err
		}
		return r.Stats, nil
	case "dfs":
		r, err := basic.RunDFS(g, root, opts...)
		if err != nil {
			return nil, err
		}
		return r.Stats, nil
	case "mstcentr":
		r, err := basic.RunMSTCentr(g, root, opts...)
		if err != nil {
			return nil, err
		}
		return r.Stats, nil
	case "sptcentr":
		r, err := basic.RunSPTCentr(g, root, opts...)
		if err != nil {
			return nil, err
		}
		return r.Stats, nil
	case "conhybrid":
		r, err := connect.RunCONHybrid(g, root, opts...)
		if err != nil {
			return nil, err
		}
		return r.Stats, nil
	case "ghs":
		r, err := mst.RunGHS(g, opts...)
		if err != nil {
			return nil, err
		}
		return r.Stats, nil
	case "mstfast":
		r, err := mst.RunMSTFast(g, opts...)
		if err != nil {
			return nil, err
		}
		return r.Stats, nil
	case "msthybrid":
		r, err := mst.RunMSTHybrid(g, root, opts...)
		if err != nil {
			return nil, err
		}
		return r.Result.Stats, nil
	}
	return nil, fmt.Errorf("unknown experiment %q", kind)
}

// simBenchTrials is the length of each one-worker loop; the seeds are
// the spec's first simBenchTrials trial seeds whatever its sweep size.
const simBenchTrials = 8

// benchSim times raw's trials on one goroutine: a pooled loop with
// allocation counts from runtime.MemStats deltas, the same seeds on
// fresh networks, and trial 0 with and without the metrics observer.
// The substrate must already be in the replica's table.
func (rp *replica) benchSim(raw serve.Spec) error {
	spec := raw
	if err := spec.Normalize(); err != nil {
		return err
	}
	sub, ok := rp.substrates[spec.SubstrateKey()]
	if !ok {
		return fmt.Errorf("replica: benchSim before run on substrate %s", spec.SubstrateKey())
	}
	g, plan := sub.g, faultPlan(spec, sub.g)
	pool := sim.NewPool(2)
	timeTrial := func(pool *sim.Pool, i int, o sim.Observer) (ms float64, events int64, err error) {
		t := time.Now()
		row, err := runTrial(spec, g, plan, pool, i, o)
		return msSince(t), row.Events, err
	}
	if _, _, err := timeTrial(pool, 0, nil); err != nil { // park a network in the pool
		return err
	}

	var before, after runtime.MemStats
	pooledMS := make([]float64, 0, simBenchTrials) // sized up front: the loop below is inside the MemStats window
	var freshMS []float64
	var events int64
	runtime.ReadMemStats(&before)
	for i := 0; i < simBenchTrials; i++ {
		ms, ev, err := timeTrial(pool, i, nil)
		if err != nil {
			return err
		}
		pooledMS = append(pooledMS, ms)
		events += ev
	}
	runtime.ReadMemStats(&after)
	for i := 0; i < simBenchTrials; i++ {
		ms, _, err := timeTrial(nil, i, nil)
		if err != nil {
			return err
		}
		freshMS = append(freshMS, ms)
	}
	var plainMS, observedMS []float64
	for rep := 0; rep < 5; rep++ {
		ms, _, err := timeTrial(pool, 0, nil)
		if err != nil {
			return err
		}
		plainMS = append(plainMS, ms)
		ms, _, err = timeTrial(pool, 0, obs.NewMetrics(g))
		if err != nil {
			return err
		}
		observedMS = append(observedMS, ms)
	}
	var pooledTotal float64
	for _, ms := range pooledMS {
		pooledTotal += ms
	}
	rp.sample("sim.trial_ms", median(pooledMS)) // pooled trial wall
	rp.sample("sim.events_per_s", float64(events)/(pooledTotal/1000))
	rp.sample("sim.allocs_per_trial", float64(after.Mallocs-before.Mallocs)/simBenchTrials)
	rp.sample("sim.bytes_per_trial", float64(after.TotalAlloc-before.TotalAlloc)/simBenchTrials)
	rp.sample("sim.pool_reuse_ratio", median(pooledMS)/median(freshMS)) // same seeds, pooled ÷ fresh networks
	rp.sample("obs.overhead_ratio", median(observedMS)/median(plainMS)) // trial 0 observed ÷ plain
	return nil
}

// replayJournal times serve.OpenJournal on a journal file, which is
// the decode-and-validate cost a restart pays before it serves.
func replayJournal(path string) (ms float64, jobs int, err error) {
	t := time.Now()
	jl, rec, err := serve.OpenJournal(path)
	ms = msSince(t)
	if err != nil {
		return 0, 0, err
	}
	return ms, len(rec.Jobs), jl.Close()
}
