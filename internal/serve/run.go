package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"costsense/internal/basic"
	"costsense/internal/connect"
	"costsense/internal/graph"
	"costsense/internal/harness"
	"costsense/internal/jsonw"
	"costsense/internal/mst"
	"costsense/internal/obs"
	"costsense/internal/reliable"
	"costsense/internal/sim"
)

// ClassRow is one message class's cost share in a trial, in class-name
// order.
type ClassRow struct {
	Class    string `json:"class"`
	Messages int64  `json:"messages"`
	Comm     int64  `json:"comm"`
}

// TrialRow is the scalar outcome of one trial — everything in
// sim.Stats that serializes deterministically, keyed by trial index.
type TrialRow struct {
	Trial       int        `json:"trial"`
	Seed        int64      `json:"seed"`
	Messages    int64      `json:"messages"`
	Comm        int64      `json:"comm"`
	Time        int64      `json:"time"`
	Events      int64      `json:"events"`
	Dropped     int64      `json:"dropped,omitempty"`
	Duplicated  int64      `json:"duplicated,omitempty"`
	DeadLetters int64      `json:"dead_letters,omitempty"`
	Timers      int64      `json:"timers,omitempty"`
	UsedWeight  int64      `json:"used_weight"`
	Spans       bool       `json:"spans"`
	ByClass     []ClassRow `json:"by_class"`
}

// SubstrateInfo identifies the substrate a result ran on.
type SubstrateInfo struct {
	Key         string `json:"key"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	TotalWeight int64  `json:"total_weight"` // 𝓔
	MSTWeight   int64  `json:"mst_weight"`   // 𝓥
}

// Aggregate sums the sweep. All fields are order-independent
// reductions over the trial rows, so they are deterministic even
// though trials complete in scheduler order.
type Aggregate struct {
	Trials      int   `json:"trials"`
	SumMessages int64 `json:"sum_messages"`
	SumComm     int64 `json:"sum_comm"`
	MaxTime     int64 `json:"max_time"`
	SumEvents   int64 `json:"sum_events"`
	AllSpan     bool  `json:"all_span"`
}

// Result is a finished job's payload: the normalized spec it ran, the
// substrate identity, per-trial rows in index order, the sweep
// aggregate, and the full obs metrics export of trial 0. It is a pure
// function of the spec — resubmitting a spec returns byte-identical
// bytes whether or not the substrate was cached.
//
// Result and the row types above are the wire schema, what clients
// decode into, and the oracle: the server itself writes the document
// with appendResult, whose bytes the tests (and the benchmark's
// replica) hold equal to json.MarshalIndent of this struct.
type Result struct {
	Spec      Spec            `json:"spec"`
	Substrate SubstrateInfo   `json:"substrate"`
	Aggregate Aggregate       `json:"aggregate"`
	Trials    []TrialRow      `json:"trials"`
	Metrics   json.RawMessage `json:"metrics"`
}

// delayModel resolves a normalized delay name.
func delayModel(name string) sim.DelayModel {
	switch name {
	case "unit":
		return sim.DelayUnit{}
	case "uniform":
		return sim.DelayUniform{}
	}
	return sim.DelayMax{}
}

// runExperiment dispatches a normalized experiment kind and returns
// the run's Stats.
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
	return nil, fmt.Errorf("serve: unknown experiment %q", kind)
}

// newTrialRow flattens a run's Stats into a TrialRow. It reads
// everything it needs immediately — with pooled networks the *Stats is
// invalidated by the worker's next trial.
func newTrialRow(trial int, seed int64, g *graph.Graph, st *sim.Stats) TrialRow {
	row := TrialRow{
		Trial:       trial,
		Seed:        seed,
		Messages:    st.Messages,
		Comm:        st.Comm,
		Time:        st.FinishTime,
		Events:      st.Events,
		Dropped:     st.Dropped,
		Duplicated:  st.Duplicated,
		DeadLetters: st.DeadLetters,
		Timers:      st.Timers,
		UsedWeight:  st.UsedWeight(g),
		Spans:       st.UsedSpans(g),
	}
	classes := make([]string, 0, len(st.ByClass))
	//costsense:nondet-ok collects keys only; sorted before any output below
	for c := range st.ByClass {
		classes = append(classes, string(c))
	}
	sort.Strings(classes)
	row.ByClass = make([]ClassRow, 0, len(classes))
	for _, c := range classes {
		cs := st.ByClass[sim.Class(c)]
		row.ByClass = append(row.ByClass, ClassRow{Class: c, Messages: cs.Messages, Comm: cs.Comm})
	}
	return row
}

// appendTrialRow appends one TrialRow as an array element at depth.
//
//costsense:hotpath
func appendTrialRow(dst []byte, depth int, r *TrialRow) []byte {
	f := depth + 1
	dst = jsonw.Elem(dst, depth)
	dst = jsonw.Int(dst, f, "trial", int64(r.Trial))
	dst = jsonw.Int(dst, f, "seed", r.Seed)
	dst = jsonw.Int(dst, f, "messages", r.Messages)
	dst = jsonw.Int(dst, f, "comm", r.Comm)
	dst = jsonw.Int(dst, f, "time", r.Time)
	dst = jsonw.Int(dst, f, "events", r.Events)
	if r.Dropped != 0 {
		dst = jsonw.Int(dst, f, "dropped", r.Dropped)
	}
	if r.Duplicated != 0 {
		dst = jsonw.Int(dst, f, "duplicated", r.Duplicated)
	}
	if r.DeadLetters != 0 {
		dst = jsonw.Int(dst, f, "dead_letters", r.DeadLetters)
	}
	if r.Timers != 0 {
		dst = jsonw.Int(dst, f, "timers", r.Timers)
	}
	dst = jsonw.Int(dst, f, "used_weight", r.UsedWeight)
	dst = jsonw.Bool(dst, f, "spans", r.Spans)
	if r.ByClass == nil {
		dst = jsonw.Null(dst, f, "by_class")
	} else {
		dst = jsonw.Open(dst, f, "by_class", '[')
		for i := range r.ByClass {
			dst = appendClassRow(dst, f+1, &r.ByClass[i])
		}
		dst = jsonw.Close(dst, f, ']')
	}
	dst = jsonw.Close(dst, depth, '}')
	return dst
}

// appendClassRow appends one ClassRow as an array element at depth.
//
//costsense:hotpath
func appendClassRow(dst []byte, depth int, c *ClassRow) []byte {
	dst = jsonw.Elem(dst, depth)
	dst = jsonw.String(dst, depth+1, "class", c.Class)
	dst = jsonw.Int(dst, depth+1, "messages", c.Messages)
	dst = jsonw.Int(dst, depth+1, "comm", c.Comm)
	dst = jsonw.Close(dst, depth, '}')
	return dst
}

// appendResult appends the result document — byte for byte what
// json.MarshalIndent(Result{...}, "", "  ") writes for the same parts
// with metrics' export as Result.Metrics — in one pass: the three small
// headers go through encoding/json, the trial rows and the metrics
// export (where the bytes are) through the direct appenders.
func appendResult(dst []byte, spec Spec, sub SubstrateInfo, agg Aggregate, rows []TrialRow, metrics *obs.Metrics) ([]byte, error) {
	dst = append(dst, '{')
	for _, h := range []struct {
		name string
		v    any
	}{{"spec", spec}, {"substrate", sub}, {"aggregate", agg}} {
		b, err := json.MarshalIndent(h.v, jsonw.Prefix(1), "  ")
		if err != nil {
			return nil, fmt.Errorf("serve: encoding result %s: %w", h.name, err)
		}
		dst = jsonw.Raw(dst, 1, h.name, b)
	}
	if rows == nil {
		dst = jsonw.Null(dst, 1, "trials")
	} else {
		dst = jsonw.Open(dst, 1, "trials", '[')
		for i := range rows {
			dst = appendTrialRow(dst, 2, &rows[i])
		}
		dst = jsonw.Close(dst, 1, ']')
	}
	dst = jsonw.Key(dst, 1, "metrics")
	dst = metrics.AppendJSON(dst, 1)
	return append(dst, "\n}"...), nil
}

// runSpec executes a normalized spec's sweep on a cached substrate,
// its trials on ws, and appends its result document to dst.
func runSpec(ctx context.Context, ws *harness.Workers[*trialWorker], spec Spec, sub *Substrate, sink harness.Sink, dst []byte) ([]byte, error) {
	rows, metrics, err := runSweep(ctx, ws, spec, sub, sink)
	if err != nil {
		return nil, err
	}
	return appendResult(dst, spec, sub.info(), aggregate(rows), rows, metrics)
}

// info identifies the substrate in a result.
func (s *Substrate) info() SubstrateInfo {
	return SubstrateInfo{
		Key: s.key, N: s.g.N(), M: s.g.M(),
		TotalWeight: s.totalWeight, MSTWeight: s.mstWeight,
	}
}

// aggregate reduces the trial rows to the sweep's Aggregate.
func aggregate(rows []TrialRow) Aggregate {
	agg := Aggregate{Trials: len(rows), AllSpan: true}
	for _, r := range rows {
		agg.SumMessages += r.Messages
		agg.SumComm += r.Comm
		agg.SumEvents += r.Events
		if r.Time > agg.MaxTime {
			agg.MaxTime = r.Time
		}
		agg.AllSpan = agg.AllSpan && r.Spans
	}
	return agg
}

// trialWorker is the state one trial worker owns: one sim.Pool for the
// worker's whole life. Consecutive trials on one substrate — of one
// sweep, or of successive jobs — hit the pool and reuse one network;
// a trial on a new substrate recycles the pool's least recently used
// network once the pool is full, rebinding its storage to the new
// graph. Either way the results stay byte-identical to fresh networks
// (the Reset golden contract), and a worker pins at most the pool's two
// idle networks.
type trialWorker struct {
	pool *sim.Pool
}

// newTrialWorker returns a worker's state, for harness.StartWorkers.
func newTrialWorker() *trialWorker { return &trialWorker{pool: sim.NewPool(2)} }

// trialOpts are the engine options of a sweep's trial with the given
// seed, run on pool.
func trialOpts(spec Spec, delay sim.DelayModel, plan sim.FaultPlan, seed int64, pool *sim.Pool) []sim.Option {
	opts := []sim.Option{
		sim.WithDelay(delay), sim.WithSeed(seed), sim.WithPool(pool),
	}
	if spec.EventLimit > 0 {
		opts = append(opts, sim.WithEventLimit(spec.EventLimit))
	}
	if spec.Faults != nil {
		rel, _ := reliable.Install(reliable.Config{})
		opts = append(opts, sim.WithFaults(plan), rel)
	}
	return opts
}

// runSweep runs a normalized spec's trials on ws, beside whatever other
// sweeps it is serving, and returns their rows in index order plus
// trial 0's metrics observer.
//
// Cancelling ctx (the job's deadline, or a drain deadline at shutdown)
// aborts the sweep between trials and fails the job with the context
// error.
func runSweep(ctx context.Context, ws *harness.Workers[*trialWorker], spec Spec, sub *Substrate, sink harness.Sink) ([]TrialRow, *obs.Metrics, error) {
	g := sub.Graph()
	delay := delayModel(spec.Delay)
	root := graph.NodeID(spec.Root)

	// One fault plan per sweep, derived from the substrate and the
	// fault seed — every trial faces the same adversary while the run
	// seed varies.
	var plan sim.FaultPlan
	if f := spec.Faults; f != nil {
		plan = sim.RandomFaultPlan(g, f.Seed, f.Drop, f.Dup, f.Crashes, f.Downs, f.Horizon)
	}

	metrics := obs.NewMetrics(g)
	rows, err := harness.RunOn(ctx, ws, spec.Trials,
		func(_ context.Context, w *trialWorker, i int) (TrialRow, error) {
			seed := spec.Seed + int64(i)
			opts := trialOpts(spec, delay, plan, seed, w.pool)
			if i == 0 {
				opts = append(opts, sim.WithObserver(metrics))
			}
			st, err := runExperiment(spec.Experiment, g, root, opts)
			if err != nil {
				return TrialRow{}, fmt.Errorf("trial %d (seed %d): %w", i, seed, err)
			}
			return newTrialRow(i, seed, g, st), nil
		}, sink)
	if err != nil {
		return nil, nil, err
	}
	return rows, metrics, nil
}
