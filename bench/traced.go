package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"costsense/internal/serve"
)

// replicaPerKind is how many served jobs of each experiment kind the
// replica re-executes.
const replicaPerKind = 4

// traced is the traced run. The measured time goes to slices of the
// same workload against one server in the order untraced, traced,
// traced, untraced — so that a server that slows as its job table
// grows charges both sides alike, and the ratio of the two rates is the
// tracing overhead — and, for a workload that asks for it, to a slice
// against a second server started with -journal. After the HTTP
// slices, with the servers stopped, the replica re-executes a sample of
// the traced jobs in-process under spans and must reproduce each served
// result byte for byte.
func (r *run) traced(ctx context.Context) (outcome, error) {
	parts := 4
	if r.wl.journalSlice {
		parts = 6 // the journaled slice is as long as each side's two
	}
	slice := r.seconds / time.Duration(parts)
	tr := &tracer{}
	v := make(map[string]float64)

	fsyncUS, err := fsyncProbeUS(r.runDir, 200)
	if err != nil {
		return outcome{}, err
	}
	v["disk.fsync_us"] = fsyncUS

	srv, setupS, err := r.setup(ctx, r.wl.name, r.wl.journal)
	if err != nil {
		return outcome{}, err
	}
	defer srv.stop()
	before, err := r.readUsage(srv)
	if err != nil {
		return outcome{}, err
	}
	cacheBefore, err := cacheStats(ctx, srv.base)
	if err != nil {
		return outcome{}, err
	}

	// The replica's sample: the first replicaPerKind traced jobs of each
	// experiment kind keep their bodies.
	var sampleMu sync.Mutex
	sampled := make(map[string]int)
	sample := func(rec *jobRecord) bool {
		sampleMu.Lock()
		defer sampleMu.Unlock()
		sampled[rec.kind]++
		return sampled[rec.kind] <= replicaPerKind
	}
	var plain, res phaseResult // untraced and traced slices, summed
	next := r.wl.warmup
	for _, traceOn := range []bool{false, true, true, false} {
		ph := phase{wl: r.wl, seed: r.seed, base: srv.base, first: next, deadline: time.Now().Add(slice)}
		sum := &plain
		if traceOn {
			ph.tracer, ph.keepBody, sum = tr, sample, &res
		}
		out := ph.run(ctx)
		if err := firstFailure(out.jobs); err != nil {
			return outcome{}, err
		}
		if err := ctx.Err(); err != nil {
			return outcome{}, err
		}
		if len(out.jobs) == 0 {
			return outcome{}, fmt.Errorf("no job completed in a %s slice", slice)
		}
		next += len(out.jobs)
		sum.jobs = append(sum.jobs, out.jobs...)
		sum.wall += out.wall
	}
	after, err := r.readUsage(srv)
	if err != nil {
		return outcome{}, err
	}
	v["host.steal_share"], v["loadgen.cpu_share"] = r.noiseGuard(before, after)
	plainRate := float64(len(plain.jobs)) / plain.wall.Seconds()
	v["trace.overhead_ratio"] = float64(len(res.jobs)) / res.wall.Seconds() / plainRate

	cache, err := cacheStats(ctx, srv.base)
	if err != nil {
		return outcome{}, err
	}
	// Lookups since the warm-up, which pays a shared substrate's one miss.
	hits, misses := cache.Hits-cacheBefore.Hits, cache.Misses-cacheBefore.Misses
	v["serve.cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	v["serve.cache.evictions"] = float64(cache.Evictions)
	v["serve.cache.bytes"] = float64(cache.Bytes)
	if err := srv.stop(); err != nil {
		return outcome{}, err
	}

	served := next
	var resultBytes int
	for _, phaseJobs := range [][]jobRecord{plain.jobs, res.jobs} {
		for i := range phaseJobs {
			resultBytes += phaseJobs[i].bytes
		}
	}
	if err := r.journalMetrics(v, served, resultBytes); err != nil {
		return outcome{}, err
	}
	v["serve.journal.large_result_ratio"] = 0
	if r.wl.journalSlice {
		rate, err := r.journaledSlice(ctx, served, 2*slice)
		if err != nil {
			return outcome{}, err
		}
		v["serve.journal.large_result_ratio"] = rate / plainRate
	}

	// Spans of the served jobs.
	p50 := func(name string) float64 { return median(tr.durationsMS(name)) }
	p95 := func(name string) float64 { x, _ := nearestRank(tr.durationsMS(name), 95); return x }
	v["serve.queue_wait_ms.p50"], v["serve.queue_wait_ms.p95"] = p50("serve.queue_wait"), p95("serve.queue_wait")
	v["serve.run_ms.p50"], v["serve.run_ms.p95"] = p50("serve.run"), p95("serve.run")
	v["serve.http.submit_ms.p50"] = p50("serve.http.submit")
	v["serve.http.stream_tail_ms.p50"] = p50("serve.http.stream_tail")
	v["serve.http.result_fetch_ms.p50"] = p50("serve.http.result_fetch")
	v["client.verify_ms"] = p50("client.verify")
	var lines, conns, retries int
	for i := range res.jobs {
		lines += res.jobs[i].streamLines
		conns += res.jobs[i].newConns
		retries += res.jobs[i].resultRetries
	}
	v["serve.http.result_retries"] = float64(retries)
	v["serve.http.stream_lines_per_job"] = float64(lines) / float64(len(res.jobs))
	v["serve.http.new_conns_per_job"] = float64(conns) / float64(len(res.jobs))
	v["serve.http.refused"] = 0 // a refusal fails the run before this line

	if err := r.replicaMetrics(ctx, v, tr, res.jobs); err != nil {
		return outcome{}, err
	}
	v["serve.run.unattributed_ms"] = v["serve.run_ms.p50"] - (v["harness.run_pooled_ms"] + v["obs.export_ms"] + v["serve.result.encode_ms"])

	tracePath := filepath.Join(r.outDir, "trace-"+r.wl.name+".json")
	if err := tr.write(tracePath, r.wl.name, r.seed); err != nil {
		return outcome{}, err
	}
	fmt.Printf("trace %d spans written to %s\n", len(tr.spans), tracePath)
	for _, row := range tr.selfTimeTable() {
		fmt.Println("span", row)
	}
	fmt.Printf("samples untraced %d jobs in %.3f s, traced %d jobs in %.3f s, setup %.3f s\n",
		len(plain.jobs), plain.wall.Seconds(), len(res.jobs), res.wall.Seconds(), setupS)
	return outcome{attempted: len(plain.jobs) + len(res.jobs), values: v}, nil
}

// cacheStats reads GET /api/v1/cache.
func cacheStats(ctx context.Context, base string) (serve.CacheStats, error) {
	var cs serve.CacheStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/cache", nil)
	if err != nil {
		return cs, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return cs, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return cs, fmt.Errorf("GET /api/v1/cache: status %d", resp.StatusCode)
	}
	return cs, json.NewDecoder(resp.Body).Decode(&cs)
}

// journalMetrics reads the stopped server's journal: its size and
// record count per served job, its size against the result bytes it
// protects, and — on a copy, so the run's own journal is untouched —
// what serve.OpenJournal takes to replay it. All zero for a workload
// that runs without a journal.
func (r *run) journalMetrics(v map[string]float64, served, resultBytes int) error {
	for _, name := range []string{"serve.journal.bytes_per_job", "serve.journal.records_per_job", "serve.journal.write_amplification", "serve.journal.replay_ms"} {
		v[name] = 0
	}
	if !r.wl.journal {
		return nil
	}
	data, err := os.ReadFile(r.journalPath())
	if err != nil {
		return err
	}
	v["serve.journal.bytes_per_job"] = float64(len(data)) / float64(served)
	v["serve.journal.records_per_job"] = float64(bytes.Count(data, []byte("\n"))) / float64(served)
	// The warm-up's results are in the journal but were not kept, so the
	// amplification is taken per job.
	v["serve.journal.write_amplification"] = v["serve.journal.bytes_per_job"] / (float64(resultBytes) / float64(served-r.wl.warmup))
	copyPath := filepath.Join(r.runDir, "journal-replay.ndjson")
	if err := os.WriteFile(copyPath, data, 0o644); err != nil {
		return err
	}
	ms, jobs, err := replayJournal(copyPath)
	if err != nil {
		return fmt.Errorf("replaying the journal copy: %w", err)
	}
	if jobs != served {
		return fmt.Errorf("journal replay recovered %d jobs, served %d", jobs, served)
	}
	v["serve.journal.replay_ms"] = ms
	return nil
}

// journaledSlice runs one untraced slice of the workload against a
// second server started with -journal and returns its jobs per second.
func (r *run) journaledSlice(ctx context.Context, first int, slice time.Duration) (float64, error) {
	srv, _, err := r.setup(ctx, r.wl.name+"-journaled", true)
	if err != nil {
		return 0, err
	}
	defer srv.stop()
	ph := phase{wl: r.wl, seed: r.seed, base: srv.base, first: first, deadline: time.Now().Add(slice)}
	res := ph.run(ctx)
	if err := srv.stop(); err != nil {
		return 0, err
	}
	if err := firstFailure(res.jobs); err != nil {
		return 0, err
	}
	if len(res.jobs) == 0 {
		return 0, fmt.Errorf("no job completed in the journaled %s slice", slice)
	}
	return float64(len(res.jobs)) / res.wall.Seconds(), nil
}

// replicaMetrics re-executes the sampled jobs, requiring byte
// identity, benches the engine on the first spec of each kind, and
// fills in the per-layer values: the median of each sample the replica
// took.
func (r *run) replicaMetrics(ctx context.Context, v map[string]float64, tr *tracer, jobs []jobRecord) error {
	rp := newReplica(tr)
	benched := make(map[string]bool)
	for i := range jobs {
		rec := &jobs[i]
		if rec.body == nil {
			continue
		}
		if err := r.checkReplica(ctx, rp, rec); err != nil {
			return err
		}
		rec.body = nil
		if !benched[rec.kind] {
			benched[rec.kind] = true
			if err := rp.benchSim(r.wl.spec(r.seed, rec.index)); err != nil {
				return err
			}
		}
	}
	if rp.jobs == 0 {
		return fmt.Errorf("the traced slice kept no job for the replica")
	}
	fmt.Printf("replica %d jobs byte-identical to the served results, %d kinds benched\n", rp.jobs, len(benched))
	for name, xs := range rp.samples {
		v[name] = median(xs)
	}
	return nil
}
