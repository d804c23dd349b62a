// Command servicebench is the costsense service benchmark: it starts a
// real `costsense serve` child process, drives it over HTTP through
// internal/serve.Client as a closed loop of two clients, verifies every
// result, and prints every metric by name with its unit. With -trace 1
// it records spans from its own side of each layer boundary and prints
// the per-layer metrics instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// setupRuns is how many times a run sets the server up (exec, first
// healthy answer, warm-up jobs verified); setup_s is their median and
// the last one serves the measured phase.
const setupRuns = 3

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"job_latency_p50_ms", "ms"},
	{"job_latency_p95_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"events_per_s", "1/s"},
	{"server_cpu_ms_per_job", "ms"},
	{"server_rss_peak_mb", "MiB"},
	{"result_bytes_per_job", "B"},
}

var perLayerDefs = []metricDef{
	{"graph.build_ms", "ms"},
	{"graph.mst_weight_ms", "ms"},
	{"sim.trial_ms", "ms"},
	{"sim.events_per_s", "1/s"},
	{"sim.allocs_per_trial", "count"},
	{"sim.bytes_per_trial", "B"},
	{"sim.pool_reuse_ratio", "ratio"},
	{"obs.overhead_ratio", "ratio"},
	{"obs.export_ms", "ms"},
	{"obs.export_bytes", "B"},
	{"harness.run_pooled_ms", "ms"},
	{"harness.parallel_efficiency", "ratio"},
	{"serve.spec.normalize_us", "us"},
	{"serve.cache.hit_ratio", "ratio"},
	{"serve.cache.evictions", "count"},
	{"serve.cache.bytes", "B"},
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.queue_wait_ms.p95", "ms"},
	{"serve.run_ms.p50", "ms"},
	{"serve.run_ms.p95", "ms"},
	{"serve.result.encode_ms", "ms"},
	{"serve.result.bytes", "B"},
	{"serve.run.unattributed_ms", "ms"},
	{"serve.http.submit_ms.p50", "ms"},
	{"serve.http.stream_tail_ms.p50", "ms"},
	{"serve.http.result_fetch_ms.p50", "ms"},
	{"serve.http.stream_lines_per_job", "count"},
	{"serve.http.new_conns_per_job", "count"},
	{"serve.http.result_retries", "count"},
	{"serve.http.refused", "count"},
	{"serve.journal.bytes_per_job", "B"},
	{"serve.journal.records_per_job", "count"},
	{"serve.journal.write_amplification", "ratio"},
	{"serve.journal.replay_ms", "ms"},
	{"serve.journal.large_result_ratio", "ratio"},
	{"disk.fsync_us", "us"},
	{"host.steal_share", "ratio"},
	{"loadgen.cpu_share", "ratio"},
	{"client.verify_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// run is one invocation's configuration and what it has noticed about
// its own trustworthiness.
type run struct {
	wl      workload
	seed    int64
	seconds time.Duration
	bin     string // the costsense binary
	outDir  string // bench/out: logs and traces
	runDir  string // this run's journal and scratch files
	// noisy collects the reasons this run's numbers deserve suspicion;
	// a noisy run is still reported, and says so.
	noisy []string
}

// outcome is what a completed run reports.
type outcome struct {
	values    map[string]float64
	attempted int
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workloadName := flag.String("workload", "", "workload `name`: sweep-hot, one-shot-large, tiny-durable or protocol-mix")
	seed := flag.Int64("seed", 1, "workload `seed`; the same seed generates the same specs")
	seconds := flag.Float64("seconds", 26, "length of the measured phase in `seconds`")
	trace := flag.Int("trace", 0, "`0` prints the end-to-end metrics; 1 records spans and prints the per-layer metrics")
	bin := flag.String("bin", "", "`path` of the built costsense binary")
	outDir := flag.String("out", "bench/out", "`directory` for server logs, traces and per-run scratch files")
	keep := flag.Bool("keep", false, "keep the run's journal and scratch directory")
	flag.Parse()

	wl, err := workloadByName(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servicebench:", err)
		return 2
	}
	if *bin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "servicebench: need -bin, -seconds > 0 and -trace 0 or 1; bench/run.sh supplies -bin")
		return 2
	}
	r := &run{wl: wl, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), bin: *bin, outDir: *outDir}
	r.runDir = filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d-%d", wl.name, r.seed, os.Getpid()))
	if err := os.MkdirAll(r.runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "servicebench:", err)
		return 1
	}
	if !*keep {
		defer os.RemoveAll(r.runDir)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	h := readHostFacts(r.outDir)
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", wl.name, r.seed, r.seconds.Seconds(), *trace)
	fmt.Printf("host nproc=%d GOMAXPROCS=%d go=%s kernel=%s fs(%s)=%s clients=%d\n",
		h.nproc, h.gomaxprocs, h.goVersion, h.kernel, r.outDir, h.fsType, clients)
	if h.fsType == "tmpfs" {
		r.noisy = append(r.noisy, "artefact directory is tmpfs: fsync is free and journal numbers are not a disk's")
	}

	var out outcome
	defs := endToEndDefs
	if *trace == 1 {
		defs = perLayerDefs
		out, err = r.traced(ctx)
	} else {
		out, err = r.endToEnd(ctx)
	}
	if err != nil {
		// A run that fails a check prints no metrics.
		fmt.Fprintln(os.Stderr, "servicebench: FAILED:", err)
		return 1
	}
	return report(defs, out, r.noisy)
}

// report prints every metric by name with its unit, the noise verdict,
// and the result object as the last line.
func report(defs []metricDef, out outcome, noisy []string) int {
	type metricValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Attempted: out.attempted, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "servicebench: metric %s was not measured\n", d.name)
			return 1
		}
		fmt.Printf("%-36s %16.4f %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	if len(noisy) == 0 {
		fmt.Println("noise ok")
	}
	for _, why := range noisy {
		fmt.Println("noise NOISY:", why)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servicebench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// setup brings one server up — exec, first 200 from /healthz, the
// workload's warm-up jobs verified — and returns it with the time that
// took. The binary is built before the benchmark starts, so build time
// is not in it.
func (r *run) setup(ctx context.Context, logName string, journal bool) (*server, float64, error) {
	journalPath := ""
	if journal {
		journalPath = r.journalPath()
		if err := os.Remove(journalPath); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, 0, err
		}
	}
	t := time.Now()
	srv, err := startServer(ctx, r.bin, filepath.Join(r.outDir, logName+".log"), journalPath)
	if err != nil {
		return nil, 0, err
	}
	warm := phase{wl: r.wl, seed: r.seed, base: srv.base, count: r.wl.warmup}
	res := warm.run(ctx)
	if err := firstFailure(res.jobs); err != nil {
		srv.stop()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return srv, time.Since(t).Seconds(), nil
}

func (r *run) journalPath() string { return filepath.Join(r.runDir, "journal.ndjson") }

// usage is a reading of the CPU clocks a phase is charged against.
type usage struct {
	server, self float64 // CPU ms
	host         cpuTimes
}

func (r *run) readUsage(srv *server) (usage, error) {
	cpu, err := srv.cpuMS()
	if err != nil {
		return usage{}, err
	}
	host, err := readCPUTimes()
	if err != nil {
		return usage{}, err
	}
	return usage{server: cpu, self: selfCPUMS(), host: host}, nil
}

// maxLoadgenShare is the share of the CPU time of benchmark and server
// together that the load generator may use before the run is marked
// noisy. serve.Client's three requests per job cost 0.35–0.40 of the
// total on tiny-durable with the box far from saturated, so the guard
// sits above that; the other workloads stay under 0.2.
const maxLoadgenShare = 0.45

// noiseGuard marks the run noisy when the hypervisor took more than 2%
// of the CPU or the load generator used more than maxLoadgenShare of
// the CPU the benchmark and server used together, and returns both
// shares.
func (r *run) noiseGuard(from, to usage) (steal, loadgen float64) {
	steal = stealShare(from.host, to.host)
	if self, srv := to.self-from.self, to.server-from.server; self+srv > 0 {
		loadgen = self / (self + srv)
	}
	if steal > 0.02 {
		r.noisy = append(r.noisy, fmt.Sprintf("host.steal_share %.4f > 0.02", steal))
	}
	if loadgen > maxLoadgenShare {
		r.noisy = append(r.noisy, fmt.Sprintf("loadgen.cpu_share %.4f > %.2f", loadgen, maxLoadgenShare))
	}
	return steal, loadgen
}

// endToEnd is the untraced run: setupRuns set-ups, one measured phase
// of r.seconds, every check, and the end-to-end metrics.
func (r *run) endToEnd(ctx context.Context) (outcome, error) {
	var srv *server
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return outcome{}, err
			}
		}
		var s float64
		var err error
		if srv, s, err = r.setup(ctx, r.wl.name, r.wl.journal); err != nil {
			return outcome{}, err
		}
		setups = append(setups, s)
	}
	defer srv.stop()

	before, err := r.readUsage(srv)
	if err != nil {
		return outcome{}, err
	}
	meter := &blockMeter{srv: srv, size: r.wl.block, mark: r.wl.mark}
	meter.read()
	measured := phase{wl: r.wl, seed: r.seed, base: srv.base, first: r.wl.warmup, deadline: time.Now().Add(r.seconds),
		keepBody: func(rec *jobRecord) bool { return rec.index == r.wl.warmup },
		onJob:    meter.onJob,
	}
	res := measured.run(ctx)
	after, err := r.readUsage(srv)
	if err != nil {
		return outcome{}, err
	}
	rssAtExit, err := srv.rssPeakMiB()
	if err != nil {
		return outcome{}, err
	}
	if err := srv.stop(); err != nil {
		return outcome{}, err
	}
	if err := firstFailure(res.jobs); err != nil {
		return outcome{}, err
	}
	if err := ctx.Err(); err != nil {
		return outcome{}, err
	}
	if meter.err != nil {
		return outcome{}, meter.err
	}
	jobs := res.jobs
	if len(jobs) == 0 {
		return outcome{}, fmt.Errorf("no job completed in %s", r.seconds)
	}

	// The served bytes of the first measured job must equal an
	// in-process re-execution of its spec.
	if err := r.checkReplica(ctx, newReplica(&tracer{}), &jobs[0]); err != nil {
		return outcome{}, err
	}

	lat := make([]float64, len(jobs))
	var events int64
	retries := 0
	for i := range jobs {
		lat[i] = jobs[i].latencyMS()
		events += jobs[i].events
		retries += jobs[i].resultRetries
	}
	p95, err := percentile(lat, 95)
	if err != nil {
		r.noisy = append(r.noisy, "job_latency_p95_ms: "+err.Error())
	}
	marked, rss := jobs, rssAtExit
	if len(marked) >= r.wl.mark {
		marked, rss = marked[:r.wl.mark], meter.rssAtMark
	} else {
		r.noisy = append(r.noisy, fmt.Sprintf("only %d of the %d marked jobs completed: results_digest, result_bytes_per_job and server_rss_peak_mb cover fewer jobs than on other runs", len(jobs), r.wl.mark))
	}
	var bytes int
	for i := range marked {
		bytes += marked[i].bytes
	}
	// Whole-run figures, printed beside the block medians and used in
	// their place when the run was too short to fill minBlocks blocks.
	wall := res.wall.Seconds()
	jobsPerS, eventsPerS, cpuMSPerJob := float64(len(jobs))/wall, float64(events)/wall, (after.server-before.server)/float64(len(jobs))
	fmt.Printf("whole run %d jobs in %.3f s: %.4f jobs/s, %.1f events/s, %.4f server cpu-ms/job, failed_share 0\n", len(jobs), wall, jobsPerS, eventsPerS, cpuMSPerJob)
	if bj, be, bc := meter.blocks(); len(bj) >= minBlocks {
		jobsPerS, eventsPerS, cpuMSPerJob = median(bj), median(be), median(bc)
		fmt.Printf("blocks of %d jobs, jobs/s: %.2f\n", r.wl.block, bj)
		fmt.Printf("blocks of %d jobs, server cpu-ms/job: %.2f\n", r.wl.block, bc)
	} else {
		r.noisy = append(r.noisy, fmt.Sprintf("only %d blocks of %d jobs completed, need %d: throughput and CPU metrics are whole-run means", len(bj), r.wl.block, minBlocks))
	}
	steal, loadgen := r.noiseGuard(before, after)

	fmt.Printf("results_digest %s over measured jobs 0..%d\n", digest(marked), len(marked)-1)
	fmt.Printf("setup_s samples %.3f\n", setups)
	fmt.Printf("context host.steal_share %.4f loadgen.cpu_share %.4f server_rss_peak_mb at exit %.1f result_retries %d\n", steal, loadgen, rssAtExit, retries)
	return outcome{attempted: len(jobs), values: map[string]float64{
		"setup_s":               median(setups),
		"job_latency_p50_ms":    median(lat),
		"job_latency_p95_ms":    p95,
		"jobs_per_s":            jobsPerS,
		"events_per_s":          eventsPerS,
		"server_cpu_ms_per_job": cpuMSPerJob,
		"server_rss_peak_mb":    rss,
		"result_bytes_per_job":  float64(bytes) / float64(len(marked)),
	}}, nil
}

// minBlocks is the fewest completed blocks a median over blocks is
// taken from.
const minBlocks = 5

// checkReplica re-executes a served job's spec in-process and compares
// the bytes.
func (r *run) checkReplica(ctx context.Context, rp *replica, rec *jobRecord) error {
	if rec.body == nil {
		return fmt.Errorf("job %d: result body was not kept for the replica check", rec.index)
	}
	got, err := rp.run(ctx, r.wl.spec(r.seed, rec.index), fmt.Sprintf("replica/%s/%d", r.wl.name, rec.index))
	if err != nil {
		return err
	}
	if string(got) != string(rec.body) {
		return fmt.Errorf("job %d: replica result (%d bytes) differs from the served result (%d bytes)", rec.index, len(got), len(rec.body))
	}
	return nil
}
