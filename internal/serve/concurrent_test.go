package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// These tests pin what running jobs concurrently under one worker
// budget must not change — result bytes, the journal's per-job state
// machine, typed failures — and what it newly has to get right: a trial
// panicking on a shared worker, a deadline expiring in the worker
// queue, recovery and shutdown with several jobs in flight.

// atLeastTwoProcs raises GOMAXPROCS to 2 for the test when the host
// offers one: the server sizes its runner and worker sets from it, and
// one runner never has two jobs in flight.
func atLeastTwoProcs(t *testing.T) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// soloResult is the served body of spec run alone: runSpec on a worker
// set and a substrate of its own.
func soloResult(t *testing.T, spec Spec) []byte {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	sub := buildSubstrate(spec.SubstrateKey(), spec.Graph)
	body, err := runSpec(context.Background(), soloWorkers(t), spec, sub, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// waitState blocks until the job is in state (it need not have made
// trial progress: a job whose trials queue behind an older job's is
// running all the same).
func waitState(t *testing.T, s *Server, id string, state int32) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if j := s.job(id); j != nil && j.state.Load() == state {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, stateName(state))
}

// endlessSpec is a sweep far longer than any test: it holds every
// worker until something cuts it off.
func endlessSpec(seed int64) Spec {
	spec := validSpec()
	spec.Graph = GraphSpec{Family: "random", N: 4000, M: 12000, Seed: seed}
	spec.Trials = MaxTrials
	return spec
}

// TestConcurrentMixedJobsMatchSolo: 24 jobs of every shape the
// scheduler treats differently, admitted at once, each return the bytes
// the same spec produces run alone — whatever runner, workers and
// neighbours they met.
func TestConcurrentMixedJobsMatchSolo(t *testing.T) {
	atLeastTwoProcs(t)
	shared := GraphSpec{Family: "random", N: 60, M: 180, Seed: 11, Weights: WeightSpec{Kind: "uniform", Max: 32, Seed: 11}}
	var specs []Spec
	for i := 0; i < 12; i++ { // one-trial jobs, each on a substrate of its own
		specs = append(specs, Spec{Experiment: "flood", Trials: 1, Seed: int64(i + 1),
			Graph: GraphSpec{Family: "random", N: 200, M: 800, Seed: int64(100 + i), Weights: WeightSpec{Kind: "uniform", Max: 64, Seed: 5}}})
	}
	for i, kind := range []string{"flood", "dfs", "ghs", "mstfast", "conhybrid", "sptcentr", "mstcentr", "msthybrid", "flood"} {
		specs = append(specs, Spec{Experiment: kind, Delay: "uniform", Trials: 8, Seed: int64(40 + i), Graph: shared})
	}
	faulty := Spec{Experiment: "ghs", Trials: 8, Seed: 9, Graph: shared, Faults: &FaultSpec{Drop: 0.05, Dup: 0.02, Downs: 1}}
	twin := Spec{Experiment: "dfs", Trials: 4, Seed: 77, Graph: shared}
	specs = append(specs, faulty, twin, twin)
	if len(specs) != 24 {
		t.Fatalf("%d specs, want 24", len(specs))
	}

	s, ts := testServer(t, Config{QueueCap: len(specs)})
	ids := make([]string, len(specs))
	for i, spec := range specs {
		code, out, _ := postSpec(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d (%v)", i, code, out)
		}
		ids[i] = out["id"].(string)
	}
	for i, id := range ids {
		waitDone(t, s, id)
		if st := s.job(id).status(); st.State != "done" {
			t.Fatalf("job %d (%s) ended %s/%s: %s", i, id, st.State, st.Reason, st.Error)
		}
		requireSameBytes(t, fetchResult(t, ts, id), soloResult(t, specs[i]))
	}
	if cs := s.Cache().Stats(); cs.Misses != 13 {
		t.Errorf("cache built %d substrates for 13 distinct ones (single-flight lost): %+v", cs.Misses, cs)
	}
}

// admitUnvalidated registers and enqueues a job as handleSubmit does,
// minus validation: the seam through which a test gets a spec that
// Normalize would reject — and a protocol will panic on — onto a
// worker. The journal gets the valid spec, as it would have had the
// panic come from a protocol bug instead.
func admitUnvalidated(t *testing.T, s *Server, journaled, run Spec) string {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	id := fmt.Sprintf("job-%06d", s.nextID+1)
	j := newJob(id, run)
	if err := s.journalAppend(journalRecord{Op: opSubmitted, Job: id, Spec: &journaled}); err != nil {
		t.Fatal(err)
	}
	if err := s.queue.TrySubmit(func(ctx context.Context) { s.runJob(ctx, j) }); err != nil {
		t.Fatal(err)
	}
	s.nextID++
	s.jobs[id] = j
	s.order = append(s.order, id)
	return id
}

// TestTrialPanicFailsOnlyItsJob: a trial that panics on a shared worker
// fails its own job with reason=panic — counted, journaled failed so a
// restart does not re-run it — while the process, the sweep running
// beside it and the next job on those workers carry on, bytes intact.
func TestTrialPanicFailsOnlyItsJob(t *testing.T) {
	atLeastTwoProcs(t)
	path := filepath.Join(t.TempDir(), "jobs.journal")
	s, err := Open(Config{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	ts := newFrontend(t, s)

	beside := validSpec()
	beside.Graph = GraphSpec{Family: "random", N: 400, M: 1600, Seed: 3}
	beside.Trials = 48
	code, out, _ := postSpec(t, ts, beside)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", code, out)
	}
	besideID := out["id"].(string)

	valid := validSpec()
	valid.Experiment, valid.Trials = "dfs", 6
	if err := valid.Normalize(); err != nil {
		t.Fatal(err)
	}
	poisoned := valid
	poisoned.Root = valid.Graph.N + 5 // Normalize rejects it; dfs indexes its vertex table with it
	badID := admitUnvalidated(t, s, valid, poisoned)

	waitDone(t, s, badID)
	st := s.job(badID).status()
	if st.State != "failed" || st.Reason != ReasonPanic {
		t.Fatalf("poisoned job ended %s/%s (%s), want failed/panic", st.State, st.Reason, st.Error)
	}
	if !strings.Contains(st.Error, "trial 0 panicked") || !strings.Contains(st.Error, "index out of range") {
		t.Fatalf("detail names neither the trial nor the panic value: %q", st.Error)
	}
	if n := s.panicked.Load(); n != 1 {
		t.Fatalf("costsense_jobs_panicked_total = %d, want 1", n)
	}

	waitDone(t, s, besideID)
	if st := s.job(besideID).status(); st.State != "done" {
		t.Fatalf("job beside the panic ended %s/%s (%s), want done", st.State, st.Reason, st.Error)
	}
	requireSameBytes(t, fetchResult(t, ts, besideID), soloResult(t, beside))

	// The workers that recovered serve the next job, on the substrate the
	// panicking trials left their pools bound to.
	nextID := runToDone(t, s, ts, valid)
	requireSameBytes(t, fetchResult(t, ts, nextID), soloResult(t, valid))

	// Journaled terminal, so a restart reports the panic instead of
	// re-running the job into it.
	if reason := journaledFailures(t, path)[badID]; reason != ReasonPanic {
		t.Fatalf("journal records the poisoned job as failed/%q, want failed/panic", reason)
	}
}

// TestDeadlineCoversWaitForWorkers: a job's deadline clock starts when
// the job does, so it runs while the job's trials wait for workers an
// older sweep holds. A generous deadline rides that wait out; a short
// one expires in it — failing the job with none of its trials run,
// without waiting for a worker to come free — and neither disturbs the
// older job's bytes.
func TestDeadlineCoversWaitForWorkers(t *testing.T) {
	atLeastTwoProcs(t)
	s, ts := testServer(t, Config{})
	older := validSpec()
	older.Graph = GraphSpec{Family: "random", N: 2000, M: 8000, Seed: 3}
	older.Trials = 240
	if testing.Short() {
		older.Trials = 120
	}
	code, out, _ := postSpec(t, ts, older)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", code, out)
	}
	olderID := out["id"].(string)
	waitRunning(t, s, olderID) // it holds every worker from here to its tail

	hasty := validSpec()
	hasty.Trials, hasty.TimeoutMS = 4, 20
	patient := validSpec()
	patient.Trials, patient.Seed, patient.TimeoutMS = 1, 5, 120_000
	_, out, _ = postSpec(t, ts, hasty)
	hastyID := out["id"].(string)
	_, out, _ = postSpec(t, ts, patient)
	patientID := out["id"].(string)

	waitDone(t, s, hastyID)
	if state := s.job(olderID).state.Load(); state != jobRunning {
		t.Fatalf("the older sweep was already %s when the hasty job ended: the test proved nothing about the wait", stateName(state))
	}
	st := s.job(hastyID).status()
	if st.State != "failed" || st.Reason != ReasonDeadline || !strings.Contains(st.Error, "after 0/4 trials") {
		t.Fatalf("hasty job ended %s/%s (%q), want failed/deadline after 0/4 trials", st.State, st.Reason, st.Error)
	}

	waitDone(t, s, patientID)
	if st := s.job(patientID).status(); st.State != "done" {
		t.Fatalf("patient job ended %s/%s (%s), want done", st.State, st.Reason, st.Error)
	}
	requireSameBytes(t, fetchResult(t, ts, patientID), soloResult(t, patient))
	waitDone(t, s, olderID)
	requireSameBytes(t, fetchResult(t, ts, olderID), soloResult(t, older))
}

// twoInFlight opens a journaled server and gets two endless jobs
// running at once: one holding the workers, the other with its trials
// queued behind it.
func twoInFlight(t *testing.T) (s *Server, path string, ids [2]string) {
	t.Helper()
	atLeastTwoProcs(t)
	path = filepath.Join(t.TempDir(), "jobs.journal")
	s, err := Open(Config{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		// The jobs never finish on their own; go straight to the
		// cancellation phase of the drain.
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		s.Drain(ctx)
	})
	ts := newFrontend(t, s)
	for i := range ids {
		code, out, _ := postSpec(t, ts, endlessSpec(int64(3+i)))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d (%v)", i, code, out)
		}
		ids[i] = out["id"].(string)
	}
	// Whichever finished building its substrate first is the older run
	// and has the workers; the other is running with nothing to show.
	waitState(t, s, ids[0], jobRunning)
	waitState(t, s, ids[1], jobRunning)
	for deadline := time.Now().Add(30 * time.Second); s.job(ids[0]).trialsDone.Load()+s.job(ids[1]).trialsDone.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("neither job made trial progress")
		}
		time.Sleep(time.Millisecond)
	}

	h := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if got := fmt.Sprint(h["running_jobs"]); got != fmt.Sprint(ids[:]) {
		t.Fatalf("healthz running_jobs = %s, want %v (admission order)", got, ids)
	}
	scrape(t, ts.URL) // the in-flight gauge sums over both without tripping -race
	return s, path, ids
}

// journaledFailures decodes the journal at path and returns each
// failed job's reason by id.
func journaledFailures(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := decodeJournal(data)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	reasons := make(map[string]string)
	for _, rj := range rec.Jobs {
		if rj.Failed {
			reasons[rj.ID] = rj.Reason
		}
	}
	return reasons
}

// TestDrainWithTwoJobsInFlight: a drain deadline that cuts two running
// jobs off fails both with reason=shutdown — in their status and in the
// journal, so neither is re-run — and the runners and workers all wind
// down behind it (drained closes, once: a second close would panic).
func TestDrainWithTwoJobsInFlight(t *testing.T) {
	s, path, ids := twoInFlight(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain of two endless jobs reported a clean finish")
	}
	select {
	case <-s.drained:
	default:
		t.Fatal("Drain returned before the runners and workers had exited")
	}
	reasons := journaledFailures(t, path)
	for _, id := range ids {
		if st := s.job(id).status(); st.State != "failed" || st.Reason != ReasonShutdown {
			t.Errorf("job %s after drain: %s/%s, want failed/shutdown", id, st.State, st.Reason)
		}
		if reasons[id] != ReasonShutdown {
			t.Errorf("journal records job %s as failed/%q, want shutdown", id, reasons[id])
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestMarkKilledWithTwoJobsInFlight: the second-signal path journals
// failed(killed) for every running job, not just one.
func TestMarkKilledWithTwoJobsInFlight(t *testing.T) {
	s, path, ids := twoInFlight(t)
	s.MarkKilled()
	reasons := journaledFailures(t, path)
	for _, id := range ids {
		if reasons[id] != ReasonKilled {
			t.Errorf("journal records job %s as failed/%q, want killed", id, reasons[id])
		}
	}
}

// TestRecoveryOfInterleavedJobs: the journal a kill -9 leaves behind
// with two jobs in flight — their records interleaved, neither
// terminal — re-runs both on restart, each to the bytes an
// uninterrupted solo run produces.
func TestRecoveryOfInterleavedJobs(t *testing.T) {
	atLeastTwoProcs(t)
	specs := [2]Spec{validSpec(), validSpec()}
	specs[0].Trials = 6
	specs[1].Experiment, specs[1].Trials, specs[1].Graph.Seed = "ghs", 4, 21
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jl, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if err := specs[i].Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []journalRecord{
		{Op: opSubmitted, Job: "job-000001", Spec: &specs[0]},
		{Op: opSubmitted, Job: "job-000002", Spec: &specs[1]},
		{Op: opStarted, Job: "job-000001"},
		{Op: opStarted, Job: "job-000002"},
	} {
		if err := jl.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := Open(Config{JournalPath: path})
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	s.Start()
	ts := newFrontend(t, s)
	for i, id := range []string{"job-000001", "job-000002"} {
		waitDone(t, s, id)
		if st := s.job(id).status(); st.State != "done" || !st.Recovered {
			t.Fatalf("job %s after restart: %s recovered=%v (%s)", id, st.State, st.Recovered, st.Error)
		}
		requireSameBytes(t, fetchResult(t, ts, id), soloResult(t, specs[i]))
	}
	// The re-run interleaved the two jobs' records again; the journal
	// must still decode clean, everything terminal.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if reasons := journaledFailures(t, path); len(reasons) != 0 {
		t.Fatalf("recovered jobs journaled as failed: %v", reasons)
	}
	s2, err := Open(Config{JournalPath: path})
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	if len(s2.recoverQ) != 0 {
		t.Fatalf("second restart would re-run %d jobs", len(s2.recoverQ))
	}
	for i, id := range []string{"job-000001", "job-000002"} {
		if !bytes.Equal(s2.job(id).result, soloResult(t, specs[i])) {
			t.Fatalf("job %s: persisted bytes differ from a solo run", id)
		}
	}
}

// TestDrainCutsSubstrateWaitShort: a job waiting for another builder's
// substrate is not beyond a drain deadline's reach — it fails with
// reason=shutdown, never having started, and the runner winds down
// while the build it was waiting for is still going.
func TestDrainCutsSubstrateWaitShort(t *testing.T) {
	s := New(Config{})
	s.Start()
	ts := newFrontend(t, s)
	spec := validSpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	// The test plays the other job: a build of the same key, parked.
	parked := make(chan struct{})
	release := make(chan struct{})
	built := make(chan struct{})
	go func() {
		defer close(built)
		s.Cache().GetOrBuild(context.Background(), spec.SubstrateKey(), func() *Substrate {
			close(parked)
			<-release
			return buildSubstrate(spec.SubstrateKey(), spec.Graph)
		})
	}()
	<-parked
	code, out, _ := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", code, out)
	}
	id := out["id"].(string)
	for deadline := time.Now().Add(30 * time.Second); s.queue.Len() > 0; { // until a runner has it
		if time.Now().After(deadline) {
			t.Fatal("no runner took the job")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain reported a clean finish with a job still waiting for its substrate")
	}
	st := s.job(id).status()
	if st.State != "failed" || st.Reason != ReasonShutdown || st.StartedAt != "" {
		t.Fatalf("job after drain: %s/%s started_at=%q (%s), want failed/shutdown and never started", st.State, st.Reason, st.StartedAt, st.Error)
	}
	if !strings.Contains(st.Error, "substrate") {
		t.Fatalf("detail does not say where the drain caught the job: %q", st.Error)
	}
	close(release)
	<-built
}
