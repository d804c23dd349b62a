package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// newFrontend mounts an existing server's handler on an httptest
// listener torn down with the test (testServer builds its own Server;
// this wraps one the test already opened, e.g. via Open on a journal).
func newFrontend(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// getText fetches a URL and returns its body as a string (any status).
func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// streamLines consumes an NDJSON stream to EOF and returns its lines.
func streamLines(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d (%s)", url, resp.StatusCode, b)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) > 0 {
			lines = append(lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return lines
}

func itoa(n int) string { return strconv.Itoa(n) }

// crashedJournal writes a journal whose last job was submitted and
// started but never finished — the on-disk state a kill -9 mid-sweep
// leaves behind.
func crashedJournal(t *testing.T, spec Spec) string {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jl, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []journalRecord{
		{Op: opSubmitted, Job: "job-000001", Spec: &spec},
		{Op: opStarted, Job: "job-000001"},
	} {
		if err := jl.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRecoveryByteIdentical is the tentpole contract: a job the crash
// interrupted mid-sweep is re-enqueued on the next start and re-runs
// to a result byte-identical to an uninterrupted run of the same spec.
func TestRecoveryByteIdentical(t *testing.T) {
	spec := validSpec()
	spec.Trials = 6

	// The uninterrupted reference run, journal-less.
	ref, refTS := testServer(t, Config{})
	code, out, _ := postSpec(t, refTS, spec)
	if code != http.StatusAccepted {
		t.Fatalf("reference submit: status %d (%v)", code, out)
	}
	refID := out["id"].(string)
	waitDone(t, ref, refID)
	want := fetchResult(t, refTS, refID)

	// The crashed-and-restarted run.
	path := crashedJournal(t, spec)
	s, err := Open(Config{JournalPath: path})
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	waitDone(t, s, "job-000001")
	j := s.job("job-000001")
	if st := j.status(); st.State != "done" || !st.Recovered {
		t.Fatalf("recovered job state=%s recovered=%v error=%q", st.State, st.Recovered, st.Error)
	}
	if got := j.result; !bytes.Equal(got, want) {
		t.Fatalf("recovered result differs from uninterrupted run:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	if n := s.recovered.Load(); n != 1 {
		t.Fatalf("costsense_jobs_recovered_total = %d, want 1", n)
	}

	// The journal now records the finish: a second restart restores the
	// job as terminal history instead of re-running it.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	s2, err := Open(Config{JournalPath: path})
	if err != nil {
		t.Fatalf("second Open: %v", err)
	}
	j2 := s2.job("job-000001")
	if j2 == nil || j2.state.Load() != jobDone {
		t.Fatalf("second restart lost the finished job: %+v", j2)
	}
	if !bytes.Equal(j2.result, want) {
		t.Fatal("persisted result bytes differ from the live run")
	}
	if s2.recovered.Load() != 0 {
		t.Fatal("terminal job counted as recovered")
	}
}

// TestRecoverySharded: testdata/sharded-v1.journal was written by a
// server that still had the sharded engine. job-000001 ran with
// shards 4 to the end; job-000002 (also shards 4) was submitted and
// started, then the server died. Opening it must not fail on the
// removed option: the finished job keeps its journaled bytes, and the
// unfinished one re-runs serially to the result a fresh serial
// submission of the same spec gets. The old engine was byte-identical
// to the serial one, so job-000001's trial rows match a serial run.
func TestRecoverySharded(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "sharded-v1.journal"))
	if err != nil {
		t.Fatal(err)
	}
	var finished journalRecord
	if err := json.Unmarshal(bytes.Split(data, []byte("\n"))[2], &finished); err != nil || finished.Op != opFinished {
		t.Fatalf("third record: op %q, err %v", finished.Op, err)
	}

	s, err := openOnBytes(t, data)
	if err != nil {
		t.Fatalf("Open on a journal with sharded jobs: %v", err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	j1 := s.job("job-000001")
	if j1 == nil || j1.state.Load() != jobDone || string(j1.result) != finished.Result {
		t.Fatal("finished sharded job not restored with its journaled bytes")
	}
	waitDone(t, s, "job-000002")
	j2 := s.job("job-000002")
	if st := j2.status(); st.State != "done" || !st.Recovered {
		t.Fatalf("recovered sharded job state=%s recovered=%v error=%q", st.State, st.Recovered, st.Error)
	}

	ref, refTS := testServer(t, Config{})
	serial := func(spec Spec) []byte {
		t.Helper()
		code, out, _ := postSpec(t, refTS, spec)
		if code != http.StatusAccepted {
			t.Fatalf("reference submit: status %d (%v)", code, out)
		}
		id := out["id"].(string)
		waitDone(t, ref, id)
		return fetchResult(t, refTS, id)
	}
	ring := GraphSpec{Family: "ring", N: 6}
	if want := serial(Spec{Experiment: "flood", Graph: ring, Trials: 2, Seed: 3}); !bytes.Equal(j2.result, want) {
		t.Fatalf("recovered sharded job differs from a serial run:\n got %s\nwant %s", j2.result, want)
	}
	var got, want struct {
		Trials json.RawMessage `json:"trials"`
	}
	if err := json.Unmarshal(j1.result, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(serial(Spec{Experiment: "ghs", Graph: ring, Trials: 2}), &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Trials, want.Trials) {
		t.Fatalf("sharded trial rows differ from serial:\n got %s\nwant %s", got.Trials, want.Trials)
	}
}

// TestRecoveryRestoresFailedJobs: a journaled failure (here: killed by
// a second SIGTERM) is reported on the next start, reason intact, not
// re-run.
func TestRecoveryRestoresFailedJobs(t *testing.T) {
	spec := validSpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jl, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []journalRecord{
		{Op: opSubmitted, Job: "job-000001", Spec: &spec},
		{Op: opStarted, Job: "job-000001"},
		{Op: opFailed, Job: "job-000001", Reason: ReasonKilled, Detail: "second termination signal killed the job mid-drain"},
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
		t.Fatal(err)
	}
	j := s.job("job-000001")
	if j == nil {
		t.Fatal("failed job not restored")
	}
	st := j.status()
	if st.State != "failed" || st.Reason != ReasonKilled {
		t.Fatalf("restored status = %s/%s, want failed/killed", st.State, st.Reason)
	}
	if s.recovered.Load() != 0 || len(s.recoverQ) != 0 {
		t.Fatal("terminal job queued for re-admission")
	}
}

// TestMarkKilled: the second-SIGTERM path journals failed(killed) for
// the in-flight job and seals the journal, so the next start reports
// the kill instead of re-running blind.
func TestMarkKilled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	s, err := Open(Config{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		// The job is built to never finish; skip straight to the
		// cancellation phase of the drain.
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		s.Drain(ctx)
	})
	ts := newFrontend(t, s)

	spec := validSpec()
	spec.Graph = GraphSpec{Family: "random", N: 4000, M: 12000, Seed: 3}
	spec.Trials = MaxTrials // far longer than the test; never finishes on its own
	code, out, _ := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", code, out)
	}
	id := out["id"].(string)
	waitRunning(t, s, id)

	s.MarkKilled()

	// The journal is sealed: the on-disk history ends in failed(killed)
	// and a fresh start reports it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := decodeJournal(data)
	if err != nil {
		t.Fatalf("journal after MarkKilled: %v", err)
	}
	if len(rec.Jobs) != 1 || !rec.Jobs[0].Failed || rec.Jobs[0].Reason != ReasonKilled {
		t.Fatalf("journal does not record the kill: %+v", rec.Jobs)
	}
	s2, err := Open(Config{JournalPath: filepath.Join(t.TempDir(), "copy.journal")})
	if err != nil {
		t.Fatal(err)
	}
	_ = s2 // fresh journal opens fine alongside the sealed one
	s3, err := openOnBytes(t, data)
	if err != nil {
		t.Fatalf("restart on the sealed journal: %v", err)
	}
	st := s3.job(id).status()
	if st.State != "failed" || st.Reason != ReasonKilled {
		t.Fatalf("restart reports %s/%s, want failed/killed", st.State, st.Reason)
	}
}

// openOnBytes writes journal bytes to a fresh path and opens a server
// on them (no Start: restoration happens in Open).
func openOnBytes(t *testing.T, data []byte) (*Server, error) {
	t.Helper()
	p := filepath.Join(t.TempDir(), "jobs.journal")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return Open(Config{JournalPath: p})
}

// waitRunning blocks until the job has started making trial progress.
func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j := s.job(id)
		if j != nil && j.state.Load() == jobRunning && j.trialsDone.Load() > 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

// TestDeadlineFailsTyped: a job exceeding its spec deadline fails with
// reason=deadline, the expired counter ticks, and the scheduler moves
// straight on to the next job.
func TestDeadlineFailsTyped(t *testing.T) {
	s, ts := testServer(t, Config{})
	slow := validSpec()
	slow.Graph = GraphSpec{Family: "random", N: 4000, M: 12000, Seed: 3}
	slow.Trials = MaxTrials
	slow.TimeoutMS = 30
	code, out, _ := postSpec(t, ts, slow)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", code, out)
	}
	slowID := out["id"].(string)
	waitDone(t, s, slowID)
	st := s.job(slowID).status()
	if st.State != "failed" || st.Reason != ReasonDeadline {
		t.Fatalf("deadline job ended %s/%s (%s), want failed/deadline", st.State, st.Reason, st.Error)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("error detail does not mention the deadline: %q", st.Error)
	}
	if n := s.expired.Load(); n != 1 {
		t.Fatalf("costsense_jobs_expired_total = %d, want 1", n)
	}

	// The scheduler is not wedged: a healthy job right behind it runs
	// to completion.
	code, out, _ = postSpec(t, ts, validSpec())
	if code != http.StatusAccepted {
		t.Fatalf("follow-up submit: status %d (%v)", code, out)
	}
	nextID := out["id"].(string)
	waitDone(t, s, nextID)
	if st := s.job(nextID).status(); st.State != "done" {
		t.Fatalf("follow-up job ended %s (%s), want done", st.State, st.Error)
	}

	// The typed failure is visible on /metrics.
	metrics := getText(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "costsense_jobs_expired_total 1") {
		t.Fatal("expired counter missing from /metrics")
	}
}

// TestServerDefaultDeadline: Config.JobTimeout applies to specs that
// carry no timeout of their own.
func TestServerDefaultDeadline(t *testing.T) {
	s, ts := testServer(t, Config{JobTimeout: 30 * time.Millisecond})
	slow := validSpec()
	slow.Graph = GraphSpec{Family: "random", N: 4000, M: 12000, Seed: 3}
	slow.Trials = MaxTrials
	code, out, _ := postSpec(t, ts, slow)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", code, out)
	}
	id := out["id"].(string)
	waitDone(t, s, id)
	if st := s.job(id).status(); st.State != "failed" || st.Reason != ReasonDeadline {
		t.Fatalf("job ended %s/%s, want failed/deadline", st.State, st.Reason)
	}
}

// TestPanicIsolation: a panicking sweep (here: the cache's
// mutation-detection panic) fails that job with reason=panic — panic
// value in the detail — and the scheduler survives to run the next
// job.
func TestPanicIsolation(t *testing.T) {
	s, ts := testServer(t, Config{})
	spec := validSpec()

	// Build the substrate once, then mutate it so the next hit's
	// Verify panics mid-runJob.
	code, out, _ := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("priming submit: status %d (%v)", code, out)
	}
	primeID := out["id"].(string)
	waitDone(t, s, primeID)
	sub, hit, err := s.Cache().GetOrBuild(context.Background(), spec.SubstrateKey(), func() *Substrate {
		t.Fatal("substrate should already be cached")
		return nil
	})
	if err != nil || !hit {
		t.Fatal("priming job did not cache the substrate")
	}
	sub.Graph().Edges()[0].W++ // poison it (Edges returns the live slice)

	code, out, _ = postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("poisoned submit: status %d (%v)", code, out)
	}
	id := out["id"].(string)
	waitDone(t, s, id)
	st := s.job(id).status()
	if st.State != "failed" || st.Reason != ReasonPanic {
		t.Fatalf("poisoned job ended %s/%s (%s), want failed/panic", st.State, st.Reason, st.Error)
	}
	if !strings.Contains(st.Error, "mutated") {
		t.Fatalf("panic value not surfaced in the detail: %q", st.Error)
	}
	if n := s.panicked.Load(); n != 1 {
		t.Fatalf("costsense_jobs_panicked_total = %d, want 1", n)
	}

	// Scheduler alive: a job on a different substrate completes.
	healthy := validSpec()
	healthy.Graph.Seed = 99
	code, out, _ = postSpec(t, ts, healthy)
	if code != http.StatusAccepted {
		t.Fatalf("follow-up submit: status %d (%v)", code, out)
	}
	nextID := out["id"].(string)
	waitDone(t, s, nextID)
	if st := s.job(nextID).status(); st.State != "done" {
		t.Fatalf("follow-up job ended %s (%s), want done", st.State, st.Error)
	}
}

// TestStreamFromOffset: ?from=N serves exactly the progress-log suffix
// — the resume primitive the client rides across disconnects and
// restarts — and an offset past a terminal job's log still yields one
// terminal line.
func TestStreamFromOffset(t *testing.T) {
	s, ts := testServer(t, Config{})
	spec := validSpec()
	spec.Trials = 16
	code, out, _ := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", code, out)
	}
	id := out["id"].(string)
	waitDone(t, s, id)

	full := streamLines(t, ts.URL+"/api/v1/jobs/"+id+"/stream")
	if len(full) < 2 {
		t.Fatalf("stream produced %d lines, want at least queued+terminal", len(full))
	}
	var last JobStatus
	if err := json.Unmarshal([]byte(full[len(full)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.State != "done" || last.TrialsDone != 16 {
		t.Fatalf("terminal line: state=%s trials=%d, want done/16", last.State, last.TrialsDone)
	}

	// Resume from the middle: exactly the suffix, no replay.
	mid := len(full) / 2
	rest := streamLines(t, ts.URL+"/api/v1/jobs/"+id+"/stream?from="+itoa(mid))
	if len(rest) != len(full)-mid {
		t.Fatalf("resume from %d returned %d lines, want %d", mid, len(rest), len(full)-mid)
	}
	for i, ln := range rest {
		if ln != full[mid+i] {
			t.Fatalf("resumed line %d differs from the original stream", mid+i)
		}
	}

	// Past the end of a terminal log: one synthesized terminal line.
	over := streamLines(t, ts.URL+"/api/v1/jobs/"+id+"/stream?from="+itoa(len(full)+10))
	if len(over) != 1 {
		t.Fatalf("over-the-end resume returned %d lines, want 1", len(over))
	}
	var ost JobStatus
	if err := json.Unmarshal([]byte(over[0]), &ost); err != nil {
		t.Fatal(err)
	}
	if ost.State != "done" {
		t.Fatalf("synthesized line state=%s, want done", ost.State)
	}

	// Bad offsets are rejected.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/stream?from=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("from=-1: status %d, want 400", resp.StatusCode)
	}
}

// TestJournalConcurrentWithReads drives admissions (journal appends
// under the job-table lock) against /metrics scrapes, job listings and
// streams — the -race coverage for journal append vs. scheduler state
// reads.
func TestJournalConcurrentWithReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	s, err := Open(Config{JournalPath: path, QueueCap: 64})
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

	const jobs = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				getText(t, ts.URL+"/metrics")
				getJSON(t, ts.URL+"/api/v1/jobs", http.StatusOK)
			}
		}()
	}
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		spec := validSpec()
		spec.Seed = int64(i + 1)
		code, out, _ := postSpec(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d (%v)", i, code, out)
		}
		ids = append(ids, out["id"].(string))
	}
	for _, id := range ids {
		waitDone(t, s, id)
	}
	close(stop)
	wg.Wait()

	// Every transition made it to disk in order: the journal decodes
	// clean with all jobs terminal.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := decodeJournal(data)
	if err != nil {
		t.Fatalf("journal after concurrent load: %v", err)
	}
	if len(rec.Jobs) != jobs || rec.Incomplete() != 0 {
		t.Fatalf("journal: %d jobs, %d incomplete; want %d and 0", len(rec.Jobs), rec.Incomplete(), jobs)
	}
}

// TestDrainReRunsQueuedJobs: jobs still queued at a graceful drain are
// failed in memory but keep their journaled submitted records — the
// next start re-runs them ("restart never drops journaled jobs").
func TestDrainReRunsQueuedJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	s, err := Open(Config{JournalPath: path, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Never started: both jobs stay queued, then drain fails them in
	// memory while their journal records survive.
	ts := newFrontend(t, s)
	for i := 0; i < 2; i++ {
		spec := validSpec()
		spec.Seed = int64(i + 1)
		code, out, _ := postSpec(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d (%v)", i, code, out)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain of unstarted server: %v", err)
	}
	if st := s.job("job-000001").status(); st.State != "failed" || st.Reason != ReasonShutdown {
		t.Fatalf("queued job after drain: %s/%s, want failed/shutdown", st.State, st.Reason)
	}

	s2, err := Open(Config{JournalPath: path})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	s2.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s2.Drain(ctx)
	})
	for _, id := range []string{"job-000001", "job-000002"} {
		waitDone(t, s2, id)
		if st := s2.job(id).status(); st.State != "done" || !st.Recovered {
			t.Fatalf("job %s after restart: %s recovered=%v (%s)", id, st.State, st.Recovered, st.Error)
		}
	}
	if n := s2.recovered.Load(); n != 2 {
		t.Fatalf("costsense_jobs_recovered_total = %d, want 2", n)
	}
}

// TestJournalLessBehaviorUnchanged: without a journal the server keeps
// its original semantics (dense IDs, 429 on a full queue, no recovery
// surface) — the journal must be pay-for-what-you-use.
func TestJournalLessBehaviorUnchanged(t *testing.T) {
	s, ts := testServer(t, Config{})
	spec := validSpec()
	code, out, _ := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", code, out)
	}
	if id := out["id"].(string); id != "job-000001" {
		t.Fatalf("first id = %s, want job-000001", id)
	}
	waitDone(t, s, "job-000001")
	metrics := getText(t, ts.URL+"/metrics")
	for _, want := range []string{
		"costsense_jobs_recovered_total 0",
		"costsense_jobs_expired_total 0",
		"costsense_jobs_panicked_total 0",
		"costsense_journal_errors_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}
