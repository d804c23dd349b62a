package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testServer starts a scheduler + httptest frontend and tears both
// down with the test.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func postSpec(t *testing.T, ts *httptest.Server, spec any) (int, map[string]any, http.Header) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header
}

func getJSON(t *testing.T, url string, code int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != code {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d, want %d (%s)", url, resp.StatusCode, code, b)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// waitDone blocks until the job reaches a terminal state.
func waitDone(t *testing.T, s *Server, id string) {
	t.Helper()
	j := s.job(id)
	if j == nil {
		t.Fatalf("no such job %s", id)
	}
	select {
	case <-j.finished:
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", id)
	}
}

func fetchResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d (%s)", resp.StatusCode, b)
	}
	return b
}

// The service's core contract: resubmitting a spec returns
// byte-identical result JSON, with the second job's substrate served
// from the cache — and the cache hit is visible only in the job
// status, never in the result.
func TestResultBytesIdenticalAcrossSubmissions(t *testing.T) {
	s, ts := testServer(t, Config{})
	spec := validSpec()
	spec.Trials = 4
	spec.Faults = &FaultSpec{Drop: 0.05, Dup: 0.02, Downs: 2}

	var results [2][]byte
	for i := 0; i < 2; i++ {
		code, out, _ := postSpec(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d (%v)", i, code, out)
		}
		id := out["id"].(string)
		waitDone(t, s, id)
		status := getJSON(t, ts.URL+"/api/v1/jobs/"+id, http.StatusOK)
		if status["state"] != "done" {
			t.Fatalf("job %s state = %v (%v)", id, status["state"], status["error"])
		}
		if cached := status["substrate_cached"]; cached != (i == 1) {
			t.Fatalf("submission %d: substrate_cached = %v, want %v", i, cached, i == 1)
		}
		results[i] = fetchResult(t, ts, id)
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatal("resubmitted spec returned different result bytes")
	}
	if bytes.Contains(results[0], []byte("substrate_cached")) {
		t.Fatal("cache-hit flag leaked into the result payload")
	}
	var res Result
	if err := json.Unmarshal(results[0], &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 4 || res.Aggregate.Trials != 4 {
		t.Fatalf("result has %d trial rows, aggregate says %d, want 4", len(res.Trials), res.Aggregate.Trials)
	}
	if !res.Aggregate.AllSpan || res.Aggregate.SumComm <= 0 {
		t.Fatalf("implausible aggregate: %+v", res.Aggregate)
	}
	if len(res.Metrics) == 0 {
		t.Fatal("trial-0 metrics export missing from result")
	}
	cache := getJSON(t, ts.URL+"/api/v1/cache", http.StatusOK)
	if cache["hits"].(float64) < 1 || cache["misses"].(float64) != 1 {
		t.Fatalf("cache stats: %v", cache)
	}
}

// TestShardedMatchesSerial: a spec asking for more than one shard is
// refused at submission, because the sharded engine was removed, and
// the 400 says so. One shard is the serial engine: it is still
// accepted, and its trial rows are byte-identical to a shards-0 job's.
func TestShardedMatchesSerial(t *testing.T) {
	s, ts := testServer(t, Config{})
	spec := validSpec()
	spec.Experiment = "ghs"
	spec.Shards = 4
	code, out, _ := postSpec(t, ts, spec)
	if code != http.StatusBadRequest || !strings.Contains(out["error"].(string), "sharded engine was removed") {
		t.Fatalf("shards 4: %d %v, want 400 naming the removal", code, out)
	}
	var rows [2]json.RawMessage
	for i, shards := range []int{0, 1} {
		spec.Shards = shards
		code, out, _ := postSpec(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("shards %d: %d %v, want 202", shards, code, out)
		}
		id := out["id"].(string)
		waitDone(t, s, id)
		var res struct {
			Trials json.RawMessage `json:"trials"`
		}
		if err := json.Unmarshal(fetchResult(t, ts, id), &res); err != nil {
			t.Fatal(err)
		}
		rows[i] = res.Trials
	}
	if !bytes.Equal(rows[0], rows[1]) {
		t.Fatal("one-shard trial rows differ from serial")
	}
}

// Backpressure: with no scheduler draining and a capacity-1 queue, the
// second submission bounces with 429 + Retry-After, and a bogus spec
// is rejected outright.
func TestSubmitBackpressureAndValidation(t *testing.T) {
	s := New(Config{QueueCap: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _, _ := postSpec(t, ts, validSpec())
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	code, out, hdr := postSpec(t, ts, validSpec())
	if code != http.StatusTooManyRequests {
		t.Fatalf("second submit: %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if out["queue_depth"].(float64) != 1 {
		t.Fatalf("429 body: %v", out)
	}

	code, out, _ = postSpec(t, ts, map[string]any{"experiment": "nope", "graph": map[string]any{"family": "ring", "n": 4}})
	if code != http.StatusBadRequest || !strings.Contains(out["error"].(string), "unknown experiment") {
		t.Fatalf("bad spec: %d %v", code, out)
	}
	code, out, _ = postSpec(t, ts, map[string]any{"experiment": "flood", "bogus_field": 1})
	if code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d %v", code, out)
	}

	// Result for the still-queued job is a 409, not a hang.
	st := getJSON(t, ts.URL+"/api/v1/jobs/job-000001/result", http.StatusConflict)
	if !strings.Contains(st["error"].(string), "queued") {
		t.Fatalf("conflict body: %v", st)
	}

	// Drain without a scheduler: the queued job fails rather than
	// dangling, and later submissions get 503.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st = getJSON(t, ts.URL+"/api/v1/jobs/job-000001", http.StatusOK)
	if st["state"] != "failed" {
		t.Fatalf("post-drain state = %v, want failed", st["state"])
	}
	code, _, _ = postSpec(t, ts, validSpec())
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: %d, want 503", code)
	}
}

// The NDJSON stream terminates with the job's terminal status.
func TestStream(t *testing.T) {
	s, ts := testServer(t, Config{})
	spec := validSpec()
	spec.Trials = 8
	_, out, _ := postSpec(t, ts, spec)
	id := out["id"].(string)

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var last JobStatus
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("line %d: %v (%s)", lines, err, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("stream emitted nothing")
	}
	if last.State != "done" || last.TrialsDone != 8 || last.TrialsTotal != 8 {
		t.Fatalf("terminal stream line: %+v", last)
	}
	_ = s
}

// TestDrainWhileStreaming: Drain racing a live NDJSON stream must
// terminate the stream with a terminal status line rather than leave
// the handler parked, and the post-drain status must agree with the
// stream's last line. Under -race — the nightly CI mode — this covers
// the scheduler-goroutine/handler hand-off on the Job's atomics and
// the runCtx/finished shutdown ordering in handleStream.
func TestDrainWhileStreaming(t *testing.T) {
	s := New(Config{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := validSpec()
	spec.Trials = 512 // enough work that the drain deadline can cut the sweep off
	_, out, _ := postSpec(t, ts, spec)
	id := out["id"].(string)

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type streamEnd struct {
		last  JobStatus
		lines int
		err   error
	}
	endCh := make(chan streamEnd, 1)
	go func() {
		var end streamEnd
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			end.lines++
			if err := json.Unmarshal(sc.Bytes(), &end.last); err != nil {
				end.err = fmt.Errorf("line %d: %w (%s)", end.lines, err, sc.Text())
				break
			}
		}
		if end.err == nil {
			end.err = sc.Err()
		}
		endCh <- end
	}()

	// Let a few status lines flow, then pull the plug with a deadline
	// short enough that an unfinished sweep gets cancelled mid-flight.
	// Either outcome — the job squeaked through (done) or was cut off
	// (failed) — is a valid terminal state; what may not happen is a
	// hung stream or a non-terminal last line.
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	drainErr := s.Drain(ctx)

	var end streamEnd
	select {
	case end = <-endCh:
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not terminate after drain")
	}
	if end.err != nil {
		t.Fatal(end.err)
	}
	if end.lines == 0 {
		t.Fatal("stream emitted nothing")
	}
	if end.last.State != "done" && end.last.State != "failed" {
		t.Fatalf("stream ended on non-terminal state %q (drain err: %v)", end.last.State, drainErr)
	}
	st := getJSON(t, ts.URL+"/api/v1/jobs/"+id, http.StatusOK)
	if st["state"] != end.last.State {
		t.Fatalf("post-drain status %v disagrees with stream terminal line %q", st["state"], end.last.State)
	}
}

// A job whose sweep errors reports failed with the cause, and its
// result endpoint returns 500.
func TestJobFailure(t *testing.T) {
	s, ts := testServer(t, Config{})
	spec := validSpec()
	spec.EventLimit = 10 // guaranteed to trip
	_, out, _ := postSpec(t, ts, spec)
	id := out["id"].(string)
	waitDone(t, s, id)
	st := getJSON(t, ts.URL+"/api/v1/jobs/"+id, http.StatusOK)
	if st["state"] != "failed" || !strings.Contains(st["error"].(string), "trial") {
		t.Fatalf("status: %v", st)
	}
	getJSON(t, ts.URL+"/api/v1/jobs/"+id+"/result", http.StatusInternalServerError)
}

// Every experiment kind the schema names runs end to end through the
// service.
func TestAllExperimentKinds(t *testing.T) {
	s, ts := testServer(t, Config{})
	for kind := range experimentKinds {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			spec := Spec{
				Experiment: kind,
				Graph: GraphSpec{Family: "random", N: 16, M: 40,
					Weights: WeightSpec{Kind: "uniform", Max: 16, Seed: 5}, Seed: 5},
				Trials: 2,
			}
			code, out, _ := postSpec(t, ts, spec)
			if code != http.StatusAccepted {
				t.Fatalf("submit: %d (%v)", code, out)
			}
			id := out["id"].(string)
			waitDone(t, s, id)
			st := getJSON(t, ts.URL+"/api/v1/jobs/"+id, http.StatusOK)
			if st["state"] != "done" {
				t.Fatalf("%s: state %v (%v)", kind, st["state"], st["error"])
			}
			var res Result
			if err := json.Unmarshal(fetchResult(t, ts, id), &res); err != nil {
				t.Fatal(err)
			}
			if res.Aggregate.SumMessages <= 0 {
				t.Fatalf("%s: no traffic recorded: %+v", kind, res.Aggregate)
			}
		})
	}
}

// listing returns jobs in creation order with dense IDs.
func TestJobList(t *testing.T) {
	s, ts := testServer(t, Config{})
	for i := 0; i < 3; i++ {
		spec := validSpec()
		spec.Seed = int64(i + 1)
		postSpec(t, ts, spec)
	}
	out := getJSON(t, ts.URL+"/api/v1/jobs", http.StatusOK)
	jobs := out["jobs"].([]any)
	if len(jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(jobs))
	}
	for i, j := range jobs {
		want := fmt.Sprintf("job-%06d", i+1)
		if id := j.(map[string]any)["id"]; id != want {
			t.Fatalf("job %d id = %v, want %s", i, id, want)
		}
	}
	_ = s
}
