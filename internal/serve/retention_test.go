package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// runToDone submits spec, waits for the job and returns its id.
func runToDone(t *testing.T, s *Server, ts *httptest.Server, spec Spec) string {
	t.Helper()
	code, out, _ := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", code, out)
	}
	id := out["id"].(string)
	waitDone(t, s, id)
	return id
}

// getResult fetches a result whatever its status.
func getResult(t *testing.T, ts *httptest.Server, id string) (int, []byte) {
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
	return resp.StatusCode, b
}

// seededSpec is validSpec with one trial and the given seed: distinct
// results of one size.
func seededSpec(seed int64) Spec {
	spec := validSpec()
	spec.Trials, spec.Seed = 1, seed
	return spec
}

// TestResultRetentionEvictsOldestKeepsNewest: under a budget of two and
// a half results the table holds the newest two; older ones answer 410,
// say result_evicted in their status, map to ErrResultEvicted in the
// client, show on /metrics — and a resubmission recomputes the same
// bytes.
func TestResultRetentionEvictsOldestKeepsNewest(t *testing.T) {
	// Size the budget from a real result.
	probe, probeTS := testServer(t, Config{})
	size := len(fetchResult(t, probeTS, runToDone(t, probe, probeTS, seededSpec(1))))

	s, ts := testServer(t, Config{ResultBytes: int64(size * 5 / 2)})
	var ids []string
	var bodies [][]byte
	for seed := int64(1); seed <= 5; seed++ {
		id := runToDone(t, s, ts, seededSpec(seed))
		// Fetched while it is the newest: always there.
		bodies = append(bodies, fetchResult(t, ts, id))
		ids = append(ids, id)
	}
	for i, id := range ids {
		code, body := getResult(t, ts, id)
		status := getJSON(t, ts.URL+"/api/v1/jobs/"+id, http.StatusOK)
		if status["state"] != "done" {
			t.Fatalf("%s: state %v", id, status["state"])
		}
		if i < 3 {
			if code != http.StatusGone || !strings.Contains(string(body), "resubmit") {
				t.Fatalf("%s (evicted): status %d (%s), want 410 naming the remedy", id, code, body)
			}
			if status["result_evicted"] != true {
				t.Fatalf("%s: status lacks result_evicted: %v", id, status)
			}
			continue
		}
		if code != http.StatusOK || !bytes.Equal(body, bodies[i]) {
			t.Fatalf("%s (retained): status %d, bytes equal %v", id, code, bytes.Equal(body, bodies[i]))
		}
		if _, has := status["result_evicted"]; has {
			t.Fatalf("%s: retained job reports result_evicted: %v", id, status)
		}
	}

	_, err := (&Client{Base: ts.URL, MaxAttempts: 1}).Result(context.Background(), ids[0])
	if !errors.Is(err, ErrResultEvicted) {
		t.Fatalf("Client.Result on an evicted job: %v, want ErrResultEvicted", err)
	}

	metrics := getText(t, ts.URL+"/metrics")
	for _, want := range []string{
		"costsense_results_retained_bytes " + itoa(len(bodies[3])+len(bodies[4])) + "\n",
		"costsense_results_evicted_total 3\n",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics lacks %q", want)
		}
	}

	// The remedy the 410 names: the same spec, the same bytes.
	again := runToDone(t, s, ts, seededSpec(1))
	if !bytes.Equal(fetchResult(t, ts, again), bodies[0]) {
		t.Fatal("resubmitting an evicted job's spec returned different bytes")
	}
}

// TestResultRetentionKeepsNewestOverBudget: a budget smaller than one
// result still serves every job its own result.
func TestResultRetentionKeepsNewestOverBudget(t *testing.T) {
	s, ts := testServer(t, Config{ResultBytes: 1})
	first := runToDone(t, s, ts, seededSpec(1))
	fetchResult(t, ts, first)
	second := runToDone(t, s, ts, seededSpec(2))
	fetchResult(t, ts, second)
	if code, _ := getResult(t, ts, first); code != http.StatusGone {
		t.Fatalf("older result under a 1-byte budget: status %d, want 410", code)
	}
}

// TestRestoreHonoursResultBudget: restoring a journal applies the same
// budget — the newest results come back byte-identical, older ones come
// back done but evicted, in the status, the stream and /metrics.
func TestRestoreHonoursResultBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	s, err := Open(Config{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := newFrontend(t, s)
	var ids []string
	var bodies [][]byte
	for seed := int64(1); seed <= 4; seed++ {
		id := runToDone(t, s, ts, seededSpec(seed))
		ids = append(ids, id)
		bodies = append(bodies, fetchResult(t, ts, id))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.journal.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{JournalPath: path, ResultBytes: int64(len(bodies[3]) + len(bodies[2]) + 1)})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	ts2 := newFrontend(t, s2)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s2.Drain(ctx)
		s2.journal.Close()
	})
	for i, id := range ids {
		code, body := getResult(t, ts2, id)
		lines := streamLines(t, ts2.URL+"/api/v1/jobs/"+id+"/stream")
		if i < 2 {
			if code != http.StatusGone {
				t.Fatalf("%s: restored past the budget: status %d, want 410", id, code)
			}
			if len(lines) != 1 || !strings.Contains(lines[0], `"result_evicted":true`) || !strings.Contains(lines[0], `"state":"done"`) {
				t.Fatalf("%s: restored stream %q, want one done line with result_evicted", id, lines)
			}
			continue
		}
		if code != http.StatusOK || !bytes.Equal(body, bodies[i]) {
			t.Fatalf("%s: restored result differs (status %d)", id, code)
		}
		if len(lines) != 1 || strings.Contains(lines[0], "result_evicted") {
			t.Fatalf("%s: restored stream %q", id, lines)
		}
	}
	if m := getText(t, ts2.URL+"/metrics"); !strings.Contains(m, "costsense_results_evicted_total 2\n") {
		t.Fatalf("/metrics after restore:\n%s", m)
	}
}

// TestResultFetchRacesEviction: readers hammer one job's result while
// later jobs push it out of the table. Every answer is the whole body
// or a 410, and once gone it stays gone. Run under -race.
func TestResultFetchRacesEviction(t *testing.T) {
	s, ts := testServer(t, Config{ResultBytes: 1})
	target := runToDone(t, s, ts, seededSpec(1))
	want := fetchResult(t, ts, target)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gone := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/api/v1/jobs/" + target + "/result")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case err != nil:
					t.Error(err)
					return
				case resp.StatusCode == http.StatusOK && !gone && bytes.Equal(body, want):
				case resp.StatusCode == http.StatusGone:
					gone = true
				default:
					t.Errorf("status %d after gone=%v with %d B, want the whole body or 410", resp.StatusCode, gone, len(body))
					return
				}
			}
		}()
	}
	for seed := int64(2); seed <= 6; seed++ {
		runToDone(t, s, ts, seededSpec(seed))
	}
	close(stop)
	wg.Wait()
	if code, _ := getResult(t, ts, target); code != http.StatusGone {
		t.Fatalf("target result after five later jobs under a 1-byte budget: status %d", code)
	}
}

// TestResultReadyWhenJobReadsDone is the regression test for the race
// the service benchmark found: the terminal stream line used to land
// before the result was fetchable, so a prompt GET got "409 job is
// done; result not ready". Two clients fetch the instant their stream
// ends, a third the instant a status poll says done; a thousand jobs,
// no retries. Run under -race.
func TestResultReadyWhenJobReadsDone(t *testing.T) {
	jobs := 1000
	if testing.Short() {
		jobs = 100
	}
	_, ts := testServer(t, Config{QueueCap: 8})
	spec := Spec{Experiment: "flood", Graph: GraphSpec{Family: "ring", N: 8}}
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &Client{Base: ts.URL, MaxAttempts: 1}
			ctx := context.Background()
			for i := c; i < jobs; i += 3 {
				id, err := cl.Submit(ctx, spec)
				if err != nil {
					t.Error(err)
					return
				}
				if c < 2 {
					if _, err = cl.Follow(ctx, id, nil); err != nil {
						t.Error(err)
						return
					}
				} else {
					for st := (JobStatus{}); st.State != "done"; runtime.Gosched() {
						if st, err = cl.Status(ctx, id); err != nil {
							t.Error(err)
							return
						}
					}
				}
				if _, err := cl.Result(ctx, id); err != nil {
					t.Errorf("job %d (%s): result the moment the job read done: %v", i, id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTerminalLineNeverPrecedesFinished watches the same hand-off from
// inside, where the window is nanoseconds wide rather than a network
// round trip: a goroutine spins on each job's progress log and, the
// instant the terminal line is there, requires finished closed and the
// result handler answering 200.
func TestTerminalLineNeverPrecedesFinished(t *testing.T) {
	jobs := 1000
	if testing.Short() {
		jobs = 100
	}
	s, ts := testServer(t, Config{})
	h := s.Handler()
	spec := Spec{Experiment: "flood", Graph: GraphSpec{Family: "ring", N: 8}}
	for i := 0; i < jobs; i++ {
		code, out, _ := postSpec(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d (%v)", i, code, out)
		}
		id := out["id"].(string)
		j := s.job(id)
		for from := 0; ; runtime.Gosched() {
			lines, _, done := j.progressSince(from)
			from += len(lines)
			if len(lines) == 0 || !bytes.Contains(lines[len(lines)-1], []byte(`"state":"done"`)) {
				if done {
					t.Fatalf("job %d (%s): progress log complete without a terminal line", i, id)
				}
				continue
			}
			select {
			case <-j.finished:
			default:
				t.Fatalf("job %d (%s): terminal line visible before finished closed", i, id)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+id+"/result", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("job %d (%s): result on the terminal line: status %d (%s)", i, id, rec.Code, rec.Body)
			}
			break
		}
	}
}

// TestResultMemoryPlateaus: the live heap of a server that has produced
// thirty times its result budget stops growing once the window is full
// — the job table keeps statuses, not bodies.
func TestResultMemoryPlateaus(t *testing.T) {
	const budget = 1 << 20
	s, ts := testServer(t, Config{ResultBytes: budget})
	spec := func(i int) Spec {
		return Spec{Experiment: "flood", Trials: 1, Seed: int64(i),
			Graph: GraphSpec{Family: "random", N: 400, M: 1600, Seed: 3, Weights: WeightSpec{Kind: "uniform", Max: 16, Seed: 3}}}
	}
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var produced, atFull int64
	for i := 1; i <= 80; i++ {
		id := runToDone(t, s, ts, spec(i))
		produced += int64(len(fetchResult(t, ts, id)))
		s.mu.Lock()
		retained, newest := s.retainedBytes, int64(len(s.jobs[id].result))
		s.mu.Unlock()
		if retained > budget+newest {
			t.Fatalf("job %d: table retains %d B, over the %d B budget plus the newest result", i, retained, budget)
		}
		if i == 20 {
			atFull = liveHeap() // the window has been full for a while
		}
	}
	if produced < 30*budget {
		t.Fatalf("produced only %d B of results; the test needs many times the %d B budget", produced, budget)
	}
	// Sixty more jobs are ~23 MB of bodies; what may stay is sixty Job
	// records and their progress logs.
	if grown := liveHeap() - atFull; grown > 2<<20 {
		t.Fatalf("live heap grew %d B over 60 jobs with the window full (produced %d B in all)", grown, produced)
	}
}
