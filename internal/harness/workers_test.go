package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startWorkers starts a stateless set closed with the test.
func startWorkers(t *testing.T, n int) *Workers[struct{}] {
	t.Helper()
	w := StartWorkers[struct{}](context.Background(), n, nil)
	t.Cleanup(w.Close)
	return w
}

// await fails the test if ch is not closed (or sent on) in good time.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// TestWorkersConcurrentRunsOrderResults: many runs share one set at
// once; each gets its own results in index order and its own
// lowest-index error.
func TestWorkersConcurrentRunsOrderResults(t *testing.T) {
	w := startWorkers(t, 3)
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			n := 1 + 7*r
			failAt := -1
			if r%2 == 1 {
				failAt = n / 2
			}
			got, err := RunOn(context.Background(), w, n, func(_ context.Context, _ struct{}, i int) (int, error) {
				if i == failAt || (failAt >= 0 && i == n-1) {
					return 0, fmt.Errorf("run %d index %d", r, i)
				}
				return r*1000 + i, nil
			}, nil)
			if failAt >= 0 {
				if want := fmt.Sprintf("run %d index %d", r, failAt); err == nil || err.Error() != want {
					t.Errorf("run %d: err = %v, want %q (the lowest failing index)", r, err, want)
				}
				return
			}
			if err != nil || len(got) != n {
				t.Errorf("run %d: %d results, err %v", r, len(got), err)
				return
			}
			for i, v := range got {
				if v != r*1000+i {
					t.Errorf("run %d: got[%d] = %d", r, i, v)
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestWorkersOldestRunFirst: no index of a younger run is claimed while
// an older run still has an unclaimed one.
func TestWorkersOldestRunFirst(t *testing.T) {
	const workers, nOld, nYoung = 2, 8, 4
	w := startWorkers(t, workers)
	var oldClaimed atomic.Int64
	oldRunning := make(chan struct{})
	gate := make(chan struct{})
	oldDone := make(chan error, 1)
	go func() {
		_, err := RunOn(context.Background(), w, nOld, func(_ context.Context, _ struct{}, i int) (int, error) {
			if oldClaimed.Add(1) == 1 {
				close(oldRunning)
			}
			<-gate // one token per trial: the test paces the old run
			return i, nil
		}, nil)
		oldDone <- err
	}()
	await(t, oldRunning, "the old run's first trial") // so the young run is the younger one
	youngDone := make(chan error, 1)
	go func() {
		_, err := RunOn(context.Background(), w, nYoung, func(_ context.Context, _ struct{}, i int) (int, error) {
			// A claim is counted once its trial starts, so each other
			// worker may hold one old index claimed but not yet counted.
			if c := oldClaimed.Load(); c < nOld-(workers-1) {
				t.Errorf("young index %d claimed with only %d/%d old indices claimed", i, c, nOld)
			}
			return i, nil
		}, nil)
		youngDone <- err
	}()
	for i := 0; i < nOld; i++ {
		time.Sleep(time.Millisecond) // give a wrongly-eager worker the chance to take a young index
		gate <- struct{}{}
	}
	if err := await(t, oldDone, "the old run"); err != nil {
		t.Fatal(err)
	}
	if err := await(t, youngDone, "the young run"); err != nil {
		t.Fatal(err)
	}
}

// TestWorkersCancelFreesUnclaimed: cancelling a run that is still
// waiting for a worker returns at once — no worker has to come free to
// notice — with none of its trials run, and the run holding the workers
// completes undisturbed.
func TestWorkersCancelFreesUnclaimed(t *testing.T) {
	w := startWorkers(t, 1)
	holding := make(chan struct{})
	release := make(chan struct{})
	oldDone := make(chan []int, 1)
	go func() {
		got, err := RunOn(context.Background(), w, 3, func(_ context.Context, _ struct{}, i int) (int, error) {
			if i == 0 {
				close(holding)
			}
			<-release
			return i + 10, nil
		}, nil)
		if err != nil {
			t.Error(err)
		}
		oldDone <- got
	}()
	await(t, holding, "the old run to take the worker")

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	youngDone := make(chan error, 1)
	go func() {
		_, err := RunOn(ctx, w, 5, func(_ context.Context, _ struct{}, i int) (int, error) {
			ran.Add(1)
			return i, nil
		}, nil)
		youngDone <- err
	}()
	time.Sleep(5 * time.Millisecond) // let it queue up behind the old run
	cancel()
	if err := await(t, youngDone, "the cancelled run to return while the worker is still held"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	close(release)
	if got := await(t, oldDone, "the old run"); len(got) != 3 || got[0] != 10 || got[2] != 12 {
		t.Fatalf("old run results %v, want [10 11 12]", got)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d trials of the cancelled run ran after its cancellation", n)
	}
}

// TestWorkersStateIsPerWorker: newState runs once per worker, and a
// state value is only ever touched by the worker that built it — the
// counters below are deliberately unsynchronized, so -race fails the
// test if two goroutines share one.
func TestWorkersStateIsPerWorker(t *testing.T) {
	type scratch struct{ uses int }
	const workers, runs, n = 4, 6, 50
	var mu sync.Mutex
	var states []*scratch
	w := StartWorkers(context.Background(), workers, func() *scratch {
		s := new(scratch)
		mu.Lock()
		states = append(states, s)
		mu.Unlock()
		return s
	})
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunOn(context.Background(), w, n, func(_ context.Context, s *scratch, i int) (int, error) {
				s.uses++
				return i, nil
			}, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	w.Close() // the workers have exited: their states are safe to read
	if len(states) != workers {
		t.Fatalf("newState ran %d times, want once per worker (%d)", len(states), workers)
	}
	total := 0
	for _, s := range states {
		total += s.uses
	}
	if total != runs*n {
		t.Fatalf("states saw %d trials, want %d", total, runs*n)
	}
}

// TestWorkersCloseWaitsForInFlight: Close returns only after the trial
// in flight has, and the run that lost its workers reports it.
func TestWorkersCloseWaitsForInFlight(t *testing.T) {
	w := StartWorkers[struct{}](context.Background(), 1, nil)
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var finished atomic.Bool
	runDone := make(chan error, 1)
	go func() {
		_, err := RunOn(context.Background(), w, 2, func(_ context.Context, _ struct{}, i int) (int, error) {
			close(inFlight) // a second trial would panic here: Close must stop the claim
			<-release
			finished.Store(true)
			return i, nil
		}, nil)
		runDone <- err
	}()
	await(t, inFlight, "the first trial")
	closed := make(chan struct{})
	go func() { w.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned with a trial in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	await(t, closed, "Close")
	if !finished.Load() {
		t.Fatal("Close returned before the in-flight trial finished")
	}
	if err := await(t, runDone, "the run"); !errors.Is(err, ErrWorkersClosed) {
		t.Fatalf("run on a closed set: err = %v, want ErrWorkersClosed", err)
	}
	if _, err := RunOn(context.Background(), w, 1, func(context.Context, struct{}, int) (int, error) { return 0, nil }, nil); !errors.Is(err, ErrWorkersClosed) {
		t.Fatalf("run started after Close: err = %v, want ErrWorkersClosed", err)
	}
	w.Close() // idempotent
}

// TestWorkersTrialPanic: a panicking trial becomes that run's typed
// error; the run's other trials, a run beside it and the next run on
// the same workers are untouched.
func TestWorkersTrialPanic(t *testing.T) {
	w := startWorkers(t, 2)
	var ran [16]atomic.Int64
	sink := &recordingSink{}
	besideDone := make(chan error, 1)
	go func() {
		_, err := RunOn(context.Background(), w, 32, func(_ context.Context, _ struct{}, i int) (int, error) { return i, nil }, nil)
		besideDone <- err
	}()
	_, err := RunOn(context.Background(), w, len(ran), func(_ context.Context, _ struct{}, i int) (int, error) {
		ran[i].Add(1)
		if i == 5 {
			panic(fmt.Sprintf("boom at %d", i))
		}
		if i == 11 {
			return 0, errors.New("plain failure at 11")
		}
		return i, nil
	}, sink)
	var tp *TrialPanic
	if !errors.As(err, &tp) {
		t.Fatalf("err = %v, want a *TrialPanic (index 5 is below the plain failure at 11)", err)
	}
	if tp.Index != 5 || tp.Value != "boom at 5" || !strings.Contains(string(tp.Stack), "TestWorkersTrialPanic") {
		t.Fatalf("TrialPanic{Index: %d, Value: %v}, stack names the test: %v", tp.Index, tp.Value, strings.Contains(string(tp.Stack), "TestWorkersTrialPanic"))
	}
	if !strings.Contains(err.Error(), "trial 5 panicked: boom at 5") {
		t.Fatalf("error text %q", err)
	}
	for i := range ran {
		if c := ran[i].Load(); c != 1 {
			t.Errorf("index %d ran %d times, want 1", i, c)
		}
		if s, d := sink.starts[i].Load(), sink.dones[i].Load(); s != 1 || d != 1 {
			t.Errorf("index %d: %d starts, %d dones, want 1/1 (the panicking trial included)", i, s, d)
		}
	}
	if err := await(t, besideDone, "the run beside the panicking one"); err != nil {
		t.Fatalf("run beside the panicking one: %v", err)
	}
	got, err := RunOn(context.Background(), w, 8, func(_ context.Context, _ struct{}, i int) (int, error) { return i * 2, nil }, nil)
	if err != nil || len(got) != 8 || got[7] != 14 {
		t.Fatalf("next run on the same workers = (%v, %v)", got, err)
	}
}
