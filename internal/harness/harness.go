// Package harness fans independent experiment trials across a worker
// set. Each trial is a pure function of its index (seed × protocol ×
// graph are encoded by the caller), so trials can run on any worker in
// any order while results come back in index order — parallel runs
// produce byte-identical tables to serial ones.
//
// There is one fan-out mechanism, Workers: a fixed set of long-lived
// goroutines, each owning one per-worker state value for as long as
// the set lives, that serve any number of concurrent indexed runs
// (RunOn) oldest run first. The experiment server keeps one set for
// its whole life, so every job's trials share one worker budget; the
// RunIndexed* functions start a set, run on it and close it.
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Sink receives per-trial telemetry from an indexed run. Callbacks
// fire from worker goroutines in completion order — which is
// scheduler-dependent — so a Sink must be safe for concurrent use and
// must treat what it hears as telemetry, never as input to results
// (the results themselves stay index-ordered and deterministic).
// internal/obs.Progress is the bundled implementation.
type Sink interface {
	// TrialStart fires as a worker picks up trial index.
	TrialStart(index int)
	// TrialDone fires after trial index completes; done counts
	// finished trials (1..total) and total is the sweep size.
	TrialDone(index, done, total int)
}

// ErrWorkersClosed is RunOn's error when the worker set stopped (Close,
// or its context cancelled) before the run's last trial was claimed.
var ErrWorkersClosed = errors.New("harness: worker set closed")

// TrialPanic is the error a run reports for a trial whose function
// panicked: the worker recovers, so the panic costs that run its result
// and nothing else — the run's other trials, every other run and the
// worker itself carry on.
type TrialPanic struct {
	Index int    // the trial that panicked
	Value any    // what it panicked with
	Stack []byte // the panicking goroutine's stack, from the recover
}

func (p *TrialPanic) Error() string {
	return fmt.Sprintf("trial %d panicked: %v", p.Index, p.Value)
}

// Workers is a fixed set of trial workers shared by concurrent indexed
// runs. Worker k builds its state S once, when it starts, and hands it
// to every trial it executes for any run: state is owned by exactly one
// goroutine for the life of the set, which is how sweeps thread
// *reusable* scratch (a sim.Pool recycling network arenas) through the
// set without locking. Because trials land on workers dynamically,
// results must not depend on which state value a trial sees — with
// sim.Pool they don't, by the Reset golden contract.
//
// A free worker claims the next unclaimed index of the oldest run that
// still has one. A run that can fill every worker therefore keeps them
// all until its tail, exactly as if it had the set to itself, and the
// next run's trials start the moment that tail leaves a worker free.
type Workers[S any] struct {
	ctx    context.Context // cancelled by Close (or the parent): workers stop claiming
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu   sync.Mutex
	runs []*run[S]     // runs with unclaimed indices, oldest first
	wake chan struct{} // closed and replaced when a run is added; idle workers park on it
}

// run is one RunOn call's share of the set's bookkeeping. The fields
// below the blank line are guarded by Workers.mu.
type run[S any] struct {
	ctx   context.Context
	n     int
	trial func(state S, i int) // runs index i and stores its outcome
	done  chan struct{}        // closed once no index is unclaimed and none in flight

	next     int // lowest unclaimed index; n once exhausted or retired
	inflight int // claimed and not yet finished
	closed   bool
}

// StartWorkers starts n workers (at least one), each calling newState
// once for the state it will own; a nil newState leaves the zero S.
// The workers run until Close, or until ctx is cancelled.
func StartWorkers[S any](ctx context.Context, n int, newState func() S) *Workers[S] {
	w := &Workers[S]{wake: make(chan struct{})}
	w.ctx, w.cancel = context.WithCancel(ctx)
	if n < 1 {
		n = 1
	}
	w.wg.Add(n)
	for k := 0; k < n; k++ {
		go w.work(newState)
	}
	return w
}

// Close stops the workers and returns once they have exited; a trial in
// flight runs to completion first. Runs still waiting for a worker
// return ErrWorkersClosed. Close is idempotent.
func (w *Workers[S]) Close() {
	w.cancel()
	w.wg.Wait()
}

// work is the package's one fan-out loop: claim, run, report, repeat.
func (w *Workers[S]) work(newState func() S) {
	defer w.wg.Done()
	var state S
	if newState != nil {
		state = newState()
	}
	for w.ctx.Err() == nil {
		r, i, wake := w.claim()
		if r == nil {
			select {
			case <-wake:
			case <-w.ctx.Done():
			}
			continue
		}
		r.trial(state, i)
		w.finish(r)
	}
}

// claim takes the next unclaimed index of the oldest run that has one.
// With nothing to claim it returns the channel the next RunOn will
// close — read under the same lock as the failed search, so a run added
// afterwards cannot be missed.
func (w *Workers[S]) claim() (r *run[S], i int, wake <-chan struct{}) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.runs) > 0 {
		r := w.runs[0]
		if r.ctx.Err() == nil {
			i := r.next
			r.next++
			r.inflight++
			if r.next == r.n {
				w.drop(0)
			}
			return r, i, nil
		}
		w.retire(r)
	}
	return nil, 0, w.wake
}

// finish records the end of one claimed trial.
func (w *Workers[S]) finish(r *run[S]) {
	w.mu.Lock()
	r.inflight--
	w.settle(r)
	w.mu.Unlock()
}

// retire withdraws r's unclaimed indices (its context is done, or the
// set is closing). The caller holds mu.
func (w *Workers[S]) retire(r *run[S]) {
	if r.next < r.n {
		r.next = r.n
		for k, q := range w.runs {
			if q == r {
				w.drop(k)
				break
			}
		}
	}
	w.settle(r)
}

// drop removes w.runs[k], leaving no reference to it in the backing
// array: a run pins its caller's results and closures, and the set
// outlives any number of runs. The caller holds mu.
func (w *Workers[S]) drop(k int) {
	last := len(w.runs) - 1
	copy(w.runs[k:], w.runs[k+1:])
	w.runs[last] = nil
	w.runs = w.runs[:last]
}

// settle closes r.done once r has nothing unclaimed and nothing in
// flight. The caller holds mu.
func (w *Workers[S]) settle(r *run[S]) {
	if r.next == r.n && r.inflight == 0 && !r.closed {
		r.closed = true
		close(r.done)
	}
}

// RunOn evaluates fn(0..n-1) on w's workers, beside whatever other runs
// the set is serving, and returns the results in index order. Every
// index runs even when some fail; the reported error is that of the
// failing call with the smallest index — a *TrialPanic if that call
// panicked — so results and error are independent of goroutine
// scheduling. fn must be safe for concurrent calls with distinct
// indices.
//
// Cancelling ctx withdraws the run's unclaimed indices at once, whether
// or not a worker is free to notice; trials already in flight run to
// completion (a simulator run is not interruptible mid-event-loop) and
// RunOn returns ctx's error as soon as they have. A nil sink adds no
// overhead.
func RunOn[S, T any](ctx context.Context, w *Workers[S], n int, fn func(context.Context, S, int) (T, error), sink Sink) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	errs := make([]error, n)
	var finished atomic.Int64
	r := &run[S]{ctx: ctx, n: n, done: make(chan struct{})}
	r.trial = func(state S, i int) {
		if sink != nil {
			sink.TrialStart(i)
		}
		func() {
			defer func() {
				if v := recover(); v != nil {
					errs[i] = &TrialPanic{Index: i, Value: v, Stack: debug.Stack()}
				}
			}()
			out[i], errs[i] = fn(ctx, state, i)
		}()
		if done := int(finished.Add(1)); sink != nil {
			sink.TrialDone(i, done, n)
		}
	}

	w.mu.Lock()
	w.runs = append(w.runs, r)
	close(w.wake)
	w.wake = make(chan struct{})
	w.mu.Unlock()

	select {
	case <-r.done:
	case <-ctx.Done():
	case <-w.ctx.Done():
	}
	w.mu.Lock()
	w.retire(r)
	w.mu.Unlock()
	<-r.done

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if int(finished.Load()) < n {
		return nil, ErrWorkersClosed
	}
	return out, nil
}

// RunIndexed evaluates fn(0..n-1) on min(GOMAXPROCS, n) workers and
// returns the results in index order. Every index runs even when some
// fail; if any call fails, RunIndexed returns the error of the failing
// call with the smallest index. Both the results and the reported
// error are therefore independent of goroutine scheduling. fn must be
// safe for concurrent calls with distinct indices.
func RunIndexed[T any](n int, fn func(int) (T, error)) ([]T, error) {
	return RunIndexedObserved(n, fn, nil)
}

// workerCount sizes a one-run worker set: min(procs, n), clamped to at
// least one worker. The clamp matters when the reported parallelism is
// zero or negative (an environment override, or a future runtime that
// forwards a caller's bogus setting).
func workerCount(procs, n int) int {
	w := procs
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunIndexedObserved is RunIndexed with an optional progress sink; a
// nil sink adds no overhead. The sink observes scheduling (completion
// order, wall time); the returned results are identical to RunIndexed.
func RunIndexedObserved[T any](n int, fn func(int) (T, error), sink Sink) ([]T, error) {
	//costsense:ctx-ok compat wrapper: non-cancellable callers run every trial to completion by design
	return RunIndexedPooled(context.Background(), n, nil,
		func(_ context.Context, _ struct{}, i int) (T, error) { return fn(i) }, sink)
}

// RunIndexedPooled is RunOn on a worker set of its own: it starts
// min(GOMAXPROCS, n) workers with newState (see StartWorkers), runs the
// n trials on them and closes the set, so per-worker state lives for
// this one run. Cancellation and error reporting are RunOn's.
func RunIndexedPooled[S, T any](ctx context.Context, n int, newState func() S, fn func(context.Context, S, int) (T, error), sink Sink) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	//costsense:nondet-ok sizes the worker set only; results and errors are reported in index order
	w := StartWorkers(ctx, workerCount(runtime.GOMAXPROCS(0), n), newState)
	defer w.Close()
	return RunOn(ctx, w, n, fn, sink)
}
