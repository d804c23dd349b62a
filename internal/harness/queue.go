package harness

import (
	"context"
	"errors"
	"sync"
)

// Queue errors, distinguishable by callers that map them to transport
// responses (the experiment server returns 429 for a full queue and
// 503 for a closed one).
var (
	// ErrQueueFull: the queue is at capacity; retry after backpressure.
	ErrQueueFull = errors.New("harness: job queue full")
	// ErrQueueClosed: the queue no longer accepts jobs (shutting down).
	ErrQueueClosed = errors.New("harness: job queue closed")
)

// Job is one unit of queued work. It receives the run context the
// Run loop that picked it up was started with; a job that fans out
// trials should pass that context to RunOn so a drain deadline can stop
// it between trials.
type Job func(context.Context)

// Queue is a bounded FIFO job queue with non-blocking admission — the
// backpressure primitive of the experiment server. Producers TrySubmit
// from any goroutine and get ErrQueueFull instead of blocking when the
// bound is hit; recovery re-admission uses the blocking Submit, which
// waits for space instead (a restart must never drop a journaled job
// to a full queue). Consumers are Run loops, any number of them: jobs
// start in admission order, each on whichever loop is free first, so
// with one loop they run one at a time and with k loops up to k run at
// once (the experiment server runs GOMAXPROCS of them and hands their
// trials to one shared Workers set).
//
// The jobs channel is never closed — shutdown is signalled through
// closedCh instead, so a Submit blocked in a channel send can never
// race a close into a panic.
type Queue struct {
	mu       sync.Mutex
	jobs     chan Job
	closed   bool
	closedCh chan struct{} // closed by Close; wakes blocked Submits and Run loops
}

// NewQueue builds a queue admitting at most capacity pending jobs
// (capacity <= 0 means 1).
func NewQueue(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue{jobs: make(chan Job, capacity), closedCh: make(chan struct{})}
}

// TrySubmit enqueues j without blocking: ErrQueueFull when the queue
// is at capacity, ErrQueueClosed after Close.
func (q *Queue) TrySubmit(j Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	select {
	case q.jobs <- j:
		return nil
	default:
		return ErrQueueFull
	}
}

// Submit enqueues j, blocking until space frees up, the queue closes
// (ErrQueueClosed), or ctx is cancelled (ctx.Err()). It is the
// admission path for work that must not be dropped — the experiment
// server's restart recovery re-enqueues journaled jobs through it —
// while interactive submissions keep the fail-fast TrySubmit/429 path.
//
// A Submit racing Close may still win the send; the job is then either
// executed by a Run loop's drain pass or left for the caller's shutdown
// bookkeeping, exactly like a job admitted just before Close.
func (q *Queue) Submit(ctx context.Context, j Job) error {
	q.mu.Lock()
	closed := q.closed
	q.mu.Unlock()
	if closed {
		return ErrQueueClosed
	}
	select {
	case q.jobs <- j:
		return nil
	case <-q.closedCh:
		return ErrQueueClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Len reports the number of jobs admitted but not yet started.
func (q *Queue) Len() int { return len(q.jobs) }

// Cap reports the admission bound.
func (q *Queue) Cap() int { return cap(q.jobs) }

// Close rejects all further submissions. Jobs already admitted still
// run; once they finish, every Run loop returns. Close is idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		close(q.closedCh)
	}
}

// Run is one consumer loop: it takes the oldest admitted job, executes
// it on the calling goroutine and repeats, until the queue is Closed
// and drained, or ctx is cancelled — whichever comes first. ctx is also
// handed to every job, so cancelling it both stops the loop and tells
// the running job to wind down. Run may be called from several
// goroutines at once; each call is one more job in flight.
func (q *Queue) Run(ctx context.Context) {
	for {
		// Prefer cancellation when both are ready: a drain deadline
		// must win over a backlog.
		select {
		case <-ctx.Done():
			return
		default:
		}
		select {
		case <-ctx.Done():
			return
		case j := <-q.jobs:
			j(ctx)
		case <-q.closedCh:
			q.drain(ctx)
			return
		}
	}
}

// drain runs the backlog left in the buffer at Close, still honoring
// cancellation between jobs, and returns at the first empty poll.
func (q *Queue) drain(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		select {
		case j := <-q.jobs:
			j(ctx)
		default:
			return
		}
	}
}
