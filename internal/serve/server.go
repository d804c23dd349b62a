package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"costsense/internal/harness"
)

// Job states, reported in status JSON.
const (
	jobQueued int32 = iota
	jobRunning
	jobDone
	jobFailed
)

func stateName(s int32) string {
	switch s {
	case jobQueued:
		return "queued"
	case jobRunning:
		return "running"
	case jobDone:
		return "done"
	}
	return "failed"
}

// errJobDeadline is the cancellation cause installed by a job's
// deadline context, so runJob can tell an expired deadline from a
// drain cutting the same sweep off.
var errJobDeadline = errors.New("serve: job deadline exceeded")

// Job is one admitted experiment submission. Its mutable fields are
// written by the job's runner goroutine and read by HTTP handlers, hence
// the atomics; errMsg and failReason are published by the atomic state
// store, and result lives under the server's mu (retention may drop it
// again long after the job is done).
type Job struct {
	id        string
	spec      Spec
	recovered bool // re-admitted from the journal at startup (set before publication)

	state      atomic.Int32
	cached     atomic.Bool // substrate came from the cache (set at start)
	trialsDone atomic.Int64

	// Lifecycle timestamps (wall-clock unix nanos), status-only: they
	// describe scheduling history, never experiment output, so result
	// bytes stay deterministic. Atomics because the job's runner writes
	// while handlers read.
	submittedAt atomic.Int64
	startedAt   atomic.Int64
	finishedAt  atomic.Int64

	finished   chan struct{} // closed, under pmu, with the terminal progress line
	errMsg     string
	failReason string // typed reason (ReasonError, ReasonDeadline, ...)

	// result is the served body of a done job. Server.mu guards it:
	// retainResult sets it before the job turns done and may nil it
	// again when the retention budget evicts it, which resultEvicted
	// then reports in the status.
	result        []byte
	resultEvicted atomic.Bool

	// The progress log: every status line ever emitted for this job,
	// in order. Streams serve it from any offset (?from=), which is
	// what lets a client resume after a disconnect — or a server
	// restart — without re-reading lines it already has. Appends come
	// from the job's runner and the trial workers; pnotify is
	// replaced (old one closed) on every append to wake waiting
	// streams.
	pmu     sync.Mutex
	plines  [][]byte
	pnotify chan struct{}
}

// nowUnixNano reads the wall clock for job lifecycle timestamps — the
// one sanctioned wall-clock source in this package.
func nowUnixNano() int64 {
	//costsense:nondet-ok job lifecycle timestamps are status telemetry; they never reach result bytes
	return time.Now().UnixNano()
}

func newJob(id string, spec Spec) *Job {
	j := &Job{id: id, spec: spec, finished: make(chan struct{}), pnotify: make(chan struct{})}
	j.submittedAt.Store(nowUnixNano())
	j.plines = append(j.plines, j.statusLine()) // "queued", pre-publication: no lock needed
	return j
}

// Job implements harness.Sink to count finished trials for status and
// streaming. Callbacks fire from worker goroutines; atomics plus the
// progress mutex only.
func (j *Job) TrialStart(int) {}

// TrialDone records progress; done is the harness's monotone finished
// count. Every progressStep-th trial also lands a line in the progress
// log, so streams see steady movement without a per-trial allocation
// storm on big sweeps.
func (j *Job) TrialDone(_, done, total int) {
	j.trialsDone.Store(int64(done))
	step := total / 64
	if step < 1 {
		step = 1
	}
	if done%step == 0 || done == total {
		j.appendProgress()
	}
}

// statusLine renders the job's current status as one NDJSON line.
func (j *Job) statusLine() []byte {
	b, err := json.Marshal(j.status())
	if err != nil {
		// A JobStatus is plain strings and numbers; Marshal cannot
		// fail on it. Keep the stream well-formed regardless.
		return []byte("{}\n")
	}
	return append(b, '\n')
}

// appendProgress appends the current status to the progress log and
// wakes every waiting stream.
func (j *Job) appendProgress() {
	line := j.statusLine()
	j.pmu.Lock()
	j.plines = append(j.plines, line)
	close(j.pnotify)
	j.pnotify = make(chan struct{})
	j.pmu.Unlock()
}

// progressSince returns the log lines at and after offset from, the
// channel that will signal the next append, and whether the log is
// complete (the job is terminal and from has reached the end — the
// terminal line lands in the same critical section that closes
// finished).
func (j *Job) progressSince(from int) (lines [][]byte, notify <-chan struct{}, done bool) {
	j.pmu.Lock()
	defer j.pmu.Unlock()
	if from < len(j.plines) {
		lines = j.plines[from:]
	}
	select {
	case <-j.finished:
		done = from+len(lines) >= len(j.plines)
	default:
	}
	return lines, j.pnotify, done
}

// JobStatus is the wire form of a job's current state. SubstrateCached
// lives here — in the *status*, never in the result — because whether
// the substrate was a cache hit is scheduling history, not experiment
// output: results must stay byte-identical across submissions. The
// same holds for Recovered (the job was re-enqueued from the journal
// after a restart) and Reason (why it failed).
type JobStatus struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Experiment  string `json:"experiment"`
	TrialsDone  int64  `json:"trials_done"`
	TrialsTotal int    `json:"trials_total"`
	// SubstrateCached reports whether the job's substrate came from
	// the cache; present once the job has started.
	SubstrateCached *bool `json:"substrate_cached,omitempty"`
	// Recovered marks a job re-admitted from the journal at startup.
	Recovered bool `json:"recovered,omitempty"`
	// Reason is the typed failure class (error, deadline, panic,
	// shutdown, killed); present on failed jobs.
	Reason string `json:"reason,omitempty"`
	Error  string `json:"error,omitempty"`
	// ResultEvicted marks a done job whose result body the retention
	// budget has dropped: GET …/result answers 410, and resubmitting the
	// spec recomputes the identical bytes.
	ResultEvicted bool `json:"result_evicted,omitempty"`
	// Lifecycle timestamps, RFC 3339 with nanoseconds; started_at and
	// finished_at appear once the job reaches that state. Status-only
	// scheduling history — the result JSON carries none of these.
	SubmittedAt string `json:"submitted_at,omitempty"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
}

// stampRFC3339 renders a unix-nano timestamp, or "" for zero (state
// not reached yet).
func stampRFC3339(ns int64) string {
	if ns == 0 {
		return ""
	}
	return time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
}

func (j *Job) status() JobStatus {
	st := j.state.Load()
	s := JobStatus{
		ID:            j.id,
		State:         stateName(st),
		Experiment:    j.spec.Experiment,
		TrialsDone:    j.trialsDone.Load(),
		TrialsTotal:   j.spec.Trials,
		Recovered:     j.recovered,
		ResultEvicted: j.resultEvicted.Load(),
	}
	if st == jobRunning || (st >= jobDone && j.startedAt.Load() != 0) {
		cached := j.cached.Load()
		s.SubstrateCached = &cached
	}
	if st == jobFailed {
		s.Error = j.errMsg
		s.Reason = j.failReason
	}
	s.SubmittedAt = stampRFC3339(j.submittedAt.Load())
	s.StartedAt = stampRFC3339(j.startedAt.Load())
	s.FinishedAt = stampRFC3339(j.finishedAt.Load())
	return s
}

// complete moves the job to done; its result is already in the job
// table (Server.retainResult). logDone is as for finish.
func (j *Job) complete(logDone func(*Job)) { j.finish(jobDone, logDone) }

// fail moves the job to failed with a typed reason and human detail.
// logDone is as for finish.
func (j *Job) fail(reason, msg string, logDone func(*Job)) {
	j.errMsg = msg
	j.failReason = reason
	j.finish(jobFailed, logDone)
}

// finish publishes a terminal state. The terminal progress line and
// the closing of finished are one pmu critical section, so a stream
// never ends without the terminal line and never shows it before
// finished is closed; and the state store precedes both, so whoever
// has seen the job terminal — on a stream or in a status poll — can
// fetch its result at once (handleResult goes by the state). logDone,
// when not nil, runs between the two, so the terminal log record is
// written by the time finished closes.
func (j *Job) finish(state int32, logDone func(*Job)) {
	j.finishedAt.Store(nowUnixNano())
	j.state.Store(state)
	if logDone != nil {
		logDone(j)
	}
	line := j.statusLine()
	j.pmu.Lock()
	j.plines = append(j.plines, line)
	close(j.finished)
	close(j.pnotify)
	j.pnotify = make(chan struct{})
	j.pmu.Unlock()
}

// Config tunes a Server.
type Config struct {
	// QueueCap bounds the number of admitted-but-unstarted jobs;
	// submissions beyond it get 429 + Retry-After (default 16).
	QueueCap int
	// CacheBytes bounds the substrate cache (default 256 MiB).
	CacheBytes int64
	// ResultBytes bounds the result bodies the job table retains
	// (default 256 MiB). Past it the oldest-completed results are
	// dropped — the newest always stays — and answer 410 Gone; a
	// result is a pure function of its spec, so resubmitting
	// recomputes the identical bytes.
	ResultBytes int64
	// JournalPath, when non-empty, enables the durable job journal:
	// every job state transition is an fsync'd NDJSON record, and the
	// next startup on the same path re-enqueues incomplete jobs (see
	// DESIGN.md, "Durability & recovery"). Open the server with Open
	// to surface journal corruption as an error.
	JournalPath string
	// JobTimeout is the default per-job deadline applied to jobs whose
	// spec carries no timeout_ms of its own; 0 means no deadline. An
	// expired job fails with reason "deadline" and its runner moves on.
	// The clock starts when the job does, so it also covers time the
	// job's trials spend waiting for workers an older job still holds.
	JobTimeout time.Duration
	// DebugHandler, when non-nil, is mounted at /debug/ (the cmd layer
	// passes the expvar+pprof mux).
	DebugHandler http.Handler
	// Logger receives structured request and job lifecycle records
	// (default: discard). Build one with NewLogger so every record is
	// timestamped through the audited clock choke point.
	Logger *slog.Logger
}

// Server is the costsense experiment service: it admits specs onto a
// bounded job queue (backpressure via 429), journals every job state
// transition when durability is enabled, runs jobs concurrently under
// one worker budget, shares substrates through the content-addressed
// cache, and serves status, resumable NDJSON progress streams, and
// byte-deterministic results. After a crash, a restart on the same
// journal path re-enqueues every incomplete job; replaying a spec
// reproduces its result byte for byte.
//
// The budget is GOMAXPROCS twice over. That many job runners take jobs
// off the queue in admission order and do each job's single-threaded
// stages — journal records, substrate lookup or build, result encoding,
// publication — on their own goroutine; that many trial workers, shared
// by every running job, execute the trials, oldest job first (see
// harness.Workers). A one-trial job thus leaves the other cores to the
// next job's build or trials, while a sweep wide enough to fill the
// workers keeps them all.
type Server struct {
	cfg      Config
	cache    *Cache
	queue    *harness.Queue
	journal  *Journal
	log      *slog.Logger
	rejected atomic.Int64 // submissions turned away (429/503), for /metrics

	// Robustness counters, surfaced on /metrics.
	recovered   atomic.Int64 // journaled incomplete jobs re-enqueued at startup
	expired     atomic.Int64 // jobs failed by their deadline
	panicked    atomic.Int64 // jobs failed by a panicking sweep
	journalErrs atomic.Int64 // journal append failures (durability degraded)

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // creation order, for listing
	nextID int

	// Result retention, under mu: the done jobs still holding a result
	// body, oldest completion first, and what they add up to.
	retained      []*Job
	retainedBytes int64
	evictedTotal  int64

	// workers is the server-wide trial worker set, started by Start and
	// closed once the last runner has exited.
	workers *harness.Workers[*trialWorker]
	// scratch is the free list of result-encoding buffers, one per
	// runner: runJob takes one for the job and puts it back, grown to the
	// largest result it has encoded, for a later job.
	scratch chan []byte

	recoverQ []*Job // journaled incomplete jobs awaiting re-admission, original order

	runCtx    context.Context // cancelled after drain; stops sweeps and streams
	runCancel context.CancelFunc
	drained   chan struct{} // closed when every runner and worker has exited
	started   atomic.Bool
}

// New builds a Server, panicking if the configured journal cannot be
// opened or is corrupt — the constructor of choice for journal-less
// configs and tests. Production callers with a journal use Open and
// handle the error.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open builds a Server, recovering journaled state when
// cfg.JournalPath is set: terminal jobs are restored from their
// persisted records (done jobs keep their exact result bytes), and
// incomplete jobs are queued for re-admission when Start launches the
// scheduler. A corrupt journal fails Open with the decoder's typed
// error; a torn final line is truncated and tolerated.
func Open(cfg Config) (*Server, error) {
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 16
	}
	if cfg.ResultBytes <= 0 {
		cfg.ResultBytes = 256 << 20
	}
	log := cfg.Logger
	if log == nil {
		log = NewLogger(io.Discard)
	}
	//costsense:ctx-ok lifecycle root: the server outlives any one request; Drain cancels runCtx
	runCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		cache:     NewCache(cfg.CacheBytes),
		queue:     harness.NewQueue(cfg.QueueCap),
		log:       log,
		jobs:      make(map[string]*Job),
		runCtx:    runCtx,
		runCancel: cancel,
		drained:   make(chan struct{}),
	}
	if cfg.JournalPath != "" {
		jl, rec, err := OpenJournal(cfg.JournalPath)
		if err != nil {
			cancel()
			return nil, err
		}
		s.journal = jl
		s.restore(rec)
	}
	return s, nil
}

// restore folds the decoded journal into the job table: terminal jobs
// become immediately-servable history (result bodies within the
// retention budget, newest kept), incomplete ones go on the
// re-admission list in original submission order. Runs before the
// server is published, so plain field writes suffice.
func (s *Server) restore(rec *Recovery) {
	for _, rj := range rec.Jobs {
		j := &Job{id: rj.ID, spec: rj.Spec, finished: make(chan struct{}), pnotify: make(chan struct{})}
		j.submittedAt.Store(rj.SubmittedAt)
		switch {
		case rj.Done:
			s.retainResult(j, rj.Result)
			j.startedAt.Store(rj.StartedAt)
			j.finishedAt.Store(rj.FinishedAt)
			j.trialsDone.Store(int64(rj.Spec.Trials))
			j.state.Store(jobDone)
			close(j.finished)
		case rj.Failed:
			j.errMsg = rj.Detail
			j.failReason = rj.Reason
			j.startedAt.Store(rj.StartedAt)
			j.finishedAt.Store(rj.FinishedAt)
			j.state.Store(jobFailed)
			close(j.finished)
		default:
			j.recovered = true
			s.recoverQ = append(s.recoverQ, j)
		}
		s.jobs[rj.ID] = j
		s.order = append(s.order, rj.ID)
	}
	// The one line of each restored log, rendered once retention has
	// settled so it reports result_evicted as the status does.
	for _, id := range s.order {
		j := s.jobs[id]
		j.plines = append(j.plines, j.statusLine())
	}
	if rec.MaxID > s.nextID {
		s.nextID = rec.MaxID
	}
	if rec.TornTail {
		s.logEvent("journal torn tail truncated", slog.String("path", s.journal.Path()))
	}
}

// retainResult puts a done job's result body in the job table and
// evicts the oldest-completed bodies until the table is back inside
// cfg.ResultBytes. The newest is kept whatever its size, so a client
// that fetches when it sees the job done never meets a 410. The caller
// holds mu (or, in restore, is the only goroutine).
func (s *Server) retainResult(j *Job, body []byte) {
	j.result = body
	s.retained = append(s.retained, j)
	s.retainedBytes += int64(len(body))
	for s.retainedBytes > s.cfg.ResultBytes && len(s.retained) > 1 {
		old := s.retained[0]
		s.retained[0] = nil
		s.retained = s.retained[1:]
		s.retainedBytes -= int64(len(old.result))
		old.result = nil
		old.resultEvicted.Store(true)
		s.evictedTotal++
	}
}

// Cache exposes the substrate cache (for stats and tests).
func (s *Server) Cache() *Cache { return s.cache }

// Start launches the scheduler — GOMAXPROCS job runners taking jobs off
// the queue in admission order, and as many trial workers shared by all
// of them — and, after a journaled restart, the recovery goroutine
// re-admitting incomplete jobs. Idempotent.
func (s *Server) Start() {
	if s.started.Swap(true) {
		return
	}
	//costsense:nondet-ok sizes the runner and worker sets only; a result is a pure function of its spec, whichever runner and workers produce it
	n := runtime.GOMAXPROCS(0)
	s.workers = harness.StartWorkers(s.runCtx, n, newTrialWorker)
	s.scratch = make(chan []byte, n)
	var live atomic.Int64
	live.Store(int64(n))
	for i := 0; i < n; i++ {
		s.scratch <- nil
		go func() {
			s.queue.Run(s.runCtx)
			if live.Add(-1) == 0 { // the last runner out closes up
				s.workers.Close()
				close(s.drained)
			}
		}()
	}
	if len(s.recoverQ) > 0 {
		go s.readmitRecovered()
	}
}

// readmitRecovered re-enqueues journaled incomplete jobs in original
// submission order through the queue's blocking Submit: a restart must
// never drop a journaled job to a full queue, so recovery waits for
// space instead of bouncing. New HTTP submissions keep the fail-fast
// TrySubmit/429 path and may interleave behind the backlog. Terminates
// with runCtx: a drain during recovery abandons re-admission and
// leaves the rest for the next start (their journal records are
// untouched).
func (s *Server) readmitRecovered() {
	for _, j := range s.recoverQ {
		j := j
		if err := s.queue.Submit(s.runCtx, func(ctx context.Context) { s.runJob(ctx, j) }); err != nil {
			s.logEvent("recovery re-admission stopped", slog.String("job", j.id), slog.String("reason", err.Error()))
			return
		}
		s.recovered.Add(1)
		s.logEvent("job recovered", slog.String("job", j.id), slog.String("experiment", j.spec.Experiment))
	}
}

// Drain gracefully shuts the job pipeline down: stop admitting, let
// already-admitted jobs finish within ctx's deadline, then cancel
// whatever remains (an in-flight sweep stops between trials) and fail
// unstarted jobs. After Drain the server only serves reads. Returns
// ctx.Err() if the deadline cut the drain short, nil if it was clean.
//
// Jobs still queued at drain are failed in memory (streams terminate)
// but keep their journaled submitted records, so the next start on the
// same journal re-runs them; each in-flight job the deadline cuts off
// is journaled failed(shutdown) by its runner and is not re-run.
func (s *Server) Drain(ctx context.Context) error {
	s.queue.Close()
	if !s.started.Swap(true) {
		// No runner ever started, so nothing will drain the queue or
		// close drained; do both here. The Swap also keeps a late Start
		// from launching them now.
		s.runCancel()
		close(s.drained)
	}
	var err error
	select {
	case <-s.drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.runCancel()
	<-s.drained
	s.failUnfinished()
	return err
}

// MarkKilled journals a failed(reason=killed) transition for every
// in-flight job. The cmd layer calls it when a second termination
// signal arrives mid-drain — the process is about to die with their
// sweeps unfinished, and without the records the next start would
// re-run those jobs blind instead of reporting what killed them.
func (s *Server) MarkKilled() {
	s.mu.Lock()
	var running []*Job
	for _, id := range s.order {
		if j := s.jobs[id]; j.state.Load() == jobRunning {
			running = append(running, j)
		}
	}
	s.mu.Unlock()
	for _, j := range running {
		//costsense:err-ok journalAppend already counts and logs the failure; a dead disk degrades durability, never the scheduler
		s.journalAppend(journalRecord{
			Op: opFailed, Job: j.id, Reason: ReasonKilled,
			Detail: "second termination signal killed the job mid-drain",
		})
		s.logEvent("job killed", slog.String("job", j.id))
	}
	// Close the journal so a doomed sweep cannot append a finished
	// record after its failed(killed) one — that ordering would read as
	// corruption on the next start. Appends after this point fail into
	// the journal-error counter; the process is exiting anyway.
	//costsense:err-ok the process is about to exit; a close error has no one left to act on it
	s.journal.Close()
}

// failUnfinished marks every job that will never run (queued at
// shutdown) or was cut off mid-sweep as failed, so streams and polls
// terminate. Collecting under mu and failing outside it keeps the
// progress-log appends out of the job-table critical section.
func (s *Server) failUnfinished() {
	s.mu.Lock()
	pending := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		select {
		case <-j.finished:
		default:
			pending = append(pending, j)
		}
	}
	s.mu.Unlock()
	for _, j := range pending {
		j.fail(ReasonShutdown, "server shut down before the job finished", nil)
	}
}

// journalAppend writes one journal record, folding failures into the
// journal-error counter: a dead disk degrades durability but must not
// take the runners with it. Returns the append error for callers
// that gate on durability (admission does; runner transitions log and
// proceed).
func (s *Server) journalAppend(r journalRecord) error {
	err := s.journal.append(r)
	if err != nil {
		s.journalErrs.Add(1)
		s.logEvent("journal append failed", slog.String("op", r.Op), slog.String("job", r.Job), slog.String("error", err.Error()))
	}
	return err
}

// deadlineFor resolves a job's deadline: the spec's own timeout_ms
// wins, then the server-wide default; 0 means none.
func (s *Server) deadlineFor(spec Spec) time.Duration {
	if spec.TimeoutMS > 0 {
		return time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	return s.cfg.JobTimeout
}

// failJob journals and publishes a job's failure.
func (s *Server) failJob(j *Job, reason, msg string) {
	s.journalAppend(journalRecord{Op: opFailed, Job: j.id, Reason: reason, Detail: msg}) //costsense:err-ok journalAppend already counts and logs the failure; a dead disk degrades durability, never the scheduler
	j.fail(reason, msg, s.logJobDone)
}

// runJob executes one admitted job on the calling runner: journal the
// start, resolve the substrate through the cache, run the trials on the
// shared workers under the job's deadline, encode, journal and publish
// the outcome. A panic — in a trial on a worker (a protocol bug), or
// here on the runner (a mutated substrate) — fails this job, panic
// value journaled so a restart does not re-run it, and leaves the
// runner, the workers and every other running job as they were.
func (s *Server) runJob(ctx context.Context, j *Job) {
	scratch := <-s.scratch // never parks: one buffer per runner
	defer func() {
		s.scratch <- scratch
		if r := recover(); r != nil {
			s.panicked.Add(1)
			s.failJob(j, ReasonPanic, fmt.Sprintf("job panicked: %v", r))
		}
	}()
	s.journalAppend(journalRecord{Op: opStarted, Job: j.id}) //costsense:err-ok journalAppend already counts and logs the failure; a dead disk degrades durability, never the scheduler
	key := j.spec.SubstrateKey()
	sub, hit, err := s.cache.GetOrBuild(ctx, key, func() *Substrate {
		return buildSubstrate(key, j.spec.Graph)
	})
	if err != nil { // the drain deadline passed while another job was building this substrate
		s.failJob(j, ReasonShutdown, "drain cut the job off before its substrate was built")
		return
	}
	j.cached.Store(hit)
	j.startedAt.Store(nowUnixNano())
	j.state.Store(jobRunning)
	j.appendProgress()
	s.logEvent("job started",
		slog.String("job", j.id), slog.String("experiment", j.spec.Experiment),
		slog.Int("trials", j.spec.Trials), slog.Bool("substrate_cached", hit),
		slog.Bool("recovered", j.recovered))

	runCtx := ctx
	deadline := s.deadlineFor(j.spec)
	if deadline > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeoutCause(ctx, deadline, errJobDeadline)
		defer cancel()
	}
	buf, err := runSpec(runCtx, s.workers, j.spec, sub, j, scratch[:0])
	if err != nil {
		reason, msg := ReasonError, err.Error()
		var trialPanic *harness.TrialPanic
		switch {
		case errors.Is(context.Cause(runCtx), errJobDeadline):
			reason = ReasonDeadline
			msg = fmt.Sprintf("deadline %s exceeded after %d/%d trials", deadline, j.trialsDone.Load(), j.spec.Trials)
			s.expired.Add(1)
		case ctx.Err() != nil:
			reason = ReasonShutdown
			msg = fmt.Sprintf("drain cut the job off after %d/%d trials", j.trialsDone.Load(), j.spec.Trials)
		case errors.As(err, &trialPanic):
			reason = ReasonPanic
			msg = "job panicked: " + msg
			s.panicked.Add(1)
			s.logEvent("trial panicked", slog.String("job", j.id), slog.Int("trial", trialPanic.Index),
				slog.Any("value", trialPanic.Value), slog.String("stack", string(trialPanic.Stack)))
		}
		s.failJob(j, reason, msg)
		return
	}
	buf = append(buf, '\n')
	scratch = buf // keep what the encoder grew for a later job
	// The one copy of the result path: the scratch buffer's bytes into a
	// slice of exactly their size, which the job table then owns.
	body := make([]byte, len(buf))
	copy(body, buf)
	// Journal before publishing: once a client can observe "done", the
	// record that reproduces it on restart is already durable.
	if s.journal != nil { // the record takes a string, and that conversion copies the whole body
		s.journalAppend(journalRecord{Op: opFinished, Job: j.id, Result: string(buf)}) //costsense:err-ok journalAppend already counts and logs the failure; a dead disk degrades durability, never the scheduler
	}
	s.mu.Lock()
	s.retainResult(j, body)
	s.mu.Unlock()
	j.complete(s.logJobDone)
}

// logJobDone emits the terminal job record: state, trial count, run
// duration and throughput, all from the job's own lifecycle
// timestamps.
func (s *Server) logJobDone(j *Job) {
	started, finished := j.startedAt.Load(), j.finishedAt.Load()
	trials := j.trialsDone.Load()
	durMS, rate := 0.0, 0.0
	if started > 0 && finished > started { // a job cut off before its substrate was ready never started
		durMS = float64(finished-started) / 1e6
		rate = float64(trials) / (float64(finished-started) / 1e9)
	}
	args := []any{
		slog.String("job", j.id), slog.String("state", stateName(j.state.Load())),
		slog.Int64("trials", trials), slog.Float64("dur_ms", durMS),
		slog.Float64("trials_per_sec", rate),
	}
	if j.state.Load() == jobFailed {
		args = append(args, slog.String("reason", j.failReason), slog.String("error", j.errMsg))
	}
	s.logEvent("job finished", args...)
}

// Handler returns the server's HTTP API:
//
//	GET  /healthz              liveness: queue depth, running jobs, cache size
//	GET  /metrics              Prometheus text-format exposition
//	POST /api/v1/jobs          submit a Spec; 202, or 429 when the queue is full
//	GET  /api/v1/jobs          all job statuses in creation order
//	GET  /api/v1/jobs/{id}     one job's status
//	GET  /api/v1/jobs/{id}/result   the result JSON (once done)
//	GET  /api/v1/jobs/{id}/stream   NDJSON progress stream until terminal;
//	                                ?from=N resumes after the first N lines
//	GET  /api/v1/cache         substrate cache counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.MetricsHandler())
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /api/v1/cache", s.handleCache)
	if s.cfg.DebugHandler != nil {
		mux.Handle("/debug/", s.cfg.DebugHandler)
	}
	return s.logRequests(mux)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//costsense:err-ok an encode error here means the client hung up mid-response; there is no one left to tell
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	_, running := s.snapshotJobs()
	cs := s.cache.Stats()
	resp := map[string]any{
		"status":        "ok",
		"queue_depth":   s.queue.Len(),
		"queue_cap":     s.queue.Cap(),
		"cache_entries": cs.Entries,
		"cache_bytes":   cs.Bytes,
	}
	if len(running) > 0 {
		resp["running_jobs"] = running
	}
	if s.journal != nil {
		resp["journal"] = s.journal.Path()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding spec: %v", err)
		return
	}
	if err := spec.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}

	// ID allocation, the journal's submitted record, admission and
	// registration are atomic under mu, so job IDs are dense in
	// admission order and the journal's submission order matches the
	// queue's. The submitted record is written before TrySubmit — a
	// runner may pick the job up the instant it lands in the queue,
	// and its started record must find submitted already durable. A
	// bounced admission is journaled as rejected (and the ID burned)
	// so a crash in the window cannot resurrect a job the client was
	// told to retry. The response is written after Unlock: an HTTP
	// write can stall on a slow client, and stalling inside the
	// critical section would freeze every status poll and submission
	// with it.
	s.mu.Lock()
	id := fmt.Sprintf("job-%06d", s.nextID+1)
	j := newJob(id, spec)
	var err error
	//costsense:lock-ok bounded local-disk WAL append; the submitted record must be atomic with ID allocation and precede the scheduler's started record
	journalErr := s.journalAppend(journalRecord{Op: opSubmitted, Job: id, Spec: &spec})
	if journalErr != nil {
		// The record's durability is unknown; burn the ID so a partial
		// write can never collide with a later job.
		s.nextID++
		err = journalErr
	} else {
		//costsense:lock-ok TrySubmit never parks (select with default under its own mutex), and admission must be atomic with ID allocation
		err = s.queue.TrySubmit(func(ctx context.Context) { s.runJob(ctx, j) })
		if err == nil {
			s.nextID++
			s.jobs[id] = j
			s.order = append(s.order, id)
		} else if s.journal != nil {
			//costsense:lock-ok bounded local-disk WAL append, same admission atomicity as the submitted record above
			s.journalAppend(journalRecord{Op: opRejected, Job: id, Detail: err.Error()}) //costsense:err-ok journalAppend already counts and logs the failure; a dead disk degrades durability, never the scheduler
			s.nextID++
		}
	}
	s.mu.Unlock()

	if err != nil {
		s.rejected.Add(1)
		s.logEvent("job rejected", slog.String("reason", err.Error()))
		switch {
		case errors.Is(err, harness.ErrQueueFull):
			depth, capacity := s.queue.Len(), s.queue.Cap()
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(depth, capacity)))
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error":       "job queue full; retry later",
				"queue_depth": depth,
				"queue_cap":   capacity,
			})
		case errors.Is(err, harness.ErrQueueClosed):
			writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting jobs")
		default:
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	s.logEvent("job admitted",
		slog.String("job", id), slog.String("experiment", spec.Experiment),
		slog.Int("trials", spec.Trials), slog.Int("queue_depth", s.queue.Len()))
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":         id,
		"status_url": "/api/v1/jobs/" + id,
		"result_url": "/api/v1/jobs/" + id + "/result",
		"stream_url": "/api/v1/jobs/" + id + "/stream",
	})
}

// retryAfterSeconds scales the 429 backoff hint with queue depth: a
// nearly-drained queue invites a quick retry, a full one pushes
// clients back harder (1s empty .. 5s at capacity).
func retryAfterSeconds(depth, capacity int) int {
	if capacity <= 0 || depth < 0 {
		return 1
	}
	if depth > capacity {
		depth = capacity
	}
	return 1 + (4*depth)/capacity
}

func (s *Server) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		list = append(list, s.jobs[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": list})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	// By the state, not by finished: the state turns terminal first, so
	// whoever has seen "done" anywhere can fetch at once.
	switch st := j.state.Load(); st {
	case jobDone:
	case jobFailed:
		writeError(w, http.StatusInternalServerError, "job failed: %s", j.errMsg)
		return
	default:
		writeError(w, http.StatusConflict, "job is %s; result not ready", stateName(st))
		return
	}
	s.mu.Lock()
	body := j.result // eviction only drops the table's reference; this one keeps the bytes for the write
	s.mu.Unlock()
	if body == nil {
		writeError(w, http.StatusGone, "result evicted by the server's result budget; resubmit the spec to recompute the identical bytes")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	//costsense:err-ok a short write means the client hung up; the result stays in the table for the next GET
	w.Write(body)
}

// handleStream serves the job's progress log as NDJSON: every line
// already in the log, then new lines as they land, until the terminal
// line (always the log's last — finish appends it as it closes
// finished). ?from=N skips the first N lines, which is how a
// client resumes after a disconnect or a server restart without
// replaying history it already has; if the job is terminal and the
// (re-grown) log is shorter than N, one fresh terminal status line is
// emitted so the client still observes closure.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "invalid from offset %q", v)
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	emitted := false
	for {
		lines, notify, done := j.progressSince(from)
		for _, ln := range lines {
			if _, err := w.Write(ln); err != nil {
				return
			}
			from++
			emitted = true
		}
		if len(lines) > 0 && fl != nil {
			fl.Flush()
		}
		if done {
			if !emitted {
				// Resumed past the end of a terminal job's log (the log
				// re-grew shorter after a restart): close with one fresh
				// terminal line.
				//costsense:err-ok terminal line is best-effort; the stream closes right after either way
				w.Write(j.statusLine())
				if fl != nil {
					fl.Flush()
				}
			}
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-s.runCtx.Done():
			// Shutdown: failUnfinished appends the terminal line and
			// closes j.finished; loop once more to emit it.
			<-j.finished
		}
	}
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cache.Stats())
}
