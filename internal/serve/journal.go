package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
)

// This file is the service's durability layer: an append-only NDJSON
// job journal. Every job state transition is one fsync'd record, so a
// crash — kill -9 included — loses at most the record being written,
// and that only as a torn final line the next startup truncates away.
// Because a result is a pure function of its spec (the service's core
// contract), the journal does not need to checkpoint sweep progress:
// replaying an incomplete job's spec after a restart reproduces its
// result byte for byte. Records are byte-deterministic apart from
// their timestamps, which flow through nowUnixNano — the package's one
// audited wall-clock choke point.
//
// Record stream, one JSON object per line:
//
//	{"v":1,"seq":N,"op":"...","job":"job-000001","ts":...,...}
//
// seq starts at 1 and increments by exactly 1; op is one of submitted
// (carries the normalized spec), started, finished (carries the result
// JSON, escaped), failed (carries a typed reason + detail), rejected
// (queue-full bounce, so a crash between the submitted record and the
// 429 response cannot resurrect a job the client was told to retry).
//
// Decoding distinguishes two corruption classes: a torn tail — the
// final line unparseable or missing its newline, the signature of a
// crash mid-append — is recoverable (the tail is dropped and the file
// truncated to the last good record); anything earlier, and any
// semantically invalid record anywhere (out-of-order seq, unknown op,
// an illegal state transition), is mid-file corruption and fails
// startup with a typed *JournalCorruptError. See DESIGN.md,
// "Durability & recovery".

// Journal ops.
const (
	opSubmitted = "submitted"
	opStarted   = "started"
	opFinished  = "finished"
	opFailed    = "failed"
	opRejected  = "rejected"
)

// Typed failure reasons, journaled with failed records and surfaced in
// job status as the reason field.
const (
	// ReasonError: the sweep itself returned an error (bad trial, event
	// limit, encode failure).
	ReasonError = "error"
	// ReasonDeadline: the job's deadline expired mid-sweep.
	ReasonDeadline = "deadline"
	// ReasonPanic: the sweep panicked (a protocol bug, a mutated
	// substrate); the scheduler survived and journaled the panic value.
	ReasonPanic = "panic"
	// ReasonShutdown: a graceful drain cut the job off before it
	// finished.
	ReasonShutdown = "shutdown"
	// ReasonKilled: a second termination signal killed the in-flight
	// job during drain; journaled so the next start reports it instead
	// of re-running blind.
	ReasonKilled = "killed"
)

// journalRecord is the wire form of one journal line. Field order is
// fixed by the struct, so records are byte-deterministic given their
// timestamps.
type journalRecord struct {
	V      int    `json:"v"`
	Seq    uint64 `json:"seq"`
	Op     string `json:"op"`
	Job    string `json:"job"`
	TS     int64  `json:"ts"`
	Spec   *Spec  `json:"spec,omitempty"`   // submitted
	Reason string `json:"reason,omitempty"` // failed: typed reason
	Detail string `json:"detail,omitempty"` // failed/rejected: human detail
	Result string `json:"result,omitempty"` // finished: result JSON, escaped
}

// JournalCorruptError reports unrecoverable journal damage: a record
// before the final line that does not parse, or a record anywhere that
// violates the journal's sequencing or state machine. Startup fails on
// it — running with a journal whose history cannot be trusted would
// silently break the recovery contract.
type JournalCorruptError struct {
	Line   int    // 1-based line number of the offending record
	Reason string // what was wrong with it
}

func (e *JournalCorruptError) Error() string {
	return fmt.Sprintf("serve: journal corrupt at line %d: %s", e.Line, e.Reason)
}

// RecoveredJob is one job reconstructed from the journal, in original
// submission order.
type RecoveredJob struct {
	ID   string
	Spec Spec
	// Done/Failed classify terminal jobs; a job with neither is
	// incomplete (journaled submitted or started, never finished) and
	// must be re-enqueued.
	Done   bool
	Failed bool
	Reason string // typed failure reason (failed jobs)
	Detail string // failure detail (failed jobs)
	Result []byte // persisted result bytes (done jobs)
	// Restored lifecycle timestamps (unix nanos; zero if the state was
	// never reached).
	SubmittedAt, StartedAt, FinishedAt int64
}

// Recovery is the decoded journal: every non-rejected job in
// submission order, plus what the appender needs to continue the
// stream.
type Recovery struct {
	Jobs     []RecoveredJob
	TornTail bool   // a torn final line was dropped (and truncated)
	NextSeq  uint64 // highest good seq; appends continue from NextSeq+1
	MaxID    int    // highest numeric job ID seen; ID allocation resumes after it
}

// Incomplete counts the jobs that recovery must re-enqueue.
func (r *Recovery) Incomplete() int {
	n := 0
	for _, j := range r.Jobs {
		if !j.Done && !j.Failed {
			n++
		}
	}
	return n
}

// jobTrack is the decoder's per-job state machine.
type jobTrack struct {
	rec      RecoveredJob
	started  bool
	terminal bool
	rejected bool
}

// parseJobID validates the canonical job ID form ("job-" + at least
// six digits) and returns its numeric part.
func parseJobID(id string) (int, error) {
	num, ok := strings.CutPrefix(id, "job-")
	if !ok || len(num) < 6 {
		return 0, fmt.Errorf("malformed job id %q", id)
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("malformed job id %q", id)
	}
	return n, nil
}

// decodeJournal parses and validates journal bytes. It returns the
// recovery state and the byte offset after the last good record —
// everything past it is a torn tail the caller should truncate. The
// decoder never panics on any input (FuzzJournalDecode holds it to
// that) and classifies all damage as either a recoverable torn tail or
// a typed *JournalCorruptError.
func decodeJournal(data []byte) (*Recovery, int64, error) {
	rec := &Recovery{}
	tracks := make(map[string]*jobTrack)
	var order []string
	var good int64
	line := 0

	for len(data) > 0 {
		line++
		nl := bytes.IndexByte(data, '\n')
		last := nl < 0
		var raw []byte
		if last {
			raw = data
			data = nil
		} else {
			raw = data[:nl]
			data = data[nl+1:]
			if len(data) == 0 {
				last = true
			}
		}

		var r journalRecord
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil || dec.More() {
			if last {
				rec.TornTail = true
				break
			}
			return nil, 0, &JournalCorruptError{Line: line, Reason: "record is not valid JSON"}
		}
		if nl < 0 {
			// Parseable but missing its newline: the append was cut
			// before the terminator, so the fsync never covered it.
			// Treat as torn — the re-run reproduces whatever it said.
			rec.TornTail = true
			break
		}
		if err := checkSeq(rec.NextSeq, r.Seq); err != nil {
			return nil, 0, &JournalCorruptError{Line: line, Reason: err.Error()}
		}
		if err := applyRecord(tracks, &order, &r); err != nil {
			return nil, 0, &JournalCorruptError{Line: line, Reason: err.Error()}
		}
		rec.NextSeq = r.Seq
		good += int64(len(raw)) + 1
	}

	for _, id := range order {
		// Every journaled ID — rejected bounces included — advances
		// MaxID: allocation must never reuse an ID the journal has seen,
		// or the reuse would decode as a duplicate submitted record.
		if n, err := parseJobID(id); err == nil && n > rec.MaxID {
			rec.MaxID = n
		}
		t := tracks[id]
		if t.rejected {
			continue // bounced admissions are history, not jobs
		}
		rec.Jobs = append(rec.Jobs, t.rec)
	}
	return rec, good, nil
}

// applyRecord validates one record against the stream and per-job
// state machines and folds it into the tracks.
func applyRecord(tracks map[string]*jobTrack, order *[]string, r *journalRecord) error {
	if r.V != 1 {
		return fmt.Errorf("unknown journal version %d", r.V)
	}
	if _, err := parseJobID(r.Job); err != nil {
		return err
	}
	t := tracks[r.Job]

	switch r.Op {
	case opSubmitted:
		if t != nil {
			return fmt.Errorf("duplicate submitted record for %s", r.Job)
		}
		if r.Spec == nil {
			return fmt.Errorf("submitted record for %s carries no spec", r.Job)
		}
		spec := *r.Spec
		if err := spec.Normalize(); err != nil {
			return fmt.Errorf("submitted record for %s carries an invalid spec: %v", r.Job, err)
		}
		t = &jobTrack{rec: RecoveredJob{ID: r.Job, Spec: spec, SubmittedAt: r.TS}}
		tracks[r.Job] = t
		*order = append(*order, r.Job)
	case opRejected:
		if t == nil || t.terminal || t.started {
			return fmt.Errorf("rejected record for %s outside the submitted state", r.Job)
		}
		t.terminal, t.rejected = true, true
	case opStarted:
		if t == nil || t.terminal {
			return fmt.Errorf("started record for %s outside an active state", r.Job)
		}
		t.started = true
		t.rec.StartedAt = r.TS
	case opFinished:
		if t == nil || t.terminal || !t.started {
			return fmt.Errorf("finished record for %s outside the started state", r.Job)
		}
		if r.Result == "" || !json.Valid([]byte(r.Result)) {
			return fmt.Errorf("finished record for %s carries no valid result", r.Job)
		}
		t.terminal, t.rec.Done = true, true
		t.rec.Result = []byte(r.Result)
		t.rec.FinishedAt = r.TS
	case opFailed:
		if t == nil || t.terminal || !t.started {
			return fmt.Errorf("failed record for %s outside the started state", r.Job)
		}
		switch r.Reason {
		case ReasonError, ReasonDeadline, ReasonPanic, ReasonShutdown, ReasonKilled:
		default:
			return fmt.Errorf("failed record for %s carries unknown reason %q", r.Job, r.Reason)
		}
		t.terminal, t.rec.Failed = true, true
		t.rec.Reason, t.rec.Detail = r.Reason, r.Detail
		t.rec.FinishedAt = r.TS
	default:
		return fmt.Errorf("unknown op %q", r.Op)
	}
	return nil
}

// checkSeq enforces the dense, strictly increasing sequence numbers
// that make replay order unambiguous.
func checkSeq(prev, got uint64) error {
	if got != prev+1 {
		return fmt.Errorf("out-of-order seq %d (want %d)", got, prev+1)
	}
	return nil
}

// Journal is the append side: one fsync'd record per state transition,
// safe for concurrent use (handlers journal admissions while the
// scheduler journals runs). All methods are nil-receiver-safe no-ops,
// so a server without -journal pays one branch per transition.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	seq    uint64
	end    int64 // file offset just past the last whole, synced record
	broken error // set when a failed append could not be rolled back; fails every later append
}

// OpenJournal opens (creating if absent) and recovers the journal at
// path: the existing stream is decoded and validated, a torn tail is
// truncated away, and the returned Journal appends after the last good
// record. Mid-file corruption returns the decoder's typed error and no
// Journal — the caller must not run against a history it cannot trust.
func OpenJournal(path string) (*Journal, *Recovery, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		//costsense:err-ok closing a read-only-so-far handle on the error path; the read error is the one reported
		f.Close()
		return nil, nil, fmt.Errorf("serve: reading journal %s: %w", path, err)
	}
	rec, good, err := decodeJournal(data)
	if err != nil {
		//costsense:err-ok nothing was written; the corruption error is the one reported
		f.Close()
		return nil, nil, fmt.Errorf("journal %s: %w", path, err)
	}
	if good < int64(len(data)) {
		// Drop the torn tail before appending, or the next record would
		// concatenate onto the partial line and turn recoverable damage
		// into mid-file corruption.
		if err := f.Truncate(good); err != nil {
			//costsense:err-ok truncate already failed; its error is the one reported
			f.Close()
			return nil, nil, fmt.Errorf("serve: truncating torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		//costsense:err-ok the seek error is the one reported
		f.Close()
		return nil, nil, fmt.Errorf("serve: seeking journal: %w", err)
	}
	return &Journal{f: f, path: path, seq: rec.NextSeq, end: good}, rec, nil
}

// Path reports where the journal lives ("" for a nil journal).
func (jl *Journal) Path() string {
	if jl == nil {
		return ""
	}
	return jl.path
}

// append stamps, serializes, writes and fsyncs one record. The fsync
// is the durability point: once append returns nil the transition
// survives kill -9. Appends happen per job state transition — a
// handful per job — never on the simulator hot path.
//
// A failed append leaves the journal as it was: no seq is consumed, and
// whatever part of the record reached the file is truncated away, so
// neither a seq gap nor a torn line mid-file can make the next
// OpenJournal reject the history as corrupt.
func (jl *Journal) append(r journalRecord) error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.broken != nil {
		return fmt.Errorf("serve: journal unusable since a failed append could not be rolled back: %w", jl.broken)
	}
	r.V, r.Seq, r.TS = 1, jl.seq+1, nowUnixNano()
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("serve: encoding journal record: %w", err)
	}
	b = append(b, '\n')
	if n, err := jl.f.Write(b); err != nil {
		return jl.rollback(n > 0, fmt.Errorf("serve: appending journal record: %w", err))
	}
	if err := jl.f.Sync(); err != nil {
		return jl.rollback(true, fmt.Errorf("serve: syncing journal: %w", err))
	}
	jl.seq++
	jl.end += int64(len(b))
	return nil
}

// rollback undoes a failed append and returns its error. When bytes of
// the record may be in the file it truncates back to the last good
// record and seeks there; if that fails too, the journal is marked
// broken, because an append after a torn line would turn recoverable
// damage into mid-file corruption.
func (jl *Journal) rollback(wrote bool, cause error) error {
	if !wrote {
		return cause
	}
	err := jl.f.Truncate(jl.end)
	if err == nil {
		_, err = jl.f.Seek(jl.end, io.SeekStart)
	}
	if err != nil {
		jl.broken = fmt.Errorf("rolling back to offset %d: %w", jl.end, err)
		return errors.Join(cause, jl.broken)
	}
	return cause
}

// Close releases the journal file. Appends after Close fail.
func (jl *Journal) Close() error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.f.Close()
}
