package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"costsense/internal/serve"
)

// clients is the closed loop's width: each client waits for its result
// before it sends the next spec, as scripts and `costsense jobrun` do.
// Two, because the reference box has two cores and the server runs one
// job at a time: one job runs while the other client's job waits.
const clients = 2

// maxResultRetries bounds how often a job asks again for a result the
// server has announced but not yet published.
const maxResultRetries = 100

// jobRecord is everything the load generator learns about one job.
type jobRecord struct {
	index int
	// submit is when Client.Submit was called, submitted when it
	// returned, terminal when Client.Follow returned the terminal
	// stream line, fetched when Client.Result returned the last byte,
	// hashed when the body's sha256 was computed, verified when the
	// checks were done.
	submit, submitted, terminal, fetched, hashed, verified time.Time
	status                                                 serve.JobStatus
	sum                                                    [sha256.Size]byte
	bytes                                                  int
	events                                                 int64
	kind                                                   string
	streamLines                                            int
	newConns                                               int
	resultRetries                                          int    // 409s between the terminal line and a readable result
	body                                                   []byte // kept only when the phase asks for it
	refused                                                bool
	err                                                    error
}

// latencyMS is the job latency sample: Submit call to sha256 computed.
func (r *jobRecord) latencyMS() float64 {
	return float64(r.hashed.Sub(r.submit)) / float64(time.Millisecond)
}

// phase is one closed-loop stretch of a workload against one server.
type phase struct {
	wl    workload
	seed  int64
	base  string
	first int // index of the first job
	// count > 0 runs exactly count jobs; otherwise jobs are started
	// until deadline and those in flight are completed.
	count    int
	deadline time.Time
	tracer   *tracer                 // non-nil records spans as the jobs complete
	keepBody func(r *jobRecord) bool // non-nil selects jobs whose result body is retained
	// onJob, when non-nil, is called by the completing client after each
	// job with the number of jobs the phase has completed so far; the two
	// clients may call it at once.
	onJob func(completed int, r *jobRecord)
}

// phaseResult is a phase's records in job-index order and its wall
// time, first Submit call to last verification.
type phaseResult struct {
	jobs []jobRecord
	wall time.Duration
}

// run drives the phase with `clients` closed-loop clients, each on its
// own keep-alive transport. MaxAttempts is 1, so a refused submission
// is counted, never silently retried.
func (p *phase) run(ctx context.Context) phaseResult {
	var next, completed atomic.Int64
	perClient := make([][]jobRecord, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			cl := &serve.Client{Base: p.base, HTTP: &http.Client{Transport: tr}, MaxAttempts: 1}
			for ctx.Err() == nil {
				if p.count == 0 && !time.Now().Before(p.deadline) {
					return
				}
				n := int(next.Add(1)) - 1
				if p.count > 0 && n >= p.count {
					return
				}
				rec := p.runJob(ctx, cl, p.first+n)
				perClient[c] = append(perClient[c], rec)
				if p.tracer != nil {
					p.tracer.jobSpans(p.wl.name, &rec)
				}
				if n := int(completed.Add(1)); p.onJob != nil {
					p.onJob(n, &rec)
				}
			}
		}()
	}
	wg.Wait()
	res := phaseResult{wall: time.Since(start)}
	for _, recs := range perClient {
		res.jobs = append(res.jobs, recs...)
	}
	sort.Slice(res.jobs, func(i, j int) bool { return res.jobs[i].index < res.jobs[j].index })
	return res
}

// resultHead is the leading part of a result body. The checks need
// only these fields, and they come first in the document, so the
// multi-MB trial rows and metrics export behind them are hashed but
// not parsed: the load generator shares two cores with the server it
// measures.
type resultHead struct {
	Spec      serve.Spec          `json:"spec"`
	Substrate serve.SubstrateInfo `json:"substrate"`
	Aggregate serve.Aggregate     `json:"aggregate"`
}

// runJob takes one job through Submit, Follow, Result, sha256 and the
// per-job checks. A job that fails any of them carries err.
func (p *phase) runJob(ctx context.Context, cl *serve.Client, index int) jobRecord {
	spec := p.wl.spec(p.seed, index)
	rec := jobRecord{index: index, kind: spec.Experiment}
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if !info.Reused {
				rec.newConns++
			}
		},
	})
	var lines lineCounter
	rec.submit = time.Now()
	id, err := cl.Submit(ctx, spec)
	rec.submitted = time.Now()
	if err != nil {
		rec.refused, rec.err = true, fmt.Errorf("job %d: submit: %w", index, err)
		return rec
	}
	rec.status, err = cl.Follow(ctx, id, &lines)
	rec.terminal = time.Now()
	rec.streamLines = lines.n
	if err != nil {
		rec.err = fmt.Errorf("job %d (%s): stream: %w", index, id, err)
		return rec
	}
	if rec.status.State != "done" {
		rec.err = fmt.Errorf("job %d (%s) ended %s: %s %s", index, id, rec.status.State, rec.status.Reason, rec.status.Error)
		return rec
	}
	body, err := cl.Result(ctx, id)
	for err != nil && rec.resultRetries < maxResultRetries && strings.Contains(err.Error(), "result status 409") {
		// The server publishes the terminal stream line before the result
		// becomes readable, so a prompt client can get "job is done; result
		// not ready". That is the program's race, not a failed job: ask
		// again, and count it.
		rec.resultRetries++
		runtime.Gosched()
		body, err = cl.Result(ctx, id)
	}
	rec.fetched = time.Now()
	if err != nil {
		rec.err = fmt.Errorf("job %d (%s): result: %w", index, id, err)
		return rec
	}
	rec.sum = sha256.Sum256(body)
	rec.hashed = time.Now()
	rec.bytes = len(body)
	rec.err = checkResult(spec, body, &rec)
	rec.verified = time.Now()
	if rec.err != nil {
		rec.err = fmt.Errorf("job %d (%s): %w", index, id, rec.err)
	} else if p.keepBody != nil && p.keepBody(&rec) {
		rec.body = body
	}
	return rec
}

// checkResult verifies that the result parses as far as its aggregate,
// echoes the normalized spec, ran the requested trials and is a
// complete document.
func checkResult(spec serve.Spec, body []byte, rec *jobRecord) error {
	want := spec
	if err := want.Normalize(); err != nil {
		return fmt.Errorf("generated spec does not normalize: %w", err)
	}
	var head resultHead
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := decodeHead(dec, &head); err != nil {
		return fmt.Errorf("result does not parse: %w", err)
	}
	if !reflect.DeepEqual(head.Spec, want) {
		return fmt.Errorf("result echoes spec %+v, want %+v", head.Spec, want)
	}
	if head.Substrate.Key != want.SubstrateKey() {
		return fmt.Errorf("result substrate key %s, want %s", head.Substrate.Key, want.SubstrateKey())
	}
	if head.Aggregate.Trials != want.Trials {
		return fmt.Errorf("aggregate.trials = %d, want %d", head.Aggregate.Trials, want.Trials)
	}
	if !bytes.HasSuffix(body, []byte("\n}\n")) {
		return fmt.Errorf("result body is truncated")
	}
	rec.events = head.Aggregate.SumEvents
	return nil
}

// decodeHead reads the object's first three members into head and
// stops there.
func decodeHead(dec *json.Decoder, head *resultHead) error {
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return fmt.Errorf("result is not a JSON object (%v)", err)
	}
	for _, f := range []struct {
		key string
		dst any
	}{{"spec", &head.Spec}, {"substrate", &head.Substrate}, {"aggregate", &head.Aggregate}} {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		if tok != f.key {
			return fmt.Errorf("result member %v, want %q", tok, f.key)
		}
		if err := dec.Decode(f.dst); err != nil {
			return fmt.Errorf("member %q: %w", f.key, err)
		}
	}
	return nil
}

// lineCounter counts the stream lines Client.Follow forwards.
type lineCounter struct{ n int }

func (l *lineCounter) Write(b []byte) (int, error) {
	l.n++
	return len(b), nil
}

// firstFailure folds a phase's failed jobs into one error naming the
// first and counting the rest, refused submissions apart.
func firstFailure(jobs []jobRecord) error {
	var first error
	failed, refused := 0, 0
	for i := range jobs {
		if jobs[i].err == nil {
			continue
		}
		if first == nil {
			first = jobs[i].err
		}
		failed++
		if jobs[i].refused {
			refused++
		}
	}
	if first == nil {
		return nil
	}
	return fmt.Errorf("%d of %d jobs failed (%d refused), failed_share %.4f; first: %w",
		failed, len(jobs), refused, float64(failed)/float64(len(jobs)), first)
}

// digest is the sha256 over the per-job result sha256s in job-index
// order.
func digest(jobs []jobRecord) string {
	h := sha256.New()
	for i := range jobs {
		h.Write(jobs[i].sum[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
