package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps spans in memory until the run ends. All spans are
// recorded from the benchmark's side of a layer boundary: around calls
// into the layer's public functions, or from the timestamps a job's
// public status carries.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its ID for use as a parent.
func (t *tracer) add(parent int, traceID, name string, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, TraceID: traceID, Name: name, Start: start, End: end})
	return id
}

// setEnd closes a span that was added before its end was known.
func (t *tracer) setEnd(id int, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
}

// timed runs fn inside a span and returns its duration in ms.
func (t *tracer) timed(parent int, traceID, name string, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(parent, traceID, name, start.UnixNano(), end.UnixNano())
	return float64(end.Sub(start)) / float64(time.Millisecond)
}

// jobSpans records one served job: root client.job and, under it, the
// client calls and the server-side stretches read from the terminal
// stream line's submitted_at/started_at/finished_at. started_at is
// stamped after the cache lookup, so serve.queue_wait contains the
// substrate build on a miss and always the started-record fsync.
func (t *tracer) jobSpans(workload string, r *jobRecord) {
	if r.err != nil {
		return
	}
	id := fmt.Sprintf("%s/%d", workload, r.index)
	root := t.add(0, id, "client.job", r.submit.UnixNano(), r.verified.UnixNano())
	t.add(root, id, "serve.http.submit", r.submit.UnixNano(), r.submitted.UnixNano())
	sub, started, finished, err := statusTimes(r)
	if err == nil {
		t.add(root, id, "serve.queue_wait", sub, started)
		t.add(root, id, "serve.run", started, finished)
		t.add(root, id, "serve.http.stream_tail", finished, r.terminal.UnixNano())
	}
	t.add(root, id, "serve.http.result_fetch", r.terminal.UnixNano(), r.fetched.UnixNano())
	t.add(root, id, "client.verify", r.fetched.UnixNano(), r.verified.UnixNano())
}

// statusTimes parses a terminal status's lifecycle timestamps.
func statusTimes(r *jobRecord) (submitted, started, finished int64, err error) {
	var ts [3]int64
	for i, s := range []string{r.status.SubmittedAt, r.status.StartedAt, r.status.FinishedAt} {
		tm, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("job %d status timestamp %q: %w", r.index, s, err)
		}
		ts[i] = tm.UnixNano()
	}
	return ts[0], ts[1], ts[2], nil
}

// durationsMS returns the durations of all spans called name, in ms.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// selfTimeTable is the median duration and median self time per span
// name, sorted by name.
func (t *tracer) selfTimeTable() []string {
	self := selfTimes(t.spans)
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for _, s := range t.spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID])/1e6)
	}
	names := make([]string, 0, len(durs))
	for n := range durs {
		names = append(names, n)
	}
	sort.Strings(names)
	rows := make([]string, 0, len(names))
	for _, n := range names {
		rows = append(rows, fmt.Sprintf("%-28s n=%-6d dur_p50=%.4f ms  self_p50=%.4f ms", n, len(durs[n]), median(durs[n]), median(selfs[n])))
	}
	return rows
}

// write stores the spans as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
