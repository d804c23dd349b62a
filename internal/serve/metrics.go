package serve

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"strconv"
)

// This file is the service's metrics exposition: a hand-rolled
// Prometheus text-format endpoint (no dependencies) plus the slog
// plumbing. There is exactly one registry — the Server itself: every
// exported series is derived at scrape time from the job table, the
// queue and the substrate cache, so the two mounts (the API mux's
// /metrics and the debug mux's /debug/metrics) can never disagree, and
// the job hot path carries no extra counters. Scrapes are O(jobs),
// which a single-node service keeps small.
//
// Wall-clock reads (scrape-time throughput of the in-flight jobs, log
// record timestamps) all go through nowUnixNano, the package's one
// audited clock choke point, so result bytes stay deterministic.

// histo is one scrape's histogram accumulator, rebuilt per render from
// job lifecycle timestamps — histograms here are cumulative state, not
// streamed observations, so nothing needs to be concurrency-safe.
type histo struct {
	bounds []float64 // upper bounds (le), ascending; +Inf is implicit
	counts []int64   // len(bounds)+1, last bucket is +Inf
	sum    float64
	n      int64
}

func newHisto(bounds []float64) *histo {
	return &histo{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *histo) observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// Histogram bucket layouts: latencies in seconds, throughput in
// trials per second.
var (
	secondsBounds    = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300}
	throughputBounds = []float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6}
)

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeHeader(b *bytes.Buffer, name, help, typ string) {
	b.WriteString("# HELP " + name + " " + help + "\n")
	b.WriteString("# TYPE " + name + " " + typ + "\n")
}

func writeScalar(b *bytes.Buffer, name, help, typ string, v int64) {
	writeHeader(b, name, help, typ)
	b.WriteString(name + " " + strconv.FormatInt(v, 10) + "\n")
}

func writeLabeled(b *bytes.Buffer, name, label, value string, v int64) {
	b.WriteString(name + "{" + label + "=\"" + value + "\"} " + strconv.FormatInt(v, 10) + "\n")
}

func writeHisto(b *bytes.Buffer, name, help string, h *histo) {
	writeHeader(b, name, help, "histogram")
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i]
		b.WriteString(name + "_bucket{le=\"" + fmtFloat(bound) + "\"} " + strconv.FormatInt(cum, 10) + "\n")
	}
	cum += h.counts[len(h.bounds)]
	b.WriteString(name + "_bucket{le=\"+Inf\"} " + strconv.FormatInt(cum, 10) + "\n")
	b.WriteString(name + "_sum " + fmtFloat(h.sum) + "\n")
	b.WriteString(name + "_count " + strconv.FormatInt(h.n, 10) + "\n")
}

// jobSnap is the scrape-relevant view of one job, captured under mu so
// a render works on a consistent table while handlers keep mutating.
type jobSnap struct {
	state     int32
	submitted int64
	started   int64
	finished  int64
	trials    int64
}

// snapshotJobs captures every job's lifecycle fields in admission
// order, plus the ids of the running jobs (at most one per runner), in
// the same order.
func (s *Server) snapshotJobs() (snaps []jobSnap, running []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snaps = make([]jobSnap, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		st := j.state.Load()
		snaps = append(snaps, jobSnap{
			state:     st,
			submitted: j.submittedAt.Load(),
			started:   j.startedAt.Load(),
			finished:  j.finishedAt.Load(),
			trials:    j.trialsDone.Load(),
		})
		if st == jobRunning {
			running = append(running, id)
		}
	}
	return snaps, running
}

// renderMetrics writes the full exposition for the current state; now
// is a nowUnixNano reading used only for the in-flight jobs' gauge.
func (s *Server) renderMetrics(b *bytes.Buffer, now int64) {
	snaps, _ := s.snapshotJobs()

	var byState [4]int64
	trialsTotal := int64(0)
	queueWait := newHisto(secondsBounds)
	duration := newHisto(secondsBounds)
	throughput := newHisto(throughputBounds)
	inflightRate := 0.0
	for _, j := range snaps {
		byState[j.state]++
		trialsTotal += j.trials
		if j.started > 0 {
			queueWait.observe(float64(j.started-j.submitted) / 1e9)
		}
		if j.finished > 0 && j.started > 0 {
			d := float64(j.finished-j.started) / 1e9
			duration.observe(d)
			if d > 0 {
				throughput.observe(float64(j.trials) / d)
			}
		}
		if j.state == jobRunning && now > j.started && j.started > 0 {
			inflightRate += float64(j.trials) / (float64(now-j.started) / 1e9)
		}
	}

	writeHeader(b, "costsense_jobs", "Jobs by lifecycle state.", "gauge")
	writeLabeled(b, "costsense_jobs", "state", "queued", byState[jobQueued])
	writeLabeled(b, "costsense_jobs", "state", "running", byState[jobRunning])
	writeLabeled(b, "costsense_jobs", "state", "done", byState[jobDone])
	writeLabeled(b, "costsense_jobs", "state", "failed", byState[jobFailed])
	writeScalar(b, "costsense_jobs_submitted_total", "Jobs admitted onto the queue.", "counter", int64(len(snaps)))
	writeScalar(b, "costsense_jobs_rejected_total", "Submissions rejected (queue full or draining).", "counter", s.rejected.Load())
	writeScalar(b, "costsense_jobs_recovered_total", "Journaled incomplete jobs re-enqueued at startup.", "counter", s.recovered.Load())
	writeScalar(b, "costsense_jobs_expired_total", "Jobs failed by their deadline (reason=deadline).", "counter", s.expired.Load())
	writeScalar(b, "costsense_jobs_panicked_total", "Jobs failed by a panicking sweep (reason=panic).", "counter", s.panicked.Load())
	writeScalar(b, "costsense_journal_errors_total", "Journal append failures (durability degraded).", "counter", s.journalErrs.Load())
	writeScalar(b, "costsense_trials_completed_total", "Trials completed across all jobs.", "counter", trialsTotal)
	writeScalar(b, "costsense_queue_depth", "Admitted-but-unstarted jobs.", "gauge", int64(s.queue.Len()))
	writeScalar(b, "costsense_queue_capacity", "Queue bound; submissions beyond it get 429.", "gauge", int64(s.queue.Cap()))
	writeHisto(b, "costsense_job_queue_wait_seconds", "Time jobs spent queued before starting.", queueWait)
	writeHisto(b, "costsense_job_duration_seconds", "Time jobs spent running (start to finish).", duration)
	writeHisto(b, "costsense_job_trials_per_second", "Per-job trial throughput of finished jobs.", throughput)
	writeHeader(b, "costsense_inflight_trials_per_second", "Trial throughput summed over the running jobs, 0 when idle.", "gauge")
	b.WriteString("costsense_inflight_trials_per_second " + fmtFloat(inflightRate) + "\n")

	cs := s.cache.Stats()
	writeScalar(b, "costsense_cache_hits_total", "Substrate cache hits.", "counter", cs.Hits)
	writeScalar(b, "costsense_cache_misses_total", "Substrate cache misses (substrate built).", "counter", cs.Misses)
	writeScalar(b, "costsense_cache_evictions_total", "Substrates evicted by the byte budget.", "counter", cs.Evictions)
	writeScalar(b, "costsense_cache_entries", "Substrates currently cached.", "gauge", int64(cs.Entries))
	writeScalar(b, "costsense_cache_bytes", "Estimated bytes held by cached substrates.", "gauge", cs.Bytes)
	writeScalar(b, "costsense_cache_max_bytes", "Substrate cache byte budget.", "gauge", cs.MaxBytes)

	s.mu.Lock()
	retained, evicted := s.retainedBytes, s.evictedTotal
	s.mu.Unlock()
	writeScalar(b, "costsense_results_retained_bytes", "Result bodies held by the job table.", "gauge", retained)
	writeScalar(b, "costsense_results_evicted_total", "Result bodies dropped by the result byte budget (GET answers 410).", "counter", evicted)
}

// MetricsHandler returns the Prometheus text-format exposition handler
// backed by this server's state. Mount it on as many muxes as needed —
// every mount scrapes the same registry (the server itself).
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var b bytes.Buffer
		s.renderMetrics(&b, nowUnixNano())
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		//costsense:err-ok a short write means the scraper hung up; the next scrape re-renders from live state
		w.Write(b.Bytes())
	})
}

// NewLogger builds the service's structured logger: slog text records
// on w with the handler's own wall-clock timestamp stripped. Every
// record instead carries a ts attribute the server draws from
// nowUnixNano — the audited clock choke point — so the package has
// exactly one wall-clock source and log output never feeds result
// bytes.
func NewLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.Attr{} // replaced by the audited ts attribute
			}
			return a
		},
	}))
}

// logEvent emits one structured record stamped through the audited
// clock choke point.
func (s *Server) logEvent(msg string, args ...any) {
	s.log.Info(msg, append([]any{slog.String("ts", stampRFC3339(nowUnixNano()))}, args...)...)
}

// statusWriter decorates a ResponseWriter to capture the status code
// and body size for request logs. It forwards Flush so the NDJSON
// stream handler's Flusher assertion still sees one through the
// wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

func (sw *statusWriter) Flush() {
	if fl, ok := sw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// logRequests wraps the API handler with structured request logging:
// one record per request with method, path, status, bytes and wall
// duration, all timed through the audited clock choke point.
func (s *Server) logRequests(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := nowUnixNano()
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.logEvent("http request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Int64("bytes", sw.bytes),
			slog.Float64("dur_ms", float64(nowUnixNano()-start)/1e6),
		)
	})
}
