package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress is a harness.Sink that reports experiment sweep progress —
// trials done/total, per-trial wall time, throughput and ETA — to a
// writer (typically stderr). It is telemetry only: wall-clock readings
// never feed results, so fixed-seed reproducibility is untouched (the
// detsource audits below record that).
//
// Output is throttled to at most one line per interval, plus a final
// summary when the last trial completes. OnDone and the lines go out in
// done order: the harness counts a trial done before it calls
// TrialDone, so two workers can arrive here out of order, and the late
// arrival with the smaller count is dropped rather than reported after
// a larger one.
type Progress struct {
	mu       sync.Mutex
	w        io.Writer
	label    string
	interval time.Duration
	begun    time.Time
	last     time.Time
	starts   map[int]time.Time
	maxTrial time.Duration
	sumTrial time.Duration

	outMu    sync.Mutex // orders OnDone and the lines; never held with mu
	reported int        // largest done handed to OnDone, under outMu

	// OnDone, when set, receives (done, total) after every trial;
	// cmd/costsense uses it to publish expvar gauges.
	OnDone func(done, total int)
}

// NewProgress builds a progress meter writing to w, labeled (e.g. with
// the experiment id). A zero interval defaults to 250ms.
func NewProgress(w io.Writer, label string, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	return &Progress{w: w, label: label, interval: interval, starts: make(map[int]time.Time)}
}

// TrialStart implements harness.Sink.
func (p *Progress) TrialStart(index int) {
	//costsense:nondet-ok telemetry only: wall time is printed, never fed back into results
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.begun.IsZero() {
		p.begun = now
		p.last = now // first progress line no sooner than one interval in
	}
	p.starts[index] = now
}

// TrialDone implements harness.Sink.
func (p *Progress) TrialDone(index, done, total int) {
	//costsense:nondet-ok telemetry only: wall time is printed, never fed back into results
	now := time.Now()
	p.mu.Lock()
	if st, ok := p.starts[index]; ok {
		d := now.Sub(st)
		delete(p.starts, index)
		p.sumTrial += d
		if d > p.maxTrial {
			p.maxTrial = d
		}
	}
	elapsed := now.Sub(p.begun)
	final := done == total
	throttled := !final && now.Sub(p.last) < p.interval
	if !throttled {
		p.last = now
	}
	avg := time.Duration(0)
	if done > 0 {
		avg = p.sumTrial / time.Duration(done)
	}
	maxT := p.maxTrial
	cb := p.OnDone
	p.mu.Unlock()

	line := ""
	switch {
	case final:
		line = fmt.Sprintf("%s: %d trials in %s (avg %s/trial, max %s)\n",
			p.label, total, round(elapsed), round(avg), round(maxT))
	case !throttled:
		eta := time.Duration(0)
		if done > 0 {
			eta = time.Duration(float64(elapsed) / float64(done) * float64(total-done))
		}
		line = fmt.Sprintf("%s: %d/%d trials (%.0f%%), avg %s/trial, ETA %s\n",
			p.label, done, total, 100*float64(done)/float64(total), round(avg), round(eta))
	}

	p.outMu.Lock()
	defer p.outMu.Unlock()
	if done <= p.reported {
		return // a later trial's count already went out
	}
	p.reported = done
	if cb != nil {
		cb(done, total)
	}
	if line != "" {
		//costsense:err-ok best-effort progress line; a broken stderr must not fail the sweep
		io.WriteString(p.w, line)
	}
}

// round trims durations to a readable precision.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(100 * time.Nanosecond)
	}
}
