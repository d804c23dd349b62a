package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail estimate resting on fewer is one slow job, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs. It refuses a percentile with fewer than minBeyond samples beyond
// it; the caller decides whether to report a flagged estimate instead.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of range (0, 100)", p)
	}
	v, beyond := nearestRank(xs, p)
	if p > 50 && beyond < minBeyond {
		return v, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, len(xs), beyond, minBeyond)
	}
	return v, nil
}

// nearestRank is the unguarded percentile: the value at rank
// ceil(p/100 · n) of the sorted samples, and how many samples lie
// strictly beyond that rank.
func nearestRank(xs []float64, p float64) (v float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s)) / 100)) // p·n first: 95·200/100 is exact, 0.95·200 is not
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// median is the middle sample (mean of the middle two for even n);
// 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// span is one timed interval at a layer boundary. Spans of one job
// share a TraceID; Parent is the ID of the span that caused this one
// (0 for a root). Times are unix nanoseconds on the host clock, so the
// server's own job timestamps and the benchmark's readings share one
// axis.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	TraceID string `json:"trace_id"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns, per span ID, the span's duration minus the part
// of its interval its direct children cover. Overlapping children
// (two workers running trials side by side) are counted once, and a
// child is clipped to its parent's interval.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - cover(s.Start, s.End, children[s.ID])
	}
	return self
}

// cover is the length of the union of the intervals of kids, clipped
// to [lo, hi].
func cover(lo, hi int64, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	at := lo // everything before at is already counted
	for _, k := range kids {
		start, end := max(k.Start, at), min(k.End, hi)
		if end > start {
			total += end - start
			at = end
		}
	}
	return total
}
