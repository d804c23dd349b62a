package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// eventQueue is the serial engine's pending-event queue: a monotone
// radix queue over the integer event times of the paper's model. It
// delivers events in exactly event.Less order — (at, from, seq) — but
// relies on one thing a general heap cannot: every Push is strictly
// later than the instant being delivered (see Push), so time never has
// to be re-ordered behind the cursor.
//
// Events of the current instant sit in cur, sorted by (from, seq), and
// Pop is a cursor read. Every other event sits in later[i], where
// i = bits.Len64(at ^ now) is one more than the highest bit in which
// its time differs from now; nothing inside a bucket is ordered. When
// cur runs out, the lowest non-empty bucket holds the minimum pending
// time: its events at that minimum become the new cur and the rest
// fall into strictly lower buckets, so an event is moved at most once
// per bit of its delay and never compared against another event
// except inside the one sort of its own instant. Buckets above the
// redistributed one are untouched — the new now agrees with the old on
// every bit at or above theirs.
//
// The zero value is an empty queue at time 0. Reset keeps every
// bucket's storage, so a pooled Network pushes into warm slices.
type eventQueue struct {
	now      int64
	n        int     // events pending, cur's unread tail included
	head     int     // next unread index of cur
	nonEmpty uint64  // bit i set iff later[i] has events
	cur      []event // the events at time now, in (from, seq) order
	later    [64][]event
}

// Len returns the number of pending events.
//
//costsense:hotpath
func (q *eventQueue) Len() int { return q.n }

// Push schedules ev. ev.at must be strictly later than the time of the
// last Pop (0 before the first): the engine establishes that in
// schedule (delay >= 1, and the FIFO and congestion floors only push
// later), in ScheduleTimer (delay clamped to 1) and in Init (time 0,
// same two paths). A violation would deliver out of order, so it
// panics instead.
//
//costsense:hotpath
func (q *eventQueue) Push(ev event) {
	if ev.at <= q.now {
		//costsense:alloc-ok cold path: an engine bug, panics immediately
		panic(fmt.Sprintf("sim: event from node %d to node %d scheduled at time %d, not after the current time %d", ev.from, ev.to, ev.at, q.now))
	}
	i := bits.Len64(uint64(ev.at ^ q.now))
	// Amortized growth only: a bucket keeps its high-water capacity
	// across advance and Reset.
	q.later[i] = append(q.later[i], ev)
	q.nonEmpty |= 1 << i
	q.n++
}

// Pop removes and returns the minimum event in (at, from, seq) order.
// It panics on an empty queue, like an out-of-range slice access.
//
//costsense:hotpath
func (q *eventQueue) Pop() event {
	if q.head == len(q.cur) {
		q.advance()
	}
	ev := q.cur[q.head]
	q.head++
	q.n--
	return ev
}

// advance moves now to the minimum pending time and makes that
// instant's events cur.
//
//costsense:hotpath
func (q *eventQueue) advance() {
	i := bits.TrailingZeros64(q.nonEmpty)
	b := q.later[i]
	min := b[0].at
	for k := 1; k < len(b); k++ {
		if b[k].at < min {
			min = b[k].at
		}
	}
	cur := q.cur[:0]
	for _, ev := range b {
		if ev.at == min {
			cur = append(cur, ev)
			continue
		}
		j := bits.Len64(uint64(ev.at ^ min)) // < i: ev and min agree from bit i-1 up
		q.later[j] = append(q.later[j], ev)
		q.nonEmpty |= 1 << j
	}
	q.later[i] = b[:0]
	q.nonEmpty &^= 1 << i
	q.now, q.cur, q.head = min, cur, 0
	sortInstant(cur, 2*bits.Len(uint(len(cur))))
}

// Reset empties the queue and returns it to time 0, keeping every
// bucket's storage. Events are pointer-free, so nothing needs zeroing.
//
//costsense:hotpath
func (q *eventQueue) Reset() {
	for m := q.nonEmpty; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		q.later[i] = q.later[i][:0]
	}
	q.now, q.n, q.head, q.nonEmpty, q.cur = 0, 0, 0, 0, q.cur[:0]
}

// sameInstantLess orders two events of one instant by (from, seq), the
// tail of event.Less.
//
//costsense:hotpath
func sameInstantLess(a, b event) bool {
	return a.from < b.from || (a.from == b.from && a.seq < b.seq)
}

// sameInstantCmp is sameInstantLess as a three-way comparison.
//
//costsense:hotpath
func sameInstantCmp(a, b event) int {
	if c := cmp.Compare(a.from, b.from); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// sortInstant sorts the events of one instant by (from, seq): insertion
// sort for the short runs almost every instant is, a median-of-three
// quicksort above that. Keys are unique, so the quicksort only
// degenerates on adversarial order; depth bounds that case and hands
// it to the library sort. It is written out rather than a call to
// slices.SortFunc so the comparison inlines into the loops.
//
//costsense:hotpath
func sortInstant(a []event, depth int) {
	for len(a) > 12 {
		if depth == 0 {
			slices.SortFunc(a, sameInstantCmp)
			return
		}
		depth--
		// Median of three to a[0], then Hoare partition around it.
		m, hi := len(a)/2, len(a)-1
		if sameInstantLess(a[m], a[0]) {
			a[m], a[0] = a[0], a[m]
		}
		if sameInstantLess(a[hi], a[m]) {
			a[hi], a[m] = a[m], a[hi]
			if sameInstantLess(a[m], a[0]) {
				a[m], a[0] = a[0], a[m]
			}
		}
		a[0], a[m] = a[m], a[0]
		p := a[0]
		i, j := 1, hi
		for {
			for i <= j && sameInstantLess(a[i], p) {
				i++
			}
			for i <= j && sameInstantLess(p, a[j]) {
				j--
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
			i++
			j--
		}
		a[0], a[j] = a[j], a[0]
		// Recurse into the smaller side, loop on the larger.
		if j < len(a)-j-1 {
			sortInstant(a[:j], depth)
			a = a[j+1:]
		} else {
			sortInstant(a[j+1:], depth)
			a = a[:j]
		}
	}
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i
		for ; j > 0 && sameInstantLess(x, a[j-1]); j-- {
			a[j] = a[j-1]
		}
		a[j] = x
	}
}
