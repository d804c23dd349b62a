package sim

import (
	"fmt"
	"math/bits"
	"slices"
)

// eventQueue is the serial engine's pending-event queue: a monotone
// radix queue over the integer event times of the paper's model, with
// a direct-indexed block of 64 instants under it. It delivers events in
// exactly event.Less order — (at, from, seq) — but relies on one thing
// a general heap cannot: every Push is strictly later than the instant
// being delivered (see Push), so time never has to be re-ordered behind
// the cursor.
//
// An event whose time lies in now's 64-aligned block (at ^ now < 64)
// is appended to block[at & 63], and bit at & 63 of occ is set; once
// there it never moves, and the next instant is the lowest set bit of
// occ. Every other event sits in later[i], where i = bits.Len64(at ^
// now) >= 7 is one more than the highest bit in which its time differs
// from now; nothing inside a bucket is ordered, and moving now inside
// its block changes no event's bucket. When the block runs dry, the
// lowest non-empty bucket holds the minimum pending time: one scan
// finds it, and a second moves that bucket's events at the minimum
// straight into front, the next instant, sends its other events in
// the minimum's block to their slots and drops the rest into strictly
// lower buckets; a bucket of one event is read in place. Sparse traffic
// thus moves each event no more than a bucket-only queue would, and an
// event is moved at most once per bit of its delay above the sixth.
// Buckets above the redistributed one are untouched — the new now
// agrees with the old on every bit at or above theirs.
//
// An instant is sorted by (from, seq) once, when it becomes current
// (sortInstant), and Pop reads it off a cursor. A slot is emptied as
// it becomes current: cur keeps reading its array, and nothing appends
// to the slot again before the block moves on.
//
// The zero value is an empty queue at time 0. Reset keeps all storage,
// so a pooled Network pushes into warm slices; fit carves the 64 slots
// out of one backing slice.
type eventQueue struct {
	now      int64
	n        int     // events pending, cur's unread tail included
	head     int     // next unread index of cur
	occ      uint64  // bit s set iff block[s] holds events after now
	nonEmpty uint64  // bit i set iff later[i] has events
	cur      []event // the events at time now, in (from, seq) order
	front    []event // the events at a minimum taken from a bucket
	tmp      []event // the counting pass's second buffer
	block    [64][]event
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
	// Amortized growth only: slots and buckets keep their high-water
	// capacity across advance and Reset.
	if d := uint64(ev.at ^ q.now); d < 64 {
		s := ev.at & 63
		q.block[s] = append(q.block[s], ev)
		q.occ |= 1 << s
	} else {
		i := bits.Len64(d)
		q.later[i] = append(q.later[i], ev)
		q.nonEmpty |= 1 << i
	}
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
// instant's events cur: the lowest occupied slot of the block, or, when
// the block is empty, the events at the minimum of the lowest non-empty
// bucket, which it gathers in front while it sends the bucket's other
// events in the minimum's block to their slots and the rest to lower
// buckets.
//
//costsense:hotpath
func (q *eventQueue) advance() {
	var a []event
	if q.occ != 0 {
		s := bits.TrailingZeros64(q.occ)
		q.occ &^= 1 << s
		q.now = q.now&^63 | int64(s)
		a = q.block[s]
		// Nothing is appended to slot s again until the block moves
		// on, and by then a has been read. (Self-slicing stores only
		// the length: no write barrier.)
		q.block[s] = q.block[s][:0]
	} else {
		i := bits.TrailingZeros64(q.nonEmpty)
		b := q.later[i]
		q.later[i] = q.later[i][:0]
		q.nonEmpty &^= 1 << i
		if len(b) == 1 {
			// Sparse traffic: the bucket's one event is the next
			// instant, read in place. Pushes may reuse the array, but
			// only after Pop has copied that event out.
			q.now, q.cur, q.head = b[0].at, b, 0
			return
		}
		min := b[0].at
		for k := 1; k < len(b); k++ {
			if b[k].at < min {
				min = b[k].at
			}
		}
		q.front = q.front[:0]
		for _, ev := range b {
			switch d := uint64(ev.at ^ min); {
			case d == 0:
				q.front = append(q.front, ev)
			case d < 64:
				s := ev.at & 63
				q.block[s] = append(q.block[s], ev)
				q.occ |= 1 << s
			default:
				j := bits.Len64(d) // < i: ev and min agree from bit i-1 up
				q.later[j] = append(q.later[j], ev)
				q.nonEmpty |= 1 << j
			}
		}
		q.now, a = min, q.front
	}
	if len(a) > insertionMax && cap(q.tmp) < len(a) {
		q.tmp = slices.Grow(q.tmp[:0], len(a))
	}
	q.cur, q.head = sortInstant(a, q.tmp[:cap(q.tmp)]), 0
}

// Reset empties the queue and returns it to time 0, keeping all
// storage. Events are pointer-free, so nothing needs zeroing.
//
//costsense:hotpath
func (q *eventQueue) Reset() {
	for s := range q.block {
		q.block[s] = q.block[s][:0]
	}
	for m := q.nonEmpty; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		q.later[i] = q.later[i][:0]
	}
	q.now, q.n, q.head, q.occ, q.nonEmpty, q.cur = 0, 0, 0, 0, 0, nil
}

// fit empties the queue for a Network bound to a graph whose block
// should hold about need events: it drops all storage when keeping it
// would total more than limit events, so a queue grown on a large graph
// is not pinned by a small one, and carves the 64 slots out of one new
// backing slice, need/64 events each, when they hold fewer than that,
// so a fresh Network allocates one object for its block instead of
// growing 64 slices.
func (q *eventQueue) fit(need, limit int) {
	q.Reset()
	w := need / 64
	blockCap, rest := 0, cap(q.front)+cap(q.tmp)
	for i := range q.block {
		blockCap += cap(q.block[i])
		rest += cap(q.later[i])
	}
	carve := blockCap < 64*w
	if carve {
		blockCap = 64 * w
	}
	if blockCap+rest > limit {
		*q = eventQueue{}
		carve = w > 0
	}
	if carve {
		all := make([]event, 64*w)
		for s := range q.block {
			q.block[s] = all[s*w : s*w : (s+1)*w]
		}
	}
}

// insertionMax is the largest instant sortInstant orders by insertion
// alone; above it a counting pass on the sender comes first.
const insertionMax = 24

// sameInstantLess orders two events of one instant by (from, seq), the
// tail of event.Less.
//
//costsense:hotpath
func sameInstantLess(a, b event) bool {
	return a.from < b.from || (a.from == b.from && a.seq < b.seq)
}

// sortInstant sorts the events of one instant by (from, seq) and
// returns them, in a or in tmp. Up to insertionMax events it is an
// insertion sort. Above that, bySender orders them by from first, and
// the same insertion sort then puts each sender's run in seq order: a
// slot's order is arrival order, not seq order, but it is close to it,
// so the fix-up moves few events. tmp must hold len(a) events when
// len(a) > insertionMax.
//
//costsense:hotpath
func sortInstant(a, tmp []event) []event {
	if len(a) > insertionMax {
		a = bySender(a, tmp[:len(a)])
	}
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i
		for ; j > 0 && sameInstantLess(x, a[j-1]); j-- {
			a[j] = a[j-1]
		}
		a[j] = x
	}
	return a
}

// bySender sorts a stably by from: one LSD counting pass per byte of
// the sender span (from − min from), back and forth between a and tmp,
// so it returns a after an even number of passes and tmp after an odd
// one. tmp must be as long as a.
//
//costsense:hotpath
func bySender(a, tmp []event) []event {
	lo, hi := a[0].from, a[0].from
	for _, ev := range a[1:] {
		lo, hi = min(lo, ev.from), max(hi, ev.from)
	}
	span := uint32(hi - lo)
	src, dst := a, tmp
	for shift := uint(0); span>>shift != 0; shift += 8 {
		var at [256]int32 // digit d's next position in dst
		for _, ev := range src {
			at[uint8(uint32(ev.from-lo)>>shift)]++
		}
		pos := int32(0)
		for d, c := range at[:min(span>>shift, 255)+1] {
			at[d], pos = pos, pos+c
		}
		for _, ev := range src {
			d := uint8(uint32(ev.from-lo) >> shift)
			dst[at[d]] = ev
			at[d]++
		}
		src, dst = dst, src
	}
	return src
}
