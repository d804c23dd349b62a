// Package pq provides a concrete generic d-ary min-heap for the
// centralized graph algorithms (Dijkstra, Prim). The simulator's event
// queue is not this heap: its pushes are always later than the event
// being delivered, and internal/sim's eventQueue is built on that; its
// tests use Heap as the ordering oracle.
//
// It replaces container/heap in those paths: container/heap moves
// elements through `any`, which boxes every Push argument (one
// allocation per scheduled event) and dispatches every comparison and
// swap through an interface. Heap[T] stores elements in a plain []T,
// so Push/Pop allocate only on slice growth, and the 4-ary layout
// roughly halves the tree height, trading a few extra comparisons per
// level for far fewer cache-missing levels — the standard choice for
// implicit heaps whose elements are small structs.
package pq

// Lesser is the ordering constraint: a type orders itself against
// another value of the same type. The order must be total and strict
// (irreflexive); ties broken by a sequence number keep heaps
// deterministic.
type Lesser[T any] interface {
	Less(T) bool
}

// arity is the branching factor of the implicit tree. 4 keeps parents
// and children within one or two cache lines for small elements.
const arity = 4

// Heap is a d-ary min-heap. The zero value is an empty heap ready for
// use.
type Heap[T Lesser[T]] struct {
	a []T
}

// NewHeap returns a heap with capacity pre-allocated for n elements.
func NewHeap[T Lesser[T]](n int) *Heap[T] {
	return &Heap[T]{a: make([]T, 0, n)}
}

// Len returns the number of elements in the heap.
func (h *Heap[T]) Len() int { return len(h.a) }

// Push adds x to the heap. O(log_4 n), allocation-free except for
// amortized slice growth.
//
//costsense:hotpath
func (h *Heap[T]) Push(x T) {
	h.a = append(h.a, x)
	h.up(len(h.a) - 1)
}

// Pop removes and returns the minimum element. It panics on an empty
// heap, like an out-of-range slice access.
//
//costsense:hotpath
func (h *Heap[T]) Pop() T {
	a := h.a
	min := a[0]
	n := len(a) - 1
	a[0] = a[n]
	var zero T
	a[n] = zero // release references held by the vacated slot
	h.a = a[:n]
	if n > 1 {
		h.down(0)
	}
	return min
}

//costsense:hotpath
func (h *Heap[T]) up(i int) {
	a := h.a
	x := a[i]
	for i > 0 {
		p := (i - 1) / arity
		if !x.Less(a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = x
}

// down restores heap order below i using Floyd's bottom-up variant:
// the hole walks all the way down along minimum children (arity-1
// comparisons per level), then x sifts up from the leaf (x is the
// former last element, so this almost always stops immediately). This
// saves the min-child-vs-x comparison per level of the textbook loop.
//
//costsense:hotpath
func (h *Heap[T]) down(i int) {
	a := h.a
	n := len(a)
	x := a[i]
	start := i
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + arity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if a[c].Less(a[min]) {
				min = c
			}
		}
		a[i] = a[min]
		i = min
	}
	for i > start {
		p := (i - 1) / arity
		if !x.Less(a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = x
}
