package pq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

type intItem int64

func (x intItem) Less(y intItem) bool { return x < y }

func TestHeapSortsRandomInput(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		in := make([]int64, n)
		h := NewHeap[intItem](0)
		for i := range in {
			in[i] = rng.Int63n(50) // duplicates likely
			h.Push(intItem(in[i]))
		}
		sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
		for i := 0; i < n; i++ {
			if h.Len() != n-i {
				t.Logf("Len = %d, want %d", h.Len(), n-i)
				return false
			}
			if got := int64(h.Pop()); got != in[i] {
				t.Logf("pop %d = %d, want %d", i, got, in[i])
				return false
			}
		}
		return h.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(20))}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var h Heap[intItem] // zero value must work
	var mirror []int64
	for step := 0; step < 5000; step++ {
		if h.Len() == 0 || rng.Intn(3) > 0 {
			v := rng.Int63n(1000)
			h.Push(intItem(v))
			mirror = append(mirror, v)
		} else {
			min := mirror[0]
			mi := 0
			for i, v := range mirror {
				if v < min {
					min, mi = v, i
				}
			}
			mirror[mi] = mirror[len(mirror)-1]
			mirror = mirror[:len(mirror)-1]
			if got := int64(h.Pop()); got != min {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, min)
			}
		}
	}
}

// seqItem checks stability-by-tiebreak: equal keys with distinct
// sequence numbers must come out in sequence order, the property the
// simulator's (time, seq) event ordering relies on.
type seqItem struct {
	key int64
	seq int64
}

func (x seqItem) Less(y seqItem) bool {
	if x.key != y.key {
		return x.key < y.key
	}
	return x.seq < y.seq
}

func TestHeapDeterministicTiebreak(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var h Heap[seqItem]
	for i := 0; i < 2000; i++ {
		h.Push(seqItem{key: rng.Int63n(10), seq: int64(i)})
	}
	var prev seqItem
	for i := 0; h.Len() > 0; i++ {
		it := h.Pop()
		if i > 0 && it.Less(prev) {
			t.Fatalf("out of order: %+v after %+v", it, prev)
		}
		if i > 0 && prev.key == it.key && it.seq < prev.seq {
			t.Fatalf("tie broken unstably: %+v after %+v", it, prev)
		}
		prev = it
	}
}

func TestPushPopAllocFree(t *testing.T) {
	h := NewHeap[intItem](1024)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 512; i++ {
			h.Push(intItem(512 - i))
		}
		for h.Len() > 0 {
			h.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("Push/Pop allocated %.1f times per run, want 0", allocs)
	}
}
