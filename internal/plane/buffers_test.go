package plane

import (
	"runtime"
	"sync"
	"testing"
)

// TestPayloadFreeListClasses pins the free list's shape: its classes
// run from RecycleMin to RecycleMax, and whatever a take returns — a
// hit or a miss — is exactly as long as asked, with a capacity under
// twice that, even when the class holds buffers too short for it.
// nvmeof's test of the same name pins the two bounds to the transport.
func TestPayloadFreeListClasses(t *testing.T) {
	for _, tc := range []struct{ n, class int }{
		{RecycleMin - 1, -1}, {RecycleMin, 0}, {2*RecycleMin - 1, 0},
		{2 * RecycleMin, 1}, {RecycleMax, recycleMaxShift - recycleMinShift},
		{2*RecycleMax - 1, recycleMaxShift - recycleMinShift}, {2 * RecycleMax, -1},
	} {
		if got := recycleClass(tc.n); got != tc.class {
			t.Errorf("recycleClass(%d) = %d, want %d", tc.n, got, tc.class)
		}
	}
	var l freeList
	for _, n := range []int{160 << 10, 192 << 10, 200 << 10, 255 << 10, 256 << 10} {
		for i := 0; i < 8; i++ {
			l.recycle(make([]byte, 192<<10))
			got := l.take(n)
			if len(got) != n || cap(got) >= 2*n {
				t.Fatalf("take of %d bytes: len %d cap %d", n, len(got), cap(got))
			}
			l.recycle(got)
		}
	}
}

// TestPayloadFreeListSurvivesGC: a recycled buffer is still there for
// the next take of its class after garbage collection has run, however
// long the phase without a read that separates them. Break-demo: with
// the free list as a per-class sync.Pool, the take after two
// collections misses and allocates a fresh buffer (red three times out
// of three).
func TestPayloadFreeListSurvivesGC(t *testing.T) {
	var l freeList
	for _, n := range []int{RecycleMin, 512 << 10, RecycleMax} {
		b := make([]byte, n)
		l.recycle(b)
		runtime.GC()
		runtime.GC()
		got := l.take(n)
		if len(got) != n || &got[0] != &b[0] {
			t.Fatalf("%d-byte buffer: the take after two collections did not get it back", n)
		}
	}
}

// TestPayloadFreeListBudget: the list keeps at most recycleBudget bytes
// of capacity, however much is recycled into it, and a take longer than
// every buffer its class keeps misses — it allocates exactly what it
// asked for and leaves the kept buffers where they are.
func TestPayloadFreeListBudget(t *testing.T) {
	var l freeList
	const n = 192 << 10
	for i := 0; i < 2*recycleBudget/n; i++ {
		l.recycle(make([]byte, n))
	}
	kept := l.kept()
	if kept > recycleBudget || kept != l.held {
		t.Fatalf("%d bytes kept (held counts %d) after recycling %d, budget %d", kept, l.held, 2*recycleBudget, recycleBudget)
	}
	if kept < recycleBudget-n {
		t.Fatalf("%d bytes kept, the budget %d has room for more", kept, recycleBudget)
	}
	k := recycleClass(n)
	before := len(l.class[k])
	if got := l.take(n + 1); cap(got) != n+1 {
		t.Fatalf("take of %d bytes from a class of %d-byte buffers: cap %d, want a fresh %d", n+1, n, cap(got), n+1)
	}
	if len(l.class[k]) != before {
		t.Fatalf("a miss changed its class from %d buffers to %d", before, len(l.class[k]))
	}
	if got := l.take(n); cap(got) != n || len(l.class[k]) != before-1 {
		t.Fatalf("take of %d bytes: cap %d, class left with %d of %d", n, cap(got), len(l.class[k]), before)
	}
}

// TestPayloadFreeListConcurrent: every read loop, stripe and file
// system instance shares the free list, so takes and recycles from
// several goroutines at once must never hand one buffer to two holders,
// and the byte count the budget is held to must match what the stacks
// keep. scripts/verify.sh runs it under -race.
func TestPayloadFreeListConcurrent(t *testing.T) {
	var l freeList
	sizes := []int{RecycleMin, 192 << 10, 512 << 10, RecycleMax}
	const stride = 4096 // a mark per page is enough to tell holders apart
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := l.take(sizes[(g+i)%len(sizes)])
				for j := 0; j < len(b); j += stride {
					b[j] = byte(g)
				}
				runtime.Gosched()
				for j := 0; j < len(b); j += stride {
					if b[j] != byte(g) {
						t.Errorf("goroutine %d: a buffer it held was written by goroutine %d", g, b[j])
						return
					}
				}
				l.recycle(b)
			}
		}(g)
	}
	wg.Wait()
	if kept := l.kept(); kept != l.held || kept > recycleBudget {
		t.Fatalf("stacks keep %d bytes, held counts %d, budget %d", kept, l.held, recycleBudget)
	}
}

// kept sums the capacity the stacks hold.
func (l *freeList) kept() int {
	kept := 0
	for _, stack := range l.class {
		for _, b := range stack {
			kept += cap(b)
		}
	}
	return kept
}
