package nvmeof

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// TestIndexRingFIFO pins the single-threaded contract: a ring holds
// exactly its capacity, rejects pushes when full and pops when empty,
// and yields indices in insertion order.
func TestIndexRingFIFO(t *testing.T) {
	const cap = 8
	r := newIndexRing(cap, 0)
	if v, ok := r.pop(); ok {
		t.Fatalf("pop on empty ring returned %d", v)
	}
	for i := 0; i < cap; i++ {
		if !r.push(uint16(i)) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if r.push(99) {
		t.Fatal("push accepted on a full ring")
	}
	if got := r.occupancy(); got != cap {
		t.Fatalf("occupancy = %d, want %d", got, cap)
	}
	for i := 0; i < cap; i++ {
		v, ok := r.pop()
		if !ok {
			t.Fatalf("pop %d failed on a non-empty ring", i)
		}
		if v != uint16(i) {
			t.Fatalf("pop %d = %d, want FIFO order", i, v)
		}
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop succeeded on a drained ring")
	}
	if got := r.occupancy(); got != 0 {
		t.Fatalf("occupancy = %d after drain", got)
	}
}

// TestIndexRingTicketWraparound starts the ticket sequence just below
// the uint32 boundary so every push/pop pair crosses it within a few
// operations: the signed-difference comparisons must treat the wrapped
// tickets as a continuation, not a reset.
func TestIndexRingTicketWraparound(t *testing.T) {
	for _, start := range []uint32{math.MaxUint32 - 3, math.MaxUint32, math.MaxUint32 - 16} {
		r := newIndexRing(8, start)
		for round := 0; round < 16; round++ {
			for i := 0; i < 8; i++ {
				if !r.push(uint16(round*8 + i)) {
					t.Fatalf("start=%d round=%d: push %d rejected", start, round, i)
				}
			}
			for i := 0; i < 8; i++ {
				v, ok := r.pop()
				if !ok || v != uint16(round*8+i) {
					t.Fatalf("start=%d round=%d: pop = %d,%v, want %d", start, round, v, ok, round*8+i)
				}
			}
		}
	}
}

// TestIndexRingConcurrent hammers the ring from concurrent producers
// and consumers (run under -race by scripts/verify.sh): every pushed
// index must come back exactly once, and the ring must end empty.
func TestIndexRingConcurrent(t *testing.T) {
	const cap = 64
	const perWorker = 2000
	const workers = 8
	r := newIndexRing(cap, math.MaxUint32-100) // cross the ticket boundary mid-run
	// Seed half the capacity so producers and consumers overlap from
	// the start.
	for i := 0; i < cap/2; i++ {
		r.push(uint16(i))
	}
	var got [cap]int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := map[uint16]int64{}
			for i := 0; i < perWorker; i++ {
				if v, ok := r.pop(); ok {
					local[v]++
					for !r.push(v) {
					}
				}
			}
			mu.Lock()
			for v, n := range local {
				got[v] += n
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	// Drain: exactly the seeded indices remain, each once.
	seen := map[uint16]bool{}
	for {
		v, ok := r.pop()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("index %d drained twice", v)
		}
		seen[v] = true
	}
	if len(seen) != cap/2 {
		t.Fatalf("drained %d indices, want the %d seeded", len(seen), cap/2)
	}
	for v := range seen {
		if v >= cap/2 {
			t.Fatalf("drained index %d was never pushed", v)
		}
	}
}

// TestIndexRingFullRingCycle is the free list as a host uses it: every
// index starts in the ring, so it runs within a few in-flight commands
// of full, and a release lands on the cell an acquire claimed a moment
// ago. A push that meets a consumer between its ticket CAS and its
// release must wait, not report "full" — freeSlot cannot retry, so the
// index would be gone, and enough of those read as "queue full" with
// nothing in flight. Likewise a pop must not report "empty" while a
// producer is mid-publish.
func TestIndexRingFullRingCycle(t *testing.T) {
	const workers = 64
	const perWorker = 50000
	r := newIndexRing(hostQueueDepth, math.MaxUint32-1000)
	for i := 0; i < hostQueueDepth; i++ {
		r.push(uint16(i))
	}
	var popFail, pushFail atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v, ok := r.pop()
				if !ok {
					popFail.Add(1)
					continue
				}
				if !r.push(v) {
					pushFail.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if popFail.Load() != 0 || pushFail.Load() != 0 || r.occupancy() != hostQueueDepth {
		t.Fatalf("ring of %d never below %d held: %d pops reported empty, %d pushes reported full, %d indices left",
			hostQueueDepth, hostQueueDepth-workers, popFail.Load(), pushFail.Load(), r.occupancy())
	}
}

// FuzzIndexRing drives a ring from a fuzzer-chosen ticket start —
// including starts that wrap uint32 within the run — through an
// arbitrary push/pop sequence, checking every step against a plain
// slice model.
func FuzzIndexRing(f *testing.F) {
	f.Add(uint32(0), []byte{0, 1, 0, 0, 1, 1})
	f.Add(uint32(math.MaxUint32-2), []byte{0, 0, 0, 0, 0, 1, 1, 1, 1, 1})
	f.Add(uint32(math.MaxUint32), []byte{0, 1, 0, 1, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, start uint32, ops []byte) {
		const cap = 8
		r := newIndexRing(cap, start)
		var model []uint16
		next := uint16(0)
		for _, op := range ops {
			if op%2 == 0 {
				ok := r.push(next)
				wantOK := len(model) < cap
				if ok != wantOK {
					t.Fatalf("push(%d) = %v with %d/%d held", next, ok, len(model), cap)
				}
				if ok {
					model = append(model, next)
				}
				next++
			} else {
				v, ok := r.pop()
				wantOK := len(model) > 0
				if ok != wantOK {
					t.Fatalf("pop = %v with %d held", ok, len(model))
				}
				if ok {
					if v != model[0] {
						t.Fatalf("pop = %d, want %d (FIFO)", v, model[0])
					}
					model = model[1:]
				}
			}
			if occ := r.occupancy(); occ != len(model) {
				t.Fatalf("occupancy = %d, model holds %d", occ, len(model))
			}
		}
	})
}

// BenchmarkIndexRing measures the free list's single-threaded cycle
// cost: one pop plus one push, the per-command ring overhead of the
// slot-ring submission path.
func BenchmarkIndexRing(b *testing.B) {
	r := newIndexRing(hostQueueDepth, 0)
	for i := 0; i < hostQueueDepth; i++ {
		r.push(uint16(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, ok := r.pop()
		if !ok {
			b.Fatal("ring empty")
		}
		r.push(v)
	}
}
