package plane

import (
	"math/bits"
	"sync"
)

// The free list keeps buffers in power-of-two classes from RecycleMin,
// one sector, to RecycleMax, the longest payload one transport capsule
// carries. A shorter buffer is not worth a free-list round trip.
const (
	RecycleMin = 1 << recycleMinShift // 512 B
	RecycleMax = 1 << recycleMaxShift // 8 MiB

	recycleMinShift = 9
	recycleMaxShift = 23
)

// recycleBudget caps the bytes the free list keeps: twice RecycleMax,
// or 32 of the 512 KiB member payloads a 1 MiB two-member read splits
// into. A recycled buffer that would take the list past it is dropped.
const recycleBudget = 2 * RecycleMax

// freeList is a free list of read buffers: one LIFO stack per class,
// where class k holds buffers whose capacity is in [2^k, 2^(k+1)), and
// at most recycleBudget bytes of capacity across them all. Unlike a
// sync.Pool it keeps what it holds through garbage collection, so a
// read after a phase without any still finds the buffers the last one
// gave back.
type freeList struct {
	mu    sync.Mutex
	held  int // capacity bytes across every class
	class [recycleMaxShift - recycleMinShift + 1][][]byte
}

// buffers is the process's read buffer free list: TakeBuffer takes from
// it, Recycle gives back to it.
var buffers freeList

// recycleClass returns the class a capacity or length of n falls in, or
// -1 outside the kept range.
func recycleClass(n int) int {
	k := bits.Len(uint(n)) - 1
	if n < RecycleMin || k > recycleMaxShift {
		return -1
	}
	return k - recycleMinShift
}

// TakeBuffer returns a buffer of length n whose bytes are not zeroed:
// the caller overwrites every one of them. A hit is the most recently
// recycled buffer of n's class long enough for n, so its capacity is at
// least n and under 2n; a miss allocates exactly n, as if there were no
// list.
func TakeBuffer(n int) []byte { return buffers.take(n) }

// Recycle gives b to the next TakeBuffer of its class, unless the list
// is full or b is outside the kept classes. The caller must hold the
// only reference to b's bytes, all of its capacity included: a Read
// result qualifies once the caller is done with it (Plane.Read). A nil
// b is ignored.
func Recycle(b []byte) { buffers.recycle(b) }

func (l *freeList) take(n int) []byte {
	if k := recycleClass(n); k >= 0 {
		l.mu.Lock()
		stack := l.class[k]
		for i := len(stack) - 1; i >= 0; i-- {
			if b := stack[i]; cap(b) >= n {
				last := len(stack) - 1
				copy(stack[i:], stack[i+1:])
				stack[last] = nil // the caller's now: the list keeps no reference
				l.class[k] = stack[:last]
				l.held -= cap(b)
				l.mu.Unlock()
				return b[:n]
			}
		}
		l.mu.Unlock()
	}
	return make([]byte, n)
}

func (l *freeList) recycle(b []byte) {
	k := recycleClass(cap(b))
	if k < 0 {
		return
	}
	l.mu.Lock()
	if l.held+cap(b) <= recycleBudget {
		l.class[k] = append(l.class[k], b[:0])
		l.held += cap(b)
	}
	l.mu.Unlock()
}
