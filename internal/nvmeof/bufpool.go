package nvmeof

import (
	"math/bits"
	"sync"
)

// READ payload classes: powers of two from sockBufSize (2^16) to
// MaxDataLen (2^23). Smaller payloads are not worth a free-list round
// trip.
const (
	payloadMinShift = 16
	payloadMaxShift = 23
)

// payloadBudget caps the bytes the free list keeps: twice MaxDataLen,
// or 32 of the 512 KiB member payloads a 1 MiB two-member read splits
// into. A recycled buffer that would take the list past it is dropped.
const payloadBudget = 2 * MaxDataLen

// payloadFreeList is a free list of READ payload buffers: one LIFO
// stack per class, where class k holds buffers whose capacity is in
// [2^k, 2^(k+1)), and at most payloadBudget bytes of capacity across
// them all. Unlike a sync.Pool it keeps what it holds through garbage
// collection, so a READ after a phase without any still finds the
// buffers the last one gave back.
type payloadFreeList struct {
	mu    sync.Mutex
	held  int // capacity bytes across every class
	class [payloadMaxShift - payloadMinShift + 1][][]byte
}

// payloads is the package's READ payload free list. readResponseInto
// takes every READ payload from it; a payload whose bytes have been
// copied out and that never left the package — a stripe member's buffer
// once scattered, a chunk of a long TCPPlane read once appended, a late
// answer to an abandoned command — goes back. A buffer handed to a
// caller of the package is the caller's alone (plane.Plane.Read) and
// never comes back.
var payloads payloadFreeList

// payloadClass returns the class a capacity or length of n falls in, or
// -1 outside the kept range.
func payloadClass(n int) int {
	k := bits.Len(uint(n)) - 1
	if n < 1<<payloadMinShift || k > payloadMaxShift {
		return -1
	}
	return k - payloadMinShift
}

// take returns a buffer of length n whose bytes are not zeroed: the
// caller overwrites every one of them. A hit is the most recently
// recycled buffer of n's class long enough for n, so its capacity is at
// least n and under 2n; a miss allocates exactly n, as if there were no
// list.
func (l *payloadFreeList) take(n int) []byte {
	if k := payloadClass(n); k >= 0 {
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

// recycle gives b to the next take of its class, unless the list is
// full. The caller must hold the only reference to b's bytes.
func (l *payloadFreeList) recycle(b []byte) {
	k := payloadClass(cap(b))
	if k < 0 {
		return
	}
	l.mu.Lock()
	if l.held+cap(b) <= payloadBudget {
		l.class[k] = append(l.class[k], b[:0])
		l.held += cap(b)
	}
	l.mu.Unlock()
}
