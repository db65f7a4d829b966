package nvmeof

import (
	"math/bits"
	"sync"
)

// READ payload classes: powers of two from sockBufSize (2^16) to
// MaxDataLen (2^23). Smaller payloads are not worth a pool round trip.
const (
	payloadMinShift = 16
	payloadMaxShift = 23
)

// payloadPool is the package's free list of READ payload buffers. Class
// k holds buffers whose capacity is in [2^k, 2^(k+1)). readResponseInto
// takes every READ payload from it; a payload whose bytes have been
// copied out and that never left the package — a stripe member's buffer
// once scattered, a chunk of a long TCPPlane read once appended, a late
// answer to an abandoned command — goes back. A buffer handed to a
// caller of the package is the caller's alone (plane.Plane.Read) and
// never comes back.
var payloadPool [payloadMaxShift - payloadMinShift + 1]sync.Pool

// payloadClass returns the pool class a capacity or length of n falls
// in, or -1 outside the pooled range.
func payloadClass(n int) int {
	k := bits.Len(uint(n)) - 1
	if n < 1<<payloadMinShift || k > payloadMaxShift {
		return -1
	}
	return k - payloadMinShift
}

// takePayload returns a buffer of length n whose bytes are not zeroed:
// the caller overwrites every one of them. A hit has a capacity of at
// least n and under 2n; a miss allocates exactly n, as if there were no
// pool.
func takePayload(n int) []byte {
	if k := payloadClass(n); k >= 0 {
		if b, _ := payloadPool[k].Get().(*[]byte); b != nil && cap(*b) >= n {
			return (*b)[:n]
		}
	}
	return make([]byte, n)
}

// recyclePayload gives b to the next takePayload. The caller must hold
// the only reference to b's bytes.
func recyclePayload(b []byte) {
	if k := payloadClass(cap(b)); k >= 0 {
		b = b[:0]
		payloadPool[k].Put(&b)
	}
}
