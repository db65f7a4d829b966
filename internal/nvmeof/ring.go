package nvmeof

import (
	"runtime"
	"sync/atomic"
)

// This file is the slot-ring submission path's spine: a bounded MPMC ring
// of slot indices (the free list every submitter acquires from) and the
// per-queue-pair slot array it indexes. The design follows the SPDK
// run-to-completion model the paper's data path is built on (§IV): all
// per-command state is preallocated at queue-pair creation, a command's
// lifetime is a slot cycling free → in-flight → delivered → free, and
// the steady state allocates nothing. The command ID on the wire is the
// slot index plus one, so completion dispatch is an array index instead
// of a map lookup.

// hostQueueDepth is each queue pair's slot-ring depth: the maximum
// commands (leaders; merged followers ride in their leader's capsule
// but also hold a slot while parked) outstanding at once. Must be a
// power of two and leave every CID representable in uint16.
const hostQueueDepth = 1024

// Slot lifecycle states. Transitions are CAS-based so the read loop,
// the owner's timeout path, and the failure sweep can race safely:
// exactly one of them wins each transition.
const (
	// slotFree: in the free ring (or being carried between acquire and
	// registration by its owner).
	slotFree uint32 = iota
	// slotInflight: registered under a wire CID, owner parked on ch.
	slotInflight
	// slotMergeWait: parked as a merged-WRITE follower; no wire CID of
	// its own, completed by its leader's completion fan-out.
	slotMergeWait
	// slotDelivered: completion value sent on ch; owner consumes and
	// frees.
	slotDelivered
	// slotAbandoned: owner timed out and detached. The slot is reclaimed
	// (freed) by the read loop when the late completion arrives, so the
	// CID is never reissued while the target may still answer it.
	slotAbandoned
	// slotFailed: the queue pair died with this command outstanding; ch
	// is closed and the slot is never reused (the host is dead).
	slotFailed
)

// hostSlot is one preallocated command slot. The embedded Command and
// pendingCmd carry the submission; ch carries the completion back by
// value (buffered, capacity 1, so the read loop's send under respMu
// never blocks). A slot's CID is idx+1 for its whole life.
type hostSlot struct {
	idx   uint16
	state atomic.Uint32
	ch    chan Response

	cmd Command
	// vec, when non-nil, is a vectored WRITE payload (WriteAtV): the
	// capsule's data is the concatenation of these slices, written to
	// the wire as separate iovecs with no intermediate copy.
	vec    [][]byte
	vecLen int

	pc pendingCmd

	// followers are merged-WRITE follower slot indices riding in this
	// leader's capsule. Guarded by Host.respMu.
	followers       []uint16
	followersInline [4]uint16
	// leaderStat points at the leader's batch stat for a follower slot
	// (the flight record's batch-size field). Owner-local.
	leaderStat *batchStat
}

// indexRing is a bounded MPMC ring of slot indices — Vyukov's bounded
// queue: each cell carries a sequence number that encodes whether it is
// ready to produce into or consume from, so push and pop are single-CAS
// operations with no mutex. Sequence arithmetic is modular in uint32
// (compared via signed difference), so ticket wraparound is harmless —
// FuzzIndexRing drives the ring across the 2^32 boundary.
type indexRing struct {
	mask  uint32
	cells []ringCell
	_     [64]byte // keep head and tail on separate cache lines
	head  atomic.Uint32
	_     [64]byte
	tail  atomic.Uint32
}

type ringCell struct {
	seq atomic.Uint32
	val uint16
}

// newIndexRing creates a ring of the given power-of-two capacity with
// tickets starting at start (non-zero starts exercise wraparound).
func newIndexRing(capacity int, start uint32) *indexRing {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		panic("nvmeof: indexRing capacity must be a power of two")
	}
	r := &indexRing{mask: uint32(capacity - 1), cells: make([]ringCell, capacity)}
	// Each cell must be seeded with the ticket that maps to it
	// (ticket&mask picks the cell), not with cell index order — for a
	// start that is not mask-aligned the two differ, and a mis-seeded
	// cell never matches its producer's ticket.
	for i := 0; i < capacity; i++ {
		seq := start + uint32(i)
		r.cells[seq&r.mask].seq.Store(seq)
	}
	r.head.Store(start)
	r.tail.Store(start)
	return r
}

// push enqueues v; it returns false when the ring is full.
func (r *indexRing) push(v uint16) bool {
	for {
		tail := r.tail.Load()
		cell := &r.cells[tail&r.mask]
		seq := cell.seq.Load()
		switch d := int32(seq - tail); {
		case d == 0:
			if r.tail.CompareAndSwap(tail, tail+1) {
				cell.val = v
				cell.seq.Store(tail + 1)
				return true
			}
		case d < 0:
			// The cell still carries last lap's ticket. Full only if no
			// consumer has claimed it; otherwise one sits between its
			// ticket CAS and its release, and reporting full would make
			// the caller drop v (a freed slot index) for good.
			if int32(tail-r.head.Load()) > int32(r.mask) {
				return false
			}
			runtime.Gosched()
		}
		// d > 0: another producer claimed this ticket; retry.
	}
}

// pop dequeues the oldest index; it returns false when the ring is
// empty.
func (r *indexRing) pop() (uint16, bool) {
	for {
		head := r.head.Load()
		cell := &r.cells[head&r.mask]
		seq := cell.seq.Load()
		switch d := int32(seq - (head + 1)); {
		case d == 0:
			if r.head.CompareAndSwap(head, head+1) {
				v := cell.val
				cell.seq.Store(head + r.mask + 1)
				return v, true
			}
		case d < 0:
			// Unpublished. Empty only if no producer has claimed the
			// cell; otherwise wait out the one mid-publish.
			if int32(r.tail.Load()-head) <= 0 {
				return 0, false
			}
			runtime.Gosched()
		}
	}
}

// occupancy reports how many indices the ring currently holds
// (approximate under concurrency; exact when quiescent).
func (r *indexRing) occupancy() int {
	d := int32(r.tail.Load() - r.head.Load())
	if d < 0 {
		return 0
	}
	return int(d)
}
