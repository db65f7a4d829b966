package nvmeof

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// BatchConfig tunes a queue pair's submission batcher. The batcher
// coalesces capsules queued by concurrent submitters into a single
// vectored wire write (net.Buffers, one writev on a TCP connection), so
// the per-command syscall cost — the dominant software cost of small
// commands, the cost the paper keeps off the critical path (§IV) —
// is amortized across the batch. The wire format is unchanged: a batch
// is byte-for-byte the capsules that would have been sent singly, so
// batched initiators interoperate with every target and no version
// negotiation is involved (capsules are self-delimiting; see
// docs/batching.md).
//
// The zero value disables batching.
type BatchConfig struct {
	// Enabled turns the batcher on.
	Enabled bool
	// MaxCommands caps the capsules per flush (default 64).
	MaxCommands int
	// MergeWrites additionally coalesces an enqueued WRITE whose range
	// begins exactly where the previous still-pending WRITE ends into
	// that command's capsule: one capsule, one target service visit,
	// both submitters completed by the shared completion. Only
	// untraced WRITEs merge (a merged capsule cannot carry two trace
	// IDs).
	MergeWrites bool
}

// batchMaxBytes is the batch budget: a flush is cut when the pending
// wire bytes reach it. It also bounds merged WRITE payloads.
const batchMaxBytes = 256 << 10

func (c BatchConfig) withDefaults() BatchConfig {
	if c.MaxCommands <= 0 {
		c.MaxCommands = 64
	}
	return c
}

// batchStat is the flush-time shape of one batch, shared by every
// command it carried. The fields are atomic because a waiter reads
// them after its completion arrives, and the completion travels
// through the socket — an ordering the race detector cannot see.
type batchStat struct {
	commands atomic.Int32
	bytes    atomic.Int64
}

// pendingCmd is one encoded capsule awaiting the next vectored flush.
// It lives inside its command's hostSlot, so enqueueing allocates
// nothing: the header is rendered into the inline buffer, and payload
// slices alias the caller's buffers, which stay valid because the
// caller blocks until its completion arrives (zero-copy into writev).
// The data backing persists across slot reuse (entries are cleared at
// acquire so completed payloads are not pinned).
type pendingCmd struct {
	cid     uint16
	op      Opcode
	hdrBuf  [cmdHdrLen + traceExtLen]byte
	hdr     []byte   // hdrBuf[:n]
	data    [][]byte // payload iovecs (own + merged followers)
	payload int      // total payload bytes across data
	endOff  uint64   // WRITE: Offset + payload (merge adjacency)
	merge   bool     // untraced WRITE: candidate for payload merging
	stat    batchStat
}

func (pc *pendingCmd) wire() int { return len(pc.hdr) + pc.payload }

// batcher coalesces one queue pair's submissions into vectored writes,
// leader/follower style: the first submitter to find no flush in
// progress becomes the flusher and drains the pending queue — cutting
// batches at the configured budget — while later submitters only
// enqueue and wait for their completions. No background goroutine and
// no linger timer: a lone submitter flushes immediately (same syscall
// count as the unbatched path), and batches form exactly when
// submissions actually overlap.
//
// Lock order: batcher.mu before Host.respMu, never the reverse.
type batcher struct {
	cfg BatchConfig

	mu       sync.Mutex
	pending  []*hostSlot // slots awaiting the next flush (pc embedded)
	bytes    int
	flushing bool

	// Flusher-owned scratch, serialized by the flushing flag: the cut
	// batch is copied here so pending can compact under b.mu while the
	// vectored write runs outside it, and iov is the reusable writev
	// backing (WriteTo nils consumed entries, so neither pins
	// payloads past the flush).
	scratch []*hostSlot
	iov     net.Buffers
	stage   []byte // coalesce backing for non-TCP conns (see writeBuffers)
	coal    []byte // small-piece coalesce backing (see flushBatches)
}

// coalesceMin is the payload size below which a batched piece is copied
// into the flusher's contiguous coalesce buffer instead of riding as
// its own writev iovec. The kernel pays a per-segment cost importing
// and walking the iovec array, so a flush of many sub-4K capsules is
// substantially cheaper as a few large segments (one 512B memcpy per
// piece buys back several times its cost in writev overhead). Payloads
// of coalesceMin and above keep a dedicated iovec: for them the copy
// would cost more than the segment, and they are the zero-copy path's
// reason to exist.
const coalesceMin = 4096

// validateCommand applies WriteCommandV's rejection rules before a
// command is committed to a batch: once enqueued its header bytes are
// final, so anything WriteCommandV would refuse must be refused here.
// extra is payload carried outside c.Data (a vectored WRITE's total).
func validateCommand(c *Command, version uint16, extra int) error {
	if len(c.Data)+extra > MaxDataLen {
		return fmt.Errorf("nvmeof: in-capsule data %d exceeds limit", len(c.Data)+extra)
	}
	if c.Traced && version < VersionTrace {
		return fmt.Errorf("nvmeof: traced command on version-%d queue pair", version)
	}
	return nil
}

// encodeCommandHeader renders cmd's fixed header (plus the trace-ID
// extension when present) into a fresh slice, leaving the payload to
// ride as its own iovec. The bytes are identical to what WriteCommandV
// puts on the wire before the payload — pinned by
// TestBatchWireBytesPinned so the formats can never diverge.
func encodeCommandHeader(c *Command) []byte {
	hdr := make([]byte, cmdHdrLen+traceExtLen)
	return hdr[:encodeCommandHeaderInto(hdr, c)]
}

// encodeCommandHeaderInto renders the header into buf (which must hold
// cmdHdrLen+traceExtLen bytes) and returns the encoded length, so the
// hot path can use a pendingCmd's inline buffer with no allocation.
func encodeCommandHeaderInto(buf []byte, c *Command) int {
	return encodeCommandHeaderIntoN(buf, c, len(c.Data))
}

// encodeCommandHeaderIntoN is encodeCommandHeaderInto with an explicit
// payload length, for capsules whose data arrives as a vector of
// slices (WriteAtV) rather than c.Data.
func encodeCommandHeaderIntoN(buf []byte, c *Command, payload int) int {
	n := cmdHdrLen
	if c.Traced {
		n += traceExtLen
	}
	binary.LittleEndian.PutUint32(buf[0:], cmdMagic)
	buf[4] = byte(c.Opcode)
	buf[5] = 0
	if c.Traced {
		buf[5] = cmdFlagTraced
	}
	binary.LittleEndian.PutUint16(buf[6:], c.CID)
	binary.LittleEndian.PutUint32(buf[8:], c.NSID)
	binary.LittleEndian.PutUint64(buf[12:], c.Offset)
	binary.LittleEndian.PutUint32(buf[20:], c.Length)
	binary.LittleEndian.PutUint32(buf[24:], uint32(payload))
	binary.LittleEndian.PutUint16(buf[28:], c.ProposeVersion)
	if c.Traced {
		binary.LittleEndian.PutUint64(buf[cmdHdrLen:], c.TraceID)
	}
	return n
}

// submitBatched enqueues one slot for the next vectored flush and
// waits for its completion. It is the batched counterpart of
// submitDirect; errors during the flush poison the queue pair exactly
// like a failed direct write. On success the slot is consumed and
// freed before returning.
func (h *Host) submitBatched(s *hostSlot) (Response, int, error) {
	cmd := &s.cmd
	selfPayload := len(cmd.Data) + s.vecLen
	if err := validateCommand(cmd, uint16(h.version.Load()), s.vecLen); err != nil {
		h.freeSlot(s)
		return Response{}, 0, err
	}
	b := h.batch

	b.mu.Lock()
	// Merge an adjacent WRITE into its still-pending predecessor: one
	// capsule carries both payloads, and this submitter completes on
	// the shared CID's completion. The follower keeps its own slot
	// (parked in slotMergeWait) but no wire CID: the leader's
	// completion fan-out delivers to it.
	if leader := b.mergeTarget(cmd, s.vecLen); leader != nil {
		merged := false
		h.respMu.Lock()
		if !h.failed.Load() && leader.state.Load() == slotInflight {
			leader.followers = append(leader.followers, s.idx)
			s.state.Store(slotMergeWait)
			merged = true
		}
		h.respMu.Unlock()
		if merged {
			pc := &leader.pc
			if s.vec != nil {
				pc.data = append(pc.data, s.vec...)
			} else {
				pc.data = append(pc.data, cmd.Data)
			}
			pc.payload += selfPayload
			pc.endOff += uint64(selfPayload)
			binary.LittleEndian.PutUint32(pc.hdr[24:], uint32(pc.payload))
			b.bytes += selfPayload
			s.leaderStat = &pc.stat
			b.mu.Unlock()
			h.tel.batchMerged.Inc()
			cmd.CID = leader.idx + 1
			resp, err := h.awaitResponse(s)
			if err != nil {
				// Timed out (slot abandoned; the leader's fan-out
				// reclaims it) or failed. The stat pointer may be
				// going stale if the leader's slot is reused, but its
				// fields are atomic — a racy read is a defined,
				// merely approximate batch size.
				return Response{}, int(s.leaderStat.commands.Load()), err
			}
			batchN := int(s.leaderStat.commands.Load())
			h.freeSlot(s)
			return resp, batchN, nil
		}
	}

	if err := h.registerSlot(s); err != nil {
		b.mu.Unlock()
		return Response{}, 0, err
	}
	pc := &s.pc
	pc.cid = cmd.CID
	pc.op = cmd.Opcode
	pc.payload = selfPayload
	pc.endOff = cmd.Offset + uint64(selfPayload)
	pc.merge = b.cfg.MergeWrites && cmd.Opcode == OpWriteCmd && !cmd.Traced && selfPayload > 0
	pc.hdr = pc.hdrBuf[:encodeCommandHeaderIntoN(pc.hdrBuf[:], cmd, selfPayload)]
	if s.vec != nil {
		pc.data = append(pc.data, s.vec...)
	} else if len(cmd.Data) > 0 {
		pc.data = append(pc.data, cmd.Data)
	}
	b.pending = append(b.pending, s)
	b.bytes += pc.wire()
	if !b.flushing {
		b.flushing = true
		// Yield once before cutting the first batch: submitters that are
		// already runnable (a burst woken by the previous batch's
		// completions, or peers on other Ps) get to enqueue behind us, so
		// overlapping submissions actually coalesce instead of each
		// becoming a depth-1 leader. A lone submitter pays one empty
		// scheduler pass and proceeds immediately — still no linger
		// timer, no background goroutine.
		b.mu.Unlock()
		runtime.Gosched()
		b.mu.Lock()
		h.flushBatches(b) // unlocks b.mu
	} else {
		b.mu.Unlock()
	}
	resp, err := h.awaitResponse(s)
	if err != nil {
		return Response{}, int(pc.stat.commands.Load()), err
	}
	batchN := int(pc.stat.commands.Load())
	h.freeSlot(s)
	return resp, batchN, nil
}

// mergeTarget returns the still-pending WRITE leader that cmd's payload
// can be appended to, or nil. extra is payload outside cmd.Data (a
// vectored WRITE). b.mu must be held.
func (b *batcher) mergeTarget(cmd *Command, extra int) *hostSlot {
	payload := len(cmd.Data) + extra
	if !b.cfg.MergeWrites || cmd.Opcode != OpWriteCmd || cmd.Traced ||
		payload == 0 || len(b.pending) == 0 {
		return nil
	}
	s := b.pending[len(b.pending)-1]
	pc := &s.pc
	if !pc.merge || pc.endOff != cmd.Offset || pc.payload+payload > batchMaxBytes {
		return nil
	}
	return s
}

// flushBatches drains the pending queue as the current flush leader,
// cutting one vectored write per batch budget. Called with b.mu held;
// returns with it released. A wire error poisons the host (every
// waiter, flushed or still pending, is failed) — a partial vectored
// write leaves the capsule stream unframed, so the connection is dead
// either way.
func (h *Host) flushBatches(b *batcher) {
	for len(b.pending) > 0 {
		cut := len(b.pending)
		if cut > b.cfg.MaxCommands {
			cut = b.cfg.MaxCommands
		}
		wire := 0
		for i := 0; i < cut; i++ {
			wire += b.pending[i].pc.wire()
			if wire >= batchMaxBytes && i+1 < cut {
				cut = i + 1
				break
			}
		}
		// Copy the cut into flusher-owned scratch and compact pending
		// in place: the retained backing must not keep flushed slots
		// reachable past this flush.
		batch := append(b.scratch[:0], b.pending[:cut]...)
		n := copy(b.pending, b.pending[cut:])
		for i := n; i < len(b.pending); i++ {
			b.pending[i] = nil
		}
		b.pending = b.pending[:n]
		b.bytes -= wire
		nbufs := 0
		for _, s := range batch {
			pc := &s.pc
			pc.stat.commands.Store(int32(len(batch)))
			pc.stat.bytes.Store(int64(wire))
			pc.merge = false // flushed: no longer a merge target
			nbufs += 1 + len(pc.data)
		}
		b.mu.Unlock()

		// Size the coalesce buffer before building iovecs: appends must
		// never reallocate it, or the runs already referenced from bufs
		// would point into the abandoned backing.
		small := 0
		for _, s := range batch {
			pc := &s.pc
			small += len(pc.hdr)
			for _, d := range pc.data {
				if len(d) < coalesceMin {
					small += len(d)
				}
			}
		}
		coal := b.coal[:0]
		if cap(coal) < small {
			coal = make([]byte, 0, small)
		}
		bufs := b.iov[:0]
		run := -1 // start of the open coalesced run within coal
		for _, s := range batch {
			pc := &s.pc
			if run < 0 {
				run = len(coal)
			}
			coal = append(coal, pc.hdr...)
			for _, d := range pc.data {
				if len(d) < coalesceMin {
					if run < 0 {
						run = len(coal)
					}
					coal = append(coal, d...)
					continue
				}
				if run >= 0 && run < len(coal) {
					bufs = append(bufs, coal[run:len(coal):len(coal)])
				}
				run = -1
				bufs = append(bufs, d)
			}
		}
		if run >= 0 && run < len(coal) {
			bufs = append(bufs, coal[run:len(coal):len(coal)])
		}
		b.coal = coal[:0] // retain the (possibly grown) backing
		b.iov = bufs
		start := time.Now()
		err := writeBuffers(h.conn, &b.iov, &b.stage)
		b.iov = bufs[:0] // retain the (possibly grown) backing
		h.tel.observeBatch(len(batch), wire, time.Since(start))
		for i := range batch {
			batch[i] = nil
		}
		b.scratch = batch[:0]
		if err != nil {
			h.fail(err)
			b.mu.Lock()
			for i := range b.pending {
				b.pending[i] = nil
			}
			b.pending = b.pending[:0]
			b.bytes = 0
			break
		}
		b.mu.Lock()
	}
	b.flushing = false
	b.mu.Unlock()
}
