package nvmeof

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// ErrTimeout reports that a command's deadline expired before its
// completion arrived. The queue pair itself stays healthy: a late
// completion is discarded when it eventually arrives.
var ErrTimeout = errors.New("nvmeof: command deadline exceeded")

// ErrBadResponse reports a protocol violation by the target: a
// completion whose payload disagrees with what the command requested.
var ErrBadResponse = errors.New("nvmeof: malformed response from target")

// Host is one queue pair of a HostPool: one TCP connection with
// pipelined command submission. The pool dials it (dialSlot) and every
// command enters through submitPayload; commands may be issued from
// multiple goroutines, and completions are matched by command ID.
//
// All per-command state lives in a preallocated slot ring (see ring.go):
// a submission acquires a slot, its index+1 is the wire CID, and the
// read loop completes it by array index. The steady state allocates
// nothing on either the submission or the completion path.
type Host struct {
	conn net.Conn

	timeout time.Duration

	sendMu sync.Mutex  // serializes capsule writes (direct path)
	iov    net.Buffers // direct-path iovec backing, under sendMu
	stage  []byte      // direct-path coalesce backing (non-TCP conns), under sendMu

	// respMu orders slot state transitions against the failure sweep
	// and guards follower lists. The state machine itself is CAS-based
	// (see ring.go), so the owner's free transition skips the lock.
	respMu sync.Mutex

	slots    []hostSlot
	freeRing *indexRing

	// inflightN counts registered commands (leaders; merged followers
	// ride in their leader's capsule) so the pool's queue-pair
	// selection can probe depth without touching slot state.
	inflightN atomic.Int32
	// failed mirrors err != nil for the same reason: Healthy is on the
	// pool's per-command path.
	failed atomic.Bool

	// batch, when non-nil, routes every submission through the
	// vectored-write batcher instead of the direct path.
	batch *batcher

	nsSize int64
	err    error
	errMu  sync.Mutex

	tel  qpTelemetry
	qpID int

	// version is the negotiated capsule version. Written by dialSlot
	// after the CONNECT round trip, read by the read loop and by every
	// submit; atomic because the read loop is already parsing when
	// negotiation completes.
	version atomic.Uint32
	tracer  *telemetry.Tracer
	flight  *FlightRecorder
}

// traceSeq and traceBase generate process-unique trace IDs: the base
// distinguishes processes (so host and target logs from different runs
// do not collide), the sequence distinguishes commands.
var (
	traceSeq  atomic.Uint64
	traceBase = uint64(time.Now().UnixNano()) << 20
)

// nextTraceID returns a non-zero trace ID (zero means "untraced").
func nextTraceID() uint64 {
	for {
		if id := traceBase ^ traceSeq.Add(1); id != 0 {
			return id
		}
	}
}

// traceIDString renders a trace ID for span attributes: hex, because
// JSON numbers above 2^53 lose precision in most consumers.
func traceIDString(id uint64) string { return fmt.Sprintf("%016x", id) }

// NamespaceSize returns the connected namespace's capacity.
func (h *Host) NamespaceSize() int64 { return h.nsSize }

// Healthy reports whether the queue pair can still carry commands.
func (h *Host) Healthy() bool {
	return !h.failed.Load()
}

// InFlight returns the number of commands awaiting completion
// (including abandoned slots of timed-out commands).
func (h *Host) InFlight() int {
	return int(h.inflightN.Load())
}

// CapsuleVersion reports the capsule version negotiated at CONNECT.
func (h *Host) CapsuleVersion() uint16 { return uint16(h.version.Load()) }

// acquireSlot pops a free slot and resets the per-command state the
// previous occupant left behind (payload references are cleared here,
// at reuse, so completed commands do not pin caller buffers beyond one
// ring lap).
func (h *Host) acquireSlot() (*hostSlot, error) {
	if h.failed.Load() {
		return nil, h.lastErr()
	}
	idx, ok := h.freeRing.pop()
	if !ok {
		return nil, fmt.Errorf("nvmeof: queue full: %d commands in flight", len(h.slots))
	}
	s := &h.slots[idx]
	if s.ch == nil {
		s.ch = make(chan Response, 1)
	}
	s.cmd = Command{}
	s.vec = nil
	s.vecLen = 0
	s.reg = nil
	s.leaderStat = nil
	s.followers = s.followers[:0]
	pc := &s.pc
	for i := range pc.data {
		pc.data[i] = nil
	}
	pc.data = pc.data[:0]
	return s, nil
}

// registerSlot publishes the slot as in flight under its wire CID. Held
// against the failure sweep via respMu: a registration either errors
// out (host already failed) or is guaranteed to be swept.
func (h *Host) registerSlot(s *hostSlot) error {
	h.respMu.Lock()
	if h.failed.Load() {
		h.respMu.Unlock()
		h.freeSlot(s)
		return h.lastErr()
	}
	s.state.Store(slotInflight)
	h.respMu.Unlock()
	h.tel.ringOcc.Set(int64(h.inflightN.Add(1)))
	return nil
}

// freeSlot returns an owned slot (freshly acquired, or delivered and
// consumed) to the free ring.
func (h *Host) freeSlot(s *hostSlot) {
	if s.reg != nil {
		s.reg.unregister()
		s.reg = nil
	}
	s.state.Store(slotFree)
	h.freeRing.push(s.idx)
}

// unregisterSlot retracts a registration whose wire write failed. If a
// completion raced in anyway, it is consumed and the slot freed.
func (h *Host) unregisterSlot(s *hostSlot) {
	h.respMu.Lock()
	if s.state.CompareAndSwap(slotInflight, slotFree) {
		h.respMu.Unlock()
		h.tel.ringOcc.Set(int64(h.inflightN.Add(-1)))
		if s.reg != nil {
			s.reg.unregister()
			s.reg = nil
		}
		h.freeRing.push(s.idx)
		return
	}
	h.respMu.Unlock()
	select {
	case _, ok := <-s.ch:
		if ok {
			h.freeSlot(s)
		}
	default:
	}
}

// readLoop dispatches completions to waiting submitters. One Response
// is reused across iterations: delivery is by value into each waiter's
// buffered channel, so nothing here escapes per command.
func (h *Host) readLoop() {
	br := bufio.NewReaderSize(h.conn, sockBufSize)
	// The version is consulted lazily, after each response's fixed
	// header is read: the CONNECT completion is parsed while the
	// negotiated version is still being decided, but any response that
	// could carry an extension arrives strictly after dialSlot stored
	// it.
	version := func() uint16 { return uint16(h.version.Load()) }
	var resp Response
	var scratch [protoScratchLen]byte
	for {
		if err := readResponseInto(br, version, &resp, &scratch); err != nil {
			h.fail(err)
			return
		}
		h.deliver(&resp)
	}
}

// deliver routes one completion to its slot: dispatch is an array index
// (CID = slot index + 1). An abandoned (timed-out) slot is reclaimed
// here — its CID was never reissued while the target could still answer
// it. Unknown or duplicate CIDs are dropped.
func (h *Host) deliver(resp *Response) {
	cid := int(resp.CID)
	if cid < 1 || cid > len(h.slots) {
		return
	}
	s := &h.slots[cid-1]
	h.respMu.Lock()
	switch {
	case s.state.CompareAndSwap(slotInflight, slotDelivered):
		h.inflightN.Add(-1)
		s.ch <- *resp
		h.fanOut(s, resp)
	case s.state.CompareAndSwap(slotAbandoned, slotFree):
		h.inflightN.Add(-1)
		if s.reg != nil {
			s.reg.unregister()
			s.reg = nil
		}
		h.fanOut(s, resp)
		h.freeRing.push(s.idx)
	default:
		// Duplicate or unsolicited completion: drop.
	}
	h.respMu.Unlock()
	h.tel.ringOcc.Set(int64(h.inflightN.Load()))
}

// fanOut completes the merged-WRITE followers riding in s's capsule.
// respMu must be held.
func (h *Host) fanOut(s *hostSlot, resp *Response) {
	for _, fi := range s.followers {
		f := &h.slots[fi]
		switch {
		case f.state.CompareAndSwap(slotMergeWait, slotDelivered):
			f.ch <- *resp
		case f.state.CompareAndSwap(slotAbandoned, slotFree):
			if f.reg != nil {
				f.reg.unregister()
				f.reg = nil
			}
			h.freeRing.push(fi)
		}
	}
	s.followers = s.followers[:0]
}

// fail poisons the host: all in-flight and future commands error out.
// Waiting slots are marked failed and their channels closed; they are
// never reused (the host is dead), which also keeps a late arrival on
// a half-written connection from ever completing a future command.
func (h *Host) fail(err error) {
	h.errMu.Lock()
	if h.err == nil {
		h.err = err
		h.failed.Store(true)
	}
	h.errMu.Unlock()
	h.respMu.Lock()
	for i := range h.slots {
		s := &h.slots[i]
		if s.state.CompareAndSwap(slotInflight, slotFailed) ||
			s.state.CompareAndSwap(slotMergeWait, slotFailed) {
			if s.reg != nil {
				s.reg.unregister()
				s.reg = nil
			}
			close(s.ch)
		} else if s.state.CompareAndSwap(slotAbandoned, slotFailed) {
			if s.reg != nil {
				s.reg.unregister()
				s.reg = nil
			}
		}
	}
	h.inflightN.Store(0)
	h.respMu.Unlock()
	h.tel.ringOcc.Set(0)
}

func (h *Host) lastErr() error {
	h.errMu.Lock()
	defer h.errMu.Unlock()
	if h.err != nil {
		return h.err
	}
	return fmt.Errorf("nvmeof: connection closed")
}

// submitPayload is the queue pair's one way in: it clones cmd into a
// fresh slot (the pool's retry loop reuses one Command value across
// attempts and queue pairs) and runs the round trip. A WRITE's payload
// may be more than cmd.Data can say: vec, when non-nil, is a gather list
// of vecLen bytes that rides as one iovec per slice (WriteAtV); reg,
// when non-nil, is the registered buffer backing cmd.Data, pinned until
// the transport is done with its bytes (WriteAtBuffer).
func (h *Host) submitPayload(cmd *Command, vec [][]byte, vecLen int, reg *Buffer) (Response, error) {
	s, err := h.acquireSlot()
	if err != nil {
		return Response{}, err
	}
	s.cmd = *cmd
	s.vec, s.vecLen = vec, vecLen
	if reg != nil {
		reg.register()
		s.reg = reg
	}
	return h.roundTrip(s)
}

// roundTrip submits one slot and records its outcome in the queue
// pair's telemetry series, its flight ring, and (when tracing) the
// trace stream. On return the slot has been freed (delivered and
// consumed), abandoned (timeout), or failed — the caller must not
// touch it again.
func (h *Host) roundTrip(s *hostSlot) (Response, error) {
	cmd := &s.cmd
	if h.tracer != nil && uint16(h.version.Load()) >= VersionTrace {
		cmd.Traced = true
		cmd.TraceID = nextTraceID()
	}
	cmd.CID = s.idx + 1
	// Capture what the observers need before awaiting: after a timeout
	// the slot can be reclaimed and reused concurrently.
	op := cmd.Opcode
	traceID := cmd.TraceID
	cid := cmd.CID
	payload := len(cmd.Data) + s.vecLen
	start := time.Now()
	var (
		resp   Response
		batchN int
		err    error
	)
	if h.batch != nil {
		resp, batchN, err = h.submitBatched(s)
	} else {
		resp, err = h.submitDirect(s)
	}
	rtt := time.Since(start)
	h.tel.observe(payload, resp, err, rtt)
	h.observeFlight(op, traceID, cid, payload, resp, err, start, rtt, batchN)
	return resp, err
}

// observeFlight logs one completed round trip into the queue pair's
// flight ring, emits the correlated span for traced completions, and
// dumps the ring on the failure modes worth a postmortem.
func (h *Host) observeFlight(op Opcode, traceID uint64, cid uint16, payload int, resp Response, err error, start time.Time, rtt time.Duration, batchN int) {
	rec := FlightRecord{
		TraceID:   traceID,
		QP:        h.qpID,
		Op:        op.String(),
		Opcode:    op,
		CID:       cid,
		Status:    resp.Status,
		Bytes:     payload + len(resp.Data),
		WallNS:    start.UnixNano(),
		ElapsedNS: int64(rtt),
		Batch:     batchN,
	}
	if resp.Phases != nil {
		rec.Phases = *resp.Phases
		rec.HasPhases = true
	}
	if err != nil {
		rec.Err = err.Error()
	}
	h.flight.Record(h.qpID, rec)
	if err == nil && resp.Phases != nil && h.tracer != nil {
		p := resp.Phases
		wire := int64(hostWirePhase(rtt, p))
		attrs := map[string]any{
			"trace_id":      traceIDString(traceID),
			"op":            op.String(),
			"qp":            h.qpID,
			"status":        resp.Status,
			"bytes":         rec.Bytes,
			"wire_ns":       wire,
			"queue_ns":      p.QueueNS,
			"service_ns":    p.ServiceNS,
			"wire_read_ns":  p.WireReadNS,
			"wire_write_ns": p.WireWriteNS,
		}
		if batchN > 0 {
			// The command went out in a vectored flush of batchN
			// capsules; its wire phase amortizes across them.
			attrs["batch_cmds"] = batchN
		}
		h.tracer.SpanWall("nvmeof.cmd", -1, start, rtt, attrs)
	}
	if errors.Is(err, ErrTimeout) {
		dumpFlight(h.tracer, h.flight, h.qpID, "timeout")
	}
}

// awaitResponse waits for the slot's completion, bounded by the queue
// pair's CommandTimeout if one is configured. The slot is NOT freed
// here: on success the caller consumes the response and frees; on
// timeout ownership transfers to the read loop's reclaim.
//
// respTimerPool recycles the per-command timeout timers: every bounded
// round trip arms one, and allocating a runtime timer per command is
// measurable on the small-command hot path.
var respTimerPool sync.Pool

func (h *Host) awaitResponse(s *hostSlot) (Response, error) {
	// A plain receive covers delivery AND failure: the failure sweep
	// closes every in-flight slot's channel (under the same respMu that
	// ordered this slot's registration), so an unbounded wait needs no
	// select — the hot path is one channel op.
	if h.timeout <= 0 {
		resp, ok := <-s.ch
		if !ok {
			return Response{}, h.lastErr()
		}
		return resp, nil
	}
	timer, _ := respTimerPool.Get().(*time.Timer)
	if timer == nil {
		timer = time.NewTimer(h.timeout)
	} else {
		timer.Reset(h.timeout)
	}
	defer func() {
		if !timer.Stop() {
			// Fired (or we consumed the tick in the timeout
			// branch): drain so the recycled timer starts clean.
			select {
			case <-timer.C:
			default:
			}
		}
		respTimerPool.Put(timer)
	}()
	select {
	case resp, ok := <-s.ch:
		if !ok {
			return Response{}, h.lastErr()
		}
		return resp, nil
	case <-timer.C:
		// Abandon the slot rather than freeing it: the target may
		// still be processing, and the CID must not be reissued while
		// a stale completion could answer a future command. The read
		// loop reclaims the slot when the late completion arrives.
		// Only this waiter detaches — a merged sibling may still be
		// inside its own deadline.
		h.respMu.Lock()
		if s.state.CompareAndSwap(slotInflight, slotAbandoned) ||
			s.state.CompareAndSwap(slotMergeWait, slotAbandoned) {
			h.respMu.Unlock()
			return Response{}, fmt.Errorf("%w (%v)", ErrTimeout, h.timeout)
		}
		h.respMu.Unlock()
		// Delivered in the race (the value is already buffered — the
		// send happens under respMu) or failed (channel closed).
		resp, ok := <-s.ch
		if !ok {
			return Response{}, h.lastErr()
		}
		return resp, nil
	}
}

// submitDirect sends one slot's command as a single vectored write —
// header and payload as separate iovecs, no intermediate copy — and
// waits for its completion.
func (h *Host) submitDirect(s *hostSlot) (Response, error) {
	if err := validateCommand(&s.cmd, uint16(h.version.Load()), s.vecLen); err != nil {
		h.freeSlot(s)
		return Response{}, err
	}
	if err := h.registerSlot(s); err != nil {
		return Response{}, err
	}
	h.sendMu.Lock()
	n := encodeCommandHeaderIntoN(s.pc.hdrBuf[:], &s.cmd, len(s.cmd.Data)+s.vecLen)
	iov := append(h.iov[:0], s.pc.hdrBuf[:n])
	if s.vec != nil {
		iov = append(iov, s.vec...)
	} else if len(s.cmd.Data) > 0 {
		iov = append(iov, s.cmd.Data)
	}
	h.iov = iov
	err := writeBuffers(h.conn, &h.iov, &h.stage)
	h.iov = iov[:0] // retain the (possibly grown) backing for reuse
	h.sendMu.Unlock()
	if err != nil {
		h.unregisterSlot(s)
		return Response{}, err
	}
	resp, err := h.awaitResponse(s)
	if err != nil {
		return resp, err
	}
	h.freeSlot(s)
	return resp, nil
}

// writeBuffers puts one or more whole capsules on the wire. On a real
// TCP connection the buffers go out as a single writev, no copy. On a
// wrapped connection (fault injection, test doubles) they are coalesced
// into one reusable staging buffer first: wrappers classify each Write
// call as one frame, so a capsule must never be split across calls.
// The caller owns stage's serialization (sendMu on the direct path, the
// flushing flag on the batched path). Consumed entries of bufs are
// nil'ed either way, so the retained iovec backing pins no payloads.
// bufs points at the owner's long-lived field: WriteTo has a pointer
// receiver, so a header passed by value moves to the heap on every wire
// write. It advances *bufs; the caller re-slices its backing afterwards.
func writeBuffers(conn net.Conn, bufs *net.Buffers, stage *[]byte) error {
	if _, ok := conn.(*net.TCPConn); ok {
		_, err := bufs.WriteTo(conn)
		return err
	}
	total := 0
	for _, b := range *bufs {
		total += len(b)
	}
	flat := (*stage)[:0]
	if cap(flat) < total {
		flat = make([]byte, 0, total)
	}
	for i, b := range *bufs {
		flat = append(flat, b...)
		(*bufs)[i] = nil
	}
	*stage = flat[:0]
	_, err := conn.Write(flat)
	return err
}

// checkResp folds a round-trip error and a completion status into one
// error.
func checkResp(resp Response, err error, op string) error {
	if err != nil {
		return fmt.Errorf("nvmeof: %s: %w", op, err)
	}
	if resp.Status != StatusOK {
		return fmt.Errorf("nvmeof: %s: %s", op, statusText(resp.Status))
	}
	return nil
}

// validateReadLength rejects read lengths the protocol cannot carry,
// before the int64 is truncated into the capsule's uint32 field.
func validateReadLength(length int64) error {
	if length < 0 {
		return fmt.Errorf("nvmeof: read: negative length %d", length)
	}
	if length > MaxDataLen {
		return fmt.Errorf("nvmeof: read: length %d exceeds capsule limit %d", length, MaxDataLen)
	}
	return nil
}

// badPayload holds an OK completion to what its command asked for: a
// READ returns exactly Length bytes and a LIST-NS whole 12-byte entries.
// Short, oversized, or missing data is a protocol violation by the
// target, never silently padded or passed through.
func badPayload(cmd *Command, resp *Response) error {
	if resp.Status != StatusOK {
		return nil
	}
	switch cmd.Opcode {
	case OpReadCmd:
		if len(resp.Data) != int(cmd.Length) {
			return fmt.Errorf("target returned %d bytes, want %d: %w",
				len(resp.Data), cmd.Length, ErrBadResponse)
		}
	case OpListNS:
		if len(resp.Data)%12 != 0 {
			return fmt.Errorf("target returned %d bytes, not a multiple of 12: %w",
				len(resp.Data), ErrBadResponse)
		}
	}
	return nil
}

// vecBytes totals a gather list.
func vecBytes(bufs [][]byte) int {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	return total
}

// NamespaceInfo describes one exported namespace.
type NamespaceInfo struct {
	NSID uint32
	Size int64
}

// decodeNamespaceList parses a LIST-NS payload (whole entries: see
// badPayload).
func decodeNamespaceList(data []byte) []NamespaceInfo {
	out := make([]NamespaceInfo, 0, len(data)/12)
	for off := 0; off < len(data); off += 12 {
		out = append(out, NamespaceInfo{
			NSID: binary.LittleEndian.Uint32(data[off:]),
			Size: int64(binary.LittleEndian.Uint64(data[off+4:])),
		})
	}
	return out
}

// Close tears down the queue pair.
func (h *Host) Close() error {
	return h.conn.Close()
}
