package nvmeof

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nvme-cr/nvmecr/internal/extent"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// stripeBytes is the lock-striping granularity of a MemNamespace: each
// stripe has its own extent store and mutex, so queue pairs writing
// disjoint regions never contend on one namespace-wide lock.
const stripeBytes = 1 << 20

// nsStripe is one independently locked region of a namespace.
type nsStripe struct {
	mu    sync.Mutex
	store *extent.Store
}

// MemNamespace is one exported namespace backed by lock-striped
// in-memory extent stores (the target-side analogue of an SSD
// namespace; on the paper's testbed this is an SPDK bdev). An optional
// modeled device service latency is charged per command outside any
// lock, so commands on different queue pairs overlap their service
// time the way they would on real hardware — commands on the same
// queue pair serialize, which is exactly the head-of-line cost a
// HostPool exists to remove.
type MemNamespace struct {
	size        int64
	delay       time.Duration
	bytesPerSec int64 // 0 = infinite device bandwidth
	stripes     []nsStripe
}

// NewMemNamespace creates a namespace of the given size with no modeled
// device latency.
func NewMemNamespace(size int64) *MemNamespace {
	return NewMemNamespaceWithModel(size, 0, 0)
}

// NewMemNamespaceWithModel creates a namespace with a two-parameter
// device model: perCmd is the fixed per-command service latency
// (command overhead, flash program/read time) and bytesPerSec the
// device's sequential bandwidth, charged per payload byte on top of
// the fixed cost (0 = infinite). With only a flat per-command cost,
// splitting a transfer across commands or targets is modeled as free —
// which makes single-target large commands look unbeatable and hides
// exactly the aggregate-bandwidth win striping exists to measure.
func NewMemNamespaceWithModel(size int64, perCmd time.Duration, bytesPerSec int64) *MemNamespace {
	n := int((size + stripeBytes - 1) / stripeBytes)
	if n < 1 {
		n = 1
	}
	ns := &MemNamespace{size: size, delay: perCmd, bytesPerSec: bytesPerSec, stripes: make([]nsStripe, n)}
	for i := range ns.stripes {
		ns.stripes[i].store = extent.New()
	}
	return ns
}

// serviceDelay is the modeled device time for one command moving n
// payload bytes.
func (ns *MemNamespace) serviceDelay(n int64) time.Duration {
	d := ns.delay
	if ns.bytesPerSec > 0 && n > 0 {
		d += time.Duration(n * int64(time.Second) / ns.bytesPerSec)
	}
	return d
}

// Size returns the namespace capacity.
func (ns *MemNamespace) Size() int64 { return ns.size }

// StoredBytes returns the payload bytes held.
func (ns *MemNamespace) StoredBytes() int64 {
	var total int64
	for i := range ns.stripes {
		s := &ns.stripes[i]
		s.mu.Lock()
		total += s.store.Bytes()
		s.mu.Unlock()
	}
	return total
}

func (ns *MemNamespace) writeAt(off int64, data []byte) uint16 {
	if off < 0 || off+int64(len(data)) > ns.size {
		return StatusOutOfRange
	}
	if d := ns.serviceDelay(int64(len(data))); d > 0 {
		time.Sleep(d)
	}
	for len(data) > 0 {
		si := off / stripeBytes
		n := (si+1)*stripeBytes - off
		if n > int64(len(data)) {
			n = int64(len(data))
		}
		s := &ns.stripes[si]
		s.mu.Lock()
		err := s.store.Write(off, data[:n])
		s.mu.Unlock()
		if err != nil {
			return StatusInternal
		}
		off += n
		data = data[n:]
	}
	return StatusOK
}

// readAt serves a READ into *bufp's backing (see reuseBuf): the result
// is only valid until the caller's next readAt with the same bufp.
func (ns *MemNamespace) readAt(off, length int64, bufp *[]byte) ([]byte, uint16) {
	if off < 0 || length < 0 || off+length > ns.size {
		return nil, StatusOutOfRange
	}
	if d := ns.serviceDelay(length); d > 0 {
		time.Sleep(d)
	}
	buf := reuseBuf(bufp, int(length))
	for covered := int64(0); covered < length; {
		cur := off + covered
		si := cur / stripeBytes
		n := (si+1)*stripeBytes - cur
		if n > length-covered {
			n = length - covered
		}
		s := &ns.stripes[si]
		s.mu.Lock()
		s.store.ReadInto(cur, buf[covered:covered+n])
		s.mu.Unlock()
		covered += n
	}
	return buf, StatusOK
}

// qpConn is the target's bookkeeping for one accepted queue pair. The
// counters live in the target's registry (one series per accepted
// queue pair, labeled by ID) so the per-command path never takes
// Target.mu and /metrics sees every queue pair that ever connected.
type qpConn struct {
	id   int
	conn net.Conn

	nsid atomic.Uint32 // namespace bound by CONNECT (0 = none)
	// lost is set when the reader leaves on a reset, EOF or malformed
	// capsule — anything but a draining Close's read deadline.
	lost atomic.Bool

	commands *telemetry.Counter
	errors   *telemetry.Counter
	bytesIn  *telemetry.Counter
	bytesOut *telemetry.Counter
}

// drainWriteGrace bounds how long a draining queue pair may spend
// writing its final responses to a peer that has stopped reading.
const drainWriteGrace = 5 * time.Second

// Target is a multi-tenant NVMe-oF target daemon serving namespaces
// over TCP. Each accepted connection is one queue pair.
type Target struct {
	mu         sync.Mutex
	namespaces map[uint32]*MemNamespace
	ln         net.Listener
	wg         sync.WaitGroup
	closed     bool
	conns      map[int]*qpConn
	nextQPID   int

	// Registry-backed stats (bumped on every command, off the t.mu
	// path; counters are atomic internally).
	reg      *telemetry.Registry
	commands *telemetry.Counter
	errors   *telemetry.Counter
	bytesIn  *telemetry.Counter
	bytesOut *telemetry.Counter
	latency  *telemetry.Histogram

	// flight keeps the last completed commands per accepted queue
	// pair, with measured phase breakdowns; served at /debug/flight
	// on the nvmecrd admin listener.
	flight *FlightRecorder
}

// NewTarget creates a target with no namespaces (see AddNamespace).
func NewTarget() *Target {
	reg := telemetry.New()
	return &Target{
		namespaces: make(map[uint32]*MemNamespace),
		conns:      make(map[int]*qpConn),
		reg:        reg,
		commands:   reg.Counter(MetricTargetCommands, nil),
		errors:     reg.Counter(MetricTargetErrors, nil),
		bytesIn:    reg.Counter(MetricTargetBytesIn, nil),
		bytesOut:   reg.Counter(MetricTargetBytesOut, nil),
		latency:    reg.Histogram(MetricTargetLatency, nil, nil),
		flight:     NewFlightRecorder(0),
	}
}

// AddNamespace exports a namespace under the given NSID.
func (t *Target) AddNamespace(nsid uint32, ns *MemNamespace) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.namespaces[nsid]; ok {
		return fmt.Errorf("nvmeof: nsid %d already exported", nsid)
	}
	t.namespaces[nsid] = ns
	return nil
}

// Listen starts accepting queue pairs on addr (e.g. "127.0.0.1:0").
// It returns the bound address.
func (t *Target) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	t.ln = ln
	t.mu.Unlock()
	t.wg.Add(1)
	go t.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (t *Target) acceptLoop(ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.serve(conn)
		}()
	}
}

// register tracks a new queue pair; it refuses connections that race
// with Close so that drain never waits on a late arrival.
func (t *Target) register(conn net.Conn) (*qpConn, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, false
	}
	t.nextQPID++
	l := telemetry.Labels{"qp": fmt.Sprint(t.nextQPID)}
	qp := &qpConn{
		id:       t.nextQPID,
		conn:     conn,
		commands: t.reg.Counter(MetricTargetQPCommands, l),
		errors:   t.reg.Counter(MetricTargetQPErrors, l),
		bytesIn:  t.reg.Counter(MetricTargetQPBytesIn, l),
		bytesOut: t.reg.Counter(MetricTargetQPBytesOut, l),
	}
	t.conns[qp.id] = qp
	return qp, true
}

func (t *Target) deregister(qp *qpConn) {
	t.mu.Lock()
	delete(t.conns, qp.id)
	t.mu.Unlock()
}

// targetSQDepth bounds each queue pair's submission queue: how many
// parsed commands may wait for service before the reader stops pulling
// from the socket (backpressure then falls back to TCP flow control).
const targetSQDepth = 64

// tgtSlot is one queue-pair submission slot: the parsed command, the
// response under construction, the retained payload backing, and the
// timestamps the phase breakdown is computed from. The serve loop
// preallocates targetSQDepth of these and cycles them through a free
// list, so the steady-state service path parses, executes, and answers
// commands without allocating (the run-to-completion discipline of the
// paper's target, in Go clothes).
type tgtSlot struct {
	cmd Command
	// dataBuf is the payload backing readCommandInto reuses between
	// capsules (retained up to maxReuseBuf; larger payloads get a
	// one-off allocation).
	dataBuf []byte
	resp    Response
	phases  PhaseTimings

	readStart time.Time     // first capsule byte available
	wireRead  time.Duration // first byte available -> capsule parsed
	queuedAt  time.Time     // capsule parsed; submission-queue wait starts
}

// clamp1 converts a measured phase to nanoseconds, clamped to >= 1 so
// a sub-clock-resolution measurement still reads as "happened".
func clamp1(d time.Duration) uint64 {
	if d < 1 {
		return 1
	}
	return uint64(d)
}

// serve handles one queue pair: a reader goroutine parses capsules off
// the socket into a submission queue, and the service loop below
// executes them in order. The split keeps the phase breakdown honest —
// submission-queue wait is real time a pipelined command spends behind
// its predecessors, not a synthetic zero — and mirrors the SQ/CQ shape
// of a hardware queue pair.
func (t *Target) serve(conn net.Conn) {
	defer conn.Close()
	qp, ok := t.register(conn)
	if !ok {
		return
	}
	defer t.deregister(qp)
	br := bufio.NewReaderSize(conn, sockBufSize)
	bw := bufio.NewWriterSize(conn, sockBufSize)

	// Slot pool: the reader acquires a slot, parses into it, and hands
	// its index to the service loop, which returns it after answering.
	// Indices, not pointers, travel through the channels, so one slot
	// array serves the queue pair's whole life with no per-command
	// allocation.
	slots := make([]tgtSlot, targetSQDepth)
	free := make(chan uint16, targetSQDepth)
	for i := range slots {
		free <- uint16(i)
	}
	sq := make(chan uint16, targetSQDepth)
	go func() {
		// Reader: owns br. Exits (closing the submission queue) on
		// EOF, a read deadline from a draining Close, or a protocol
		// violation; only the deadline leaves a peer that still wants
		// answers (see qpConn.lost).
		defer close(sq)
		leave := func(err error) { qp.lost.Store(!errors.Is(err, os.ErrDeadlineExceeded)) }
		var scratch [protoScratchLen]byte
		for {
			// Acquire the slot before blocking for the first byte: the
			// wire-read clock must start at first-byte-available, and
			// idle time waiting for the host to submit is not wire
			// time (it must not inflate the phase sum past the
			// host-observed round trip).
			idx := <-free
			s := &slots[idx]
			if _, err := br.Peek(1); err != nil {
				leave(err)
				return
			}
			s.readStart = time.Now()
			if err := readCommandInto(br, &s.cmd, &s.dataBuf, &scratch); err != nil {
				leave(err)
				return
			}
			if s.cmd.Traced {
				now := time.Now()
				s.wireRead = now.Sub(s.readStart)
				s.queuedAt = now
			} else {
				// Untraced commands carry no phase decomposition, so the
				// post-parse clock read buys nothing: fold the (bufio-fed,
				// sub-microsecond) parse into the queue wait and save the
				// read — clock reads are a measurable slice of the
				// small-command loop.
				s.wireRead = 0
				s.queuedAt = s.readStart
			}
			sq <- idx
		}
	}()

	// dead ends the queue pair after a response could not be delivered:
	// force the reader off the socket, then drain the queue — recycling
	// each drained slot so a reader blocked on the free list wakes, hits
	// the closed socket, and closes sq.
	dead := func() {
		conn.Close()
		for di := range sq {
			free <- di
		}
	}

	var connected *MemNamespace
	// readBuf backs every READ payload this queue pair returns. One is
	// enough: this loop is serial, and writeResponseScratch has handed the
	// whole payload to bw (copied or sent) before the next command runs.
	var readBuf []byte
	var prevWireWrite time.Duration
	var respScratch [protoScratchLen]byte
	for idx := range sq {
		// The connection died with commands still queued: nobody can be
		// told what they did, and a stale WRITE must not land after its
		// submitter, told it failed, wrote the range again through
		// another queue pair. A draining Close is the one exit that
		// still services them.
		if qp.lost.Load() {
			free <- idx
			dead()
			return
		}
		s := &slots[idx]
		cmd := &s.cmd
		// bw holds bytes only when the previous response found this
		// command already queued and left its flush to us. If servicing
		// it will keep this loop off the socket, the finished completion
		// goes out first: an ack must not cost its submitter the next
		// command's copy or device time.
		if bw.Buffered() > 0 && holdsLoop(cmd, connected) {
			if err := bw.Flush(); err != nil {
				dead()
				return
			}
		}
		// One clock read covers both the queue-wait end and the service
		// start (they are the same instant); the write path fuses its
		// reads the same way. Untraced commands skip the interior reads
		// entirely — nothing reports their per-phase split, and clock
		// reads are a measurable slice of the small-command service
		// loop.
		var serviceStart time.Time
		var queueWait time.Duration
		if cmd.Traced {
			serviceStart = time.Now()
			queueWait = serviceStart.Sub(s.queuedAt)
		}
		t.commands.Inc()
		t.bytesIn.Add(uint64(len(cmd.Data)))
		qp.commands.Inc()
		qp.bytesIn.Add(uint64(len(cmd.Data)))
		resp := &s.resp
		*resp = Response{CID: cmd.CID, Status: StatusOK}
		switch cmd.Opcode {
		case OpConnect:
			t.mu.Lock()
			ns, nsOK := t.namespaces[cmd.NSID]
			t.mu.Unlock()
			if !nsOK {
				resp.Status = StatusInvalidNamespace
			} else {
				connected = ns
				resp.Value = uint64(ns.Size())
				qp.nsid.Store(cmd.NSID)
			}
		case OpIdentify:
			if connected == nil {
				resp.Status = StatusNotConnected
			} else {
				resp.Value = uint64(connected.Size())
			}
		case OpWriteCmd:
			if connected == nil {
				resp.Status = StatusNotConnected
			} else {
				resp.Status = connected.writeAt(int64(cmd.Offset), cmd.Data)
			}
		case OpReadCmd:
			if connected == nil {
				resp.Status = StatusNotConnected
			} else {
				data, status := connected.readAt(int64(cmd.Offset), int64(cmd.Length), &readBuf)
				resp.Status = status
				resp.Data = data
			}
		case OpFlushCmd:
			if connected == nil {
				resp.Status = StatusNotConnected
			}
			// Data is durable on arrival (capacitor-backed model).
		default:
			resp.Status = StatusInvalidOpcode
		}
		var writeStart time.Time
		if cmd.Traced {
			writeStart = time.Now()
			// The extension block lives in the slot; the response write
			// serializes it synchronously, before the slot is reused.
			s.phases = PhaseTimings{
				WireReadNS:  clamp1(s.wireRead),
				QueueNS:     clamp1(queueWait),
				ServiceNS:   clamp1(writeStart.Sub(serviceStart)),
				WireWriteNS: uint64(prevWireWrite), // see PhaseTimings
			}
			resp.Phases = &s.phases
		}
		if resp.Status != StatusOK {
			t.errors.Inc()
			qp.errors.Inc()
		}
		t.bytesOut.Add(uint64(len(resp.Data)))
		qp.bytesOut.Add(uint64(len(resp.Data)))
		err := writeResponseScratch(bw, resp, &respScratch)
		if err == nil && len(sq) == 0 {
			// No command waiting for service: flush the pipelined
			// responses.
			err = bw.Flush()
		}
		done := time.Now()
		t.latency.ObserveDuration(done.Sub(s.queuedAt))
		rec := FlightRecord{
			TraceID:   cmd.TraceID,
			QP:        qp.id,
			Op:        cmd.Opcode.String(),
			Opcode:    cmd.Opcode,
			CID:       cmd.CID,
			Status:    resp.Status,
			Bytes:     len(cmd.Data) + len(resp.Data),
			WallNS:    s.readStart.UnixNano(),
			ElapsedNS: int64(done.Sub(s.readStart)),
		}
		if cmd.Traced {
			wireWrite := done.Sub(writeStart)
			prevWireWrite = wireWrite
			rec.Phases = s.phases
			rec.Phases.WireWriteNS = clamp1(wireWrite)
			rec.HasPhases = true
		}
		t.flight.Record(qp.id, rec)
		if err != nil {
			dead()
			return
		}
		free <- idx
	}
	// Reader closed the queue; every accepted command was answered
	// above, so flush the tail and drop the queue pair.
	bw.Flush()
}

// holdsLoop reports whether servicing cmd keeps a serve loop away from
// its socket for long enough that a buffered completion should be
// flushed first: a WRITE that copies a payload of sockBufSize or more
// into the store, or a READ or WRITE the namespace charges device time
// for. A plain bulk READ does not count: its response overflows bw and
// takes the buffered tail along in its first socket write, and a flush
// of its own in front of that measured slower.
func holdsLoop(cmd *Command, ns *MemNamespace) bool {
	switch cmd.Opcode {
	case OpWriteCmd:
		return len(cmd.Data) >= sockBufSize || (ns != nil && ns.serviceDelay(int64(len(cmd.Data))) > 0)
	case OpReadCmd:
		return ns != nil && ns.serviceDelay(int64(cmd.Length)) > 0
	}
	return false
}

// Telemetry returns the target's registry, for exposition (the
// nvmecrd admin listener serves it at /metrics).
func (t *Target) Telemetry() *telemetry.Registry { return t.reg }

// Snapshot reports the target's totals, command latency quantiles, and
// the live queue pairs (ordered by ID) in the unified snapshot form.
func (t *Target) Snapshot() telemetry.TargetSnapshot {
	t.mu.Lock()
	qps := make([]*qpConn, 0, len(t.conns))
	for _, qp := range t.conns {
		qps = append(qps, qp)
	}
	t.mu.Unlock()
	snap := telemetry.TargetSnapshot{
		Commands: t.commands.Value(),
		Errors:   t.errors.Value(),
		BytesIn:  t.bytesIn.Value(),
		BytesOut: t.bytesOut.Value(),
		Latency:  t.latency.Latency(),
	}
	for _, qp := range qps {
		snap.QueuePairs = append(snap.QueuePairs, telemetry.TargetQPSnapshot{
			ID:       qp.id,
			Remote:   qp.conn.RemoteAddr().String(),
			NSID:     qp.nsid.Load(),
			Commands: qp.commands.Value(),
			Errors:   qp.errors.Value(),
			BytesIn:  qp.bytesIn.Value(),
			BytesOut: qp.bytesOut.Value(),
		})
	}
	sort.Slice(snap.QueuePairs, func(i, j int) bool {
		return snap.QueuePairs[i].ID < snap.QueuePairs[j].ID
	})
	return snap
}

// Flight returns the target's flight recorder: the last N completed
// commands per queue pair, with measured phase breakdowns. The nvmecrd
// admin listener serves it at /debug/flight.
func (t *Target) Flight() *FlightRecorder { return t.flight }

// Close stops the listener and waits for active queue pairs to drain:
// every command already received completes and its response is flushed
// before Close returns. Connected hosts then observe EOF.
func (t *Target) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	ln := t.ln
	conns := make([]net.Conn, 0, len(t.conns))
	for _, qp := range t.conns {
		conns = append(conns, qp.conn)
	}
	t.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	now := time.Now()
	for _, c := range conns {
		// Wake queue pairs blocked waiting for their next command;
		// commands already buffered keep draining. The write deadline
		// is a backstop against peers that stopped reading responses.
		c.SetReadDeadline(now)
		c.SetWriteDeadline(now.Add(drainWriteGrace))
	}
	t.wg.Wait()
	return nil
}
