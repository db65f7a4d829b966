package nvmeof

import (
	"encoding/binary"
	"fmt"
	"io"

	"github.com/nvme-cr/nvmecr/internal/plane"
)

// The TCP transport speaks a capsule protocol shaped after NVMe-oF:
// fixed-size command/response capsules with optional in-capsule data.
// RDMA hardware is unavailable in this reproduction, so TCP carries the
// capsules; the capsule layout, command set, and queue-pair semantics
// (one connection per queue, command IDs matching completions) follow
// the fabrics model.
//
// Two optional extensions carry distributed per-command tracing, each
// announced by the capsule that carries it:
//
//   - command capsules may carry an 8-byte trace ID after the fixed
//     header, announced by a flags bit in header byte 5;
//   - response capsules may carry a 32-byte phase-timing block between
//     the fixed header and the data, announced by the high bit of the
//     status field (real statuses are small).
//
// Both ends of a queue pair come from one build (the runtime is carved
// at job start and released with the job), so there is no version to
// negotiate: an untraced capsule is the plain format, byte for byte.
// Command-header bytes 28-31 are reserved: written as zero, ignored on
// read.

// Opcode identifies a capsule command.
type Opcode uint8

// Fabric command set.
const (
	// OpConnect establishes a queue pair and selects a namespace.
	OpConnect Opcode = 0x01
	// OpWriteCmd writes in-capsule data at an offset.
	OpWriteCmd Opcode = 0x02
	// OpReadCmd reads a range; data returns in the response capsule.
	OpReadCmd Opcode = 0x03
	// OpFlushCmd is a durability barrier.
	OpFlushCmd Opcode = 0x04
	// OpIdentify returns namespace properties.
	OpIdentify Opcode = 0x05
)

// String names an opcode for traces and flight-recorder dumps.
func (o Opcode) String() string {
	switch o {
	case OpConnect:
		return "CONNECT"
	case OpWriteCmd:
		return "WRITE"
	case OpReadCmd:
		return "READ"
	case OpFlushCmd:
		return "FLUSH"
	case OpIdentify:
		return "IDENTIFY"
	default:
		return fmt.Sprintf("OP-%#02x", uint8(o))
	}
}

// Status codes in response capsules.
const (
	StatusOK uint16 = iota
	StatusInvalidOpcode
	StatusInvalidNamespace
	StatusOutOfRange
	StatusNotConnected
	StatusInternal
)

// statusText maps status codes to messages.
func statusText(s uint16) string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusInvalidOpcode:
		return "invalid opcode"
	case StatusInvalidNamespace:
		return "invalid namespace"
	case StatusOutOfRange:
		return "offset out of range"
	case StatusNotConnected:
		return "queue not connected"
	case StatusInternal:
		return "internal error"
	default:
		return fmt.Sprintf("status %d", s)
	}
}

const (
	cmdMagic  = 0x4E564D46 // "NVMF"
	respMagic = 0x4E564D52 // "NVMR"
	cmdHdrLen = 32
	rspHdrLen = 16
	// MaxDataLen bounds in-capsule data (both directions).
	MaxDataLen = 8 << 20

	// cmdFlagTraced (command header byte 5) announces the 8-byte
	// trace-ID extension between the fixed header and the data.
	cmdFlagTraced = 1 << 0
	// respFlagPhases (response status high bit) announces the 32-byte
	// phase-timings extension between the fixed header and the data.
	respFlagPhases = uint16(1) << 15
	// traceExtLen / phaseExtLen are the extension sizes on the wire.
	traceExtLen = 8
	phaseExtLen = 32
)

// Command is one command capsule.
type Command struct {
	Opcode Opcode
	CID    uint16
	NSID   uint32
	Offset uint64
	Length uint32
	Data   []byte

	// Traced marks the command as carrying the trace-ID extension.
	Traced  bool
	TraceID uint64
}

// PhaseTimings is the target's per-command service breakdown, returned
// in the response extension of a traced command and recorded in flight
// recorders on both ends of the fabric. All values are nanoseconds.
type PhaseTimings struct {
	// WireReadNS is the time spent reading the command capsule off the
	// socket, measured from its first byte being available (idle time
	// waiting for a command to arrive is not wire time).
	WireReadNS uint64 `json:"wire_read_ns"`
	// QueueNS is the submission-queue wait: capsule fully parsed until
	// the service loop dequeued it.
	QueueNS uint64 `json:"queue_ns"`
	// ServiceNS is the namespace/device service time (including any
	// modeled device latency).
	ServiceNS uint64 `json:"service_ns"`
	// WireWriteNS is the response serialization time. A capsule cannot
	// carry its own transmit duration, so the in-capsule copy reports
	// the previous response's write on the same queue pair (zero for
	// the first); the target's flight recorder records the command's
	// own response write time.
	WireWriteNS uint64 `json:"wire_write_ns"`
}

// Response is one response capsule.
type Response struct {
	CID    uint16
	Status uint16
	Value  uint64 // identify results (namespace size)
	Data   []byte

	// Phases, when non-nil, is the phase-timings extension of a traced
	// command's completion.
	Phases *PhaseTimings
}

// WriteCommand encodes and writes a command capsule.
func WriteCommand(w io.Writer, c *Command) error {
	if len(c.Data) > MaxDataLen {
		return fmt.Errorf("nvmeof: in-capsule data %d: %w", len(c.Data), ErrCapsuleTooLarge)
	}
	var hdr [cmdHdrLen + traceExtLen]byte
	if _, err := w.Write(hdr[:encodeCommandHeader(hdr[:], c, len(c.Data))]); err != nil {
		return err
	}
	if len(c.Data) > 0 {
		if _, err := w.Write(c.Data); err != nil {
			return err
		}
	}
	return nil
}

// encodeCommandHeader renders c's fixed header, plus the trace-ID
// extension when c is traced, into buf (which must hold
// cmdHdrLen+traceExtLen bytes) and returns the encoded length. payload
// is the data length the header declares: the batcher and the direct
// path send the data as separate iovecs, possibly a vector of slices
// (WriteAtV) rather than c.Data.
func encodeCommandHeader(buf []byte, c *Command, payload int) int {
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
	binary.LittleEndian.PutUint32(buf[28:], 0) // reserved
	if c.Traced {
		binary.LittleEndian.PutUint64(buf[cmdHdrLen:], c.TraceID)
	}
	return n
}

// ReadCommand reads one command capsule.
func ReadCommand(r io.Reader) (*Command, error) {
	c := &Command{}
	var buf []byte
	var scratch [protoScratchLen]byte
	if err := readCommandInto(r, c, &buf, &scratch); err != nil {
		return nil, err
	}
	return c, nil
}

// maxReuseBuf caps the payload buffer a reusing reader retains between
// capsules: the common checkpoint stripe unit fits, while a rare
// MaxDataLen capsule does not pin 8 MiB per slot forever.
const maxReuseBuf = 1 << 20

// reuseBuf returns an n-byte slice over *bufp's backing when it fits,
// and otherwise a fresh allocation that *bufp retains only up to
// maxReuseBuf. The bytes are whatever the last user left there.
func reuseBuf(bufp *[]byte, n int) []byte {
	if cap(*bufp) >= n {
		return (*bufp)[:n]
	}
	buf := make([]byte, n)
	if n <= maxReuseBuf {
		*bufp = buf
	}
	return buf
}

// sockBufSize sizes the bufio staging on both ends of a queue pair's
// socket. It only has to batch headers and small capsules: bufio hands
// any transfer of at least its buffer size straight to the socket, so
// at 64 KiB a checkpoint-sized payload is read into, and written from,
// the buffer that already holds it instead of crossing a staging copy
// on each end.
const sockBufSize = 64 << 10

// protoScratchLen sizes the caller-owned scratch the *Into/*Scratch
// capsule codecs stage fixed headers and extensions in. A header sliced
// from a local array escapes to the heap when handed to an io.Reader or
// io.Writer interface, so the hot loops (target reader, target serve,
// host readLoop) own one scratch array for their connection's lifetime
// instead of paying that allocation per capsule. 32 covers the largest
// staged block: cmdHdrLen and phaseExtLen (both 32).
const protoScratchLen = cmdHdrLen

// readCommandInto is ReadCommand into caller-owned storage: the
// Command is overwritten in place and the payload lands in *bufp's
// backing when it fits (larger payloads get a fresh allocation that is
// not retained). The target's serve loop runs this per slot, so the
// steady state reads capsules with zero allocations.
func readCommandInto(r io.Reader, c *Command, bufp *[]byte, scratch *[protoScratchLen]byte) error {
	hdr := scratch[:cmdHdrLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != cmdMagic {
		return fmt.Errorf("nvmeof: bad command magic %#x", binary.LittleEndian.Uint32(hdr[0:]))
	}
	flags := hdr[5]
	if flags&^byte(cmdFlagTraced) != 0 {
		return fmt.Errorf("nvmeof: unknown command flags %#x", flags)
	}
	*c = Command{
		Opcode: Opcode(hdr[4]),
		CID:    binary.LittleEndian.Uint16(hdr[6:]),
		NSID:   binary.LittleEndian.Uint32(hdr[8:]),
		Offset: binary.LittleEndian.Uint64(hdr[12:]),
		Length: binary.LittleEndian.Uint32(hdr[20:]),
	}
	// Extracted before the trace extension reuses the scratch bytes.
	dataLen := binary.LittleEndian.Uint32(hdr[24:])
	if flags&cmdFlagTraced != 0 {
		ext := scratch[:traceExtLen]
		if _, err := io.ReadFull(r, ext); err != nil {
			return err
		}
		c.Traced = true
		c.TraceID = binary.LittleEndian.Uint64(ext)
	}
	if dataLen > MaxDataLen {
		return fmt.Errorf("nvmeof: in-capsule data %d exceeds limit", dataLen)
	}
	if dataLen > 0 {
		buf := reuseBuf(bufp, int(dataLen))
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
		c.Data = buf
	}
	return nil
}

// WriteResponse encodes and writes a response capsule.
func WriteResponse(w io.Writer, r *Response) error {
	var scratch [protoScratchLen]byte
	return writeResponseScratch(w, r, &scratch)
}

// writeResponseScratch is WriteResponse staging the header and phase
// extension in caller-owned scratch, so a serve loop that owns one
// scratch array per connection emits responses with zero allocations.
func writeResponseScratch(w io.Writer, r *Response, scratch *[protoScratchLen]byte) error {
	if len(r.Data) > MaxDataLen {
		return fmt.Errorf("nvmeof: response data %d exceeds limit", len(r.Data))
	}
	if r.Status&respFlagPhases != 0 {
		return fmt.Errorf("nvmeof: status %#x collides with the phase-extension flag", r.Status)
	}
	status := r.Status
	if r.Phases != nil {
		status |= respFlagPhases
	}
	hdr := scratch[:rspHdrLen+4]
	binary.LittleEndian.PutUint32(hdr[0:], respMagic)
	binary.LittleEndian.PutUint16(hdr[4:], r.CID)
	binary.LittleEndian.PutUint16(hdr[6:], status)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(r.Data)))
	binary.LittleEndian.PutUint64(hdr[12:], r.Value)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if r.Phases != nil {
		// The header is on the wire; the extension reuses the scratch.
		ext := scratch[:phaseExtLen]
		binary.LittleEndian.PutUint64(ext[0:], r.Phases.WireReadNS)
		binary.LittleEndian.PutUint64(ext[8:], r.Phases.QueueNS)
		binary.LittleEndian.PutUint64(ext[16:], r.Phases.ServiceNS)
		binary.LittleEndian.PutUint64(ext[24:], r.Phases.WireWriteNS)
		if _, err := w.Write(ext); err != nil {
			return err
		}
	}
	if len(r.Data) > 0 {
		if _, err := w.Write(r.Data); err != nil {
			return err
		}
	}
	return nil
}

// ReadResponse reads one response capsule.
func ReadResponse(r io.Reader) (*Response, error) {
	out := &Response{}
	var scratch [protoScratchLen]byte
	if err := readResponseInto(r, out, &scratch); err != nil {
		return nil, err
	}
	return out, nil
}

// readResponseInto is ReadResponse into a caller-owned Response,
// overwritten in place. The host's read loop runs this with one reused
// Response, so data-less completions (every WRITE/FLUSH) are parsed
// with zero allocations. Data and Phases, when present, are never
// shared with the next capsule: both escape into the waiter's copy of
// the response. Data comes from the read buffer free list
// (plane.TakeBuffer) and is not zeroed: ReadFull overwrites every byte,
// and a failed read drops it.
func readResponseInto(r io.Reader, out *Response, scratch *[protoScratchLen]byte) error {
	hdr := scratch[:rspHdrLen+4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != respMagic {
		return fmt.Errorf("nvmeof: bad response magic %#x", binary.LittleEndian.Uint32(hdr[0:]))
	}
	status := binary.LittleEndian.Uint16(hdr[4+2:])
	*out = Response{
		CID:    binary.LittleEndian.Uint16(hdr[4:]),
		Status: status &^ respFlagPhases,
		Value:  binary.LittleEndian.Uint64(hdr[12:]),
	}
	// Extracted before the phase extension reuses the scratch bytes.
	dataLen := binary.LittleEndian.Uint32(hdr[8:])
	if status&respFlagPhases != 0 {
		ext := scratch[:phaseExtLen]
		if _, err := io.ReadFull(r, ext); err != nil {
			return err
		}
		out.Phases = &PhaseTimings{
			WireReadNS:  binary.LittleEndian.Uint64(ext[0:]),
			QueueNS:     binary.LittleEndian.Uint64(ext[8:]),
			ServiceNS:   binary.LittleEndian.Uint64(ext[16:]),
			WireWriteNS: binary.LittleEndian.Uint64(ext[24:]),
		}
	}
	if dataLen > MaxDataLen {
		return fmt.Errorf("nvmeof: response data %d exceeds limit", dataLen)
	}
	if dataLen > 0 {
		out.Data = plane.TakeBuffer(int(dataLen))
		if _, err := io.ReadFull(r, out.Data); err != nil {
			return err
		}
	}
	return nil
}
