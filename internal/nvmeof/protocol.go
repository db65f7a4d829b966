package nvmeof

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The TCP transport speaks a capsule protocol shaped after NVMe-oF:
// fixed-size command/response capsules with optional in-capsule data.
// RDMA hardware is unavailable in this reproduction, so TCP carries the
// capsules; the capsule layout, command set, and queue-pair semantics
// (one connection per queue, command IDs matching completions) follow
// the fabrics model.
//
// The capsule header is versioned. Version 0 is the original wire
// format; version 1 (VersionTrace) adds two optional extensions for
// distributed per-command tracing:
//
//   - command capsules may carry an 8-byte trace ID after the fixed
//     header, announced by a flags bit in the previously spare header
//     byte 5;
//   - response capsules may carry a 32-byte phase-timing block between
//     the fixed header and the data, announced by the high bit of the
//     status field (real statuses are small; legacy peers never see the
//     bit because extensions are only sent after negotiation).
//
// The version is negotiated per queue pair at CONNECT: the initiator
// offers its version in spare command-header bytes that legacy targets
// ignore, and a version-aware target answers with the negotiated
// version as connect-response payload that legacy initiators ignore.
// Either side missing means version 0, so old peers interoperate with
// new ones bit-for-bit.

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

	// Admin command set (the scheduler's interface: namespaces are the
	// grant granularity, created from unused space and reclaimed when
	// jobs end).

	// OpCreateNS creates a namespace of Length... (Offset carries the
	// size in bytes); the response Value is the new NSID.
	OpCreateNS Opcode = 0x41
	// OpDeleteNS deletes the namespace named by NSID.
	OpDeleteNS Opcode = 0x42
	// OpListNS returns the exported NSIDs and sizes as response data
	// (pairs of little-endian u32 nsid + u64 size).
	OpListNS Opcode = 0x43
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
	case OpCreateNS:
		return "CREATE-NS"
	case OpDeleteNS:
		return "DELETE-NS"
	case OpListNS:
		return "LIST-NS"
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
	StatusNoCapacity
	StatusWrongQueue
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
	case StatusNoCapacity:
		return "no capacity for namespace"
	case StatusWrongQueue:
		return "wrong queue type for command"
	default:
		return fmt.Sprintf("status %d", s)
	}
}

// Capsule protocol versions, negotiated per queue pair at CONNECT.
const (
	// VersionLegacy is the original wire format with no extensions.
	VersionLegacy uint16 = 0
	// VersionTrace adds the trace-ID command extension and the
	// phase-timings response extension.
	VersionTrace uint16 = 1
	// MaxVersion is the highest version this build speaks.
	MaxVersion = VersionTrace
)

// NegotiateVersion folds an initiator's offer into the version a queue
// pair will speak: the lower of the offer and what this build supports.
func NegotiateVersion(proposed uint16) uint16 {
	if proposed > MaxVersion {
		return MaxVersion
	}
	return proposed
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

	// ProposeVersion is the capsule version the initiator offers on
	// OpConnect. It rides in spare header bytes that legacy targets
	// ignore (and that legacy initiators leave zero), so negotiation
	// is invisible to version-0 peers. Meaningless on other opcodes.
	ProposeVersion uint16
	// Traced marks the command as carrying the trace-ID extension.
	// Only valid on VersionTrace queue pairs.
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
	// command's completion. Only valid on VersionTrace queue pairs.
	Phases *PhaseTimings
}

// WriteCommand encodes and writes a command capsule in the legacy
// (version 0) format. Traced commands need WriteCommandV.
func WriteCommand(w io.Writer, c *Command) error {
	return WriteCommandV(w, c, VersionLegacy)
}

// WriteCommandV encodes and writes a command capsule at the negotiated
// capsule version. Writing a traced command on a queue pair that did
// not negotiate VersionTrace is an error, never a silent downgrade: the
// peer would misparse the extension bytes as data.
func WriteCommandV(w io.Writer, c *Command, version uint16) error {
	if len(c.Data) > MaxDataLen {
		return fmt.Errorf("nvmeof: in-capsule data %d: %w", len(c.Data), ErrCapsuleTooLarge)
	}
	if c.Traced && version < VersionTrace {
		return fmt.Errorf("nvmeof: traced command on version-%d queue pair", version)
	}
	var hdr [cmdHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], cmdMagic)
	hdr[4] = byte(c.Opcode)
	if c.Traced {
		hdr[5] = cmdFlagTraced
	}
	binary.LittleEndian.PutUint16(hdr[6:], c.CID)
	binary.LittleEndian.PutUint32(hdr[8:], c.NSID)
	binary.LittleEndian.PutUint64(hdr[12:], c.Offset)
	binary.LittleEndian.PutUint32(hdr[20:], c.Length)
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(c.Data)))
	binary.LittleEndian.PutUint16(hdr[28:], c.ProposeVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if c.Traced {
		var ext [traceExtLen]byte
		binary.LittleEndian.PutUint64(ext[:], c.TraceID)
		if _, err := w.Write(ext[:]); err != nil {
			return err
		}
	}
	if len(c.Data) > 0 {
		if _, err := w.Write(c.Data); err != nil {
			return err
		}
	}
	return nil
}

// ReadCommand reads one command capsule at the legacy (version 0)
// format: any extension flag is a protocol error.
func ReadCommand(r io.Reader) (*Command, error) {
	return ReadCommandV(r, VersionLegacy)
}

// ReadCommandV reads one command capsule at the negotiated version.
func ReadCommandV(r io.Reader, version uint16) (*Command, error) {
	return readCommandFn(r, func() uint16 { return version })
}

// readCommandFn is ReadCommandV with the version supplied lazily: it is
// consulted only after the fixed header has been read. The target's
// reader goroutine needs this, because the negotiated version is stored
// by the service loop when it processes CONNECT — strictly before the
// first byte of any post-negotiation capsule arrives, but possibly
// after the reader has already blocked waiting for that byte.
func readCommandFn(r io.Reader, version func() uint16) (*Command, error) {
	c := &Command{}
	var buf []byte
	var scratch [protoScratchLen]byte
	if err := readCommandInto(r, version, c, &buf, &scratch); err != nil {
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

// readCommandInto is readCommandFn into caller-owned storage: the
// Command is overwritten in place and the payload lands in *bufp's
// backing when it fits (larger payloads get a fresh allocation that is
// not retained). The target's serve loop runs this per slot, so the
// steady state reads capsules with zero allocations.
func readCommandInto(r io.Reader, version func() uint16, c *Command, bufp *[]byte, scratch *[protoScratchLen]byte) error {
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
		Opcode:         Opcode(hdr[4]),
		CID:            binary.LittleEndian.Uint16(hdr[6:]),
		NSID:           binary.LittleEndian.Uint32(hdr[8:]),
		Offset:         binary.LittleEndian.Uint64(hdr[12:]),
		Length:         binary.LittleEndian.Uint32(hdr[20:]),
		ProposeVersion: binary.LittleEndian.Uint16(hdr[28:]),
	}
	// Extracted before the trace extension reuses the scratch bytes.
	dataLen := binary.LittleEndian.Uint32(hdr[24:])
	if flags&cmdFlagTraced != 0 {
		if version() < VersionTrace {
			return fmt.Errorf("nvmeof: traced command on version-%d queue pair", version())
		}
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

// WriteResponse encodes and writes a response capsule in the legacy
// (version 0) format. Responses with phase timings need WriteResponseV.
func WriteResponse(w io.Writer, r *Response) error {
	return WriteResponseV(w, r, VersionLegacy)
}

// WriteResponseV encodes and writes a response capsule at the
// negotiated capsule version.
func WriteResponseV(w io.Writer, r *Response, version uint16) error {
	var scratch [protoScratchLen]byte
	return writeResponseScratch(w, r, version, &scratch)
}

// writeResponseScratch is WriteResponseV staging the header and phase
// extension in caller-owned scratch, so a serve loop that owns one
// scratch array per connection emits responses with zero allocations.
func writeResponseScratch(w io.Writer, r *Response, version uint16, scratch *[protoScratchLen]byte) error {
	if len(r.Data) > MaxDataLen {
		return fmt.Errorf("nvmeof: response data %d exceeds limit", len(r.Data))
	}
	if r.Status&respFlagPhases != 0 {
		return fmt.Errorf("nvmeof: status %#x collides with the phase-extension flag", r.Status)
	}
	if r.Phases != nil && version < VersionTrace {
		return fmt.Errorf("nvmeof: phase timings on version-%d queue pair", version)
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

// ReadResponse reads one response capsule at the legacy (version 0)
// format: a phase-extension flag is a protocol error.
func ReadResponse(r io.Reader) (*Response, error) {
	return ReadResponseV(r, VersionLegacy)
}

// ReadResponseV reads one response capsule at the negotiated version.
func ReadResponseV(r io.Reader, version uint16) (*Response, error) {
	return readResponseFn(r, func() uint16 { return version })
}

// readResponseFn is ReadResponseV with the version supplied lazily,
// consulted only after the fixed header has been read (see
// readCommandFn; the host's read loop has the mirror-image race with
// DialConfig storing the negotiated version).
func readResponseFn(r io.Reader, version func() uint16) (*Response, error) {
	out := &Response{}
	var scratch [protoScratchLen]byte
	if err := readResponseInto(r, version, out, &scratch); err != nil {
		return nil, err
	}
	return out, nil
}

// readResponseInto is readResponseFn into a caller-owned Response,
// overwritten in place. The host's read loop runs this with one reused
// Response, so data-less completions (every WRITE/FLUSH) are parsed
// with zero allocations. Data and Phases, when present, are freshly
// allocated: both escape into the waiter's copy of the response and
// must not be overwritten by the next capsule.
func readResponseInto(r io.Reader, version func() uint16, out *Response, scratch *[protoScratchLen]byte) error {
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
		if version() < VersionTrace {
			return fmt.Errorf("nvmeof: phase timings on version-%d queue pair", version())
		}
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
		out.Data = make([]byte, dataLen)
		if _, err := io.ReadFull(r, out.Data); err != nil {
			return err
		}
	}
	return nil
}

// encodeNegotiatedVersion renders the CONNECT-response negotiation
// payload: two little-endian bytes carrying the version the target
// will speak on this queue pair.
func encodeNegotiatedVersion(v uint16) []byte {
	out := make([]byte, 2)
	binary.LittleEndian.PutUint16(out, v)
	return out
}

// DecodeNegotiatedVersion extracts the negotiated capsule version from
// a CONNECT response payload. Legacy targets attach no payload, which
// decodes as VersionLegacy.
func DecodeNegotiatedVersion(data []byte) uint16 {
	if len(data) < 2 {
		return VersionLegacy
	}
	return binary.LittleEndian.Uint16(data)
}
