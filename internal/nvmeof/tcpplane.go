package nvmeof

import (
	"errors"
	"fmt"
	"sync"

	"github.com/nvme-cr/nvmecr/internal/sim"
)

// ErrDataLength is returned by TCPPlane.Write when data is non-nil and
// len(data) differs from length (plane.Plane requires them equal).
var ErrDataLength = errors.New("nvmeof: write data length differs from length")

// maxChunk is the largest transfer a plane call sends as one capsule.
const maxChunk = MaxDataLen / 2

// readAheadBelow is the read length under which sequential reads are
// served from a read-ahead window: responses of this size and up already
// stream from the socket into their own buffer with no staging tail, so
// only shorter ones are dominated by the per-command round trip.
const readAheadBelow = 128 << 10

// zeros is the payload of every synthetic (nil-data) write. Nothing
// writes to it; WriteAt aliases its payload and never mutates it.
var zeros [maxChunk]byte

// TCPPlane adapts a TCP NVMe-oF initiator (one queue pair or a pool of
// them) to the plane.Plane interface, so the full microfs control plane
// (provenance log, snapshots, crash recovery) runs against a real
// remote target over real sockets. It is the functional counterpart of
// RemotePlane: commands cost wall-clock network time rather than
// modeled virtual time. It is the plane under every real deployment
// (cmd/) and the one the end-to-end benchmark (BENCHMARK.json) times.
//
// Small sequential reads are served from a consumed read-ahead window
// (docs/batching.md, "Read path"): one larger READ is fetched and each
// of its bytes handed to exactly one caller, so a Read result is still
// owned outright by its caller. The window assumes a single writer: a
// partition is private to one process (the paper's model) and is opened
// through one TCPPlane, whose every Write, WriteV and Flush drops the
// window before touching the target, so a plane never returns bytes
// older than its own last write. Bytes stored behind its back — through
// a second plane or the raw queue — may be missed by at most one window.
type TCPPlane struct {
	host Queue
	base int64
	size int64

	mu   sync.Mutex // guards the window; held across a window fetch
	next int64      // where the previous read ended, -1 after a write
	run  int64      // bytes of the sequential reads that ended at next
	win  []byte     // fetched and not yet handed out; win[0] is at next
}

// NewTCPPlane opens a partition [base, base+size) of the connected
// namespace.
func NewTCPPlane(host Queue, base, size int64) (*TCPPlane, error) {
	if base < 0 || size <= 0 || base+size > host.NamespaceSize() {
		return nil, fmt.Errorf("nvmeof: partition [%d,+%d) outside namespace of %d bytes",
			base, size, host.NamespaceSize())
	}
	return &TCPPlane{host: host, base: base, size: size, next: -1}, nil
}

// Size implements plane.Plane.
func (t *TCPPlane) Size() int64 { return t.size }

func (t *TCPPlane) check(off, length int64) error {
	if off < 0 || length < 0 || off+length > t.size {
		return fmt.Errorf("nvmeof: access [%d,+%d) outside partition of %d bytes", off, length, t.size)
	}
	return nil
}

// dropWindow forgets the read-ahead window and the run that grew it.
func (t *TCPPlane) dropWindow() {
	t.mu.Lock()
	t.next, t.run, t.win = -1, 0, nil
	t.mu.Unlock()
}

// Write implements plane.Plane. Synthetic (nil-data) writes transfer
// zeros so that the remote range genuinely exists.
func (t *TCPPlane) Write(p *sim.Proc, off, length int64, data []byte, cmdUnit int64) error {
	t.dropWindow()
	if err := t.check(off, length); err != nil {
		return err
	}
	if data != nil && int64(len(data)) != length {
		return fmt.Errorf("%w: %d bytes for length %d", ErrDataLength, len(data), length)
	}
	// Split into capsule-sized commands.
	for sent := int64(0); sent < length; sent += maxChunk {
		n := min(maxChunk, length-sent)
		chunk := zeros[:n]
		if data != nil {
			chunk = data[sent : sent+n]
		}
		if err := t.host.WriteAt(t.base+off+sent, chunk); err != nil {
			return err
		}
	}
	return nil
}

// WriteV implements plane.VectorWriter: the concatenation of bufs is
// stored at off, forwarded as gather lists when the initiator can
// submit them zero-copy (VectorQueue) and concatenated into one staging
// buffer otherwise. Striped planes use this to issue one vectored
// command per backing target instead of one command per stripe unit.
func (t *TCPPlane) WriteV(p *sim.Proc, off int64, bufs [][]byte) error {
	t.dropWindow()
	var length int64
	for _, b := range bufs {
		length += int64(len(b))
	}
	if err := t.check(off, length); err != nil {
		return err
	}
	if length == 0 {
		return nil
	}
	vq, ok := t.host.(VectorQueue)
	if !ok {
		// The initiator cannot gather; stage once and take the copy.
		flat := make([]byte, 0, length)
		for _, b := range bufs {
			flat = append(flat, b...)
		}
		return t.Write(p, off, length, flat, 0)
	}
	// Split into capsule-sized vectored commands, re-slicing the gather
	// list per chunk (a boundary buffer contributes a sub-slice to two
	// consecutive chunks; the caller's bufs are never mutated).
	if length <= maxChunk {
		// Single capsule: the caller's gather list goes down as-is, with
		// no per-chunk vector to build.
		return vq.WriteAtV(t.base+off, bufs)
	}
	vec := make([][]byte, 0, len(bufs))
	var sent int64
	i, cur := 0, []byte(nil)
	for sent < length {
		vec = vec[:0]
		var n int64
		for n < maxChunk {
			if len(cur) == 0 {
				if i >= len(bufs) {
					break
				}
				cur = bufs[i]
				i++
				continue
			}
			if take := maxChunk - n; int64(len(cur)) > take {
				vec = append(vec, cur[:take])
				cur = cur[take:]
				n += take
			} else {
				vec = append(vec, cur)
				n += int64(len(cur))
				cur = nil
			}
		}
		if n == 0 {
			break
		}
		if err := vq.WriteAtV(t.base+off+sent, vec); err != nil {
			return err
		}
		sent += n
	}
	return nil
}

// Read implements plane.Plane. A read shorter than readAheadBelow that
// starts where the previous read ended is sequential. The first
// sequential read of a run, like every other read, goes to the target
// as it is; from the second on, one READ of max(2*length, bytes the run
// has read so far) — at most maxReuseBuf, which the target serves from
// its retained buffer, and never past the partition — is fetched and
// this and the following reads are cut off its front, each as a
// capacity-limited slice no other result overlaps.
func (t *TCPPlane) Read(p *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error) {
	if err := t.check(off, length); err != nil {
		return nil, err
	}
	if length == 0 {
		return nil, nil
	}
	t.mu.Lock()
	seq := length < readAheadBelow && off == t.next
	t.next = off + length
	if !seq || t.run == 0 {
		t.run, t.win = 0, nil
		if seq {
			t.run = length
		}
		t.mu.Unlock()
		return t.readThrough(off, length)
	}
	// The fetch runs under the lock so that a concurrent Write's
	// dropWindow is ordered after it and discards what it fetched.
	defer t.mu.Unlock()
	if int64(len(t.win)) < length {
		win, err := t.host.ReadAt(t.base+off, min(max(2*length, t.run), maxReuseBuf, t.size-off))
		if err != nil {
			t.next, t.run, t.win = -1, 0, nil
			return nil, err
		}
		t.win = win
	}
	out := t.win[:length:length]
	t.win = t.win[length:]
	t.run += length
	return out, nil
}

// readThrough reads [off, off+length) from the target in capsule-sized
// commands, with no window involved.
func (t *TCPPlane) readThrough(off, length int64) ([]byte, error) {
	if length <= maxChunk {
		// Single capsule: the queue's buffer already belongs to the caller.
		return t.host.ReadAt(t.base+off, length)
	}
	out := make([]byte, 0, length)
	for got := int64(0); got < length; got += maxChunk {
		chunk, err := t.host.ReadAt(t.base+off+got, min(maxChunk, length-got))
		if err != nil {
			return nil, err
		}
		out = append(out, chunk...)
	}
	return out, nil
}

// Flush implements plane.Plane.
func (t *TCPPlane) Flush(p *sim.Proc) error {
	t.dropWindow()
	return t.host.Flush()
}
