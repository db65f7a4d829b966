package nvmeof

import (
	"fmt"

	"github.com/nvme-cr/nvmecr/internal/sim"
)

// TCPPlane adapts a TCP NVMe-oF initiator (one queue pair or a pool of
// them) to the plane.Plane interface, so the full microfs control plane
// (provenance log, snapshots, crash recovery) runs against a real
// remote target over real sockets. It is the functional counterpart of
// RemotePlane: commands cost wall-clock network time rather than
// modeled virtual time, so it is used for integration and durability
// testing, not for the timed experiments.
type TCPPlane struct {
	host Queue
	base int64
	size int64
}

// NewTCPPlane opens a partition [base, base+size) of the connected
// namespace.
func NewTCPPlane(host Queue, base, size int64) (*TCPPlane, error) {
	if base < 0 || size <= 0 || base+size > host.NamespaceSize() {
		return nil, fmt.Errorf("nvmeof: partition [%d,+%d) outside namespace of %d bytes",
			base, size, host.NamespaceSize())
	}
	return &TCPPlane{host: host, base: base, size: size}, nil
}

// Size implements plane.Plane.
func (t *TCPPlane) Size() int64 { return t.size }

func (t *TCPPlane) check(off, length int64) error {
	if off < 0 || length < 0 || off+length > t.size {
		return fmt.Errorf("nvmeof: access [%d,+%d) outside partition of %d bytes", off, length, t.size)
	}
	return nil
}

// Write implements plane.Plane. Synthetic (nil-data) writes transfer
// zeros so that the remote range genuinely exists.
func (t *TCPPlane) Write(p *sim.Proc, off, length int64, data []byte, cmdUnit int64) error {
	if err := t.check(off, length); err != nil {
		return err
	}
	if length == 0 {
		return nil
	}
	if data == nil {
		data = make([]byte, length)
	}
	// Split into capsule-sized commands.
	const maxChunk = MaxDataLen / 2
	for sent := int64(0); sent < length; sent += maxChunk {
		end := sent + maxChunk
		if end > length {
			end = length
		}
		if err := t.host.WriteAt(t.base+off+sent, data[sent:end]); err != nil {
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
	const maxChunk = MaxDataLen / 2
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

// Read implements plane.Plane.
func (t *TCPPlane) Read(p *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error) {
	if err := t.check(off, length); err != nil {
		return nil, err
	}
	if length == 0 {
		return nil, nil
	}
	const maxChunk = MaxDataLen / 2
	if length <= maxChunk {
		// Single capsule: the queue's buffer already belongs to the caller.
		return t.host.ReadAt(t.base+off, length)
	}
	out := make([]byte, 0, length)
	for got := int64(0); got < length; got += maxChunk {
		end := got + maxChunk
		if end > length {
			end = length
		}
		chunk, err := t.host.ReadAt(t.base+off+got, end-got)
		if err != nil {
			return nil, err
		}
		out = append(out, chunk...)
	}
	return out, nil
}

// Flush implements plane.Plane.
func (t *TCPPlane) Flush(p *sim.Proc) error { return t.host.Flush() }
