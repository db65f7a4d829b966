package nvmeof

import "github.com/nvme-cr/nvmecr/internal/telemetry"

// Queue is the canonical initiator type: the command surface of a
// HostPool, of one queue pair or of many. Callers that only move bytes
// to and from a connected namespace — TCPPlane, the CLIs, applications
// — program against Queue; the concrete type stays exported for callers
// that need pool-specific tuning.
type Queue interface {
	// NamespaceSize returns the connected namespace's capacity.
	NamespaceSize() int64
	// WriteAt writes data at the namespace offset.
	WriteAt(off int64, data []byte) error
	// ReadAt reads length bytes from the namespace offset. The result
	// belongs to the caller alone, as a plane.Plane.Read result does.
	ReadAt(off, length int64) ([]byte, error)
	// Flush issues a durability barrier.
	Flush() error
	// Identify re-reads the namespace properties from the target.
	Identify() (int64, error)
	// Snapshot reports live per-queue-pair counters and latency
	// quantiles (one element per queue pair, ordered by slot).
	Snapshot() []telemetry.HostQPSnapshot
	// Telemetry returns the registry the initiator records into.
	Telemetry() *telemetry.Registry
	// Close tears down every queue pair.
	Close() error
}

// VectorQueue is the optional zero-copy extension of Queue: initiators
// that can submit a gather list as one WRITE capsule without staging
// the pieces into a contiguous buffer implement it. Callers type-assert
// (see TCPPlane.WriteV) and fall back to a copy when it is absent.
type VectorQueue interface {
	// WriteAtV writes the concatenation of bufs at the namespace
	// offset; each buf travels to the socket as its own iovec.
	WriteAtV(off int64, bufs [][]byte) error
}

var (
	_ Queue       = (*HostPool)(nil)
	_ VectorQueue = (*HostPool)(nil)
)
