// Package plane defines the data-plane interface: a block-device-like
// view of one process's SSD partition. The microfs control plane sits on
// top of a Plane; implementations differ in how requests reach the
// device — userspace SPDK to a local SSD, userspace SPDK over NVMe-oF to
// a remote SSD (the NVMe-CR production path, paper Figure 4), or the
// kernel module path (paper Figure 2, the baseline).
package plane

import "github.com/nvme-cr/nvmecr/internal/sim"

// Plane is a byte-addressed window onto an SSD partition. Offsets are
// partition-relative. Implementations block the calling process for the
// modeled duration and charge the client's account.
type Plane interface {
	// Write stores length bytes at off. data may be nil for synthetic
	// file data, which is read back like any other (as zeros, or as
	// nothing from a device that captures no payloads); when non-nil
	// len(data) must equal length. cmdUnit is the NVMe command
	// granularity (the hugeblock size); 0 means one command. A metadata
	// transfer that nothing ever reads goes to Charger instead.
	Write(p *sim.Proc, off, length int64, data []byte, cmdUnit int64) error
	// Read returns length bytes from off. The nil contract: when the
	// backing device does not capture payloads (timing-only mode), Read
	// returns (nil, nil) — never a zero-filled buffer posing as data.
	// Composite planes (striping, mirroring) must propagate this
	// all-or-nothing: if any backing device consulted by the request
	// returns nil, the whole read is nil. A result belongs to its caller
	// alone: the plane keeps no reference to its bytes and hands none of
	// them to another caller, so the caller may overwrite or append to
	// it, and give it back with Recycle once it holds no other reference
	// to it (a composite plane gives its members' buffers back once it
	// has copied them out).
	Read(p *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error)
	// Flush is a durability barrier.
	Flush(p *sim.Proc) error
	// Size returns the partition size in bytes.
	Size() int64
}

// Charger is the optional timing extension of Plane: Charge times this
// transfer; its bytes are never read. A plane with a time model charges
// exactly what Write(p, off, length, nil, cmdUnit) would; a wrapper
// charges only when the plane beneath it does. A real transport is no
// Charger, and its callers skip the transfer: the paper's timing model
// charges metadata blocks that nothing reads back (a directory's tail
// block, a conventional journal's pages).
type Charger interface {
	Charge(p *sim.Proc, off, length, cmdUnit int64) error
}

// VectorWriter is the optional gather-write extension of Plane: a plane
// that can store a discontiguous payload at one offset without staging
// it into a contiguous buffer implements it. Composite planes (striping)
// type-assert their children and fall back to per-piece Writes when the
// child cannot gather.
type VectorWriter interface {
	// WriteV stores the concatenation of bufs at off. Every buf must be
	// non-nil (synthetic transfers use Plane.Write with nil data).
	WriteV(p *sim.Proc, off int64, bufs [][]byte) error
}

// Resyncer is the optional repair extension of Plane: a plane that keeps
// several copies of every byte (a mirror) implements it. ReadResync is a
// Read that first makes every live copy of the range agree with one
// authority copy, and returns the authority's bytes. A head that crashed
// mid-write can leave that write on some copies only; recovery reads
// through ReadResync, so every later life replays the same bytes
// whichever copy serves it. A plane with one copy reads as Read does.
// Resync makes the copies of a range agree and returns nothing; with
// one copy it sends nothing.
type Resyncer interface {
	ReadResync(p *sim.Proc, off, length, cmdUnit int64) ([]byte, error)
	Resync(p *sim.Proc, off, length, cmdUnit int64) error
}
