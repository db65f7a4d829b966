// Package vfs defines the filesystem interface every storage system in
// this repository implements — NVMe-CR's microfs as well as the OrangeFS,
// GlusterFS, Crail, ext4/XFS, and Lustre baselines — plus the mount-based
// Namespace that composes several backends into one multi-tenant tree,
// and the time accounting (user/kernel/IO) used to reproduce the paper's
// kernel-time measurements.
package vfs

import (
	"errors"
	"strings"
	"time"

	"github.com/nvme-cr/nvmecr/internal/sim"
)

// Error set shared by all filesystem implementations.
var (
	ErrNotExist = errors.New("vfs: file does not exist")
	ErrExist    = errors.New("vfs: file already exists")
	ErrIsDir    = errors.New("vfs: is a directory")
	ErrNotDir   = errors.New("vfs: not a directory")
	ErrClosed   = errors.New("vfs: file already closed")
	ErrReadOnly = errors.New("vfs: file not open for writing")
	// ErrWriteOnly is returned by Read on a handle opened O_WRONLY.
	ErrWriteOnly = errors.New("vfs: file not open for reading")
	ErrNoSpace   = errors.New("vfs: no space left on device")
	ErrPerm      = errors.New("vfs: permission denied")
	// ErrCrossMount is returned by Namespace.Rename when the two paths
	// resolve to different mounts: rename is atomic only within one
	// backend, so moving data across mounts must be an explicit
	// copy+unlink in the application.
	ErrCrossMount = errors.New("vfs: rename across mount boundary")
)

// FileInfo describes a file.
type FileInfo struct {
	Path  string
	Size  int64
	Inode uint64
	Mode  uint32
	IsDir bool
	// ModTime is the file's last modification instant in virtual time
	// (time since simulation start). Restart-time checkpoint discovery
	// orders candidates by recency with it instead of relying on path
	// naming conventions. Backends that do not track modification times
	// leave it zero.
	ModTime time.Duration
}

// OpenFlags is the POSIX-style open flag bitmask: an access mode
// (O_RDONLY, O_WRONLY, or O_RDWR) OR-ed with zero or more of O_CREATE,
// O_EXCL, O_TRUNC, and O_APPEND. The values match the Linux ABI so the
// POSIX interception layer passes flags through unmodified.
type OpenFlags int

const (
	// O_RDONLY opens for reading only.
	O_RDONLY OpenFlags = 0x0
	// O_WRONLY opens for writing only.
	O_WRONLY OpenFlags = 0x1
	// O_RDWR opens for reading and writing.
	O_RDWR OpenFlags = 0x2
	// O_ACCMODE masks the access mode out of a flag set.
	O_ACCMODE OpenFlags = 0x3
	// O_CREATE creates the file (with the Open call's mode argument)
	// when it does not exist.
	O_CREATE OpenFlags = 0x40
	// O_EXCL, with O_CREATE, fails with ErrExist when the file already
	// exists — the exclusive-create semantics of the old Create entry
	// point.
	O_EXCL OpenFlags = 0x80
	// O_TRUNC truncates an existing file to length zero when the handle
	// is writable.
	O_TRUNC OpenFlags = 0x200
	// O_APPEND positions the handle at end-of-file on open.
	O_APPEND OpenFlags = 0x400
)

// Access returns the access-mode bits (O_RDONLY, O_WRONLY, or O_RDWR).
func (f OpenFlags) Access() OpenFlags { return f & O_ACCMODE }

// Has reports whether every bit of flag is set.
func (f OpenFlags) Has(flag OpenFlags) bool { return f&flag == flag }

// Readable reports whether the access mode permits reads.
func (f OpenFlags) Readable() bool {
	a := f.Access()
	return a == O_RDONLY || a == O_RDWR
}

// Writable reports whether the access mode permits writes.
func (f OpenFlags) Writable() bool {
	a := f.Access()
	return a == O_WRONLY || a == O_RDWR
}

// String renders the flag set in open(2) notation.
func (f OpenFlags) String() string {
	var b strings.Builder
	switch f.Access() {
	case O_RDONLY:
		b.WriteString("O_RDONLY")
	case O_WRONLY:
		b.WriteString("O_WRONLY")
	case O_RDWR:
		b.WriteString("O_RDWR")
	default:
		b.WriteString("O_ACCMODE?")
	}
	for _, part := range []struct {
		bit  OpenFlags
		name string
	}{
		{O_CREATE, "O_CREATE"},
		{O_EXCL, "O_EXCL"},
		{O_TRUNC, "O_TRUNC"},
		{O_APPEND, "O_APPEND"},
	} {
		if f.Has(part.bit) {
			b.WriteString("|")
			b.WriteString(part.name)
		}
	}
	return b.String()
}

// Backend is one filesystem implementation: the seven operations a
// storage system must provide to serve a mount in a Namespace. Methods
// block the calling simulation process for the modeled duration of the
// operation. Paths are absolute within the backend ("/" is the backend's
// own root); the Namespace translates between namespace-absolute and
// backend-relative paths at the mount boundary.
type Backend interface {
	// Mkdir creates a directory.
	Mkdir(p *sim.Proc, path string, mode uint32) error
	// Open opens a file. With O_CREATE the file is created (using mode)
	// when absent; with O_CREATE|O_EXCL an existing file is an
	// ErrExist; with O_TRUNC a writable open truncates to zero length;
	// with O_APPEND the handle starts positioned at end-of-file.
	Open(p *sim.Proc, path string, flags OpenFlags, mode uint32) (File, error)
	// Unlink removes a file.
	Unlink(p *sim.Proc, path string) error
	// Rename atomically moves a file (the write-to-temp-then-rename
	// checkpoint commit idiom).
	Rename(p *sim.Proc, oldPath, newPath string) error
	// ReadDir lists the directory's immediate children in name order
	// (restart-time checkpoint discovery).
	ReadDir(p *sim.Proc, path string) ([]FileInfo, error)
	// Stat describes a file.
	Stat(p *sim.Proc, path string) (FileInfo, error)
}

// Client is one process's view of a storage system: a Backend plus its
// time accounting.
type Client interface {
	Backend
	// Account exposes the client's time accounting.
	Account() *Account
}

// File is an open file handle.
type File interface {
	// Write appends/overwrites real bytes at the current position.
	Write(p *sim.Proc, data []byte) (int, error)
	// WriteN writes n synthetic bytes (timing-only workloads at
	// benchmark scale, where materializing payloads would be wasteful).
	WriteN(p *sim.Proc, n int64) (int64, error)
	// Read reads up to len(buf) bytes into buf at the current
	// position, returning the count (0 at EOF).
	Read(p *sim.Proc, buf []byte) (int, error)
	// ReadN reads n synthetic bytes, returning the count actually
	// available.
	ReadN(p *sim.Proc, n int64) (int64, error)
	// SeekTo sets the absolute position for the next Read/Write.
	SeekTo(offset int64) error
	// Fsync makes all written data durable.
	Fsync(p *sim.Proc) error
	// Close releases the handle.
	Close(p *sim.Proc) error
}

// TimeClass labels where modeled time is spent, reproducing the paper's
// "percentage of benchmark time in the kernel" analysis (Figure 7c:
// 10% for NVMe-CR versus 76.5%/79% for XFS/ext4).
type TimeClass int

const (
	// User is time in userspace software (SPDK submission, B+Tree,
	// log formatting).
	User TimeClass = iota
	// Kernel is time inside the OS (traps, VFS, block layer,
	// interrupts, page-cache copies).
	Kernel
	// IOWait is time blocked on device or fabric service.
	IOWait
)

// Account accumulates classified virtual time for one client.
type Account struct {
	user   time.Duration
	kernel time.Duration
	iowait time.Duration
}

// Charge sleeps the process for d and attributes it to the class.
func (a *Account) Charge(p *sim.Proc, class TimeClass, d time.Duration) {
	if d <= 0 {
		return
	}
	p.Sleep(d)
	a.Attribute(class, d)
}

// Attribute records time already spent (used when the wait happened
// inside a shared resource).
func (a *Account) Attribute(class TimeClass, d time.Duration) {
	if d <= 0 {
		return
	}
	switch class {
	case User:
		a.user += d
	case Kernel:
		a.kernel += d
	case IOWait:
		a.iowait += d
	}
}

// Totals returns the accumulated user, kernel, and IO-wait time.
func (a *Account) Totals() (user, kernel, iowait time.Duration) {
	return a.user, a.kernel, a.iowait
}

// KernelFraction returns the kernel share of CPU time,
// kernel / (user + kernel). Time blocked on devices or locks (IOWait)
// is excluded, matching a CPU-sampling measurement of "% time in the
// kernel" like the paper's.
func (a *Account) KernelFraction() float64 {
	cpu := a.user + a.kernel
	if cpu <= 0 {
		return 0
	}
	return float64(a.kernel) / float64(cpu)
}

// Reset clears the account.
func (a *Account) Reset() { a.user, a.kernel, a.iowait = 0, 0, 0 }

// WriteAll writes data through f in chunkBytes-sized application write
// calls, the way checkpoint dumps issue sequential write syscalls.
func WriteAll(p *sim.Proc, f File, data []byte, chunkBytes int64) (int64, error) {
	if chunkBytes <= 0 {
		chunkBytes = int64(len(data))
	}
	var written int64
	for off := int64(0); off < int64(len(data)); off += chunkBytes {
		end := off + chunkBytes
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		n, err := f.Write(p, data[off:end])
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// WriteAllN writes n synthetic bytes in chunkBytes-sized calls.
func WriteAllN(p *sim.Proc, f File, n, chunkBytes int64) (int64, error) {
	if chunkBytes <= 0 {
		chunkBytes = n
	}
	var written int64
	for written < n {
		c := chunkBytes
		if written+c > n {
			c = n - written
		}
		m, err := f.WriteN(p, c)
		written += m
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// ReadAllN reads n synthetic bytes in chunkBytes-sized calls.
func ReadAllN(p *sim.Proc, f File, n, chunkBytes int64) (int64, error) {
	if chunkBytes <= 0 {
		chunkBytes = n
	}
	var read int64
	for read < n {
		c := chunkBytes
		if read+c > n {
			c = n - read
		}
		m, err := f.ReadN(p, c)
		read += m
		if err != nil {
			return read, err
		}
		if m == 0 {
			break
		}
	}
	return read, nil
}
