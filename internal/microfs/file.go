package microfs

import (
	"time"

	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/vfs"
	"github.com/nvme-cr/nvmecr/internal/wal"
)

// file is an open handle onto a microfs inode.
type file struct {
	inst     *Instance
	ino      *inode
	pos      int64
	writable bool
	readable bool
	closed   bool
}

// Write implements vfs.File.
func (f *file) Write(p *sim.Proc, data []byte) (int, error) {
	n, err := f.write(p, data, int64(len(data)))
	return int(n), err
}

// WriteN implements vfs.File.
func (f *file) WriteN(p *sim.Proc, n int64) (int64, error) {
	return f.write(p, nil, n)
}

func (f *file) write(p *sim.Proc, data []byte, n int64) (int64, error) {
	inst := f.inst
	defer inst.traceSpan(p, "microfs.write", n)()
	defer inst.enter(p)()
	if f.closed {
		return 0, vfs.ErrClosed
	}
	if !f.writable {
		return 0, vfs.ErrReadOnly
	}
	if n == 0 {
		return 0, nil
	}
	// Write-ahead: the operation is logged before the data lands. The
	// first write record of a run is on the device before its data; a
	// write that extends that record extends it in memory only, returns
	// once its data is on the device, and has its extension committed
	// by the next Fsync, writable Close or log record. A crash in
	// between recovers the file at the shorter, already durable length,
	// so bytes below the recovered size of an extension are never
	// missing.
	if err := inst.logOp(p, wal.Record{
		Op: wal.OpWrite, Inode: f.ino.id, Offset: uint64(f.pos), Length: uint64(n),
	}); err != nil {
		return 0, err
	}
	allocated, err := inst.growTo(f.ino, f.pos+n)
	if err != nil {
		return 0, err
	}
	if allocated > 0 {
		inst.acct.Charge(p, vfs.User, time.Duration(allocated)*inst.cfg.Host.BlockAlloc)
	}
	if g := inst.cfg.GlobalNS; g != nil && g.PerBlockJournal > 0 {
		// Base-design emulation: per-block allocation/journal work
		// serialized across every instance sharing the namespace.
		blocks := (n + inst.pool.BlockSize() - 1) / inst.pool.BlockSize()
		t0 := p.Now()
		g.Lock.Acquire(p)
		inst.acct.Attribute(vfs.IOWait, p.Now()-t0)
		inst.acct.Charge(p, vfs.Kernel, time.Duration(blocks)*g.PerBlockJournal)
		g.Lock.Release()
	}
	runs, err := inst.runsFor(f.ino, f.pos, n)
	if err != nil {
		return 0, err
	}
	hb := inst.pool.BlockSize()
	var written int64
	for _, r := range runs {
		var payload []byte
		if data != nil {
			payload = data[r.fileOff-f.pos : r.fileOff-f.pos+r.n]
		}
		if err := inst.cfg.Plane.Write(p, r.devOff, r.n, payload, hb); err != nil {
			return written, err
		}
		written += r.n
	}
	f.pos += n
	inst.touch(f.ino)
	inst.stats.Writes++
	inst.stats.BytesWritten += n
	return n, nil
}

// Read implements vfs.File.
func (f *file) Read(p *sim.Proc, buf []byte) (int, error) {
	n, err := f.read(p, int64(len(buf)), buf)
	return int(n), err
}

// ReadN implements vfs.File.
func (f *file) ReadN(p *sim.Proc, n int64) (int64, error) {
	return f.read(p, n, nil)
}

// read reads up to n bytes at the handle's position, into buf when it
// is non-nil (len(buf) >= n) and for timing only otherwise.
func (f *file) read(p *sim.Proc, n int64, buf []byte) (int64, error) {
	inst := f.inst
	defer inst.enter(p)()
	if f.closed {
		return 0, vfs.ErrClosed
	}
	if !f.readable {
		return 0, vfs.ErrWriteOnly
	}
	if f.pos >= f.ino.size {
		return 0, nil // EOF
	}
	if f.pos+n > f.ino.size {
		n = f.ino.size - f.pos
	}
	runs, err := inst.runsFor(f.ino, f.pos, n)
	if err != nil {
		return 0, err
	}
	hb := inst.pool.BlockSize()
	var got int64
	for _, r := range runs {
		data, err := inst.cfg.Plane.Read(p, r.devOff, r.n, hb)
		if err != nil {
			return got, err
		}
		if buf != nil {
			// A backing device that does not capture payloads returns
			// nil: the run reads as zeros, never as what buf held.
			dst := buf[got : got+r.n]
			clear(dst[copy(dst, data):])
		}
		got += r.n
	}
	f.pos += got
	inst.stats.Reads++
	inst.stats.BytesRead += got
	return got, nil
}

// SeekTo implements vfs.File.
func (f *file) SeekTo(offset int64) error {
	if f.closed {
		return vfs.ErrClosed
	}
	if offset < 0 {
		offset = 0
	}
	f.pos = offset
	return nil
}

// Fsync implements vfs.File. NVMe-CR never buffers data, so fsync
// commits the log's pending write extension, if there is one (a single
// page write), and issues one device flush command. The log holds one
// extension at a time, whichever file it belongs to, so Fsync on any
// handle makes every write acknowledged so far durable.
func (f *file) Fsync(p *sim.Proc) error {
	defer f.inst.traceSpan(p, "microfs.fsync", -1)()
	defer f.inst.enter(p)()
	if f.closed {
		return vfs.ErrClosed
	}
	if err := f.inst.log.Sync(); err != nil {
		return err
	}
	return f.inst.cfg.Plane.Flush(p)
}

// Close implements vfs.File. Closing a handle opened for writing
// commits the log's pending write extension; the handle is closed even
// when that fails. Closing the last handle signals the background
// snapshot thread, which checkpoints internal metadata when the
// application's checkpoint phase ends.
func (f *file) Close(p *sim.Proc) error {
	defer f.inst.enter(p)()
	if f.closed {
		return vfs.ErrClosed
	}
	var err error
	if f.writable {
		err = f.inst.log.Sync()
	}
	f.closed = true
	f.ino.opens--
	f.inst.openCnt--
	f.inst.closeSig.Fire()
	return err
}
