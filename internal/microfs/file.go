package microfs

import (
	"time"

	"github.com/nvme-cr/nvmecr/internal/plane"
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
	f.inst.enter(p)
	defer f.inst.leave()
	defer f.inst.traceSpan(p, "microfs.write", n)()
	return f.writeIn(p, data, n)
}

// writeIn is write inside the instance. It defers nothing, so that the
// two defers of write, with its one return, stay open-coded.
func (f *file) writeIn(p *sim.Proc, data []byte, n int64) (int64, error) {
	inst := f.inst
	if f.closed {
		return 0, vfs.ErrClosed
	}
	if !f.writable {
		return 0, vfs.ErrReadOnly
	}
	if n == 0 {
		return 0, nil
	}
	// Asked before the log is told: a record for blocks the pool cannot
	// give would commit a size the file never reached.
	if inst.pool.BlocksFor(f.pos+n)-int64(len(f.ino.blocks)) > inst.pool.Free() {
		return 0, vfs.ErrNoSpace
	}
	// Write-ahead: the operation is logged before the data lands. The
	// first write record of a run is on the device before its data; a
	// write that extends that record extends it in memory only, and has
	// its extension committed by the next Fsync, writable Close or log
	// record. A crash in between recovers the file at the shorter,
	// already durable length, so bytes below the recovered size of an
	// extension are never missing.
	coalesced, err := inst.logOp(p, wal.Record{
		Op: wal.OpWrite, Inode: f.ino.id, Offset: uint64(f.pos), Length: uint64(n),
	})
	if err != nil {
		return 0, err
	}
	allocated, _ := inst.growTo(f.ino, f.pos+n) // the pool has the blocks: asked above
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
	// The data follows the log's decision. A call the log coalesced is
	// the middle of a sequential run and no log byte on the device admits
	// it yet, so a short one is staged and leaves with its neighbours as
	// one command (see stagePiece); every other write goes to the device
	// itself, behind what is staged, so the device sees call order.
	staged := coalesced && data != nil && n < stageBytes
	if !staged {
		if err := inst.flushStage(p); err != nil {
			return 0, err
		}
	}
	hb := inst.pool.BlockSize()
	written, err := inst.eachRun(f.ino, f.pos, n, func(r blockRun) error {
		var payload []byte
		if data != nil {
			payload = data[r.fileOff-f.pos : r.fileOff-f.pos+r.n]
		}
		if staged {
			return inst.stagePiece(p, r.devOff, payload)
		}
		return inst.cfg.Plane.Write(p, r.devOff, r.n, payload, hb)
	})
	if err != nil {
		return written, err
	}
	f.pos += n
	inst.touch(f.ino)
	inst.stats.Writes++
	inst.stats.BytesWritten += n
	return n, nil
}

// stageBytes is the size of the staged run, the write path's I/O unit:
// 8 default hugeblocks. Measured on ckpt_small (docs/batching.md, "Write
// path: staged runs"): smaller runs leave round trips on the table, from
// 1 MiB up the buffer costs more heap than the commands it saves.
const stageBytes = 256 << 10

// stagePiece copies one device-contiguous piece of a coalesced write
// behind the staged run. The run leaves first when the piece does not
// continue it on the device or does not fit, and with the piece when that
// fills it.
func (inst *Instance) stagePiece(p *sim.Proc, devOff int64, piece []byte) error {
	if have := len(inst.stage); have > 0 && (devOff != inst.stageOff+int64(have) || have+len(piece) > stageBytes) {
		if err := inst.flushStage(p); err != nil {
			return err
		}
	}
	if inst.stage == nil {
		inst.stage = make([]byte, 0, stageBytes)
	}
	if len(inst.stage) == 0 {
		inst.stageOff = devOff
	}
	inst.stage = append(inst.stage, piece...)
	if len(inst.stage) == stageBytes {
		return inst.flushStage(p)
	}
	return nil
}

// flushStage sends the staged run, if there is one, as one device
// command. It must have returned nil before any log byte that admits a
// staged write reaches the device (logWrite sees to that) and before any
// read. A run whose command failed stays staged, byte for byte — a
// timed-out command may still be reading the buffer — and the next flush
// point sends it again.
func (inst *Instance) flushStage(p *sim.Proc) error {
	if len(inst.stage) == 0 {
		return nil
	}
	if err := inst.cfg.Plane.Write(p, inst.stageOff, int64(len(inst.stage)), inst.stage, inst.pool.BlockSize()); err != nil {
		return err
	}
	inst.stage = inst.stage[:0]
	return nil
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
	inst.enter(p)
	defer inst.leave()
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
	if err := inst.flushStage(p); err != nil {
		return 0, err
	}
	hb := inst.pool.BlockSize()
	got, err := inst.eachRun(f.ino, f.pos, n, func(r blockRun) error {
		data, err := inst.cfg.Plane.Read(p, r.devOff, r.n, hb)
		if err == nil && buf != nil {
			// A backing device that does not capture payloads returns
			// nil: the run reads as zeros, never as what buf held.
			dst := buf[r.fileOff-f.pos:][:r.n]
			clear(dst[copy(dst, data):])
		}
		// Copied out (or, from ReadN, never needed): the next read
		// lands in it.
		plane.Recycle(data)
		return err
	})
	if err != nil {
		return got, err
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

// Fsync implements vfs.File. The paper's runtime never buffers data; this
// one holds at most one staged run of coalesced writes (stageBytes, never
// read from). Fsync sends it (one data command), commits the log's
// pending write extension, if there is one (a single page write), and
// issues one device flush command. Run and extension are one at a time,
// whichever file they belong to, so Fsync on any handle makes every
// write acknowledged so far durable.
func (f *file) Fsync(p *sim.Proc) error {
	f.inst.enter(p)
	defer f.inst.leave()
	defer f.inst.traceSpan(p, "microfs.fsync", -1)()
	if f.closed {
		return vfs.ErrClosed
	}
	if err := f.inst.flushStage(p); err != nil {
		return err
	}
	if err := f.inst.log.Sync(f.inst.logWriter(p)); err != nil {
		return err
	}
	return f.inst.cfg.Plane.Flush(p)
}

// Close implements vfs.File. Closing a handle opened for writing sends
// the staged run and commits the log's pending write extension; the
// handle is closed even when that fails. Closing the last handle signals
// the background snapshot thread, which checkpoints internal metadata
// when the application's checkpoint phase ends.
func (f *file) Close(p *sim.Proc) error {
	f.inst.enter(p)
	defer f.inst.leave()
	if f.closed {
		return vfs.ErrClosed
	}
	var err error
	if f.writable {
		if err = f.inst.flushStage(p); err == nil {
			err = f.inst.log.Sync(f.inst.logWriter(p))
		}
	}
	f.closed = true
	f.ino.opens--
	f.inst.openCnt--
	f.inst.closeSig.Fire()
	return err
}
