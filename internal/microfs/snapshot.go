package microfs

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"time"

	"github.com/nvme-cr/nvmecr/internal/blockpool"
	"github.com/nvme-cr/nvmecr/internal/btree"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/vfs"
	"github.com/nvme-cr/nvmecr/internal/wal"
)

// snapMagic marks a valid snapshot header.
const snapMagic = 0x4D435246 // "FRCM"

// snapHeaderBytes is the fixed header written after the body; writing it
// last commits the snapshot atomically. The body region is split into
// two slots (A/B): each snapshot writes the slot the live header does
// NOT point to, so a crash mid-snapshot always leaves the previous
// snapshot intact.
const snapHeaderBytes = 32

// slotBase returns the device offset of body slot k (0 or 1).
func (inst *Instance) slotBase(k int) int64 {
	half := (inst.cfg.SnapBytes - snapHeaderBytes) / 2
	return inst.cfg.LogBytes + snapHeaderBytes + int64(k)*half
}

// slotCapacity returns the maximum body size per slot.
func (inst *Instance) slotCapacity() int64 {
	return (inst.cfg.SnapBytes - snapHeaderBytes) / 2
}

// snapInode is the serialized form of an inode.
type snapInode struct {
	ID     uint64
	Size   int64
	Blocks []int64
	Mode   uint32
	IsDir  bool
	Mtime  int64 // modification stamp, nanoseconds of virtual time
}

// snapImage is the gob-encoded snapshot body.
type snapImage struct {
	NextIno uint64
	Inodes  []snapInode
	Paths   []snapPath
	Pool    blockpool.State
	// LogEpoch is the epoch whose records follow this snapshot: the
	// log's next, since a snapshot folds every record and resets the log.
	// LogStart, the offset replay began at when a snapshot could keep the
	// log, is always 0; it stays so that the body's encoding, and its
	// size on the device, do not change.
	LogEpoch byte
	LogStart int64
}

type snapPath struct {
	Path string
	Ino  uint64
}

// SnapshotNow checkpoints the instance's DRAM metadata (inodes, block
// pool, B+Tree) to the reserved snapshot region and truncates the
// provenance log. It is called by the background thread between
// application checkpoints; it waits for any operation in progress on the
// instance to end, and no operation starts until it has.
func (inst *Instance) SnapshotNow(p *sim.Proc) error {
	inst.enter(p)
	defer inst.leave()
	return inst.snapshot(p)
}

// snapshot is SnapshotNow for a process inside the instance: the
// background thread's, or the one whose record found the log full. Every
// record so far is in the image it builds, so its header retires the
// whole log, a pending extension included.
func (inst *Instance) snapshot(p *sim.Proc) error {
	defer inst.traceSpan(p, "microfs.snapshot", -1)()
	// The image admits every size in DRAM, staged bytes included.
	if err := inst.flushStage(p); err != nil {
		return err
	}
	img := snapImage{
		NextIno:  inst.nextIno,
		Pool:     inst.pool.Snapshot(),
		LogEpoch: inst.log.NextEpoch(),
	}
	for _, ino := range inst.inodes {
		img.Inodes = append(img.Inodes, snapInode{
			ID: ino.id, Size: ino.size, Blocks: ino.blocks, Mode: ino.mode, IsDir: ino.isDir,
			Mtime: int64(ino.mtime),
		})
	}
	inst.tree.Ascend(func(path string, ino uint64) bool {
		img.Paths = append(img.Paths, snapPath{Path: path, Ino: ino})
		return true
	})

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&img); err != nil {
		return fmt.Errorf("microfs: snapshot encode: %w", err)
	}
	body := buf.Bytes()
	if int64(len(body)) > inst.slotCapacity() {
		return fmt.Errorf("microfs: snapshot of %d bytes exceeds slot of %d", len(body), inst.slotCapacity())
	}
	// Serialization cost: ~1µs per inode of CPU work.
	inst.acct.Charge(p, vfs.User, time.Duration(len(img.Inodes))*time.Microsecond)

	// Write the slot the live header does not reference.
	slot := 1 - inst.snapSlot
	hb := inst.pool.BlockSize()
	if err := inst.cfg.Plane.Write(p, inst.slotBase(slot), int64(len(body)), body, hb); err != nil {
		return err
	}
	// Commit: the 32-byte header is a single sector-sized write.
	hdr := make([]byte, snapHeaderBytes)
	binary.LittleEndian.PutUint32(hdr[0:], snapMagic)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(len(body)))
	binary.LittleEndian.PutUint32(hdr[12:], crc32.ChecksumIEEE(body))
	hdr[16] = byte(slot)
	if err := inst.cfg.Plane.Write(p, inst.cfg.LogBytes, snapHeaderBytes, hdr, 4*model.KB); err != nil {
		return err
	}
	inst.snapSlot = slot
	inst.log.Reset()
	inst.snapLen = snapHeaderBytes + int64(len(body))
	inst.stats.Snapshots++
	return nil
}

// StartBackground launches the dedicated snapshot thread. It wakes on
// every close/unlink and checkpoints internal state once the application
// checkpoint phase has ended (no open files) and the log is filling,
// overlapping the work with the application's compute phase.
func (inst *Instance) StartBackground() {
	if inst.bgWG != nil {
		return
	}
	inst.bgWG = inst.env.NewWaitGroup()
	inst.bgWG.Add(1)
	inst.env.Go("microfs-snapshot", func(p *sim.Proc) {
		defer inst.bgWG.Done()
		for {
			if inst.bgStop {
				return
			}
			inst.closeSig.Wait(p)
			if inst.bgStop {
				return
			}
			if inst.openCnt == 0 && inst.log.FillFraction() >= inst.cfg.SnapThreshold {
				if err := inst.SnapshotNow(p); err != nil {
					// Snapshot failure is not fatal to the app; the
					// log simply fills sooner and a forced snapshot
					// will retry.
					continue
				}
			}
		}
	})
}

// StopBackground terminates the snapshot thread and waits for it. The
// thread may be mid-snapshot (and so not waiting on the signal); the
// stop loop re-fires until it has exited.
func (inst *Instance) StopBackground(p *sim.Proc) {
	if inst.bgWG == nil {
		return
	}
	inst.bgStop = true
	for inst.bgWG.Count() > 0 {
		inst.closeSig.Fire()
		p.Sleep(time.Microsecond)
	}
	inst.bgWG = nil
	inst.bgStop = false
}

// Recover rebuilds the instance's DRAM metadata from the SSD after a
// crash: it reads the latest snapshot, restores the block pool, B+Tree,
// and inodes, and replays the provenance log suffix as it reads it. It
// starts from nothing each time, so after an error (a failed read, say)
// it may be called again. The backing device must capture payloads
// (functional mode); use ModelRecovery for timing-only estimates at
// benchmark scale.
func (inst *Instance) Recover(p *sim.Proc) error {
	defer inst.traceSpan(p, "microfs.restart", -1)()
	hb := inst.pool.BlockSize()
	snapBase := inst.cfg.LogBytes
	hdr, err := inst.recoveryRead(p, snapBase, snapHeaderBytes, 4*model.KB)
	if err != nil {
		return err
	}
	if hdr == nil {
		return fmt.Errorf("microfs: recovery requires a payload-capturing device")
	}
	inst.resetMeta()
	expectEpoch := byte(1)
	if binary.LittleEndian.Uint32(hdr[0:]) == snapMagic {
		bodyLen := int64(binary.LittleEndian.Uint64(hdr[4:]))
		wantCRC := binary.LittleEndian.Uint32(hdr[12:])
		slot := int(hdr[16])
		if slot != 0 && slot != 1 {
			return fmt.Errorf("microfs: snapshot header names slot %d", slot)
		}
		if bodyLen > inst.slotCapacity() {
			return fmt.Errorf("microfs: snapshot header claims %d bytes, slot holds %d", bodyLen, inst.slotCapacity())
		}
		body, err := inst.recoveryRead(p, inst.slotBase(slot), bodyLen, hb)
		if err != nil {
			return err
		}
		inst.snapSlot = slot
		if crc32.ChecksumIEEE(body) != wantCRC {
			return fmt.Errorf("microfs: snapshot body corrupt")
		}
		var img snapImage
		err = gob.NewDecoder(bytes.NewReader(body)).Decode(&img)
		plane.Recycle(body) // the decoded image copied what it keeps
		if err != nil {
			return fmt.Errorf("microfs: snapshot decode: %w", err)
		}
		if err := inst.restoreSnapshot(&img); err != nil {
			return err
		}
		expectEpoch = img.LogEpoch
		inst.snapLen = snapHeaderBytes + bodyLen
	}
	var last wal.Record
	err = inst.log.Load(func(off, n int64) ([]byte, error) {
		return inst.recoveryRead(p, off, n, hb)
	}, expectEpoch, func(lr wal.LocatedRecord) error {
		inst.acct.Charge(p, vfs.User, inst.cfg.Host.ReplayPerRecord)
		if err := inst.replay(lr.Record); err != nil {
			return fmt.Errorf("microfs: replaying %v at %d: %w", lr.Op, lr.Off, err)
		}
		last = lr.Record
		return nil
	})
	if err != nil {
		return err
	}
	if err := inst.resyncLastWrite(p, last); err != nil {
		return err
	}
	inst.stats.Recoveries++
	return nil
}

// resyncLastWrite makes the copies of the data a last replayed write
// record admits agree. A write is logged before its data lands, so a
// head that crashed inside the last write's data may have left it on
// some copies only, and each copy alone would then recover other bytes
// in that range. Every earlier record's data was on every copy before
// the next record was logged. Over a plane with one copy it sends
// nothing.
func (inst *Instance) resyncLastWrite(p *sim.Proc, rec wal.Record) error {
	r, ok := inst.cfg.Plane.(plane.Resyncer)
	if !ok || rec.Op != wal.OpWrite || rec.Length == 0 {
		return nil
	}
	ino, ok := inst.inodes[rec.Inode]
	if !ok {
		return nil
	}
	hb := inst.pool.BlockSize()
	_, err := inst.eachRun(ino, int64(rec.Offset), int64(rec.Length), func(run blockRun) error {
		return r.Resync(p, run.devOff, run.n, hb)
	})
	return err
}

// recoveryRead reads bytes Recover restores from. Over a plane that
// keeps several copies (plane.Resyncer) it makes them agree first: the
// crashed life's last write may have reached some copies only, and what
// this life replays must be what any copy replays after it.
func (inst *Instance) recoveryRead(p *sim.Proc, off, n, cmdUnit int64) ([]byte, error) {
	if r, ok := inst.cfg.Plane.(plane.Resyncer); ok {
		return r.ReadResync(p, off, n, cmdUnit)
	}
	return inst.cfg.Plane.Read(p, off, n, cmdUnit)
}

// resetMeta discards DRAM metadata, returning the instance to its
// initial (root-only) state.
func (inst *Instance) resetMeta() {
	pool, _ := blockpool.New(inst.cfg.Plane.Size()-inst.dataBase, inst.cfg.HugeblockBytes)
	inst.pool = pool
	inst.tree = btree.New()
	inst.inodes = map[uint64]*inode{rootIno: {id: rootIno, isDir: true, mode: 0o755}}
	inst.tree.Insert(rootPath, rootIno)
	inst.nextIno = rootIno + 1
	inst.openCnt = 0
	inst.snapLen = 0
	inst.stage = nil
}

// restoreSnapshot loads a decoded snapshot image.
func (inst *Instance) restoreSnapshot(img *snapImage) error {
	pool, err := blockpool.Restore(img.Pool, inst.cfg.Plane.Size()-inst.dataBase, inst.cfg.HugeblockBytes)
	if err != nil {
		return err
	}
	inst.pool = pool
	inst.tree = btree.New()
	inst.inodes = make(map[uint64]*inode, len(img.Inodes))
	for _, si := range img.Inodes {
		inst.inodes[si.ID] = &inode{
			id: si.ID, size: si.Size, blocks: si.Blocks, mode: si.Mode, isDir: si.IsDir,
			mtime: time.Duration(si.Mtime),
		}
		if d := time.Duration(si.Mtime); d > inst.lastMtime {
			inst.lastMtime = d
		}
	}
	for _, sp := range img.Paths {
		inst.tree.Insert(sp.Path, sp.Ino)
	}
	inst.nextIno = img.NextIno
	return nil
}

// replay applies one provenance record. Block placement reproduces
// exactly because the circular pool is deterministic and replay repeats
// the original allocation order.
func (inst *Instance) replay(rec wal.Record) error {
	switch rec.Op {
	case wal.OpMkdir, wal.OpCreate:
		ino, err := inst.applyCreate(rec.Path, rec.Mode, rec.Op == wal.OpMkdir)
		if err != nil {
			return err
		}
		if ino.id != rec.Inode {
			return fmt.Errorf("microfs: nondeterministic replay: inode %d, logged %d", ino.id, rec.Inode)
		}
		return nil
	case wal.OpWrite:
		ino, ok := inst.inodes[rec.Inode]
		if !ok {
			return fmt.Errorf("microfs: write record for unknown inode %d", rec.Inode)
		}
		_, err := inst.growTo(ino, int64(rec.Offset+rec.Length))
		if err == nil {
			inst.touch(ino)
		}
		return err
	case wal.OpUnlink:
		return inst.applyUnlink(rec.Path)
	case wal.OpRename:
		return inst.applyRename(rec.Path, rec.Path2)
	case wal.OpTruncate:
		ino, ok := inst.inodes[rec.Inode]
		if !ok {
			return fmt.Errorf("microfs: truncate record for unknown inode %d", rec.Inode)
		}
		if int64(rec.Length) < ino.size {
			ino.size = int64(rec.Length)
		}
		inst.touch(ino)
		return nil
	default:
		return fmt.Errorf("microfs: unknown record op %v", rec.Op)
	}
}

// ModelRecovery charges the virtual time a post-crash runtime recovery
// would take (snapshot read + log read + replay CPU) without requiring
// payload capture. Used by benchmark-scale experiments (Table II).
func (inst *Instance) ModelRecovery(p *sim.Proc) error {
	defer inst.traceSpan(p, "microfs.restart-model", -1)()
	hb := inst.pool.BlockSize()
	snapBase := inst.cfg.LogBytes
	if err := inst.cfg.Plane.Write(p, snapBase, 0, nil, 0); err != nil { // command round trip
		return err
	}
	if inst.snapLen > 0 {
		snap, err := inst.cfg.Plane.Read(p, snapBase, inst.snapLen, hb)
		if err != nil {
			return err
		}
		plane.Recycle(snap)
	}
	head := inst.log.Head()
	if head > 0 {
		log, err := inst.cfg.Plane.Read(p, 0, head, hb)
		if err != nil {
			return err
		}
		plane.Recycle(log)
	}
	inst.acct.Charge(p, vfs.User, time.Duration(inst.log.Records())*inst.cfg.Host.ReplayPerRecord)
	return nil
}
