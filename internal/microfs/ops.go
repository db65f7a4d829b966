package microfs

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/vfs"
	"github.com/nvme-cr/nvmecr/internal/wal"
)

// dirEntryBytes is the on-SSD size of one directory entry appended to
// the parent directory file.
const dirEntryBytes = 64

// metaLock serializes the operation through the emulated global
// namespace when the private-namespace feature is disabled.
func (inst *Instance) metaLock(p *sim.Proc) func() {
	g := inst.cfg.GlobalNS
	if g == nil {
		return func() {}
	}
	t0 := p.Now()
	g.Lock.Acquire(p)
	inst.acct.Attribute(vfs.IOWait, p.Now()-t0)
	inst.acct.Charge(p, vfs.User, g.ServiceTime)
	return g.Lock.Release
}

// logOp appends a provenance record (flushing it to the SSD, unless it
// is a write coalesced into the log's last record, which it reports: see
// file.write) and, when provenance is disabled, additionally journals the
// full inode and physical per-block records the way conventional
// filesystems do.
func (inst *Instance) logOp(p *sim.Proc, rec wal.Record) (coalesced bool, err error) {
	inst.acct.Charge(p, vfs.User, inst.cfg.Host.LogAppend)
	inst.awaitReset(p)
	coalesced, err = inst.log.Append(inst.logWriter(p), rec)
	if errors.Is(err, wal.ErrLogFull) {
		// Forced synchronous snapshot to reclaim log space.
		if serr := inst.SnapshotNow(p); serr != nil {
			return false, serr
		}
		coalesced, err = inst.log.Append(inst.logWriter(p), rec)
	}
	if err != nil {
		return false, err
	}
	if !inst.cfg.Features.Provenance {
		// Physical journaling, as conventional filesystems do: a full
		// inode block, plus one 4 KB journal block per 8 data blocks
		// touched (bitmaps and extent-tree blocks). Metadata
		// provenance replaces all of this with one compact record. The
		// journal is timing only: recovery reads the provenance log, so
		// the charge lands on no byte of it.
		extra := int64(4 * model.KB)
		if rec.Op == wal.OpWrite {
			blocks := (int64(rec.Length) + inst.pool.BlockSize() - 1) / inst.pool.BlockSize()
			extra += 4 * model.KB * ((blocks + 7) / 8)
		}
		if err := inst.charge(p, 0, extra, 4*model.KB); err != nil {
			return false, err
		}
	}
	return coalesced, nil
}

// Mkdir implements vfs.Client.
func (inst *Instance) Mkdir(p *sim.Proc, path string, mode uint32) error {
	defer inst.metaLock(p)()
	path, err := normalize(path)
	if err != nil {
		return err
	}
	inst.acct.Charge(p, vfs.User, inst.cfg.Host.BTreeOp+inst.cfg.Host.InodeAlloc)
	if _, err := inst.create(p, wal.OpMkdir, path, mode); err != nil {
		return err
	}
	inst.stats.Mkdirs++
	return nil
}

// create makes a file or a directory (op is OpCreate or OpMkdir):
// validate, log, and only then apply, which can no longer fail. A
// log-full append forces a snapshot inside logOp, and that snapshot must
// not already hold the inode its retried record is about to create —
// replay would refuse the record with "file already exists" — nor may a
// failed append leave an inode in memory that no record describes.
func (inst *Instance) create(p *sim.Proc, op wal.Op, path string, mode uint32) (*inode, error) {
	parent, err := inst.checkCreate(path)
	if err != nil {
		return nil, err
	}
	if _, err := inst.logOp(p, wal.Record{Op: op, Path: path, Inode: inst.nextIno, Mode: mode}); err != nil {
		return nil, err
	}
	ino := inst.insert(parent, path, mode, op == wal.OpMkdir)
	return ino, inst.writeDirTail(p, parentOf(path))
}

// Open implements vfs.Backend. With O_CREATE an absent file is created
// (one provenance record, like the old Create entry point); O_EXCL
// makes an existing file an error; a writable O_TRUNC logs a truncate
// record and drops the file to zero length (blocks stay allocated so
// replayed block placement is unchanged); O_APPEND positions the handle
// at end-of-file.
func (inst *Instance) Open(p *sim.Proc, path string, flags vfs.OpenFlags, mode uint32) (vfs.File, error) {
	path, err := normalize(path)
	if err != nil {
		return nil, err
	}
	inst.acct.Charge(p, vfs.User, inst.cfg.Host.BTreeOp)
	ino, lerr := inst.lookup(path)
	switch {
	case lerr == nil:
		if flags.Has(vfs.O_CREATE) && flags.Has(vfs.O_EXCL) {
			return nil, vfs.ErrExist
		}
		if ino.isDir {
			return nil, vfs.ErrIsDir
		}
		if flags.Writable() && ino.mode&0o200 == 0 {
			return nil, vfs.ErrPerm
		}
		if flags.Readable() && ino.mode&0o400 == 0 {
			return nil, vfs.ErrPerm
		}
		if flags.Has(vfs.O_TRUNC) && flags.Writable() && ino.size > 0 {
			unlock := inst.metaLock(p)
			// Logged first, applied second, like create.
			_, terr := inst.logOp(p, wal.Record{Op: wal.OpTruncate, Inode: ino.id, Length: 0})
			unlock()
			if terr != nil {
				return nil, terr
			}
			ino.size = 0
			inst.touch(ino)
		}
		inst.stats.Opens++
	case errors.Is(lerr, vfs.ErrNotExist) && flags.Has(vfs.O_CREATE):
		unlock := inst.metaLock(p)
		inst.acct.Charge(p, vfs.User, inst.cfg.Host.InodeAlloc)
		ino, err = inst.create(p, wal.OpCreate, path, mode)
		unlock()
		if err != nil {
			return nil, err
		}
		inst.stats.Creates++
	default:
		return nil, lerr
	}
	f := &file{inst: inst, ino: ino, writable: flags.Writable(), readable: flags.Readable()}
	if flags.Has(vfs.O_APPEND) {
		f.pos = ino.size
	}
	ino.opens++
	inst.openCnt++
	return f, nil
}

// Unlink implements vfs.Client.
func (inst *Instance) Unlink(p *sim.Proc, path string) error {
	defer inst.metaLock(p)()
	path, err := normalize(path)
	if err != nil {
		return err
	}
	inst.acct.Charge(p, vfs.User, inst.cfg.Host.BTreeOp)
	ino, err := inst.checkUnlink(path)
	if err != nil {
		return err
	}
	// Checked, logged, applied, like create: a record replay would refuse
	// never reaches the log.
	if _, err := inst.logOp(p, wal.Record{Op: wal.OpUnlink, Path: path, Inode: ino.id}); err != nil {
		return err
	}
	if err := inst.applyUnlink(path); err != nil {
		return err
	}
	inst.stats.Unlinks++
	inst.closeSig.Fire()
	return nil
}

// Rename implements vfs.Client: the atomic commit step of the
// write-to-temp-then-rename checkpoint idiom. Both names live in this
// process's private namespace, so no coordination is needed; one
// provenance record makes it durable.
func (inst *Instance) Rename(p *sim.Proc, oldPath, newPath string) error {
	defer inst.metaLock(p)()
	oldPath, err := normalize(oldPath)
	if err != nil {
		return err
	}
	newPath, err = normalize(newPath)
	if err != nil {
		return err
	}
	inst.acct.Charge(p, vfs.User, 2*inst.cfg.Host.BTreeOp)
	ino, _, err := inst.checkRename(oldPath, newPath)
	if err != nil {
		return err
	}
	// Checked, logged, applied, like create: a record replay would refuse
	// never reaches the log.
	if _, err := inst.logOp(p, wal.Record{Op: wal.OpRename, Path: oldPath, Path2: newPath, Inode: ino.id}); err != nil {
		return err
	}
	if err := inst.applyRename(oldPath, newPath); err != nil {
		return err
	}
	return inst.writeDirTail(p, parentOf(newPath))
}

// checkRename reports, changing nothing, whether applyRename would
// succeed — the source is a file, the destination's parent is a
// directory with room for one more entry, and the destination name is
// free — and returns the source and the destination's parent.
func (inst *Instance) checkRename(oldPath, newPath string) (ino, parent *inode, err error) {
	ino, err = inst.lookup(oldPath)
	if err != nil {
		return nil, nil, err
	}
	if ino.isDir {
		return nil, nil, vfs.ErrIsDir
	}
	parent, err = inst.lookup(parentOf(newPath))
	if err != nil {
		return nil, nil, fmt.Errorf("microfs: parent of %q: %w", newPath, err)
	}
	if !parent.isDir {
		return nil, nil, vfs.ErrNotDir
	}
	if _, exists := inst.tree.Get(newPath); exists {
		return nil, nil, vfs.ErrExist
	}
	if inst.pool.BlocksFor(parent.size+dirEntryBytes) > int64(len(parent.blocks)) && inst.pool.Free() == 0 {
		return nil, nil, vfs.ErrNoSpace
	}
	return ino, parent, nil
}

// applyRename mutates metadata for a rename (shared with replay).
func (inst *Instance) applyRename(oldPath, newPath string) error {
	ino, parent, err := inst.checkRename(oldPath, newPath)
	if err != nil {
		return err
	}
	inst.tree.Delete(oldPath)
	inst.tree.Insert(newPath, ino.id)
	// The destination directory gains an entry (the source's entry is
	// tombstoned, like unlink); checkRename saw the block it may need.
	_, _ = inst.growTo(parent, parent.size+dirEntryBytes)
	return nil
}

// ReadDir implements vfs.Client: the B+Tree's ordered iteration makes
// the listing a single range scan.
func (inst *Instance) ReadDir(p *sim.Proc, path string) ([]vfs.FileInfo, error) {
	path, err := normalize(path)
	if err != nil {
		return nil, err
	}
	dir, err := inst.lookup(path)
	if err != nil {
		return nil, err
	}
	if !dir.isDir {
		return nil, vfs.ErrNotDir
	}
	prefix := path
	if prefix != "/" {
		prefix += "/"
	}
	// Range-scan [prefix, prefix+0xFF); skip grandchildren.
	var out []vfs.FileInfo
	inst.tree.AscendRange(prefix, prefix+"\xff", func(name string, id uint64) bool {
		inst.acct.Attribute(vfs.User, inst.cfg.Host.BTreeOp)
		rest := name[len(prefix):]
		if rest == "" || strings.ContainsRune(rest, '/') {
			return true
		}
		if ino, ok := inst.inodes[id]; ok {
			out = append(out, vfs.FileInfo{
				Path: name, Size: ino.size, Inode: ino.id, Mode: ino.mode, IsDir: ino.isDir,
				ModTime: ino.mtime,
			})
		}
		return true
	})
	p.Sleep(time.Duration(len(out)) * inst.cfg.Host.BTreeOp)
	return out, nil
}

// Stat implements vfs.Client.
func (inst *Instance) Stat(p *sim.Proc, path string) (vfs.FileInfo, error) {
	path, err := normalize(path)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	inst.acct.Charge(p, vfs.User, inst.cfg.Host.BTreeOp)
	ino, err := inst.lookup(path)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return vfs.FileInfo{
		Path: path, Size: ino.size, Inode: ino.id, Mode: ino.mode, IsDir: ino.isDir,
		ModTime: ino.mtime,
	}, nil
}

// lookup resolves a normalized path to its inode.
func (inst *Instance) lookup(path string) (*inode, error) {
	id, ok := inst.tree.Get(path)
	if !ok {
		return nil, vfs.ErrNotExist
	}
	ino, ok := inst.inodes[id]
	if !ok {
		return nil, fmt.Errorf("microfs: dangling inode %d for %q", id, path)
	}
	return ino, nil
}

// checkCreate reports, changing nothing, whether applyCreate(path) would
// succeed — the parent is a directory, the name is free, and the pool has
// the block the parent's next entry may need — and returns the parent.
func (inst *Instance) checkCreate(path string) (*inode, error) {
	if path == rootPath {
		return nil, vfs.ErrExist
	}
	parent, err := inst.lookup(parentOf(path))
	if err != nil {
		return nil, fmt.Errorf("microfs: parent of %q: %w", path, err)
	}
	if !parent.isDir {
		return nil, vfs.ErrNotDir
	}
	if _, ok := inst.tree.Get(path); ok {
		return nil, vfs.ErrExist
	}
	if inst.pool.BlocksFor(parent.size+dirEntryBytes) > int64(len(parent.blocks)) && inst.pool.Free() == 0 {
		return nil, vfs.ErrNoSpace
	}
	return parent, nil
}

// applyCreate mutates metadata for a create/mkdir. It performs no IO and
// no logging, so the recovery path replays it verbatim; block placement
// stays deterministic because the parent directory entry growth in insert
// allocates from the circular pool in call order.
func (inst *Instance) applyCreate(path string, mode uint32, isDir bool) (*inode, error) {
	parent, err := inst.checkCreate(path)
	if err != nil {
		return nil, err
	}
	return inst.insert(parent, path, mode, isDir), nil
}

// insert is the half of applyCreate that cannot fail once checkCreate has
// passed: a new inode under path, and its entry in the parent.
func (inst *Instance) insert(parent *inode, path string, mode uint32, isDir bool) *inode {
	ino := &inode{id: inst.nextIno, mode: mode, isDir: isDir}
	inst.touch(ino)
	inst.nextIno++
	inst.inodes[ino.id] = ino
	inst.tree.Insert(path, ino.id)
	// Append the directory entry to the parent directory file; checkCreate
	// saw the block it may need.
	_, _ = inst.growTo(parent, parent.size+dirEntryBytes)
	return ino
}

// checkUnlink reports, changing nothing, whether applyUnlink would
// succeed — the path names a file — and returns its inode.
func (inst *Instance) checkUnlink(path string) (*inode, error) {
	ino, err := inst.lookup(path)
	if err != nil {
		return nil, err
	}
	if ino.isDir {
		return nil, vfs.ErrIsDir
	}
	return ino, nil
}

// applyUnlink mutates metadata for an unlink, freeing blocks in
// deterministic (file) order.
func (inst *Instance) applyUnlink(path string) error {
	ino, err := inst.checkUnlink(path)
	if err != nil {
		return err
	}
	for _, b := range ino.blocks {
		if err := inst.pool.FreeBlock(b); err != nil {
			return err
		}
	}
	inst.tree.Delete(path)
	delete(inst.inodes, ino.id)
	return nil
}

// growTo extends ino with pool blocks so it can hold newEnd bytes,
// returning the number of blocks allocated.
func (inst *Instance) growTo(ino *inode, newEnd int64) (int64, error) {
	if newEnd <= ino.size {
		return 0, nil
	}
	need := inst.pool.BlocksFor(newEnd) - int64(len(ino.blocks))
	if need > 0 {
		blocks, err := inst.pool.AllocN(need)
		if err != nil {
			return 0, vfs.ErrNoSpace
		}
		ino.blocks = append(ino.blocks, blocks...)
	}
	ino.size = newEnd
	if need < 0 {
		need = 0
	}
	return need, nil
}

// writeDirTail charges the write of the parent directory file's tail
// hugeblock (the block holding the just-appended entry): the paper's
// create cost, a 32 KB dirent beside the 4 KB log page (Fig. 8b). Nothing
// reads the block back — Recover rebuilds every directory from the
// snapshot and the log — so it is a charge (see charge), never data.
func (inst *Instance) writeDirTail(p *sim.Proc, parentPath string) error {
	parent, err := inst.lookup(parentPath)
	if err != nil {
		return err
	}
	if len(parent.blocks) == 0 {
		return nil
	}
	hb := inst.pool.BlockSize()
	tail := parent.blocks[len(parent.blocks)-1]
	return inst.charge(p, inst.dataBase+inst.pool.Offset(tail), hb, hb)
}

// charge hands a transfer whose bytes nothing reads to the plane's
// plane.Charger. A plane without a time model (the real transport) is no
// Charger, and there the transfer is not made at all.
func (inst *Instance) charge(p *sim.Proc, off, length, cmdUnit int64) error {
	c, ok := inst.cfg.Plane.(plane.Charger)
	if !ok {
		return nil
	}
	return c.Charge(p, off, length, cmdUnit)
}

// blockRun is a contiguous device range backing a contiguous file range.
type blockRun struct {
	devOff  int64
	fileOff int64
	n       int64
}

// eachRun hands visit the device runs covering file range [off, off+n),
// in file order, and stops at the first error. It returns the bytes of
// the runs visit accepted.
func (inst *Instance) eachRun(ino *inode, off, n int64, visit func(blockRun) error) (int64, error) {
	hb := inst.pool.BlockSize()
	end := off + n
	if inst.pool.BlocksFor(end) > int64(len(ino.blocks)) {
		return 0, fmt.Errorf("microfs: range [%d,+%d) beyond allocated blocks of inode %d", off, n, ino.id)
	}
	pos := off
	for pos < end {
		bi := pos / hb
		// Extend the run across physically consecutive blocks.
		last := bi
		for (last+1)*hb < end && ino.blocks[last+1] == ino.blocks[last]+1 {
			last++
		}
		runEnd := min((last+1)*hb, end)
		if err := visit(blockRun{
			devOff:  inst.dataBase + inst.pool.Offset(ino.blocks[bi]) + pos%hb,
			fileOff: pos,
			n:       runEnd - pos,
		}); err != nil {
			return pos - off, err
		}
		pos = runEnd
	}
	return n, nil
}
