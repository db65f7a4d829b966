package microfs

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/vfs"
	"github.com/nvme-cr/nvmecr/internal/wal"
)

// recordingPlane is the stub block device under the filesystem: it names
// every command microfs issues, in order, and passes it on.
type recordingPlane struct {
	plane.Plane
	logBytes int64
	cmds     []string
	// onWrite, when set, sees every write command as it arrives, by the
	// name it is recorded under; an error from it is the command's result
	// and the device never sees the command.
	onWrite func(cmd string) error
}

func (r *recordingPlane) Write(p *sim.Proc, off, length int64, data []byte, cmdUnit int64) error {
	cmd := "data" // file data, synthetic or not, or a snapshot's body or header
	if off < r.logBytes {
		cmd = "log"
	}
	if err := r.record(cmd); err != nil {
		return err
	}
	return r.Plane.Write(p, off, length, data, cmdUnit)
}

// Charge records a timing-only transfer, a directory's tail block, as
// "dir": the simulator's device still sees it, the real transport never.
func (r *recordingPlane) Charge(p *sim.Proc, off, length, cmdUnit int64) error {
	if err := r.record("dir"); err != nil {
		return err
	}
	return r.Plane.(plane.Charger).Charge(p, off, length, cmdUnit)
}

// record names one write command and passes it to onWrite.
func (r *recordingPlane) record(cmd string) error {
	r.cmds = append(r.cmds, cmd)
	if r.onWrite != nil {
		return r.onWrite(cmd)
	}
	return nil
}

func (r *recordingPlane) Flush(p *sim.Proc) error {
	r.cmds = append(r.cmds, "FLUSH")
	return r.Plane.Flush(p)
}

// newRecordingRig is newRig with a recordingPlane under the instance.
func newRecordingRig(t *testing.T, mutate func(*Config)) (*rig, *recordingPlane) {
	var rec *recordingPlane
	r := newRig(t, func(cfg *Config) {
		if mutate != nil {
			mutate(cfg)
		}
		rec = &recordingPlane{Plane: cfg.Plane, logBytes: cfg.LogBytes}
		cfg.Plane = rec
	})
	return r, rec
}

// deviceLog decodes what the device holds of r's log region.
func (r *rig) deviceLog(t *testing.T, p *sim.Proc) []wal.Record {
	t.Helper()
	image, err := r.cfg.Plane.Read(p, 0, r.cfg.LogBytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	records, err := wal.Decode(image, r.inst.log.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	return records
}

// checkAdmitted is the write path's ordering invariant, asked of the
// device at a log command: the log image that command carries admits,
// for every inode in content, a size; below it and below returned (the
// bytes whose Write has returned; the call in flight is logged ahead of
// its data) the device must already hold the content.
func (r *rig) checkAdmitted(t *testing.T, p *sim.Proc, content map[uint64][]byte, returned map[uint64]int64) {
	t.Helper()
	records, _ := wal.Decode(r.inst.log.Image(), r.inst.log.Epoch())
	admitted := map[uint64]int64{}
	for _, rec := range records {
		if rec.Op == wal.OpWrite {
			admitted[rec.Inode] = max(admitted[rec.Inode], int64(rec.Offset+rec.Length))
		}
	}
	for id, want := range content {
		n := min(admitted[id], returned[id])
		if n == 0 {
			continue
		}
		var got []byte
		_, err := r.inst.eachRun(r.inst.inodes[id], 0, n, func(run blockRun) error {
			data, err := r.cfg.Plane.Read(p, run.devOff, run.n, 0)
			got = append(got, data...)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[:n]) && !t.Failed() {
			t.Errorf("a log command admits %d bytes of inode %d (%d returned): the device does not hold them", admitted[id], id, returned[id])
		}
	}
}

// TestDeviceSeesOneCommandPerRun pins the write path's device contract:
// a checkpoint file written in N contiguous calls costs the first call's
// data command, one per run of stageBytes the rest fills or leaves
// begun, and a fixed seven — never a command per call — Fsync is the
// point where the device's log catches up with the file's length, and
// at every log command the device already holds what that command admits.
func TestDeviceSeesOneCommandPerRun(t *testing.T) {
	const (
		n     = 40
		chunk = 16 << 10
	)
	r, rec := newRecordingRig(t, nil)
	payload := seeded(21, n*chunk)
	r.run(t, func(p *sim.Proc) {
		content, returned := map[uint64][]byte{2: payload}, map[uint64]int64{}
		rec.onWrite = func(cmd string) error {
			if cmd == "log" {
				r.checkAdmitted(t, p, content, returned)
			}
			return nil
		}
		f, err := r.inst.Open(p, "/ckpt.tmp", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(payload); off += chunk {
			if _, err := f.Write(p, payload[off:off+chunk]); err != nil {
				t.Fatal(err)
			}
			returned[2] += chunk
		}
		// Before the durability point the device's log holds the first
		// call's record; the calls that extended it are in DRAM.
		create := wal.Record{Op: wal.OpCreate, Path: "/ckpt.tmp", Inode: 2, Mode: 0o644}
		if got, want := r.deviceLog(t, p), []wal.Record{create, {Op: wal.OpWrite, Inode: 2, Length: chunk}}; !reflect.DeepEqual(got, want) {
			t.Errorf("device log before Fsync = %+v, want %+v", got, want)
		}
		if err := f.Fsync(p); err != nil {
			t.Fatal(err)
		}
		if got, want := r.deviceLog(t, p), []wal.Record{create, {Op: wal.OpWrite, Inode: 2, Length: n * chunk}}; !reflect.DeepEqual(got, want) {
			t.Errorf("device log at Fsync's return = %+v, want %+v", got, want)
		}
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
		if err := r.inst.Rename(p, "/ckpt.tmp", "/ckpt"); err != nil {
			t.Fatal(err)
		}
	})
	want := []string{"log", "dir", "log", "data"} // create, root's tail block, first write and its data
	for staged := (n - 1) * chunk; staged > 0; staged -= stageBytes {
		want = append(want, "data") // the last one, begun and not full, leaves at Fsync
	}
	want = append(want, "log", "FLUSH", "log", "dir") // Fsync; rename, root's tail block
	if !reflect.DeepEqual(rec.cmds, want) {
		t.Errorf("device saw %d commands %v,\nwant %d %v", len(rec.cmds), rec.cmds, len(want), want)
	}
}

// TestCloseCommitsWithoutFsync: closing a written file is a durability
// point for the log too, whichever handle is closed, and a handle that
// was only read commits nothing.
func TestCloseCommitsWithoutFsync(t *testing.T) {
	r, rec := newRecordingRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		open := func(path string, flags vfs.OpenFlags) vfs.File {
			t.Helper()
			f, err := r.inst.Open(p, path, flags, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		idle := open("/idle", vfs.O_WRONLY|vfs.O_CREATE)
		f := open("/f", vfs.O_WRONLY|vfs.O_CREATE)
		f.WriteN(p, 1000)
		f.WriteN(p, 1000) // pending
		rd := open("/f", vfs.O_RDONLY)
		rec.cmds = nil
		rd.Close(p)
		if len(rec.cmds) != 0 {
			t.Errorf("closing a read-only handle issued %v", rec.cmds)
		}
		idle.Close(p) // another file's handle carries /f's extension
		if !reflect.DeepEqual(rec.cmds, []string{"log"}) {
			t.Errorf("closing a writable handle issued %v, want one log page", rec.cmds)
		}
		f.Close(p)
		if len(rec.cmds) != 1 {
			t.Errorf("closing with nothing pending issued %v", rec.cmds[1:])
		}
		fresh := r.freshInstance(t)
		if err := fresh.Recover(p); err != nil {
			t.Fatal(err)
		}
		if got, want := metaOf(fresh), metaOf(r.inst); got != want {
			t.Errorf("recovered metadata differs:\n got %s\nwant %s", got, want)
		}
	})
}

// TestRecoveryAfterWriteAcrossDirAlloc is the reproducer for a coalescing
// bug: a write folded into a record that precedes a create or mkdir
// replays before the directory block that create allocated, and every
// block after it lands one off. /a.dat's second half then read zeros.
func TestRecoveryAfterWriteAcrossDirAlloc(t *testing.T) {
	r := newRig(t, nil)
	hb := r.inst.pool.BlockSize()
	payload := bytes.Repeat([]byte("0123456789abcdef"), int(2*hb)/16)
	r.run(t, func(p *sim.Proc) {
		a, err := r.inst.Open(p, "/a.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Write(p, payload[:hb]); err != nil {
			t.Fatal(err)
		}
		// /d's first entry allocates the block after /a.dat's first.
		if err := r.inst.Mkdir(p, "/d", 0o755); err != nil {
			t.Fatal(err)
		}
		x, err := r.inst.Open(p, "/d/x", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Write(p, payload[hb:]); err != nil {
			t.Fatal(err)
		}
		x.Close(p)
		a.Close(p)

		fresh := r.freshInstance(t)
		if err := fresh.Recover(p); err != nil {
			t.Fatal(err)
		}
		layout := func(inst *Instance) string {
			var b strings.Builder
			inst.tree.Ascend(func(path string, id uint64) bool {
				fmt.Fprintf(&b, "%s=%v ", path, inst.inodes[id].blocks)
				return true
			})
			return b.String()
		}
		if got, want := layout(fresh), layout(r.inst); got != want {
			t.Errorf("recovered block placement %s, the live instance's is %s", got, want)
		}
		g, err := fresh.Open(p, "/a.dat", vfs.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(payload))
		if n, err := g.Read(p, buf); err != nil || n != len(payload) || !bytes.Equal(buf, payload) {
			t.Errorf("recovered /a.dat: %d bytes, %v, equal=%v", n, err, bytes.Equal(buf, payload))
		}
		g.Close(p)
	})
}

// TestCreateAtLogFullRecovers drives creates and mkdirs into a log of four
// pages, so that every dozenth finds it full and forces a snapshot from
// inside the operation. The device must see an operation's log record —
// and the snapshot before it, when there is one — before the namespace
// holds the new name: a snapshot that already held it would make the
// retried record, at offset 0 of the next epoch, unreplayable ("file
// already exists"). A log write the device refuses must leave no trace
// of the name either. Whatever the device then holds recovers to the
// crashed instance's state.
func TestCreateAtLogFullRecovers(t *testing.T) {
	r, rec := newRecordingRig(t, func(cfg *Config) {
		cfg.LogBytes, cfg.LogPageBytes = 2048, 512
	})
	r.run(t, func(p *sim.Proc) {
		var creating string
		refused := errors.New("device refused the log write")
		refuse := false
		rec.onWrite = func(cmd string) error {
			if cmd == "dir" {
				return nil // the parent's tail block follows the apply
			}
			if _, ok := r.inst.tree.Get(creating); ok && !t.Failed() {
				t.Errorf("%s command while creating %s: the namespace already holds it", cmd, creating)
			}
			if refuse && cmd == "log" {
				return refused
			}
			return nil
		}
		create := func(path string, dir bool) error {
			creating = path
			if dir {
				return r.inst.Mkdir(p, path, 0o755)
			}
			_, err := r.inst.Open(p, path, vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
			return err
		}
		dir := ""
		for i := 0; r.inst.stats.Snapshots < 6; i++ {
			path := fmt.Sprintf("%s/%03d-%s", dir, i, strings.Repeat("n", 40+i%50))
			if err := create(path, i%7 == 0); err != nil {
				t.Fatalf("creating %s: %v", path, err)
			}
			if i%7 == 0 {
				dir = path
			}
		}
		refuse = true
		nextIno := r.inst.nextIno
		if err := create("/refused", false); !errors.Is(err, refused) {
			t.Fatalf("create over a refused log write: %v", err)
		}
		if _, err := r.inst.lookup("/refused"); !errors.Is(err, vfs.ErrNotExist) || r.inst.nextIno != nextIno {
			t.Errorf("a create whose record was refused left lookup = %v, nextIno %d -> %d", err, nextIno, r.inst.nextIno)
		}

		fresh := r.freshInstance(t)
		if err := fresh.Recover(p); err != nil {
			t.Fatal(err)
		}
		if got, want := metaOf(fresh), metaOf(r.inst); got != want {
			t.Errorf("recovered metadata differs:\n got %s\nwant %s", got, want)
		}
	})
}
