package microfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// seeded returns n reproducible bytes with no repeating pattern, so that a
// piece landing at the wrong offset cannot compare equal.
func seeded(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// mustOpen opens path on inst or fails the test.
func mustOpen(t *testing.T, p *sim.Proc, inst *Instance, path string, flags vfs.OpenFlags) vfs.File {
	t.Helper()
	f, err := inst.Open(p, path, flags, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// readBack reads path whole through a fresh read-only handle.
func readBack(t *testing.T, p *sim.Proc, inst *Instance, path string) []byte {
	t.Helper()
	g := mustOpen(t, p, inst, path, vfs.O_RDONLY)
	defer g.Close(p)
	info, err := inst.Stat(p, path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, info.Size)
	if n, err := g.Read(p, buf); err != nil || int64(n) != info.Size {
		t.Fatalf("read %s: %d of %d bytes, %v", path, n, info.Size, err)
	}
	return buf
}

// TestStagedFlushFailureKeepsRun: a run whose command the device refuses
// stays staged, byte for byte; the call that needed it on the device
// returns the device's error, no log byte moves while it fails — not the
// pending extension, not another operation's record — and the next
// durability point sends the run again.
func TestStagedFlushFailureKeepsRun(t *testing.T) {
	const chunk = 16 << 10
	r, rec := newRecordingRig(t, nil)
	payload := seeded(1, 4*chunk)
	r.run(t, func(p *sim.Proc) {
		f := mustOpen(t, p, r.inst, "/f", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL)
		if _, err := vfs.WriteAll(p, f, payload, chunk); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.inst.stage, payload[chunk:]) {
			t.Fatalf("%d bytes staged, want the %d that followed the first call", len(r.inst.stage), 3*chunk)
		}
		refused := errors.New("device refused the run")
		rec.onWrite = func(cmd string) error {
			if cmd == "data" {
				return refused
			}
			return nil
		}
		rec.cmds = nil
		if err := f.Fsync(p); !errors.Is(err, refused) {
			t.Fatalf("Fsync over a refused run: %v", err)
		}
		if err := r.inst.Mkdir(p, "/d", 0o755); !errors.Is(err, refused) {
			t.Fatalf("Mkdir over a refused run: %v", err)
		}
		if _, err := r.inst.lookup("/d"); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("a mkdir whose record could not be logged left lookup = %v", err)
		}
		if want := []string{"data", "data"}; !reflect.DeepEqual(rec.cmds, want) {
			t.Errorf("while the run failed the device saw %v, want %v", rec.cmds, want)
		}
		if !bytes.Equal(r.inst.stage, payload[chunk:]) {
			t.Errorf("after two refused sends %d bytes are staged, want the same %d", len(r.inst.stage), 3*chunk)
		}
		if got := r.deviceLog(t, p); got[len(got)-1].Length != chunk {
			t.Errorf("device log admits %d bytes while the run is not on the device, want %d", got[len(got)-1].Length, chunk)
		}
		rec.onWrite = nil
		if err := f.Fsync(p); err != nil {
			t.Fatal(err)
		}
		if len(r.inst.stage) != 0 {
			t.Errorf("%d bytes still staged after Fsync", len(r.inst.stage))
		}
		fresh := r.freshInstance(t)
		if err := fresh.Recover(p); err != nil {
			t.Fatal(err)
		}
		if got := readBack(t, p, fresh, "/f"); !bytes.Equal(got, payload) {
			t.Errorf("recovered /f: %d bytes, equal=%v", len(got), bytes.Equal(got, payload))
		}
	})
}

// TestReadSeesStagedBytes: a read is a flush point, through whichever
// handle it comes.
func TestReadSeesStagedBytes(t *testing.T) {
	r := newRig(t, nil)
	payload := seeded(2, 5000)
	r.run(t, func(p *sim.Proc) {
		f := mustOpen(t, p, r.inst, "/f", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL)
		if _, err := vfs.WriteAll(p, f, payload, 2000); err != nil {
			t.Fatal(err)
		}
		if len(r.inst.stage) != 3000 {
			t.Fatalf("%d bytes staged before the read, want 3000", len(r.inst.stage))
		}
		if got := readBack(t, p, r.inst, "/f"); !bytes.Equal(got, payload) {
			t.Errorf("read back %d bytes, equal=%v", len(got), bytes.Equal(got, payload))
		}
	})
}

// TestInterleavedFilesStayOrdered: alternating appends to two files never
// extend the log's last record, so nothing is staged and the device sees
// a record and its data per call, in call order.
func TestInterleavedFilesStayOrdered(t *testing.T) {
	const rounds = 4
	r, rec := newRecordingRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		want := writeInterleaved(t, p, r.inst, rounds)
		if got := readBack(t, p, r.inst, "/a"); !bytes.Equal(got, want) {
			t.Errorf("read back %d bytes of /a, equal=%v", len(got), bytes.Equal(got, want))
		}
	})
	want := []string{"log", "dir", "log", "dir"} // two creates
	for i := 0; i < 2*rounds; i++ {
		want = append(want, "log", "data")
	}
	if !reflect.DeepEqual(rec.cmds, want) {
		t.Errorf("device saw %v,\nwant %v", rec.cmds, want)
	}
	if r.inst.stage != nil {
		t.Error("interleaved appends allocated a run")
	}
}

// TestLargeAndSyntheticWritesBypass: a call of stageBytes or more and a
// WriteN go to the device themselves — a command per call — although the
// log coalesces them.
func TestLargeAndSyntheticWritesBypass(t *testing.T) {
	r, rec := newRecordingRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		big := mustOpen(t, p, r.inst, "/big", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL)
		payload := seeded(3, 3<<20)
		if _, err := vfs.WriteAll(p, big, payload, 1<<20); err != nil {
			t.Fatal(err)
		}
		syn := mustOpen(t, p, r.inst, "/syn", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL)
		for i := 0; i < 3; i++ {
			if _, err := syn.WriteN(p, 16*model.KB); err != nil {
				t.Fatal(err)
			}
		}
		if _, coalesced, _, _ := r.inst.log.Stats(); coalesced != 4 {
			t.Errorf("the log coalesced %d writes, want 4", coalesced)
		}
		big.Close(p)
		syn.Close(p)
		if got := readBack(t, p, r.inst, "/big"); !bytes.Equal(got, payload) {
			t.Errorf("read back %d bytes of /big, equal=%v", len(got), bytes.Equal(got, payload))
		}
	})
	want := []string{
		"log", "dir", "log", "data", "data", "data", // /big: create, first write, three calls
		"log", "dir", "log", "data", "data", "data", // /syn: create, first write, three payload-free calls
		"log", // /syn's extension, at the first Close
	}
	if !reflect.DeepEqual(rec.cmds, want) {
		t.Errorf("device saw %v,\nwant %v", rec.cmds, want)
	}
	if r.inst.stage != nil {
		t.Error("large and synthetic writes allocated a run")
	}
}

// TestWriteAtPoolFullLeavesNoRecord: a write the pool cannot hold is
// refused before the log hears of it. Logged first, it left a record (or
// an extension of the pending one) for a size the file never reached,
// which the next durability point committed and Recover then refused.
func TestWriteAtPoolFullLeavesNoRecord(t *testing.T) {
	r, rec := newRecordingRig(t, func(cfg *Config) {
		cfg.SnapBytes = cfg.Plane.Size() - cfg.LogBytes - 4*32*model.KB // four hugeblocks of data
	})
	hb := int(r.inst.pool.BlockSize())
	r.run(t, func(p *sim.Proc) {
		f := mustOpen(t, p, r.inst, "/f", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL) // root's entries take a block
		if _, err := vfs.WriteAll(p, f, seeded(4, hb), int64(hb/2)); err != nil {
			t.Fatal(err)
		}
		if err := f.Fsync(p); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(p, seeded(5, hb/2)); err != nil { // a pending extension, staged
			t.Fatal(err)
		}
		head, image, cmds, meta := r.inst.log.Head(), r.inst.log.Image(), len(rec.cmds), metaOf(r.inst)
		if n, err := f.Write(p, make([]byte, 3*hb)); !errors.Is(err, vfs.ErrNoSpace) || n != 0 {
			t.Fatalf("write of three blocks into a pool with two free: %d, %v", n, err)
		}
		if r.inst.log.Head() != head || !bytes.Equal(r.inst.log.Image(), image) {
			t.Error("the refused write changed the log")
		}
		if len(rec.cmds) != cmds {
			t.Errorf("the refused write issued %v", rec.cmds[cmds:])
		}
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
		fresh := r.freshInstance(t)
		if err := fresh.Recover(p); err != nil {
			t.Fatal(err)
		}
		if got := metaOf(fresh); got != meta {
			t.Errorf("recovered metadata differs from the state before the refused write:\n got %s\nwant %s", got, meta)
		}
	})
}

// sizingPlane notes the length of every write command with a payload.
type sizingPlane struct {
	plane.Plane
	dataBase int64
	lengths  []int64
}

func (s *sizingPlane) Write(p *sim.Proc, off, length int64, data []byte, cmdUnit int64) error {
	if data != nil && off >= s.dataBase {
		s.lengths = append(s.lengths, length)
	}
	return s.Plane.Write(p, off, length, data, cmdUnit)
}

// TestSnapshotThreadMeetsStagedAppends runs the background snapshot thread
// against a writer appending to a reopened file in 1 KiB calls. The thread
// commits the log from inside SnapshotNow, so it sends the run staged so
// far between two of the writer's calls, and the next calls arrive while
// that command sleeps. A run left attached meanwhile takes their bytes
// and drops them when the command returns.
func TestSnapshotThreadMeetsStagedAppends(t *testing.T) {
	const chunk = 16 << 10
	var sizes *sizingPlane
	r := newRig(t, func(cfg *Config) {
		cfg.SnapThreshold = 0.01 // every close with no file open starts a snapshot
		sizes = &sizingPlane{Plane: cfg.Plane, dataBase: cfg.LogBytes + cfg.SnapBytes}
		cfg.Plane = sizes
	})
	payload := seeded(6, 64*chunk)
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 300; i++ { // inodes: a snapshot that takes a while
			mustOpen(t, p, r.inst, fmt.Sprintf("/%03d", i), vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL).Close(p)
		}
		r.inst.StartBackground()
		f := mustOpen(t, p, r.inst, "/f", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL)
		if _, err := vfs.WriteAll(p, f, payload[:8*chunk], chunk); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(p); err != nil { // wakes the thread
			t.Fatal(err)
		}
		// A record of another kind first, so that the log's head moves
		// under the snapshot and it keeps the log (ROADMAP item 2 (a) is
		// the case where only an extension does not).
		if err := r.inst.Mkdir(p, "/d", 0o755); err != nil {
			t.Fatal(err)
		}
		f = mustOpen(t, p, r.inst, "/f", vfs.O_WRONLY|vfs.O_APPEND)
		sizes.lengths = nil
		if _, err := vfs.WriteAll(p, f, payload[8*chunk:], 1024); err != nil {
			t.Fatal(err)
		}
		// The first call's own command, then runs: one cut short is the
		// thread's, and the calls that met it in flight follow on their own.
		met := false
		for i, n := range sizes.lengths[:len(sizes.lengths)-1] {
			met = met || 1024 < n && n < stageBytes && sizes.lengths[i+1] == 1024
		}
		if !met {
			t.Errorf("data commands of %v bytes: the thread no longer sends a run the writer has begun", sizes.lengths)
		}
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
		r.inst.StopBackground(p)
		if got := readBack(t, p, r.inst, "/f"); !bytes.Equal(got, payload) {
			t.Errorf("live /f: %d bytes, equal=%v", len(got), bytes.Equal(got, payload))
		}
		fresh := r.freshInstance(t)
		if err := fresh.Recover(p); err != nil {
			t.Fatal(err)
		}
		if got := readBack(t, p, fresh, "/f"); !bytes.Equal(got, payload) {
			t.Errorf("recovered /f: %d bytes, equal=%v", len(got), bytes.Equal(got, payload))
		}
	})
}
