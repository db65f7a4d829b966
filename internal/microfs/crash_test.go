package microfs

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// faultPlane wraps a plane and kills the process (via panic recovered by
// the test harness pattern: we instead stop forwarding writes) after a
// configured number of writes — simulating a crash mid-operation. Writes
// after the trip point are silently dropped, exactly what a power cut
// does to in-flight IO that never reached the device.
type faultPlane struct {
	inner      plane.Plane
	writesLeft int
	tripped    bool
}

func (f *faultPlane) Write(p *sim.Proc, off, length int64, data []byte, cmdUnit int64) error {
	if f.tripped {
		return nil // crashed: nothing reaches the device
	}
	if f.writesLeft <= 0 {
		f.tripped = true
		return nil
	}
	f.writesLeft--
	return f.inner.Write(p, off, length, data, cmdUnit)
}

func (f *faultPlane) Read(p *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error) {
	return f.inner.Read(p, off, length, cmdUnit)
}

func (f *faultPlane) Flush(p *sim.Proc) error {
	if f.tripped {
		return nil
	}
	return f.inner.Flush(p)
}

func (f *faultPlane) Size() int64 { return f.inner.Size() }

// TestCrashDuringSnapshotKeepsOldSnapshot injects a crash after the new
// snapshot body has partially landed but before the header commits: the
// A/B slot scheme must leave the previous snapshot fully usable.
func TestCrashDuringSnapshotKeepsOldSnapshot(t *testing.T) {
	r := newRig(t, nil)
	payload := bytes.Repeat([]byte("S"), 128*1024)
	r.run(t, func(p *sim.Proc) {
		// Phase 1: a healthy instance writes a file and snapshots.
		f, err := r.inst.Open(p, "/committed.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		vfs.WriteAll(p, f, payload, 32*model.KB)
		f.Close(p)
		if err := r.inst.SnapshotNow(p); err != nil {
			t.Fatal(err)
		}

		// Phase 2: rebuild an instance over the same partition whose
		// plane drops every write after a handful — the second
		// snapshot's body lands partially, its header never commits.
		acct := &vfs.Account{}
		base, err := newTestPlane(r, acct)
		if err != nil {
			t.Fatal(err)
		}
		// Budget: create logs a page (1 write; faultPlane is no
		// plane.Charger, so the directory's tail block is not charged),
		// the data write logs a page + one extent (2 more), the snapshot
		// body is the 4th — the header commit is the first dropped write.
		fp := &faultPlane{inner: base, writesLeft: 4}
		cfg := r.cfg
		cfg.Plane = fp
		cfg.Account = acct
		crashy, err := New(r.env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := crashy.Recover(p); err != nil {
			t.Fatalf("pre-crash recovery: %v", err)
		}
		g, err := crashy.Open(p, "/in-flight.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		g.WriteN(p, 64*model.KB)
		g.Close(p)
		// This snapshot's device writes get cut off mid-body.
		if err := crashy.SnapshotNow(p); err != nil {
			t.Fatal(err)
		}
		if !fp.tripped {
			t.Fatal("fault plane never tripped; test is not exercising the crash")
		}

		// Phase 3: a fresh runtime recovers from the device. The old
		// snapshot (slot A) must still be intact, and the committed
		// file fully readable.
		fresh := r.freshInstance(t)
		if err := fresh.Recover(p); err != nil {
			t.Fatalf("post-crash recovery: %v", err)
		}
		h, err := fresh.Open(p, "/committed.dat", vfs.O_RDONLY, 0)
		if err != nil {
			t.Fatalf("committed file lost after crashed snapshot: %v", err)
		}
		buf := make([]byte, len(payload))
		n, err := h.Read(p, buf)
		if err != nil || n != len(payload) || !bytes.Equal(buf, payload) {
			t.Fatalf("committed content corrupt after crashed snapshot (n=%d err=%v)", n, err)
		}
		h.Close(p)
	})
}

// TestAlternatingSnapshotsUseBothSlots verifies the A/B rotation.
func TestAlternatingSnapshotsUseBothSlots(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		slots := map[int]bool{}
		for i := 0; i < 4; i++ {
			f, err := r.inst.Open(p, fmt.Sprintf("/f%d", i), vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteN(p, 32*model.KB)
			f.Close(p)
			if err := r.inst.SnapshotNow(p); err != nil {
				t.Fatal(err)
			}
			slots[r.inst.snapSlot] = true
		}
		if !slots[0] || !slots[1] {
			t.Errorf("snapshots used slots %v, want both", slots)
		}
		// Recovery after multiple rotations still lands on the latest.
		fresh := r.freshInstance(t)
		if err := fresh.Recover(p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := fresh.Stat(p, fmt.Sprintf("/f%d", i)); err != nil {
				t.Errorf("file %d missing after rotated-slot recovery: %v", i, err)
			}
		}
	})
}

// TestCrashMidWriteRecoversConsistentPrefix injects a crash during data
// writes: recovery must come up clean (the WAL may reference an extent
// whose data never landed — the file exists with its logged size, which
// is exactly the paper's guarantee: metadata is always consistent, and a
// *completely written* checkpoint is never corrupt).
func TestCrashMidWriteRecoversConsistentPrefix(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		acct := &vfs.Account{}
		base, err := newTestPlane(r, acct)
		if err != nil {
			t.Fatal(err)
		}
		fp := &faultPlane{inner: base, writesLeft: 20}
		cfg := r.cfg
		cfg.Plane = fp
		cfg.Account = acct
		crashy, err := New(r.env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := crashy.Open(p, "/dump.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		// Write until well past the trip point.
		for i := 0; i < 64; i++ {
			f.WriteN(p, 32*model.KB)
		}
		f.Close(p)
		if !fp.tripped {
			t.Fatal("fault plane never tripped")
		}
		fresh := r.freshInstance(t)
		if err := fresh.Recover(p); err != nil {
			t.Fatalf("recovery after mid-write crash: %v", err)
		}
		// The namespace is consistent: the file exists and is
		// readable end to end without errors.
		fi, err := fresh.Stat(p, "/dump.dat")
		if err != nil {
			t.Fatalf("file missing after mid-write crash: %v", err)
		}
		g, err := fresh.Open(p, "/dump.dat", vfs.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := vfs.ReadAllN(p, g, fi.Size, 32*model.KB)
		if err != nil || got != fi.Size {
			t.Fatalf("read %d of %d after crash: %v", got, fi.Size, err)
		}
		g.Close(p)
	})
}
