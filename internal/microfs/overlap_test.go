package microfs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/vfs"
	"github.com/nvme-cr/nvmecr/internal/wal"
)

// slowSnapPlane delays every write into the snapshot region by 1 ms, so
// that a snapshot outlasts the operations that arrive during it, and every
// write into the log region by logDelay. header, when set, is fired as a
// snapshot header's write begins.
type slowSnapPlane struct {
	plane.Plane
	logBytes, snapEnd int64
	logDelay          time.Duration
	header            *sim.Signal
}

func (s *slowSnapPlane) Write(p *sim.Proc, off, length int64, data []byte, cmdUnit int64) error {
	if off == s.logBytes && s.header != nil {
		s.header.Fire()
	}
	switch {
	case off < s.logBytes:
		p.Sleep(s.logDelay)
	case off < s.snapEnd:
		p.Sleep(time.Millisecond)
	}
	return s.Plane.Write(p, off, length, data, cmdUnit)
}

// newSlowSnapRig is newRig over a slowSnapPlane.
func newSlowSnapRig(t *testing.T) (*rig, *slowSnapPlane) {
	var slow *slowSnapPlane
	r := newRig(t, func(cfg *Config) {
		slow = &slowSnapPlane{Plane: cfg.Plane, logBytes: cfg.LogBytes, snapEnd: cfg.LogBytes + cfg.SnapBytes}
		cfg.Plane = slow
	})
	return r, slow
}

// snapshotIn starts SnapshotNow in a process of its own.
func snapshotIn(t *testing.T, r *rig) {
	r.env.Go("snapshot", func(q *sim.Proc) {
		if err := r.inst.SnapshotNow(q); err != nil {
			t.Errorf("SnapshotNow: %v", err)
		}
	})
}

// recovered reads path back from a fresh instance over r's partition.
func recovered(t *testing.T, p *sim.Proc, r *rig, path string) []byte {
	t.Helper()
	fresh := r.freshInstance(t)
	if err := fresh.Recover(p); err != nil {
		t.Fatal(err)
	}
	return readBack(t, p, fresh, path)
}

// TestSnapshotOutlivesOverlappingOp is ROADMAP hazard 2 (c): a snapshot
// started while another process is inside an operation. When the two
// could interleave, the snapshot outlived the rename and wrote the log on
// the writer's behalf; with one "current process" kept as a stack, it
// reported /g's pending extension as written without sending it
// ("recovered /g: 1024 bytes, want 8192"). Now the snapshot waits for the
// rename and runs once the writer sleeps outside the instance. Break-demo:
// Rename without enter lets the snapshot build its image before the
// rename is logged, and its reset drops the record:
//
//	recovered /b: vfs: file does not exist
func TestSnapshotOutlivesOverlappingOp(t *testing.T) {
	r, _ := newSlowSnapRig(t)
	payload := seeded(7, 8<<10)
	r.run(t, func(p *sim.Proc) {
		f := mustOpen(t, p, r.inst, "/a", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL)
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
		snapshotIn(t, r) // arrives at the rename's first sleep
		if err := r.inst.Rename(p, "/a", "/b"); err != nil {
			t.Fatal(err)
		}
		if r.inst.Stats().Snapshots != 0 {
			t.Error("the snapshot ran inside the rename")
		}
		g := mustOpen(t, p, r.inst, "/g", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL)
		if _, err := vfs.WriteAll(p, g, payload, 1024); err != nil {
			t.Fatal(err)
		}
		p.Sleep(10 * time.Millisecond) // the snapshot folds the log meanwhile
		if r.inst.Stats().Snapshots != 1 {
			t.Fatal("the snapshot did not finish while the writer slept")
		}
		if err := g.Fsync(p); err != nil {
			t.Fatal(err)
		}
		fresh := r.freshInstance(t)
		if err := fresh.Recover(p); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.Stat(p, "/b"); err != nil {
			t.Errorf("recovered /b: %v", err)
		}
		if got := readBack(t, p, fresh, "/g"); !bytes.Equal(got, payload) {
			t.Errorf("recovered /g: %d bytes, want %d", len(got), len(payload))
		}
	})
}

// TestSnapshotMeetsExtension is ROADMAP hazard 2 (a): a write arriving
// while a snapshot writes its body. When the two could interleave, the
// write extended a record below the head the image was built at, and the
// snapshot's reset dropped the extension, or replay from the snapshot's
// log offset skipped it. Now the append waits for the snapshot and lands
// in the log the snapshot leaves behind. Break-demo: Open and write
// without enter, and in both subtests:
//
//	the append did not wait for the snapshot
//	recovered /f: 4096 bytes, want 8192
func TestSnapshotMeetsExtension(t *testing.T) {
	for _, tc := range []struct {
		name   string
		create bool
	}{{"extension only", false}, {"and a create", true}} {
		t.Run(tc.name, func(t *testing.T) {
			r, _ := newSlowSnapRig(t)
			payload := seeded(8, 8<<10)
			r.run(t, func(p *sim.Proc) {
				f := mustOpen(t, p, r.inst, "/f", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL)
				if _, err := f.Write(p, payload[:4<<10]); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(p); err != nil {
					t.Fatal(err)
				}
				snapshotIn(t, r)
				p.Sleep(100 * time.Microsecond) // the snapshot is writing its body
				f = mustOpen(t, p, r.inst, "/f", vfs.O_WRONLY|vfs.O_APPEND)
				if _, err := f.Write(p, payload[4<<10:]); err != nil {
					t.Fatal(err)
				}
				if r.inst.Stats().Snapshots != 1 {
					t.Error("the append did not wait for the snapshot")
				}
				if tc.create {
					mustOpen(t, p, r.inst, "/h", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL).Close(p)
				}
				p.Sleep(10 * time.Millisecond)
				if r.inst.Stats().Snapshots != 1 {
					t.Fatal("the snapshot did not finish while the writer slept")
				}
				if err := f.Fsync(p); err != nil {
					t.Fatal(err)
				}
				if got := recovered(t, p, r, "/f"); !bytes.Equal(got, payload) {
					t.Errorf("recovered /f: %d bytes, want %d", len(got), len(payload))
				}
			})
		})
	}
}

// TestSnapshotMeetsAppendInFlight: a snapshot that arrives while a
// record's page write is in flight. When the two could interleave, the
// snapshot built its image without the operation the record logs and,
// with its reset, dropped a record about to be acknowledged: it landed in the
// old epoch, and the Append returning into the reset log left its head
// past bytes it never encoded, so the next records were lost too. Now the
// snapshot waits for the mkdir, and its header reaches the device after
// the mkdir's log page. Break-demo: Mkdir without enter:
//
//	the snapshot ran during the mkdir's log write
//	vfs: file does not exist
func TestSnapshotMeetsAppendInFlight(t *testing.T) {
	r, slow := newSlowSnapRig(t)
	payload := seeded(10, 4<<10)
	r.run(t, func(p *sim.Proc) {
		mustOpen(t, p, r.inst, "/a", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL).Close(p)
		slow.logDelay = 5 * time.Millisecond // outlasts the snapshot's body write
		snapshotIn(t, r)                     // arrives at the mkdir's first sleep
		if err := r.inst.Mkdir(p, "/d", 0o755); err != nil {
			t.Fatal(err)
		}
		slow.logDelay = 0
		if r.inst.Stats().Snapshots != 0 {
			t.Error("the snapshot ran during the mkdir's log write")
		}
		p.Sleep(10 * time.Millisecond)
		if r.inst.Stats().Snapshots != 1 {
			t.Fatal("the snapshot did not run once the mkdir returned")
		}
		f := mustOpen(t, p, r.inst, "/d/e", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL)
		if _, err := f.Write(p, payload); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
		if got := recovered(t, p, r, "/d/e"); !bytes.Equal(got, payload) {
			t.Errorf("recovered /d/e: %d bytes, want %d", len(got), len(payload))
		}
	})
}

// TestSnapshotMeetsAppendAtHeader: a record logged while a snapshot's
// header write is in flight. When the two could interleave, the record
// landed in the epoch the header retires and was acknowledged; the
// snapshot's reset then dropped it. Now the mkdir waits for the snapshot.
// Break-demo: Mkdir without enter, and the recovered instance has no /d:
//
//	the mkdir did not wait for the snapshot
//	vfs: file does not exist
func TestSnapshotMeetsAppendAtHeader(t *testing.T) {
	r, slow := newSlowSnapRig(t)
	r.run(t, func(p *sim.Proc) {
		mustOpen(t, p, r.inst, "/a", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL).Close(p)
		slow.header = r.env.NewSignal()
		snapshotIn(t, r)
		slow.header.Wait(p) // the body is written, the header on its way
		slow.header = nil
		if err := r.inst.Mkdir(p, "/d", 0o755); err != nil {
			t.Fatal(err)
		}
		if r.inst.Stats().Snapshots != 1 {
			t.Error("the mkdir did not wait for the snapshot")
		}
		p.Sleep(10 * time.Millisecond)
		if r.inst.Stats().Snapshots != 1 {
			t.Fatal("the snapshot did not finish while the writer slept")
		}
		fresh := r.freshInstance(t)
		if err := fresh.Recover(p); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.Stat(p, "/d"); err != nil {
			t.Error(err)
		}
	})
}

// TestCheckpointShapeMeetsNoWait drives the checkpoint shape the runtime
// serves (comd.RankBody's, with files open together) with the background
// thread on: each epoch writes, fsyncs and closes N files, then computes.
// The thread wakes at the last close and snapshots during the compute
// phase, so no entry to the instance waits, the thread's included: the
// exclusion costs this shape nothing. Break-demo: a compute phase of
// 10 µs, shorter than a snapshot, and each later epoch's first Open
// queues behind one:
//
//	4 entries waited at the exclusion, want 0
func TestCheckpointShapeMeetsNoWait(t *testing.T) {
	const files, epochs, chunk = 4, 5, 16 << 10
	r := newRig(t, func(cfg *Config) {
		cfg.SnapThreshold = 0.001 // one epoch's records trip it
	})
	payload := seeded(11, 4*chunk)
	r.run(t, func(p *sim.Proc) {
		r.inst.StartBackground()
		for e := 0; e < epochs; e++ {
			open := make([]vfs.File, files)
			for i := range open {
				open[i] = mustOpen(t, p, r.inst, fmt.Sprintf("/rank0.ckpt%d.%d", e, i), vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL)
				if _, err := vfs.WriteAll(p, open[i], payload, chunk); err != nil {
					t.Fatal(err)
				}
				if err := open[i].Fsync(p); err != nil {
					t.Fatal(err)
				}
			}
			for _, f := range open {
				if err := f.Close(p); err != nil {
					t.Fatal(err)
				}
			}
			p.Sleep(50 * time.Millisecond) // compute phase
		}
		r.inst.StopBackground(p)
	})
	if n := r.inst.Stats().Snapshots; n != epochs {
		t.Errorf("%d snapshots, want one per epoch (%d)", n, epochs)
	}
	if r.inst.waits != 0 {
		t.Errorf("%d entries waited at the exclusion, want 0", r.inst.waits)
	}
}

// TestLogWriterAllocs guards the per-process log writer against costing
// the write path heap. With a pass-through WrapLogWrite, the benchmark's
// shape, a steady-state create, write, Fsync, Close, Rename and Unlink
// cycle allocated 81 times when the log's writer was built once, at New,
// and the instance tracked its current process instead; building the
// writer per log call costs two closures per Append or Sync, twelve a
// cycle.
func TestLogWriterAllocs(t *testing.T) {
	const parentAllocs = 81
	r := newRig(t, func(cfg *Config) {
		cfg.WrapLogWrite = func(w wal.WriteFunc) wal.WriteFunc {
			return func(off int64, data []byte) error { return w(off, data) }
		}
	})
	data := seeded(9, 4<<10)
	r.run(t, func(p *sim.Proc) {
		allocs := testing.AllocsPerRun(50, func() {
			f := mustOpen(t, p, r.inst, "/tmp", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL)
			if _, err := f.Write(p, data); err != nil {
				t.Fatal(err)
			}
			if err := f.Fsync(p); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(p); err != nil {
				t.Fatal(err)
			}
			if err := r.inst.Rename(p, "/tmp", "/ckpt"); err != nil {
				t.Fatal(err)
			}
			if err := r.inst.Unlink(p, "/ckpt"); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%.0f allocations per cycle", allocs)
		if allocs > parentAllocs {
			t.Errorf("%.0f allocations per cycle, want at most %d", allocs, parentAllocs)
		}
	})
}
