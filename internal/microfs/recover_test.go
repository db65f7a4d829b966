package microfs

import (
	"fmt"
	"strings"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/vfs"
	"github.com/nvme-cr/nvmecr/internal/wal"
)

// logReadPlane counts the bytes read from the log region.
type logReadPlane struct {
	plane.Plane
	logBytes, logRead int64
}

func (c *logReadPlane) Read(p *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error) {
	if off < c.logBytes {
		c.logRead += length
	}
	return c.Plane.Read(p, off, length, cmdUnit)
}

// metaOf renders everything Recover rebuilds, modification stamps aside
// (replay restamps them): namespace, inodes with their block lists, the
// allocator and the log position.
func metaOf(inst *Instance) string {
	var b strings.Builder
	inst.tree.Ascend(func(path string, id uint64) bool {
		ino := inst.inodes[id]
		fmt.Fprintf(&b, "%s ino=%d size=%d mode=%o dir=%v blocks=%v\n", path, id, ino.size, ino.mode, ino.isDir, ino.blocks)
		return true
	})
	fmt.Fprintf(&b, "nextIno=%d pool=%+v log=%d/%d/%d snap=%d/%d\n", inst.nextIno, inst.pool.Snapshot(),
		inst.log.Epoch(), inst.log.Head(), inst.log.Records(), inst.snapSlot, inst.snapLen)
	return b.String()
}

// TestRecoverReadsTheLiveLog: Recover reads the log region in doubling
// chunks and stops where the live log ends, and what it rebuilds is what
// the crashed instance held — the same records a read of the whole
// region decodes.
func TestRecoverReadsTheLiveLog(t *testing.T) {
	const logBytes = 1 * model.MB
	create := func(t *testing.T, p *sim.Proc, inst *Instance, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			f, err := inst.Open(p, fmt.Sprintf("/%04d-%s", i, strings.Repeat("n", 200)), vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(p, []byte("payload")); err != nil {
				t.Fatal(err)
			}
			f.Close(p)
		}
	}
	for _, tc := range []struct {
		name     string
		ops      func(t *testing.T, p *sim.Proc, inst *Instance)
		wantRead int64
	}{
		{"nothing logged", func(*testing.T, *sim.Proc, *Instance) {}, 64 * model.KB},
		{"a few records", func(t *testing.T, p *sim.Proc, inst *Instance) { create(t, p, inst, 0, 3) }, 64 * model.KB},
		{"past the first chunk", func(t *testing.T, p *sim.Proc, inst *Instance) { create(t, p, inst, 0, 300) }, 192 * model.KB},
		{"past the second chunk", func(t *testing.T, p *sim.Proc, inst *Instance) { create(t, p, inst, 0, 800) }, 448 * model.KB},
		{"new epoch over a long stale one", func(t *testing.T, p *sim.Proc, inst *Instance) {
			create(t, p, inst, 0, 300)
			if err := inst.SnapshotNow(p); err != nil {
				t.Fatal(err)
			}
			create(t, p, inst, 300, 303)
		}, 64 * model.KB},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var counter *logReadPlane
			r := newRig(t, func(cfg *Config) {
				cfg.LogBytes = logBytes
				cfg.SnapBytes = 2 * model.MB
				counter = &logReadPlane{Plane: cfg.Plane, logBytes: logBytes}
				cfg.Plane = counter
			})
			r.run(t, func(p *sim.Proc) {
				tc.ops(t, p, r.inst)
				counter.logRead = 0
				fresh := r.freshInstance(t)
				if err := fresh.Recover(p); err != nil {
					t.Fatal(err)
				}
				if counter.logRead != tc.wantRead {
					t.Errorf("Recover read %d bytes of the log region (live log: %d), want %d",
						counter.logRead, r.inst.log.Head(), tc.wantRead)
				}
				if got, want := metaOf(fresh), metaOf(r.inst); got != want {
					t.Errorf("recovered metadata differs from the crashed instance's:\n got %s\nwant %s", got, want)
				}
				// Reference: the whole region in one read.
				whole, err := r.cfg.Plane.Read(p, 0, logBytes, 0)
				if err != nil {
					t.Fatal(err)
				}
				ref, _ := wal.DecodeLocated(whole, fresh.log.Epoch())
				if int64(len(ref)) != fresh.log.Records() {
					t.Errorf("Recover loaded %d records, a full-region read decodes %d", fresh.log.Records(), len(ref))
				}
				// The recovered instance logs on where the crashed one stopped.
				create(t, p, fresh, 9000, 9001)
				again := r.freshInstance(t)
				if err := again.Recover(p); err != nil {
					t.Fatal(err)
				}
				if got, want := metaOf(again), metaOf(fresh); got != want {
					t.Errorf("second recovery differs:\n got %s\nwant %s", got, want)
				}
			})
		})
	}
}
