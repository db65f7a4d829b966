package microfs

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/blockpool"
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

// failOncePlane fails the first read at offset failAt.
type failOncePlane struct {
	plane.Plane
	failAt int64
	err    error
}

func (f *failOncePlane) Read(p *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error) {
	if off == f.failAt && f.err != nil {
		err := f.err
		f.err = nil
		return nil, err
	}
	return f.Plane.Read(p, off, length, cmdUnit)
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

// TestRecoverRetryAfterReadError: the log is replayed as it is read, so a
// read that fails in the middle of it fails a Recover that has already
// rebuilt part of the namespace. Recover starts from nothing each time:
// called again on the same instance it ends where a Recover that never
// failed ends.
func TestRecoverRetryAfterReadError(t *testing.T) {
	r := newRig(t, func(cfg *Config) {
		cfg.LogBytes = 1 * model.MB
		cfg.SnapBytes = 2 * model.MB
	})
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 300; i++ { // past the first chunk
			f, err := r.inst.Open(p, fmt.Sprintf("/%04d-%s", i, strings.Repeat("n", 200)), vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.Close(p)
		}
		ref := r.freshInstance(t)
		if err := ref.Recover(p); err != nil {
			t.Fatal(err)
		}
		readErr := errors.New("second chunk unreadable")
		cfg := r.cfg
		cfg.Plane = &failOncePlane{Plane: cfg.Plane, failAt: 64 * model.KB, err: readErr}
		fresh, err := New(r.env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Recover(p); !errors.Is(err, readErr) {
			t.Fatalf("first Recover: %v, want the read error", err)
		}
		if n := fresh.tree.Len(); n < 100 || n >= 300 {
			t.Errorf("the failed Recover left %d names: the first chunk's records were not replayed as they were read", n)
		}
		if err := fresh.Recover(p); err != nil {
			t.Fatalf("second Recover: %v", err)
		}
		if got, want := metaOf(fresh), metaOf(ref); got != want || want != metaOf(r.inst) {
			t.Errorf("retried recovery differs from one that never failed:\n got %s\nwant %s", got, want)
		}
	})
}

// metaStorm leaves the log the benchmark's meta_storm workload crashes
// with, five epochs after a snapshot, 20 005 records: per epoch one
// directory, 1000 files of 2 KiB each created under a temporary name,
// written once and renamed into place, and the 1000 files of the epoch
// before last unlinked.
func metaStorm(t testing.TB, p *sim.Proc, inst *Instance) {
	t.Helper()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	name := func(gen, i int) string { return fmt.Sprintf("/gen%06d/f%04d-%08x.ckpt", gen, i, uint32(i)*2654435761) }
	for gen := 0; gen < 7; gen++ {
		if gen == 2 {
			check(inst.SnapshotNow(p))
		}
		check(inst.Mkdir(p, fmt.Sprintf("/gen%06d", gen), 0o755))
		for i := 0; i < 1000; i++ {
			f, err := inst.Open(p, name(gen, i)+".tmp", vfs.O_WRONLY|vfs.O_CREATE, 0o644)
			check(err)
			_, err = f.WriteN(p, 2048)
			check(err)
			check(f.Close(p))
			check(inst.Rename(p, name(gen, i)+".tmp", name(gen, i)))
		}
		for i := 0; gen >= 2 && i < 1000; i++ {
			check(inst.Unlink(p, name(gen-2, i)))
		}
	}
}

// BenchmarkRecover: New + Recover over the metaStorm log on the
// simulator's payload-capturing device, the cost per logged record in
// time and in heap bytes. As in the end-to-end benchmark no host cost is
// modelled: a charge per replayed record is a simulator event per record,
// which would be most of what is measured.
func BenchmarkRecover(b *testing.B) {
	r := newRigSized(b, 256*model.MB, func(cfg *Config) {
		cfg.Host = model.Host{}
		cfg.LogBytes = 0 // the 4 MB default, as the benchmark runs
		cfg.SnapBytes = 8 * model.MB
	})
	r.run(b, func(p *sim.Proc) {
		metaStorm(b, p, r.inst)
		records := r.inst.log.Records()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := r.freshInstance(b).Recover(p); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		n := float64(b.N) * float64(records)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/record")
		b.ReportMetric(float64(records), "records")
	})
}

// TestRecoverRefusesDuplicateFreeBlock: a snapshot whose body is
// CRC-valid but lists a free block twice is refused by Recover with
// blockpool.ErrBadState. Against the Restore that checked only the free
// list's length, Recover accepted it, and the pool would have handed the
// block to two files:
//
//	Recover over a free list naming block 2 twice: <nil>, want blockpool.ErrBadState
func TestRecoverRefusesDuplicateFreeBlock(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		f := mustOpen(t, p, r.inst, "/f", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL)
		if _, err := f.Write(p, seeded(12, 4<<10)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
		if err := r.inst.SnapshotNow(p); err != nil {
			t.Fatal(err)
		}
		// Rewrite the live snapshot with its second free block replaced by
		// its first, re-encoded and re-checksummed.
		hdr, err := r.cfg.Plane.Read(p, r.cfg.LogBytes, snapHeaderBytes, 0)
		if err != nil {
			t.Fatal(err)
		}
		slot := int(hdr[16])
		body, err := r.cfg.Plane.Read(p, r.inst.slotBase(slot), int64(binary.LittleEndian.Uint64(hdr[4:])), 0)
		if err != nil {
			t.Fatal(err)
		}
		var img snapImage
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&img); err != nil {
			t.Fatal(err)
		}
		dup := img.Pool.Free[0]
		img.Pool.Free[1] = dup
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&img); err != nil {
			t.Fatal(err)
		}
		body = buf.Bytes()
		binary.LittleEndian.PutUint64(hdr[4:], uint64(len(body)))
		binary.LittleEndian.PutUint32(hdr[12:], crc32.ChecksumIEEE(body))
		if err := r.cfg.Plane.Write(p, r.inst.slotBase(slot), int64(len(body)), body, 0); err != nil {
			t.Fatal(err)
		}
		if err := r.cfg.Plane.Write(p, r.cfg.LogBytes, snapHeaderBytes, hdr, 0); err != nil {
			t.Fatal(err)
		}
		if err := r.freshInstance(t).Recover(p); !errors.Is(err, blockpool.ErrBadState) {
			t.Errorf("Recover over a free list naming block %d twice: %v, want blockpool.ErrBadState", dup, err)
		}
	})
}
