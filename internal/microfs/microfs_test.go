package microfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/nvme"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/spdk"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// rig is a one-process test rig: device + SPDK plane + instance.
type rig struct {
	env  *sim.Env
	dev  *nvme.Device
	ns   *nvme.Namespace
	inst *Instance
	cfg  Config
}

func newRig(t testing.TB, mutate func(*Config)) *rig {
	t.Helper()
	return newRigSized(t, 64*model.MB, mutate)
}

// newRigSized is newRig over a partition of the given size.
func newRigSized(t testing.TB, partition int64, mutate func(*Config)) *rig {
	t.Helper()
	env := sim.NewEnv()
	params := model.Default()
	params.SSD.CapacityGB = 1
	dev := nvme.New(env, "ssd0", params.SSD, true)
	ns, err := dev.CreateNamespace(partition)
	if err != nil {
		t.Fatal(err)
	}
	acct := &vfs.Account{}
	pl, err := spdk.NewPlane(ns, 0, ns.Size(), params.Host, acct)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Plane:     pl,
		Host:      params.Host,
		Features:  AllFeatures(),
		LogBytes:  256 * model.KB,
		SnapBytes: 1 * model.MB,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	inst, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{env: env, dev: dev, ns: ns, inst: inst, cfg: cfg}
}

// run executes fn as a sim process and drives the sim to completion.
func (r *rig) run(t testing.TB, fn func(p *sim.Proc)) time.Duration {
	t.Helper()
	r.env.Go("test", fn)
	end, err := r.env.Run()
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	return end
}

// newTestPlane opens another plane over the rig's namespace (a
// restarted process re-mapping its partition).
func newTestPlane(r *rig, acct *vfs.Account) (*spdk.Plane, error) {
	return spdk.NewPlane(r.ns, 0, r.ns.Size(), model.Default().Host, acct)
}

// freshInstance builds a second instance over the same partition (a
// restarted runtime after a crash).
func (r *rig) freshInstance(t testing.TB) *Instance {
	t.Helper()
	inst, err := New(r.env, r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		f, err := r.inst.Open(p, "/ckpt.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte("molecular-dynamics-state-"), 4096) // ~100 KB
		if _, err := vfs.WriteAll(p, f, payload, 32*model.KB); err != nil {
			t.Fatal(err)
		}
		if err := f.Fsync(p); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
		g, err := r.inst.Open(p, "/ckpt.dat", vfs.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(payload))
		n, err := g.Read(p, buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(payload) || !bytes.Equal(buf[:n], payload) {
			t.Fatalf("read %d bytes, mismatch=%v", n, !bytes.Equal(buf[:n], payload))
		}
		g.Close(p)
	})
}

func TestMkdirHierarchy(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		if err := r.inst.Mkdir(p, "/a", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := r.inst.Mkdir(p, "/a/b", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := r.inst.Mkdir(p, "/missing/child", 0o755); err == nil {
			t.Error("mkdir with missing parent succeeded")
		}
		if err := r.inst.Mkdir(p, "/a", 0o755); err != vfs.ErrExist {
			t.Errorf("duplicate mkdir err = %v", err)
		}
		fi, err := r.inst.Stat(p, "/a/b")
		if err != nil || !fi.IsDir {
			t.Errorf("Stat(/a/b) = %+v, %v", fi, err)
		}
		// Files under directories.
		f, err := r.inst.Open(p, "/a/b/f.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.Close(p)
		if _, err := r.inst.Open(p, "/a/b/f.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644); err != vfs.ErrExist {
			t.Errorf("duplicate create err = %v", err)
		}
	})
}

func TestPathValidation(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		for _, bad := range []string{"", "relative", "/a//b", "/a/../b"} {
			if _, err := r.inst.Open(p, bad, vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644); err == nil {
				t.Errorf("path %q accepted", bad)
			}
		}
		// Trailing slash is normalized.
		if err := r.inst.Mkdir(p, "/dir/", 0o755); err != nil {
			t.Errorf("trailing slash rejected: %v", err)
		}
		if _, err := r.inst.Stat(p, "/dir"); err != nil {
			t.Errorf("normalized path not found: %v", err)
		}
	})
}

func TestOpenSemantics(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		if _, err := r.inst.Open(p, "/nope", vfs.O_RDONLY, 0); err != vfs.ErrNotExist {
			t.Errorf("open missing err = %v", err)
		}
		r.inst.Mkdir(p, "/d", 0o755)
		if _, err := r.inst.Open(p, "/d", vfs.O_RDONLY, 0); err != vfs.ErrIsDir {
			t.Errorf("open dir err = %v", err)
		}
		f, _ := r.inst.Open(p, "/writeonly", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o200)
		f.Close(p)
		if _, err := r.inst.Open(p, "/writeonly", vfs.O_RDONLY, 0); err != vfs.ErrPerm {
			t.Errorf("read of 0200 file err = %v", err)
		}
		g, _ := r.inst.Open(p, "/readonly", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o444)
		g.Close(p)
		if _, err := r.inst.Open(p, "/readonly", vfs.O_WRONLY, 0); err != vfs.ErrPerm {
			t.Errorf("write of 0444 file err = %v", err)
		}
		// Read-only handle rejects writes.
		h, err := r.inst.Open(p, "/readonly", vfs.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Write(p, []byte("x")); err != vfs.ErrReadOnly {
			t.Errorf("write on RO handle err = %v", err)
		}
		h.Close(p)
	})
}

func TestClosedHandleRejected(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.inst.Open(p, "/f", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		f.Close(p)
		if _, err := f.Write(p, []byte("x")); err != vfs.ErrClosed {
			t.Errorf("write after close err = %v", err)
		}
		if err := f.Close(p); err != vfs.ErrClosed {
			t.Errorf("double close err = %v", err)
		}
		if err := f.Fsync(p); err != vfs.ErrClosed {
			t.Errorf("fsync after close err = %v", err)
		}
	})
}

func TestSeekOverwrite(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.inst.Open(p, "/f", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		f.Write(p, []byte("aaaaaaaaaa"))
		f.SeekTo(3)
		f.Write(p, []byte("BBB"))
		f.Close(p)
		g, _ := r.inst.Open(p, "/f", vfs.O_RDONLY, 0)
		buf := make([]byte, 10)
		n, _ := g.Read(p, buf)
		if n != 10 || string(buf) != "aaaBBBaaaa" {
			t.Errorf("read %q (%d)", buf[:n], n)
		}
		g.Close(p)
	})
}

func TestUnlinkFreesBlocks(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		// Warm the root directory file so its entry block is already
		// allocated (directory entries are tombstoned, not reclaimed).
		w, _ := r.inst.Open(p, "/warm", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		w.Close(p)
		free0 := r.inst.Pool().Free()
		f, _ := r.inst.Open(p, "/big", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		f.WriteN(p, 1*model.MB)
		f.Close(p)
		if r.inst.Pool().Free() >= free0 {
			t.Fatal("write did not consume blocks")
		}
		if err := r.inst.Unlink(p, "/big"); err != nil {
			t.Fatal(err)
		}
		// The directory entry block stays allocated; data blocks return.
		if got := r.inst.Pool().Free(); got != free0 {
			t.Errorf("free = %d, want %d after unlink", got, free0)
		}
		if _, err := r.inst.Stat(p, "/big"); err != vfs.ErrNotExist {
			t.Errorf("stat after unlink err = %v", err)
		}
		if err := r.inst.Unlink(p, "/big"); err != vfs.ErrNotExist {
			t.Errorf("double unlink err = %v", err)
		}
		r.inst.Mkdir(p, "/d", 0o755)
		if err := r.inst.Unlink(p, "/d"); err != vfs.ErrIsDir {
			t.Errorf("unlink dir err = %v", err)
		}
	})
}

func TestReadEOF(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.inst.Open(p, "/f", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		f.Write(p, []byte("12345"))
		f.Close(p)
		g, _ := r.inst.Open(p, "/f", vfs.O_RDONLY, 0)
		buf := make([]byte, 100)
		n, err := g.Read(p, buf)
		if err != nil || n != 5 {
			t.Errorf("short read = %d, %v", n, err)
		}
		n, err = g.Read(p, buf)
		if err != nil || n != 0 {
			t.Errorf("EOF read = %d, %v", n, err)
		}
		g.Close(p)
	})
}

func TestOpenFilesTracking(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		if r.inst.OpenFiles() != 0 {
			t.Fatal("fresh instance has open files")
		}
		f, _ := r.inst.Open(p, "/a", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		g, _ := r.inst.Open(p, "/b", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if r.inst.OpenFiles() != 2 {
			t.Errorf("OpenFiles = %d, want 2", r.inst.OpenFiles())
		}
		f.Close(p)
		g.Close(p)
		if r.inst.OpenFiles() != 0 {
			t.Errorf("OpenFiles = %d after closes", r.inst.OpenFiles())
		}
	})
}

func TestKernelTimeIsZeroForUserspacePath(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.inst.Open(p, "/f", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		f.WriteN(p, 4*model.MB)
		f.Fsync(p)
		f.Close(p)
	})
	_, kernel, _ := r.inst.Account().Totals()
	if kernel != 0 {
		t.Errorf("kernel time = %v on pure userspace path", kernel)
	}
}

func TestCoalescingKeepsLogSmall(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.inst.Open(p, "/ckpt", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		vfs.WriteAllN(p, f, 8*model.MB, 32*model.KB) // 256 sequential writes
		f.Close(p)
	})
	if recs := r.inst.Log().Records(); recs > 3 {
		t.Errorf("log holds %d records; sequential writes should coalesce to ~2", recs)
	}
	_, coalesced, _, _ := r.inst.Log().Stats()
	if coalesced < 250 {
		t.Errorf("coalesced = %d, want ~255", coalesced)
	}
}

func TestRecoveryFromSnapshotAndLog(t *testing.T) {
	r := newRig(t, nil)
	payloadA := bytes.Repeat([]byte("A0"), 50*1024) // 100 KB
	payloadB := bytes.Repeat([]byte("B1"), 40*1024) // 80 KB
	r.run(t, func(p *sim.Proc) {
		r.inst.Mkdir(p, "/ckpt", 0o755)
		f, err := r.inst.Open(p, "/ckpt/step1.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		vfs.WriteAll(p, f, payloadA, 32*model.KB)
		f.Close(p)
		// Snapshot folds step1 into the metadata checkpoint.
		if err := r.inst.SnapshotNow(p); err != nil {
			t.Fatal(err)
		}
		// step2 exists only in the post-snapshot log.
		g, err := r.inst.Open(p, "/ckpt/step2.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		vfs.WriteAll(p, g, payloadB, 32*model.KB)
		g.Close(p)

		// Crash: all DRAM state is lost; a fresh runtime recovers from
		// the SSD alone.
		inst2 := r.freshInstance(t)
		if err := inst2.Recover(p); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		for _, tc := range []struct {
			path string
			want []byte
		}{
			{"/ckpt/step1.dat", payloadA},
			{"/ckpt/step2.dat", payloadB},
		} {
			fi, err := inst2.Stat(p, tc.path)
			if err != nil {
				t.Fatalf("Stat(%s) after recovery: %v", tc.path, err)
			}
			if fi.Size != int64(len(tc.want)) {
				t.Fatalf("%s size = %d, want %d", tc.path, fi.Size, len(tc.want))
			}
			h, err := inst2.Open(p, tc.path, vfs.O_RDONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, len(tc.want))
			n, err := h.Read(p, buf)
			if err != nil || n != len(tc.want) {
				t.Fatalf("read %s: %d, %v", tc.path, n, err)
			}
			if !bytes.Equal(buf, tc.want) {
				t.Fatalf("%s content mismatch after recovery", tc.path)
			}
			h.Close(p)
		}
		// The recovered instance keeps working: new files land fine.
		h, err := inst2.Open(p, "/ckpt/step3.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Fatalf("create after recovery: %v", err)
		}
		h.Write(p, []byte("post-recovery"))
		h.Close(p)
	})
}

func TestRecoveryLogOnlyNoSnapshot(t *testing.T) {
	r := newRig(t, nil)
	payload := bytes.Repeat([]byte("Z9"), 30*1024)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.inst.Open(p, "/only-log.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		vfs.WriteAll(p, f, payload, 32*model.KB)
		f.Close(p)
		inst2 := r.freshInstance(t)
		if err := inst2.Recover(p); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		h, err := inst2.Open(p, "/only-log.dat", vfs.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(payload))
		n, _ := h.Read(p, buf)
		if n != len(payload) || !bytes.Equal(buf, payload) {
			t.Fatal("content mismatch after log-only recovery")
		}
		h.Close(p)
	})
}

func TestRecoveryAfterUnlink(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.inst.Open(p, "/temp.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		f.WriteN(p, 64*model.KB)
		f.Close(p)
		r.inst.Unlink(p, "/temp.dat")
		g, _ := r.inst.Open(p, "/keep.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		g.Write(p, []byte("keep me"))
		g.Close(p)
		inst2 := r.freshInstance(t)
		if err := inst2.Recover(p); err != nil {
			t.Fatal(err)
		}
		if _, err := inst2.Stat(p, "/temp.dat"); err != vfs.ErrNotExist {
			t.Errorf("unlinked file resurfaced: %v", err)
		}
		h, err := inst2.Open(p, "/keep.dat", vfs.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 7)
		h.Read(p, buf)
		if string(buf) != "keep me" {
			t.Errorf("content = %q", buf)
		}
		h.Close(p)
	})
}

func TestBackgroundSnapshotTriggers(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.LogBytes = 8 * model.KB // small log so the threshold trips
		c.SnapThreshold = 0.3
		c.NoCoalesce = true // force the log to fill
	})
	r.inst.StartBackground()
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			f, err := r.inst.Open(p, fmt.Sprintf("/f%03d", i), vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteN(p, 64*model.KB)
			f.Close(p)
			p.Sleep(time.Millisecond) // compute phase; background thread runs
		}
		r.inst.StopBackground(p)
	})
	if r.inst.Stats().Snapshots == 0 {
		t.Error("background thread never snapshotted")
	}
}

func TestForcedSnapshotOnLogFull(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.LogBytes = 4 * model.KB
		c.NoCoalesce = true
	})
	r.run(t, func(p *sim.Proc) {
		// Far more records than a 4 KB log holds; forced snapshots
		// must reclaim space transparently.
		f, err := r.inst.Open(p, "/f", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			if _, err := f.WriteN(p, 4*model.KB); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			f.SeekTo(0) // non-sequential so records cannot coalesce
		}
		f.Close(p)
	})
	if r.inst.Stats().Snapshots == 0 {
		t.Error("log never forced a snapshot")
	}
}

func TestStatsCounting(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		r.inst.Mkdir(p, "/d", 0o755)
		f, _ := r.inst.Open(p, "/d/f", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		f.WriteN(p, 100)
		f.Close(p)
		g, _ := r.inst.Open(p, "/d/f", vfs.O_RDONLY, 0)
		g.ReadN(p, 100)
		g.Close(p)
		r.inst.Unlink(p, "/d/f")
	})
	s := r.inst.Stats()
	if s.Mkdirs != 1 || s.Creates != 1 || s.Opens != 1 || s.Unlinks != 1 || s.Writes != 1 || s.Reads != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.BytesWritten != 100 || s.BytesRead != 100 {
		t.Errorf("bytes = %d/%d", s.BytesWritten, s.BytesRead)
	}
}

func TestGlobalNamespaceSerializesMetadata(t *testing.T) {
	// Two instances sharing an emulated global namespace must
	// serialize their creates; private namespaces must not.
	elapsed := func(global bool) time.Duration {
		env := sim.NewEnv()
		params := model.Default()
		params.SSD.CapacityGB = 1
		dev := nvme.New(env, "ssd0", params.SSD, false)
		var gns *GlobalNamespace
		if global {
			gns = NewGlobalNamespace(env, 100*time.Microsecond)
		}
		wg := env.NewWaitGroup()
		for i := 0; i < 8; i++ {
			ns, err := dev.CreateNamespace(32 * model.MB)
			if err != nil {
				t.Fatal(err)
			}
			acct := &vfs.Account{}
			pl, err := spdk.NewPlane(ns, 0, ns.Size(), params.Host, acct)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := New(env, Config{
				Plane: pl, Host: params.Host, Features: AllFeatures(),
				LogBytes: 256 * model.KB, SnapBytes: 1 * model.MB, GlobalNS: gns,
			})
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			env.Go("client", func(p *sim.Proc) {
				defer wg.Done()
				for j := 0; j < 10; j++ {
					f, err := inst.Open(p, fmt.Sprintf("/f%02d", j), vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
					if err != nil {
						t.Error(err)
						return
					}
					f.Close(p)
				}
			})
		}
		end, err := env.Run()
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	private := elapsed(false)
	global := elapsed(true)
	if global < private*2 {
		t.Errorf("global namespace (%v) should be much slower than private (%v)", global, private)
	}
}

func TestModelRecoveryChargesTime(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.inst.Open(p, "/f", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		f.WriteN(p, 1*model.MB)
		f.Close(p)
		r.inst.SnapshotNow(p)
		t0 := p.Now()
		if err := r.inst.ModelRecovery(p); err != nil {
			t.Fatal(err)
		}
		if p.Now() == t0 {
			t.Error("ModelRecovery cost no time")
		}
	})
}

// TestRandomOpsAgainstReference drives random operations against an
// in-memory reference model, then crashes and recovers, and verifies
// both live and recovered state match the reference.
func TestRandomOpsAgainstReference(t *testing.T) {
	r := newRig(t, nil)
	rng := rand.New(rand.NewSource(1234))
	ref := map[string][]byte{} // path -> content
	r.run(t, func(p *sim.Proc) {
		var paths []string
		for op := 0; op < 120; op++ {
			switch rng.Intn(11) {
			case 0, 1, 2, 3: // create a new file with random content
				path := fmt.Sprintf("/file%04d", op)
				size := rng.Intn(200*1024) + 1
				data := make([]byte, size)
				rng.Read(data)
				f, err := r.inst.Open(p, path, vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := vfs.WriteAll(p, f, data, 32*model.KB); err != nil {
					t.Fatal(err)
				}
				f.Close(p)
				ref[path] = data
				paths = append(paths, path)
			case 4, 5: // overwrite a prefix of an existing file
				if len(paths) == 0 {
					continue
				}
				path := paths[rng.Intn(len(paths))]
				if ref[path] == nil {
					continue
				}
				n := rng.Intn(len(ref[path])) + 1
				data := make([]byte, n)
				rng.Read(data)
				f, err := r.inst.Open(p, path, vfs.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(p, data); err != nil {
					t.Fatal(err)
				}
				f.Close(p)
				copy(ref[path], data)
			case 6: // unlink
				if len(paths) == 0 {
					continue
				}
				path := paths[rng.Intn(len(paths))]
				if ref[path] == nil {
					continue
				}
				if err := r.inst.Unlink(p, path); err != nil {
					t.Fatal(err)
				}
				ref[path] = nil
			case 7: // periodic internal snapshot
				if err := r.inst.SnapshotNow(p); err != nil {
					t.Fatal(err)
				}
			case 8: // one session of writes at scattered 4 KiB-aligned offsets
				if len(paths) == 0 {
					continue
				}
				path := paths[rng.Intn(len(paths))]
				want := ref[path]
				if want == nil {
					continue
				}
				f, err := r.inst.Open(p, path, vfs.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				for k := rng.Intn(8) + 1; k > 0; k-- {
					off := int64(rng.Intn((len(want)+4095)/4096)) * 4096
					data := make([]byte, rng.Intn(16*1024)+1)
					rng.Read(data)
					if err := f.SeekTo(off); err != nil {
						t.Fatal(err)
					}
					if _, err := f.Write(p, data); err != nil {
						t.Fatal(err)
					}
					if end := off + int64(len(data)); end > int64(len(want)) {
						want = append(want, make([]byte, end-int64(len(want)))...)
					}
					copy(want[off:], data)
				}
				if err := f.Fsync(p); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(p); err != nil {
					t.Fatal(err)
				}
				ref[path] = want
				g, err := r.inst.Open(p, path, vfs.O_RDONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, len(want))
				if n, err := g.Read(p, buf); err != nil || n != len(want) || !bytes.Equal(buf, want) {
					t.Fatalf("%s after scattered writes: read %d, %v; content equal %v", path, n, err, bytes.Equal(buf, want))
				}
				g.Close(p)
			default: // stat everything
				for path, want := range ref {
					fi, err := r.inst.Stat(p, path)
					if want == nil {
						if err != vfs.ErrNotExist {
							t.Fatalf("Stat(%s) = %v, want ErrNotExist", path, err)
						}
						continue
					}
					if err != nil || fi.Size != int64(len(want)) {
						t.Fatalf("Stat(%s) = %+v, %v; want size %d", path, fi, err, len(want))
					}
				}
			}
		}
		// Crash and recover; verify the full reference.
		inst2 := r.freshInstance(t)
		if err := inst2.Recover(p); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		for path, want := range ref {
			if want == nil {
				if _, err := inst2.Stat(p, path); err != vfs.ErrNotExist {
					t.Fatalf("deleted %s resurfaced: %v", path, err)
				}
				continue
			}
			f, err := inst2.Open(p, path, vfs.O_RDONLY, 0)
			if err != nil {
				t.Fatalf("Open(%s) after recovery: %v", path, err)
			}
			buf := make([]byte, len(want))
			n, err := f.Read(p, buf)
			if err != nil || n != len(want) {
				t.Fatalf("Read(%s) = %d, %v", path, n, err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("%s content mismatch after random-op recovery", path)
			}
			f.Close(p)
		}
	})
}
