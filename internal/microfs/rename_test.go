package microfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

func TestRenameCommitIdiom(t *testing.T) {
	// The atomic-checkpoint idiom: write to a temp name, fsync, rename
	// into place.
	r := newRig(t, nil)
	payload := bytes.Repeat([]byte("atomic"), 10000)
	r.run(t, func(p *sim.Proc) {
		f, err := r.inst.Open(p, "/ckpt.tmp", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		vfs.WriteAll(p, f, payload, 32*model.KB)
		f.Fsync(p)
		f.Close(p)
		if err := r.inst.Rename(p, "/ckpt.tmp", "/ckpt.dat"); err != nil {
			t.Fatal(err)
		}
		if _, err := r.inst.Stat(p, "/ckpt.tmp"); err != vfs.ErrNotExist {
			t.Errorf("old name still visible: %v", err)
		}
		g, err := r.inst.Open(p, "/ckpt.dat", vfs.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(payload))
		n, _ := g.Read(p, buf)
		if n != len(payload) || !bytes.Equal(buf, payload) {
			t.Fatal("content changed across rename")
		}
		g.Close(p)
	})
}

// recoversAfter recovers a fresh instance from r's device, as a crash
// right after a refused operation would, and checks that replay accepts
// every record and rebuilds exactly the names in want.
func recoversAfter(t *testing.T, r *rig, p *sim.Proc, refused string, want ...string) {
	t.Helper()
	fresh := r.freshInstance(t)
	if err := fresh.Recover(p); err != nil {
		t.Errorf("recover after %s: %v", refused, err)
		return
	}
	if got := fresh.tree.Len(); got != len(want)+1 { // + the root
		t.Errorf("recover after %s: %d names, want %d", refused, got-1, len(want))
	}
	for _, name := range want {
		if _, err := fresh.Stat(p, name); err != nil {
			t.Errorf("recover after %s: %s: %v", refused, name, err)
		}
	}
}

// TestRenameErrors: a refused rename changes nothing, in memory or in
// the log, so a recovery after each refusal replays cleanly. Each
// refusal gets its own device, so one refusal's record cannot hide
// another's.
func TestRenameErrors(t *testing.T) {
	for _, tc := range []struct {
		name     string
		from, to string
		want     error
	}{
		{"missing source", "/missing", "/x", vfs.ErrNotExist},
		{"onto an existing file", "/a", "/b", vfs.ErrExist},
		{"into a missing directory", "/a", "/nodir/x", vfs.ErrNotExist},
		{"of a directory", "/d", "/d2", vfs.ErrIsDir},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, nil)
			r.run(t, func(p *sim.Proc) {
				for _, name := range []string{"/a", "/b"} {
					f, err := r.inst.Open(p, name, vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
					if err != nil {
						t.Fatal(err)
					}
					f.Close(p)
				}
				if err := r.inst.Mkdir(p, "/d", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := r.inst.Rename(p, tc.from, tc.to); !errors.Is(err, tc.want) {
					t.Errorf("rename %s -> %s: %v, want %v", tc.from, tc.to, err, tc.want)
				}
				recoversAfter(t, r, p, "rename "+tc.name, "/a", "/b", "/d")
			})
		})
	}
}

// TestUnlinkDirectoryRefused: unlinking a directory is refused before
// anything is logged, so a recovery afterwards replays cleanly and keeps
// the directory.
func TestUnlinkDirectoryRefused(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		if err := r.inst.Mkdir(p, "/d", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := r.inst.Unlink(p, "/d"); err != vfs.ErrIsDir {
			t.Errorf("unlink directory: %v", err)
		}
		recoversAfter(t, r, p, "directory unlink", "/d")
	})
}

func TestRenameSurvivesRecovery(t *testing.T) {
	r := newRig(t, nil)
	payload := []byte("renamed and recovered")
	r.run(t, func(p *sim.Proc) {
		f, _ := r.inst.Open(p, "/tmp.0", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		f.Write(p, payload)
		f.Close(p)
		r.inst.Rename(p, "/tmp.0", "/final.dat")
		// Crash + recover: the rename record must replay.
		inst2 := r.freshInstance(t)
		if err := inst2.Recover(p); err != nil {
			t.Fatal(err)
		}
		if _, err := inst2.Stat(p, "/tmp.0"); err != vfs.ErrNotExist {
			t.Errorf("temp name resurfaced after recovery: %v", err)
		}
		g, err := inst2.Open(p, "/final.dat", vfs.O_RDONLY, 0)
		if err != nil {
			t.Fatalf("renamed file missing after recovery: %v", err)
		}
		buf := make([]byte, len(payload))
		n, _ := g.Read(p, buf)
		if n != len(payload) || !bytes.Equal(buf, payload) {
			t.Fatal("renamed content corrupt after recovery")
		}
		g.Close(p)
	})
}

func TestReadDirListing(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		r.inst.Mkdir(p, "/ckpt", 0o755)
		r.inst.Mkdir(p, "/ckpt/sub", 0o755)
		for i := 0; i < 5; i++ {
			f, _ := r.inst.Open(p, fmt.Sprintf("/ckpt/step%03d.dat", i), vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
			f.WriteN(p, int64(i+1)*1024)
			f.Close(p)
		}
		// A grandchild must not appear in /ckpt's listing.
		g, _ := r.inst.Open(p, "/ckpt/sub/deep.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		g.Close(p)

		entries, err := r.inst.ReadDir(p, "/ckpt")
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 6 { // 5 files + 1 subdir
			t.Fatalf("ReadDir = %d entries, want 6: %+v", len(entries), entries)
		}
		// Sorted by name; sizes correct.
		for i := 1; i < len(entries); i++ {
			if entries[i-1].Path >= entries[i].Path {
				t.Errorf("entries not sorted: %q >= %q", entries[i-1].Path, entries[i].Path)
			}
		}
		for _, e := range entries {
			if e.Path == "/ckpt/step002.dat" && e.Size != 3*1024 {
				t.Errorf("step002 size = %d", e.Size)
			}
			if e.Path == "/ckpt/sub" && !e.IsDir {
				t.Error("subdirectory not flagged as dir")
			}
		}
		// Root listing includes /ckpt.
		root, err := r.inst.ReadDir(p, "/")
		if err != nil || len(root) != 1 || root[0].Path != "/ckpt" {
			t.Errorf("root listing = %+v, %v", root, err)
		}
		// Errors.
		if _, err := r.inst.ReadDir(p, "/missing"); err != vfs.ErrNotExist {
			t.Errorf("ReadDir missing: %v", err)
		}
		if _, err := r.inst.ReadDir(p, "/ckpt/step000.dat"); err != vfs.ErrNotDir {
			t.Errorf("ReadDir on file: %v", err)
		}
	})
}

func TestReadDirDiscoversLatestCheckpoint(t *testing.T) {
	// The restart-discovery pattern: list the checkpoint directory and
	// pick the newest step.
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		r.inst.Mkdir(p, "/ckpt", 0o755)
		for i := 0; i < 7; i++ {
			f, _ := r.inst.Open(p, fmt.Sprintf("/ckpt/step%05d.dat", i*10), vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
			f.Close(p)
		}
		entries, err := r.inst.ReadDir(p, "/ckpt")
		if err != nil {
			t.Fatal(err)
		}
		latest := entries[len(entries)-1].Path
		if latest != "/ckpt/step00060.dat" {
			t.Errorf("latest = %q", latest)
		}
	})
}
