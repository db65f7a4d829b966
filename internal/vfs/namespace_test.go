package vfs

import (
	"errors"
	"sort"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/faults"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// twoMounts builds /a on one memory backend and /a/b nested on another,
// returning (namespace, outer backend, inner backend).
func twoMounts(t *testing.T) (*Namespace, *MemBackend, *MemBackend) {
	t.Helper()
	ns := NewNamespace(nil)
	outer, inner := NewMemBackend(), NewMemBackend()
	if _, err := ns.Mount(MountConfig{Path: "/a", Backend: outer, Name: "outer"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Mount(MountConfig{Path: "/a/b", Backend: inner, Name: "inner"}); err != nil {
		t.Fatal(err)
	}
	return ns, outer, inner
}

func mustWrite(t *testing.T, ns Backend, path string, data []byte) {
	t.Helper()
	f, err := ns.Open(nil, path, O_WRONLY|O_CREATE|O_EXCL, 0o644)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	if _, err := f.Write(nil, data); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	if err := f.Close(nil); err != nil {
		t.Fatal(err)
	}
}

func TestLongestPrefixWins(t *testing.T) {
	ns, outer, inner := twoMounts(t)
	// /a/b/f must land on the nested mount, /a/f on the outer one.
	mustWrite(t, ns, "/a/b/f", []byte("nested"))
	mustWrite(t, ns, "/a/f", []byte("outer"))
	if _, err := inner.Stat(nil, "/f"); err != nil {
		t.Errorf("/a/b/f should live on the inner backend at /f: %v", err)
	}
	if _, err := outer.Stat(nil, "/f"); err != nil {
		t.Errorf("/a/f should live on the outer backend at /f: %v", err)
	}
	if _, err := outer.Stat(nil, "/b/f"); err == nil {
		t.Error("/a/b/f leaked onto the outer backend")
	}
}

func TestNestedMountShadowsParent(t *testing.T) {
	ns, outer, _ := twoMounts(t)
	// Plant /b/hidden directly on the outer backend: through the
	// namespace, /a/b/* must resolve to the inner mount, so the file is
	// unreachable.
	if err := outer.Mkdir(nil, "/b", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := outer.Open(nil, "/b/hidden", O_WRONLY|O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Close(nil)
	if _, err := ns.Stat(nil, "/a/b/hidden"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Stat(/a/b/hidden) = %v, want ErrNotExist (inner mount shadows outer /b)", err)
	}
}

func TestCrossMountRenameRejected(t *testing.T) {
	ns, _, _ := twoMounts(t)
	mustWrite(t, ns, "/a/f", []byte("x"))
	if err := ns.Rename(nil, "/a/f", "/a/b/f"); !errors.Is(err, ErrCrossMount) {
		t.Fatalf("cross-mount rename = %v, want ErrCrossMount", err)
	}
	// Same-mount rename still works.
	if err := ns.Rename(nil, "/a/f", "/a/g"); err != nil {
		t.Fatalf("same-mount rename: %v", err)
	}
	if _, err := ns.Stat(nil, "/a/g"); err != nil {
		t.Fatal(err)
	}
}

func TestReadDirMergesMountEntries(t *testing.T) {
	ns, _, _ := twoMounts(t)
	mustWrite(t, ns, "/a/f", []byte("x"))
	entries, err := ns.ReadDir(nil, "/a")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, e := range entries {
		got[e.Path] = e.IsDir
	}
	if isDir, ok := got["/a/b"]; !ok || !isDir {
		t.Errorf("ReadDir(/a) = %v, want synthetic dir entry /a/b", entries)
	}
	if _, ok := got["/a/f"]; !ok {
		t.Errorf("ReadDir(/a) = %v, want backend entry /a/f", entries)
	}
	if !sort.SliceIsSorted(entries, func(i, j int) bool { return entries[i].Path < entries[j].Path }) {
		t.Errorf("ReadDir(/a) not sorted: %v", entries)
	}
	// The root is an ancestor of every mount: listing it yields the
	// synthetic /a even though no mount covers "/".
	rootEntries, err := ns.ReadDir(nil, "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(rootEntries) != 1 || rootEntries[0].Path != "/a" || !rootEntries[0].IsDir {
		t.Errorf("ReadDir(/) = %v, want exactly the synthetic /a", rootEntries)
	}
}

func TestMountEntryShadowsBackendEntry(t *testing.T) {
	ns, outer, _ := twoMounts(t)
	// The outer backend also has a real file named /b; the mount entry
	// must replace it, not duplicate it.
	f, err := outer.Open(nil, "/b", O_WRONLY|O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Close(nil)
	entries, err := ns.ReadDir(nil, "/a")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if e.Path == "/a/b" {
			n++
			if !e.IsDir {
				t.Errorf("/a/b should appear as the mount's synthetic dir, got %+v", e)
			}
		}
	}
	if n != 1 {
		t.Errorf("/a/b appears %d times in ReadDir(/a), want exactly 1", n)
	}
}

func TestUncoveredPaths(t *testing.T) {
	ns, _, _ := twoMounts(t)
	if _, err := ns.Open(nil, "/elsewhere/f", O_RDONLY, 0); !errors.Is(err, ErrNotExist) {
		t.Errorf("Open uncovered = %v, want ErrNotExist", err)
	}
	// "/" is a mount ancestor: stat yields a synthetic directory, open
	// as a file fails with ErrIsDir.
	fi, err := ns.Stat(nil, "/")
	if err != nil || !fi.IsDir {
		t.Errorf("Stat(/) = %+v, %v, want synthetic dir", fi, err)
	}
	if _, err := ns.Open(nil, "/", O_RDONLY, 0); !errors.Is(err, ErrIsDir) {
		t.Errorf("Open(/) = %v, want ErrIsDir", err)
	}
	if err := ns.Unmount("/a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Stat(nil, "/a/b/f"); !errors.Is(err, ErrNotExist) {
		t.Errorf("after unmount, Stat = %v, want ErrNotExist (outer has no /b)", err)
	}
}

func TestMountValidation(t *testing.T) {
	ns := NewNamespace(nil)
	if _, err := ns.Mount(MountConfig{Path: "relative", Backend: NewMemBackend()}); err == nil {
		t.Error("relative mount path accepted")
	}
	if _, err := ns.Mount(MountConfig{Path: "/x", Backend: nil}); err == nil {
		t.Error("nil backend accepted")
	}
	if _, err := ns.Mount(MountConfig{Path: "/x", Backend: NewMemBackend()}); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Mount(MountConfig{Path: "/x", Backend: NewMemBackend()}); err == nil {
		t.Error("duplicate mount path accepted")
	}
	if err := ns.Unmount("/nope"); err == nil {
		t.Error("unmounting a non-mount succeeded")
	}
}

func TestQuotaBytes(t *testing.T) {
	ns := NewNamespace(nil)
	if _, err := ns.Mount(MountConfig{
		Path: "/t", Backend: NewMemBackend(), Name: "t", QuotaBytes: 100,
	}); err != nil {
		t.Fatal(err)
	}
	f, err := ns.Open(nil, "/t/f", O_WRONLY|O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteN(nil, 80); err != nil {
		t.Fatalf("write within quota: %v", err)
	}
	if _, err := f.WriteN(nil, 40); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("write past quota = %v, want ErrNoSpace", err)
	}
	// Rewriting existing bytes is not growth.
	if err := f.SeekTo(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteN(nil, 80); err != nil {
		t.Fatalf("in-place rewrite: %v", err)
	}
	f.Close(nil)
	m := ns.Mounts()[0]
	if b, _ := m.Usage(); b != 80 {
		t.Errorf("bytes used = %d, want 80", b)
	}
	// O_TRUNC releases the old size.
	g, err := ns.Open(nil, "/t/f", O_WRONLY|O_TRUNC, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteN(nil, 100); err != nil {
		t.Fatalf("full-quota write after trunc: %v", err)
	}
	g.Close(nil)
	// Unlink returns the bytes.
	if err := ns.Unlink(nil, "/t/f"); err != nil {
		t.Fatal(err)
	}
	if b, i := m.Usage(); b != 0 || i != 0 {
		t.Errorf("usage after unlink = %d bytes, %d inodes, want 0, 0", b, i)
	}
}

func TestQuotaInodes(t *testing.T) {
	ns := NewNamespace(nil)
	if _, err := ns.Mount(MountConfig{
		Path: "/t", Backend: NewMemBackend(), Name: "t", QuotaInodes: 2,
	}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/t/a", "/t/b"} {
		f, err := ns.Open(nil, p, O_WRONLY|O_CREATE, 0o644)
		if err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
		f.Close(nil)
	}
	if _, err := ns.Open(nil, "/t/c", O_WRONLY|O_CREATE, 0o644); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("third create = %v, want ErrNoSpace", err)
	}
	// Reopening an existing file consumes nothing.
	f, err := ns.Open(nil, "/t/a", O_RDWR, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	f.Close(nil)
	if err := ns.Unlink(nil, "/t/a"); err != nil {
		t.Fatal(err)
	}
	f, err = ns.Open(nil, "/t/c", O_WRONLY|O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("create after unlink: %v", err)
	}
	f.Close(nil)
	// Mkdir counts against the inode quota too.
	if err := ns.Mkdir(nil, "/t/d", 0o755); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("mkdir past inode quota = %v, want ErrNoSpace", err)
	}
}

func TestReadOnlyMount(t *testing.T) {
	b := NewMemBackend()
	f, err := b.Open(nil, "/f", O_WRONLY|O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(nil, []byte("frozen"))
	f.Close(nil)
	ns := NewNamespace(nil)
	if _, err := ns.Mount(MountConfig{Path: "/ro", Backend: b, ReadOnly: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Open(nil, "/ro/f", O_WRONLY, 0); !errors.Is(err, ErrPerm) {
		t.Errorf("write-open on read-only mount = %v, want ErrPerm", err)
	}
	if _, err := ns.Open(nil, "/ro/g", O_RDONLY|O_CREATE, 0o644); !errors.Is(err, ErrPerm) {
		t.Errorf("create on read-only mount = %v, want ErrPerm", err)
	}
	if err := ns.Unlink(nil, "/ro/f"); !errors.Is(err, ErrPerm) {
		t.Errorf("unlink on read-only mount = %v, want ErrPerm", err)
	}
	if err := ns.Rename(nil, "/ro/f", "/ro/g"); !errors.Is(err, ErrPerm) {
		t.Errorf("rename on read-only mount = %v, want ErrPerm", err)
	}
	g, err := ns.Open(nil, "/ro/f", O_RDONLY, 0)
	if err != nil {
		t.Fatalf("read-open on read-only mount: %v", err)
	}
	buf := make([]byte, 6)
	if n, _ := g.Read(nil, buf); string(buf[:n]) != "frozen" {
		t.Errorf("read %q, want frozen", buf[:n])
	}
	g.Close(nil)
}

func TestMountTelemetry(t *testing.T) {
	reg := telemetry.New()
	ns := NewNamespace(reg)
	if _, err := ns.Mount(MountConfig{
		Path: "/t", Backend: NewMemBackend(), Name: "ten", QuotaBytes: 10,
	}); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, ns, "/t/f", []byte("12345"))
	f, _ := ns.Open(nil, "/t/f", O_RDONLY, 0)
	f.Read(nil, make([]byte, 5))
	f.Close(nil)
	g, _ := ns.Open(nil, "/t/g", O_WRONLY|O_CREATE, 0o644)
	if _, err := g.WriteN(nil, 50); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("quota write = %v, want ErrNoSpace", err)
	}
	g.Close(nil)

	l := telemetry.Labels{"mount": "ten"}
	if v := reg.Counter("nvmecr_mount_bytes_written_total", l).Value(); v != 5 {
		t.Errorf("bytes_written = %d, want 5", v)
	}
	if v := reg.Counter("nvmecr_mount_bytes_read_total", l).Value(); v != 5 {
		t.Errorf("bytes_read = %d, want 5", v)
	}
	if v := reg.Counter("nvmecr_mount_quota_rejections_total", l).Value(); v != 1 {
		t.Errorf("quota_rejections = %d, want 1", v)
	}
	if v := reg.Counter("nvmecr_mount_ops_total", telemetry.Labels{"mount": "ten", "op": "open"}).Value(); v != 3 {
		t.Errorf("open ops = %d, want 3", v)
	}
	if v := reg.Gauge("nvmecr_mount_quota_bytes_used", l).Value(); v != 5 {
		t.Errorf("quota_bytes_used = %d, want 5", v)
	}
}

func TestPerMountFaultPlan(t *testing.T) {
	plan := faults.NewPlan(1, faults.Rule{
		Name: "fail-second-open", Layer: faults.LayerVFS, Op: "open",
		Nth: 2, Kind: faults.KindMediaError, Count: 1,
	})
	ns := NewNamespace(nil)
	if _, err := ns.Mount(MountConfig{
		Path: "/t", Backend: NewMemBackend(), Name: "t", Faults: plan,
	}); err != nil {
		t.Fatal(err)
	}
	// Mount without a plan is untouched.
	if _, err := ns.Mount(MountConfig{Path: "/clean", Backend: NewMemBackend()}); err != nil {
		t.Fatal(err)
	}
	f, err := ns.Open(nil, "/t/a", O_WRONLY|O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("first open: %v", err)
	}
	f.Close(nil)
	_, err = ns.Open(nil, "/t/b", O_WRONLY|O_CREATE, 0o644)
	if err == nil || !faults.IsInjected(err) {
		t.Fatalf("second open = %v, want injected fault", err)
	}
	if _, err := ns.Open(nil, "/t/c", O_WRONLY|O_CREATE, 0o644); err != nil {
		t.Fatalf("third open (rule exhausted): %v", err)
	}
	if f, err := ns.Open(nil, "/clean/x", O_WRONLY|O_CREATE, 0o644); err != nil {
		t.Fatalf("clean mount: %v", err)
	} else {
		f.Close(nil)
	}
}

func TestNamespaceAccountCharging(t *testing.T) {
	// The namespace satisfies Client: its account aggregates nothing by
	// itself but must exist and be stable.
	ns, _, _ := twoMounts(t)
	if ns.Account() == nil || ns.Account() != ns.Account() {
		t.Fatal("Account must return a stable non-nil pointer")
	}
}

// TestMountStats covers the aggregate per-mount summary, including the
// registry-less path the health engine's tenant objectives rely on.
func TestMountStats(t *testing.T) {
	for _, withReg := range []bool{true, false} {
		var reg *telemetry.Registry
		if withReg {
			reg = telemetry.New()
		}
		ns := NewNamespace(reg)
		m, err := ns.Mount(MountConfig{
			Path: "/t", Backend: NewMemBackend(), QuotaBytes: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := ns.Open(nil, "/t/a", O_RDWR|O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(nil, []byte("12345")); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(nil, []byte("too much")); err == nil {
			t.Fatal("quota breach not rejected")
		}
		f.Close(nil)
		if _, err := ns.Stat(nil, "/t/a"); err != nil {
			t.Fatal(err)
		}

		st := m.Stats()
		if st.Ops < 2 {
			t.Errorf("withReg=%v: Ops = %d, want >= 2 (open+stat)", withReg, st.Ops)
		}
		if st.QuotaRejections != 1 {
			t.Errorf("withReg=%v: QuotaRejections = %d, want 1", withReg, st.QuotaRejections)
		}
		if st.BytesWritten != 5 {
			t.Errorf("withReg=%v: BytesWritten = %d, want 5", withReg, st.BytesWritten)
		}
		if st.BytesUsed != 5 || st.InodesUsed != 1 {
			t.Errorf("withReg=%v: usage = %d bytes / %d inodes, want 5/1", withReg, st.BytesUsed, st.InodesUsed)
		}
		if withReg {
			// The aggregate must agree with the labeled per-op series.
			var snap telemetry.RegistrySnapshot
			var sum uint64
			for _, in := range reg.Snapshot(&snap).Instruments {
				if in.Name == "nvmecr_mount_ops_total" && in.Labels["mount"] == "/t" {
					sum += in.U
				}
			}
			if sum != st.Ops {
				t.Errorf("per-op sum %d != aggregate %d", sum, st.Ops)
			}
		}
	}
}
