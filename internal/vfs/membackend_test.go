package vfs

import (
	"errors"
	"sort"
	"testing"
)

func TestOpenFlagsHelpers(t *testing.T) {
	cases := []struct {
		f                  OpenFlags
		readable, writable bool
		str                string
	}{
		{O_RDONLY, true, false, "O_RDONLY"},
		{O_WRONLY, false, true, "O_WRONLY"},
		{O_RDWR, true, true, "O_RDWR"},
		{O_WRONLY | O_CREATE | O_EXCL, false, true, "O_WRONLY|O_CREATE|O_EXCL"},
		{O_RDWR | O_TRUNC | O_APPEND, true, true, "O_RDWR|O_TRUNC|O_APPEND"},
	}
	for _, c := range cases {
		if c.f.Readable() != c.readable || c.f.Writable() != c.writable {
			t.Errorf("%s: Readable=%v Writable=%v, want %v %v",
				c.str, c.f.Readable(), c.f.Writable(), c.readable, c.writable)
		}
		if got := c.f.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
	if !(O_WRONLY | O_CREATE).Has(O_CREATE) || (O_WRONLY).Has(O_CREATE) {
		t.Error("Has(O_CREATE) broken")
	}
}

func TestMemBackendFlagSemantics(t *testing.T) {
	b := NewMemBackend()
	if _, err := b.Open(nil, "/f", O_RDONLY, 0); !errors.Is(err, ErrNotExist) {
		t.Fatalf("open missing = %v, want ErrNotExist", err)
	}
	f, err := b.Open(nil, "/f", O_WRONLY|O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(nil, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	// Write-only handles refuse reads.
	if _, err := f.Read(nil, make([]byte, 1)); !errors.Is(err, ErrWriteOnly) {
		t.Fatalf("read on O_WRONLY = %v, want ErrWriteOnly", err)
	}
	f.Close(nil)
	if _, err := b.Open(nil, "/f", O_WRONLY|O_CREATE|O_EXCL, 0o644); !errors.Is(err, ErrExist) {
		t.Fatalf("O_EXCL on existing = %v, want ErrExist", err)
	}
	// Read-only handles refuse writes.
	g, err := b.Open(nil, "/f", O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write(nil, []byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write on O_RDONLY = %v, want ErrReadOnly", err)
	}
	buf := make([]byte, 5)
	if n, _ := g.Read(nil, buf); string(buf[:n]) != "hello" {
		t.Fatalf("read %q, want hello", buf[:n])
	}
	g.Close(nil)
	// O_APPEND starts at EOF; O_TRUNC drops content.
	a, err := b.Open(nil, "/f", O_WRONLY|O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.Write(nil, []byte("!"))
	a.Close(nil)
	if fi, _ := b.Stat(nil, "/f"); fi.Size != 6 {
		t.Fatalf("size after append = %d, want 6", fi.Size)
	}
	tr, err := b.Open(nil, "/f", O_WRONLY|O_TRUNC, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.Close(nil)
	if fi, _ := b.Stat(nil, "/f"); fi.Size != 0 {
		t.Fatalf("size after trunc = %d, want 0", fi.Size)
	}
}

func TestMemBackendNamespaceOps(t *testing.T) {
	b := NewMemBackend()
	if err := b.Mkdir(nil, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := b.Mkdir(nil, "/d", 0o755); !errors.Is(err, ErrExist) {
		t.Fatalf("mkdir existing = %v, want ErrExist", err)
	}
	if err := b.Mkdir(nil, "/nope/deep", 0o755); !errors.Is(err, ErrNotExist) {
		t.Fatalf("mkdir without parent = %v, want ErrNotExist", err)
	}
	for _, p := range []string{"/d/a", "/d/b"} {
		f, err := b.Open(nil, p, O_WRONLY|O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.Close(nil)
	}
	entries, err := b.ReadDir(nil, "/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Path != "/d/a" || entries[1].Path != "/d/b" {
		t.Fatalf("ReadDir(/d) = %v", entries)
	}
	if err := b.Rename(nil, "/d/a", "/d/c"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Stat(nil, "/d/a"); !errors.Is(err, ErrNotExist) {
		t.Fatal("rename left the old path behind")
	}
	if err := b.Unlink(nil, "/d/c"); err != nil {
		t.Fatal(err)
	}
	if err := b.Unlink(nil, "/d/c"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("unlink missing = %v, want ErrNotExist", err)
	}
	if _, err := b.Open(nil, "/d", O_RDONLY, 0); !errors.Is(err, ErrIsDir) {
		t.Fatalf("open dir = %v, want ErrIsDir", err)
	}
}

func TestModTimeRecencyOrdering(t *testing.T) {
	// Checkpoint discovery sorts by ModTime: later writes must carry
	// strictly later stamps even when virtual time does not advance
	// (nil proc == everything at t=0).
	b := NewMemBackend()
	names := []string{"/ck2", "/ck0", "/ck1"} // creation order
	for _, n := range names {
		f, err := b.Open(nil, n, O_WRONLY|O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(nil, []byte("s"))
		f.Close(nil)
	}
	entries, err := b.ReadDir(nil, "/")
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ModTime > entries[j].ModTime })
	if entries[0].Path != "/ck1" || entries[2].Path != "/ck2" {
		t.Fatalf("recency order = %v, want newest-first /ck1../ck2", entries)
	}
	// Rewriting an old file makes it the newest.
	f, err := b.Open(nil, "/ck2", O_WRONLY|O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(nil, []byte("t"))
	f.Close(nil)
	fi0, _ := b.Stat(nil, "/ck2")
	fi1, _ := b.Stat(nil, "/ck1")
	if fi0.ModTime <= fi1.ModTime {
		t.Fatalf("rewrite did not refresh ModTime: %v <= %v", fi0.ModTime, fi1.ModTime)
	}
}
