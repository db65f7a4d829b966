package extent

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteRead(t *testing.T) {
	s := New()
	if err := s.Write(100, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, full := s.Read(100, 5)
	if !full || string(got) != "hello" {
		t.Fatalf("Read = %q, full=%v", got, full)
	}
}

func TestNegativeOffsetRejected(t *testing.T) {
	s := New()
	if err := s.Write(-1, []byte("x")); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestEmptyWriteNoop(t *testing.T) {
	s := New()
	if err := s.Write(0, nil); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() != 0 || s.Extents() != 0 {
		t.Fatalf("empty write stored data: %d bytes, %d extents", s.Bytes(), s.Extents())
	}
}

func TestGapReadsZero(t *testing.T) {
	s := New()
	s.Write(0, []byte{1, 2})
	s.Write(10, []byte{3, 4})
	got, full := s.Read(0, 12)
	if full {
		t.Error("full=true over a gap")
	}
	want := []byte{1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 3, 4}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestOverwriteMiddle(t *testing.T) {
	s := New()
	s.Write(0, []byte("abcdefgh"))
	s.Write(2, []byte("XY"))
	got, full := s.Read(0, 8)
	if !full || string(got) != "abXYefgh" {
		t.Fatalf("got %q full=%v", got, full)
	}
	if s.Bytes() != 8 {
		t.Fatalf("Bytes = %d, want 8", s.Bytes())
	}
}

func TestOverwriteSpanningMultiple(t *testing.T) {
	s := New()
	s.Write(0, []byte("aaaa"))
	s.Write(4, []byte("bbbb"))
	s.Write(8, []byte("cccc"))
	s.Write(2, []byte("ZZZZZZZZ")) // covers [2,10)
	got, full := s.Read(0, 12)
	if !full || string(got) != "aaZZZZZZZZcc" {
		t.Fatalf("got %q full=%v", got, full)
	}
}

func TestTrim(t *testing.T) {
	s := New()
	s.Write(0, []byte("abcdefgh"))
	s.Trim(2, 4)
	got, full := s.Read(0, 8)
	if full {
		t.Error("full=true after trim")
	}
	want := []byte{'a', 'b', 0, 0, 0, 0, 'g', 'h'}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if s.Bytes() != 4 {
		t.Fatalf("Bytes = %d, want 4", s.Bytes())
	}
}

func TestReset(t *testing.T) {
	s := New()
	s.Write(0, []byte("abc"))
	s.Reset()
	if s.Bytes() != 0 || s.Extents() != 0 {
		t.Fatal("Reset left data behind")
	}
}

func TestCloneIndependent(t *testing.T) {
	s := New()
	s.Write(0, []byte("abc"))
	c := s.Clone()
	s.Write(0, []byte("XYZ"))
	got, _ := c.Read(0, 3)
	if string(got) != "abc" {
		t.Fatalf("clone mutated: %q", got)
	}
	if c.Bytes() != 3 {
		t.Fatalf("clone Bytes = %d", c.Bytes())
	}
}

func TestZeroLengthRead(t *testing.T) {
	s := New()
	got, full := s.Read(0, 0)
	if got != nil || !full {
		t.Fatalf("zero read = %v, %v", got, full)
	}
}

// TestAgainstReferenceModel fuzzes random writes/trims against a flat
// byte-array reference model.
func TestAgainstReferenceModel(t *testing.T) {
	const space = 1 << 12
	rng := rand.New(rand.NewSource(42))
	s := New()
	ref := make([]byte, space)
	written := make([]bool, space)
	for op := 0; op < 2000; op++ {
		off := rng.Int63n(space - 64)
		n := rng.Int63n(64) + 1
		switch rng.Intn(3) {
		case 0, 1: // write
			data := make([]byte, n)
			rng.Read(data)
			if err := s.Write(off, data); err != nil {
				t.Fatal(err)
			}
			copy(ref[off:off+n], data)
			for i := off; i < off+n; i++ {
				written[i] = true
			}
		case 2: // trim
			s.Trim(off, n)
			for i := off; i < off+n; i++ {
				ref[i] = 0
				written[i] = false
			}
		}
	}
	// Verify a full sweep.
	got, _ := s.Read(0, space)
	for i := range ref {
		want := byte(0)
		if written[i] {
			want = ref[i]
		}
		if got[i] != want {
			t.Fatalf("mismatch at %d: got %d want %d", i, got[i], want)
		}
	}
	// Byte accounting must equal count of written positions.
	var count int64
	for _, w := range written {
		if w {
			count++
		}
	}
	if s.Bytes() != count {
		t.Fatalf("Bytes = %d, want %d", s.Bytes(), count)
	}
}

// Property: write-then-read returns exactly the written data at any
// offset/payload combination.
func TestPropertyWriteReadRoundTrip(t *testing.T) {
	f := func(off uint16, payload []byte) bool {
		s := New()
		if err := s.Write(int64(off), payload); err != nil {
			return false
		}
		got, full := s.Read(int64(off), int64(len(payload)))
		if len(payload) == 0 {
			return true
		}
		return full && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: sequential non-overlapping writes account bytes exactly.
func TestPropertyByteAccounting(t *testing.T) {
	f := func(sizes []uint8) bool {
		s := New()
		var off, total int64
		for _, sz := range sizes {
			n := int64(sz%32) + 1
			data := make([]byte, n)
			if err := s.Write(off, data); err != nil {
				return false
			}
			off += n + 3 // leave gaps
			total += n
		}
		return s.Bytes() == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCoveredOverwriteDoesNotAllocate pins the in-place overwrite fast
// path: a write whose range is fully covered by existing (contiguous)
// extents must copy into their backing rather than splice a fresh
// extent — splicing on every overwrite is where the device-bound
// steady state's per-op allocation storm came from.
func TestCoveredOverwriteDoesNotAllocate(t *testing.T) {
	s := New()
	// Two adjacent extents cover [0, 8192).
	if err := s.Write(0, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(4096, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 6144)
	allocs := testing.AllocsPerRun(100, func() {
		// Crosses the extent seam: still fully covered, still in place.
		if err := s.Write(1024, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("covered overwrite allocates %.1f objects/op, want 0", allocs)
	}
	got, full := s.Read(1024, 6144)
	if !full || !bytes.Equal(got, payload) {
		t.Fatal("covered overwrite corrupted data")
	}
}

// seededStore builds a store and its flat reference (never-written
// bytes are zero) from a seeded sequence of writes and trims.
func seededStore(t testing.TB, seed int64, space int64) (*Store, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := New()
	ref := make([]byte, space)
	for op := 0; op < 40; op++ {
		off := rng.Int63n(space - 32)
		n := rng.Int63n(32) + 1
		if rng.Intn(4) == 0 {
			s.Trim(off, n)
			clear(ref[off : off+n])
			continue
		}
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Intn(255) + 1) // never zero: a gap is unmistakable
		}
		if err := s.Write(off, data); err != nil {
			t.Fatal(err)
		}
		copy(ref[off:], data)
	}
	return s, ref
}

// checkReadInto reads [off, off+n) into a dirty buffer and compares the
// bytes with the flat reference and both results with Read.
func checkReadInto(t testing.TB, s *Store, ref []byte, off, n int64) {
	t.Helper()
	dst := bytes.Repeat([]byte{0xEE}, int(n))
	full := s.ReadInto(off, dst)
	if !bytes.Equal(dst, ref[off:off+n]) {
		t.Fatalf("ReadInto(%d, %d bytes) = %v, want %v", off, n, dst, ref[off:off+n])
	}
	got, wantFull := s.Read(off, n)
	if full != wantFull || (n > 0 && !bytes.Equal(dst, got)) {
		t.Fatalf("ReadInto(%d, %d bytes) = %v full=%v, Read = %v full=%v", off, n, dst, full, got, wantFull)
	}
}

// TestReadIntoDirtyDst pins the reuse contract: whatever dst held, every
// gap comes back zero — leading, trailing, between extents, and over a
// range nothing was ever written to.
func TestReadIntoDirtyDst(t *testing.T) {
	const space = 256
	for seed := int64(1); seed <= 50; seed++ {
		s, ref := seededStore(t, seed, space)
		rng := rand.New(rand.NewSource(seed))
		checkReadInto(t, s, ref, 0, space)
		checkReadInto(t, s, ref, 17, 0)
		for i := 0; i < 200; i++ {
			off := rng.Int63n(space)
			checkReadInto(t, s, ref, off, rng.Int63n(space-off+1))
		}
	}
	empty := New()
	checkReadInto(t, empty, make([]byte, 64), 3, 61)
}

func FuzzReadInto(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(255))
	f.Add(int64(7), uint8(100), uint8(0))
	f.Add(int64(42), uint8(31), uint8(33))
	f.Fuzz(func(t *testing.T, seed int64, off, n uint8) {
		const space = 256
		s, ref := seededStore(t, seed, space)
		if int64(off)+int64(n) > space {
			n = uint8(space - int64(off))
		}
		checkReadInto(t, s, ref, int64(off), int64(n))
	})
}
