package microfs

import (
	"bytes"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// writeInterleaved appends blocks to two files alternately, so each
// file's blocks are not contiguous on the device and a read of it is
// several plane runs. It returns what /a holds.
func writeInterleaved(t *testing.T, p *sim.Proc, inst *Instance, rounds int) []byte {
	t.Helper()
	a, err := inst.Open(p, "/a", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	b, err := inst.Open(p, "/b", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	block := inst.Pool().BlockSize()
	var want []byte
	for i := 0; i < rounds; i++ {
		chunk := bytes.Repeat([]byte{byte(i + 1)}, int(block))
		if i == rounds-1 {
			chunk = chunk[:block/3] // the file ends inside a block
		}
		if _, err := a.Write(p, chunk); err != nil {
			t.Fatal(err)
		}
		want = append(want, chunk...)
		if _, err := b.Write(p, bytes.Repeat([]byte{0xBB}, int(block))); err != nil {
			t.Fatal(err)
		}
	}
	a.Close(p)
	b.Close(p)
	return want
}

// TestReadShortAtEOF: a buffer longer than the rest of the file gets
// the rest of the file, run by run at the right place, and nothing past
// it is touched.
func TestReadShortAtEOF(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *sim.Proc) {
		want := writeInterleaved(t, p, r.inst, 4)
		g, err := r.inst.Open(p, "/a", vfs.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close(p)
		const skip = 100
		if err := g.SeekTo(skip); err != nil {
			t.Fatal(err)
		}
		rest := len(want) - skip
		buf := bytes.Repeat([]byte{0xEE}, rest+4096)
		n, err := g.Read(p, buf)
		if err != nil || n != rest {
			t.Fatalf("Read = %d, %v; want %d", n, err, rest)
		}
		if !bytes.Equal(buf[:n], want[skip:]) {
			t.Fatal("short read returned the wrong bytes")
		}
		if !bytes.Equal(buf[n:], bytes.Repeat([]byte{0xEE}, 4096)) {
			t.Fatal("short read wrote past the bytes it returned")
		}
		if n, err := g.Read(p, buf); n != 0 || err != nil {
			t.Fatalf("read at EOF = %d, %v", n, err)
		}
	})
}

// blindPlane accepts writes and captures nothing: Read is (nil, nil).
type blindPlane struct{ size int64 }

func (b blindPlane) Write(*sim.Proc, int64, int64, []byte, int64) error { return nil }
func (b blindPlane) Read(*sim.Proc, int64, int64, int64) ([]byte, error) {
	return nil, nil
}
func (b blindPlane) Flush(*sim.Proc) error { return nil }
func (b blindPlane) Size() int64           { return b.size }

// TestReadNonCapturingPlaneZeroFills: over a plane that returns nil the
// bytes read are zeros, never what the caller's buffer held before.
func TestReadNonCapturingPlaneZeroFills(t *testing.T) {
	env := sim.NewEnv()
	inst, err := New(env, Config{
		Plane:     blindPlane{size: 64 * model.MB},
		Features:  AllFeatures(),
		LogBytes:  256 * model.KB,
		SnapBytes: 1 * model.MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.Go("test", func(p *sim.Proc) {
		want := writeInterleaved(t, p, inst, 3)
		g, err := inst.Open(p, "/a", vfs.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close(p)
		buf := bytes.Repeat([]byte{0xEE}, len(want)+64)
		n, err := g.Read(p, buf)
		if err != nil || n != len(want) {
			t.Fatalf("Read = %d, %v; want %d", n, err, len(want))
		}
		if !bytes.Equal(buf[:n], make([]byte, n)) {
			t.Fatal("read over a non-capturing plane returned stale buffer contents")
		}
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
