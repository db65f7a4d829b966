package nvmeof

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/microfs"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/vfs"
	"github.com/nvme-cr/nvmecr/internal/wal"
)

func TestTCPPlaneBounds(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: 16 * model.MB})
	h := dialOne(t, addr, 1, PoolConfig{})
	if _, err := NewTCPPlane(h, 0, 32*model.MB); err == nil {
		t.Error("oversized partition accepted")
	}
	pl, err := NewTCPPlane(h, 4*model.MB, 8*model.MB)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Size() != 8*model.MB {
		t.Errorf("Size = %d", pl.Size())
	}
	if err := pl.Write(nil, pl.Size()-10, 20, nil, 0); err == nil {
		t.Error("out-of-partition write accepted")
	}
}

// TestTCPPlaneOverPool runs the plane over a HostPool instead of a
// single queue pair: the same partition semantics, sharded transport.
func TestTCPPlaneOverPool(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: 16 * model.MB})
	pool, err := DialPool(addr, 1, PoolConfig{QueuePairs: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pl, err := NewTCPPlane(pool, 2*model.MB, 8*model.MB)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("pooled-plane:"), 1024)
	if err := pl.Write(nil, 4096, int64(len(payload)), payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := pl.Flush(nil); err != nil {
		t.Fatal(err)
	}
	got, err := pl.Read(nil, 4096, int64(len(payload)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch through pooled plane")
	}
	if err := pl.Write(nil, pl.Size()-10, 20, nil, 0); err == nil {
		t.Error("out-of-partition write accepted")
	}
}

// TestTCPPlaneMultiCapsuleRead: a 6 MiB read is two capsules, copied
// into a result the free list hands out unzeroed — here a buffer whose
// every byte was written over before it went back — so each chunk must
// land at its own offset and leave nothing of what the buffer held.
func TestTCPPlaneMultiCapsuleRead(t *testing.T) {
	const length = 6 * model.MB
	_, addr := startTarget(t, map[uint32]int64{1: 8 * model.MB})
	pl, err := NewTCPPlane(dialOne(t, addr, 1, PoolConfig{}), 0, 8*model.MB)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, length)
	rand.New(rand.NewSource(6)).Read(want)
	if err := pl.Write(nil, 0, length, want, 0); err != nil {
		t.Fatal(err)
	}
	stale := make([]byte, length)
	for i := range stale {
		stale[i] = 0xEE
	}
	plane.Recycle(stale)
	got, err := pl.Read(nil, 0, length, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("a %d-byte read over %d-byte capsules returned other bytes than were written", length, maxChunk)
	}
}

// TestMicrofsOverRealTCP runs the full microfs stack — provenance log,
// metadata snapshot, crash recovery — against a real TCP NVMe-oF target:
// a genuine end-to-end durability test over actual sockets.
func TestMicrofsOverRealTCP(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: 64 * model.MB})

	payloadA := bytes.Repeat([]byte("over-the-wire-A:"), 8192) // 128 KB
	payloadB := bytes.Repeat([]byte("over-the-wire-B:"), 4096) // 64 KB

	env := sim.NewEnv()
	inst, h1 := microfsOverTCP(t, env, addr, microfs.AllFeatures())
	env.Go("writer", func(p *sim.Proc) {
		f, err := inst.Open(p, "/a.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Error(err)
			return
		}
		vfs.WriteAll(p, f, payloadA, 32*model.KB)
		f.Close(p)
		if err := inst.SnapshotNow(p); err != nil {
			t.Error(err)
			return
		}
		g, err := inst.Open(p, "/b.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Error(err)
			return
		}
		vfs.WriteAll(p, g, payloadB, 32*model.KB)
		g.Close(p)
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	h1.Close() // the writing process dies; only the remote target survives

	// A fresh process (new env, new queue pair) recovers everything
	// from the remote SSD.
	env2 := sim.NewEnv()
	inst2, h2 := microfsOverTCP(t, env2, addr, microfs.AllFeatures())
	defer h2.Close()
	env2.Go("recoverer", func(p *sim.Proc) {
		if err := inst2.Recover(p); err != nil {
			t.Errorf("recovery over TCP: %v", err)
			return
		}
		for path, want := range map[string][]byte{"/a.dat": payloadA, "/b.dat": payloadB} {
			f, err := inst2.Open(p, path, vfs.O_RDONLY, 0)
			if err != nil {
				t.Errorf("open %s: %v", path, err)
				return
			}
			buf := make([]byte, len(want))
			n, err := f.Read(p, buf)
			if err != nil || n != len(want) || !bytes.Equal(buf, want) {
				t.Errorf("%s mismatch over TCP recovery (n=%d err=%v)", path, n, err)
			}
			f.Close(p)
		}

		// The restart shape: /a.dat comes back in 16 KiB calls, which the
		// plane serves from its read-ahead window, and a block is
		// overwritten while the window holds bytes fetched ahead of the
		// reader — twice over, the second pass from a cold window.
		const kb = 1 << 10
		want := append([]byte(nil), payloadA...)
		w, err := inst2.Open(p, "/a.dat", vfs.O_WRONLY, 0)
		if err != nil {
			t.Errorf("open for overwrite: %v", err)
			return
		}
		defer w.Close(p)
		for pass, blockOff := range []int{32 * kb, 64 * kb} {
			f, err := inst2.Open(p, "/a.dat", vfs.O_RDONLY, 0)
			if err != nil {
				t.Errorf("pass %d: open: %v", pass, err)
				return
			}
			got := make([]byte, len(want))
			pos := 0
			readTo := func(end int) {
				for pos < end {
					n, err := f.Read(p, got[pos:pos+16*kb])
					if err != nil || n != 16*kb {
						t.Errorf("pass %d: read at %d: %d bytes, %v", pass, pos, n, err)
						return
					}
					pos += n
				}
			}
			// Three sequential reads: the third fetched a window that
			// reaches into the block about to change.
			readTo(blockOff + 16*kb)
			block := bytes.Repeat([]byte{byte('x' + pass)}, 32*kb)
			copy(want[blockOff:], block)
			copy(got[blockOff:pos], block) // already handed out, now stale by design
			if err := w.SeekTo(int64(blockOff)); err != nil {
				t.Error(err)
			}
			if n, err := w.Write(p, block); err != nil || n != len(block) {
				t.Errorf("pass %d: overwrite: %d bytes, %v", pass, n, err)
			}
			readTo(len(want))
			f.Close(p)
			if crc32.ChecksumIEEE(got) != crc32.ChecksumIEEE(want) {
				t.Errorf("pass %d: /a.dat read in 16 KiB calls around an overwrite differs from what was written", pass)
			}
		}
	})
	if _, err := env2.Run(); err != nil {
		t.Fatal(err)
	}
}

// microfsOverTCP builds a microfs instance over the whole of namespace 1
// at addr, through a queue pair of its own.
func microfsOverTCP(t *testing.T, env *sim.Env, addr string, features microfs.Features) (*microfs.Instance, *HostPool) {
	t.Helper()
	h := dialOne(t, addr, 1, PoolConfig{})
	pl, err := NewTCPPlane(h, 0, h.NamespaceSize())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := microfs.New(env, microfs.Config{
		Plane:     pl,
		Host:      model.Default().Host,
		Features:  features,
		LogBytes:  256 * model.KB,
		SnapBytes: 2 * model.MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst, h
}

// TestMetadataOpIsOneWriteOverTCP: over the real transport a create, a
// mkdir and a rename are one command each, carrying the log record that
// records them and the zero byte at the log's new head. The simulator
// also charges the parent directory's tail block, which nothing reads
// back, and a whole log page per record (microfs's
// TestMetadataOpChargesOneLogPage); a TCPPlane models no time, so it is
// no plane.Charger, and neither is sent. The tail block used to go as
// 32 KiB of zeros, a second WRITE per operation, and the record as its
// 4 KiB page:
//
//	create: the target saw 2 commands carrying 36864 bytes, want 1 carrying 4096
//	create: the target saw 1 commands carrying 4096 bytes, want 1 carrying 39
func TestMetadataOpIsOneWriteOverTCP(t *testing.T) {
	tgt, addr := startTarget(t, map[uint32]int64{1: 64 * model.MB})
	env := sim.NewEnv()
	inst, _ := microfsOverTCP(t, env, addr, microfs.AllFeatures())
	env.Go("ops", func(p *sim.Proc) {
		for _, op := range []struct {
			name string
			rec  wal.Record
			do   func() error
		}{
			{"create", wal.Record{Op: wal.OpCreate, Path: "/f"}, func() error {
				_, err := inst.Open(p, "/f", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
				return err
			}},
			{"mkdir", wal.Record{Op: wal.OpMkdir, Path: "/d"}, func() error { return inst.Mkdir(p, "/d", 0o755) }},
			{"rename", wal.Record{Op: wal.OpRename, Path: "/f", Path2: "/d/g"}, func() error { return inst.Rename(p, "/f", "/d/g") }},
		} {
			before := tgt.Snapshot()
			if err := op.do(); err != nil {
				t.Errorf("%s: %v", op.name, err)
				return
			}
			after := tgt.Snapshot()
			want := uint64(wal.EncodedSize(op.rec) + 1)
			if cmds, in := after.Commands-before.Commands, after.BytesIn-before.BytesIn; cmds != 1 || in != want {
				t.Errorf("%s: the target saw %d commands carrying %d bytes, want 1 carrying %d", op.name, cmds, in, want)
			}
		}
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPhysicalJournalOverTCP: with provenance off (the drilldown's
// conventional-journal arm) every logged operation also charges the
// journal blocks a conventional filesystem would write, at the partition's
// first byte. Sent over a real transport, as zeros, they overwrote the
// page of the log just written, and an fsynced file did not survive:
//
//	recovery lost /f: vfs: file does not exist
func TestPhysicalJournalOverTCP(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: 64 * model.MB})
	features := microfs.Features{Provenance: false, Hugeblocks: true}
	payload := bytes.Repeat([]byte("journaled:"), 1000)
	env := sim.NewEnv()
	inst, h := microfsOverTCP(t, env, addr, features)
	env.Go("writer", func(p *sim.Proc) {
		f, err := inst.Open(p, "/f", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Write(p, payload); err != nil {
			t.Error(err)
		}
		if err := f.Fsync(p); err != nil {
			t.Error(err)
		}
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	h.Close() // abandoned: no Close, no snapshot

	env2 := sim.NewEnv()
	fresh, _ := microfsOverTCP(t, env2, addr, features)
	env2.Go("recoverer", func(p *sim.Proc) {
		if err := fresh.Recover(p); err != nil {
			t.Error(err)
			return
		}
		f, err := fresh.Open(p, "/f", vfs.O_RDONLY, 0)
		if err != nil {
			t.Errorf("recovery lost /f: %v", err)
			return
		}
		got := make([]byte, 2*len(payload))
		if n, err := f.Read(p, got); err != nil || !bytes.Equal(got[:n], payload) {
			t.Errorf("recovered /f: %d bytes, %v; want the %d written", n, err, len(payload))
		}
	})
	if _, err := env2.Run(); err != nil {
		t.Fatal(err)
	}
}
