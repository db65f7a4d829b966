package nvmeof

import (
	"runtime"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/microfs"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// TestBatchedSteadyStateAllocs is the polled-path allocation gate: the
// batched small-command steady state — slot ring, merge path, vectored
// flush, completion fan-out — must run at zero heap allocations per
// operation. The count is process-wide (testing.Benchmark measures
// mallocs across every goroutine, the in-process target included), so
// a regression on either end of the fabric trips it.
func TestBatchedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	if testing.Short() {
		t.Skip("runs a full testing.Benchmark")
	}
	res := testing.Benchmark(func(b *testing.B) {
		benchPool(b, 512, 0, PoolConfig{
			QueuePairs: 2,
			Batch:      BatchConfig{Enabled: true, MergeWrites: true},
		})
	})
	if a := res.AllocsPerOp(); a > 0 {
		t.Errorf("batched steady state allocates %d objects/op, want 0", a)
	}
}

// TestDeviceBoundBytesPerOp pins the fix for the device-bound write
// amplification: steady-state 16KB overwrites must not splice a fresh
// extent per command (the covered-range path copies in place), must
// reuse the target's per-slot payload buffer, and must ride the host's
// zero-copy iovec path. Before the fix the same workload allocated
// ~25KB per 16KB op — more heap traffic than payload.
func TestDeviceBoundBytesPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	if testing.Short() {
		t.Skip("runs a full testing.Benchmark")
	}
	res := testing.Benchmark(func(b *testing.B) {
		benchPool(b, 16*1024, 20*time.Microsecond, PoolConfig{
			QueuePairs: 1,
			Batch:      BatchConfig{Enabled: true, MergeWrites: true},
		})
	})
	// Observed ~1-2.5KB/op healthy (short benchmark runs amortize the
	// fixed dials and lazy per-slot state less); the splice regression
	// sat at ~25KB/op. Gate at half the payload size.
	if bpo := res.AllocedBytesPerOp(); bpo > 8192 {
		t.Errorf("device-bound steady state allocates %d B/op for 16KB commands, want <=8192", bpo)
	}
}

// TestReadPathAllocBytes is the read-path allocation gate: a read costs
// one allocation of its own size (the response payload the host hands
// up) through a TCPPlane, and one more where a stripe has to interleave
// its members' buffers. Small sequential reads cost the same per byte:
// the read-ahead window hands out the buffers it fetches, it does not
// copy out of them. Heap bytes are process-wide (the in-process targets
// included), so a fresh slice per READ on either end of the socket, or
// a staging copy in a plane, trips it.
func TestReadPathAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const childSize = 8 * model.MB
	const length = 1 * model.MB
	children := make([]plane.Plane, 2)
	for i := range children {
		_, addr := startTarget(t, map[uint32]int64{1: childSize})
		pool, err := DialPool(addr, 1, PoolConfig{
			QueuePairs: 1,
			Batch:      BatchConfig{Enabled: true, MergeWrites: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pool.Close() })
		if children[i], err = NewTCPPlane(pool, 0, childSize); err != nil {
			t.Fatal(err)
		}
	}
	striped, err := NewStripedPlane(children, 128*model.KB)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		plane plane.Plane
		call  int64 // bytes per Read
		span  int64 // bytes read front to back, from offset 0, per pass
		max   float64
	}{
		{"tcpplane", children[0], length, length, 1.1},
		// The whole child, so that the one window a pass leaves partly
		// unread (at most maxReuseBuf) is cut short by the partition end.
		{"tcpplane, 16 KiB sequential", children[0], 16 * model.KB, childSize, 1.1},
		{"striped(2)", striped, length, length, 2.1},
	} {
		if err := tc.plane.Write(nil, 0, length, make([]byte, length), 0); err != nil {
			t.Fatal(err)
		}
		read := func(n int) {
			for i := 0; i < n; i++ {
				for off := int64(0); off < tc.span; off += tc.call {
					if got, err := tc.plane.Read(nil, off, tc.call, 0); err != nil || int64(len(got)) != tc.call {
						t.Fatalf("%s: read %d bytes, %v", tc.name, len(got), err)
					}
				}
			}
		}
		read(4) // lazy per-connection buffers
		const reads = 32
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read(reads)
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(reads*tc.span)
		t.Logf("%s: %.3f heap bytes allocated per byte read", tc.name, perByte)
		if perByte > tc.max {
			t.Errorf("%s: %.3f heap bytes allocated per byte read, want <= %.1f", tc.name, perByte, tc.max)
		}
	}
	t.Run("recover", recoverAllocBytes)
}

// recoverAllocBytes: a restart over an almost empty provenance log
// allocates the log image (microfs.New) and the little it reads — not a
// second image, and not a region-sized response buffer.
func recoverAllocBytes(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: 128 * model.MB})
	h, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	pl, err := NewTCPPlane(h, 0, h.NamespaceSize())
	if err != nil {
		t.Fatal(err)
	}
	cfg := microfs.Config{Plane: pl, Host: model.Default().Host, Features: microfs.AllFeatures()}
	const logBytes = 4 * model.MB // the microfs default
	env := sim.NewEnv()
	env.Go("restart", func(p *sim.Proc) {
		inst, err := microfs.New(env, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		f, err := inst.Open(p, "/ckpt.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Error(err)
			return
		}
		f.Write(p, make([]byte, 64*model.KB))
		f.Close(p)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fresh, err := microfs.New(env, cfg)
		if err == nil {
			err = fresh.Recover(p)
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Error(err)
			return
		}
		if n := int64(len(fresh.Log().Image())); n != logBytes || fresh.Log().Records() == 0 {
			t.Errorf("recovered a log of %d bytes with %d records", n, fresh.Log().Records())
		}
		got := int64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("New + Recover allocated %d bytes for a %d-byte log region", got, logBytes)
		if got > logBytes+256*model.KB {
			t.Errorf("New + Recover allocated %d bytes, want <= %d", got, logBytes+256*model.KB)
		}
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
