package nvmeof

import (
	"fmt"
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

// recoverAllocBytes: a restart allocates in proportion to the log the
// crash left, not to the log region. Over an almost empty log, New +
// Recover stay under 256 KiB (the first 64 KiB chunk, the image's first
// block, two block pools); over what six epochs of the benchmark's
// meta_storm workload log — 22 008 records, a third of the region — under
// twice the live log (the doubling chunks read at most that; nothing is
// copied out of them but the head's page), plus the path strings the
// records carry, plus 48 B a record for the namespace replay rebuilds (an
// inode, its block list and a tree slot per file). A second image of the
// live log, a decoded record list (80 B a record before it grows) or a
// region-sized buffer each break it. The count is process-wide, so the
// loopback target's service buffer is warmed first.
func recoverAllocBytes(t *testing.T) {
	const files = 1000
	name := func(gen, i int) string { return fmt.Sprintf("/gen%06d/f%04d-%08x.ckpt", gen, i, uint32(i)*2654435761) }
	for _, tc := range []struct {
		name  string
		gens  int
		limit func(live, paths, records int64) int64
	}{
		{"almost_empty", 0, func(_, _, _ int64) int64 { return 256 * model.KB }},
		{"meta_storm", 6, func(live, paths, records int64) int64 { return 2*live + paths + 48*records }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startTarget(t, map[uint32]int64{1: 256 * model.MB})
			h := dialOne(t, addr, 1, PoolConfig{})
			pl, err := NewTCPPlane(h, 0, h.NamespaceSize())
			if err != nil {
				t.Fatal(err)
			}
			// No modelled host costs, as in the end-to-end benchmark: a charge
			// per replayed record is a simulator event per record.
			cfg := microfs.Config{Plane: pl, Features: microfs.AllFeatures()}
			env := sim.NewEnv()
			// crash logs the workload through a first instance and abandons it.
			crash := func(p *sim.Proc) (inst *microfs.Instance, paths int64, err error) {
				if inst, err = microfs.New(env, cfg); err != nil {
					return nil, 0, err
				}
				create := func(path string, n int64) error {
					f, err := inst.Open(p, path, vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
					if err != nil {
						return err
					}
					paths += int64(len(path))
					if _, err := f.WriteN(p, n); err != nil {
						return err
					}
					return f.Close(p)
				}
				if err := create("/ckpt.dat", 64*model.KB); err != nil {
					return nil, 0, err
				}
				for gen := 0; gen < tc.gens; gen++ {
					dir := fmt.Sprintf("/gen%06d", gen)
					if err := inst.Mkdir(p, dir, 0o755); err != nil {
						return nil, 0, err
					}
					paths += int64(len(dir))
					for i := 0; i < files; i++ {
						if err := create(name(gen, i)+".tmp", 2048); err != nil {
							return nil, 0, err
						}
						if err := inst.Rename(p, name(gen, i)+".tmp", name(gen, i)); err != nil {
							return nil, 0, err
						}
						paths += int64(2*len(name(gen, i)) + 4)
					}
					for i := 0; gen >= 2 && i < files; i++ {
						if err := inst.Unlink(p, name(gen-2, i)); err != nil {
							return nil, 0, err
						}
						paths += int64(len(name(gen-2, i)))
					}
				}
				return inst, paths, nil
			}
			env.Go("restart", func(p *sim.Proc) {
				inst, paths, err := crash(p)
				if err != nil {
					t.Error(err)
					return
				}
				// The target's per-connection service buffer at its full
				// size, as on a connection that has served a checkpoint.
				if _, err := h.ReadAt(0, maxReuseBuf); err != nil {
					t.Error(err)
					return
				}
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
				live, records := inst.Log().Head(), inst.Log().Records()
				if fresh.Log().Head() != live || fresh.Log().Records() != records {
					t.Errorf("recovered a log of %d bytes and %d records, the crashed one had %d and %d",
						fresh.Log().Head(), fresh.Log().Records(), live, records)
				}
				got, limit := int64(after.TotalAlloc-before.TotalAlloc), tc.limit(live, paths, records)
				t.Logf("New + Recover allocated %d bytes for a live log of %d bytes (%d records, %d bytes of paths)",
					got, live, records, paths)
				if got > limit {
					t.Errorf("New + Recover allocated %d bytes, want <= %d", got, limit)
				}
			})
			if _, err := env.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// runBytes is microfs's staged run (its unexported stageBytes): the one
// buffer the write path may allocate.
const runBytes = uint64(256 * model.KB)

// writeShape is a checkpoint's write side through microfs: files files,
// each written in calls calls of callBytes, then Fsync and Close.
type writeShape struct {
	files, calls int
	callBytes    int64
}

// run writes the shape through a fresh instance over pl — the same device
// offsets each time, the pool being deterministic — and returns the heap
// bytes the process allocated between each file's Open and the return of
// its Close, and the commands the target served meanwhile.
func (s writeShape) run(tb testing.TB, tgt *Target, pl plane.Plane, noCoalesce bool) (allocated, commands uint64) {
	data := make([]byte, s.callBytes)
	env := sim.NewEnv()
	env.Go("writer", func(p *sim.Proc) {
		inst, err := microfs.New(env, microfs.Config{Plane: pl, Features: microfs.AllFeatures(), NoCoalesce: noCoalesce})
		if err != nil {
			tb.Error(err)
			return
		}
		for i := 0; i < s.files; i++ {
			f, err := inst.Open(p, fmt.Sprintf("/f%04d.ckpt", i), vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
			if err != nil {
				tb.Error(err)
				return
			}
			cmds := tgt.Snapshot().Commands
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for c := 0; c < s.calls; c++ {
				if _, err := f.Write(p, data); err != nil {
					tb.Error(err)
					return
				}
			}
			if err := f.Fsync(p); err != nil {
				tb.Error(err)
			}
			if err := f.Close(p); err != nil {
				tb.Error(err)
			}
			runtime.ReadMemStats(&after)
			allocated += after.TotalAlloc - before.TotalAlloc
			commands += tgt.Snapshot().Commands - cmds
		}
	})
	if _, err := env.Run(); err != nil {
		tb.Fatal(err)
	}
	return allocated, commands
}

// writePathPlane is a plain TCPPlane over a two-queue-pair batching pool
// on a loopback target: the end-to-end benchmark's ckpt_small and
// meta_storm stack.
func writePathPlane(tb testing.TB, size int64) (*Target, plane.Plane) {
	tgt, addr := startTarget(tb, map[uint32]int64{1: size})
	pool, err := DialPool(addr, 1, PoolConfig{
		QueuePairs: 2,
		Batch:      BatchConfig{Enabled: true, MergeWrites: true},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { pool.Close() })
	pl, err := NewTCPPlane(pool, 0, size)
	if err != nil {
		tb.Fatal(err)
	}
	return tgt, pl
}

// TestWritePathAllocBytes is the write path's allocation gate. A file
// written in small sequential calls costs the staged run once, whatever
// its length, plus 64 KiB for its block list and the commands that carry
// it; a buffer per call, per run or per flush breaks it. One-write files
// (the meta_storm shape) and calls of a run's size or more never stage, so
// they must not allocate a run: each is held to what the same shape
// allocates with coalescing, and so staging, disabled, plus a quarter of a
// run. Heap bytes are process-wide, so a first pass warms the target's
// store and per-connection buffers.
func TestWritePathAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	tgt, pl := writePathPlane(t, 256*model.MB)
	t.Run("sequential 16 KiB", func(t *testing.T) {
		shape := writeShape{files: 1, calls: 2048, callBytes: 16 * model.KB}
		shape.run(t, tgt, pl, false)
		got, _ := shape.run(t, tgt, pl, false)
		t.Logf("allocated %d bytes", got)
		if limit := runBytes + uint64(64*model.KB); got > limit {
			t.Errorf("allocated %d bytes, want <= %d", got, limit)
		}
	})
	for _, tc := range []struct {
		name  string
		shape writeShape
	}{
		{"meta_storm", writeShape{files: 1000, calls: 1, callBytes: 2048}},
		{"1 MiB calls", writeShape{files: 1, calls: 64, callBytes: model.MB}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.shape.run(t, tgt, pl, false)
			unstaged, _ := tc.shape.run(t, tgt, pl, true)
			got, _ := tc.shape.run(t, tgt, pl, false)
			t.Logf("allocated %d bytes, %d with coalescing off", got, unstaged)
			if limit := unstaged + runBytes/4; got > limit {
				t.Errorf("allocated %d bytes, want <= %d: a shape that never stages allocated a run", got, limit)
			}
		})
	}
}

// BenchmarkSequentialSmallWrites is ckpt_small's write side for one rank:
// a 32 MiB file in 16 KiB calls, Fsync, Close, through microfs on a
// loopback TCPPlane.
func BenchmarkSequentialSmallWrites(b *testing.B) {
	shape := writeShape{files: 1, calls: 2048, callBytes: 16 * model.KB}
	tgt, pl := writePathPlane(b, 256*model.MB)
	shape.run(b, tgt, pl, false)
	var commands uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, n := shape.run(b, tgt, pl, false)
		commands += n
	}
	mib := float64(b.N) * float64(shape.calls) * float64(shape.callBytes) / float64(model.MB)
	b.ReportMetric(mib*float64(model.MB)/1e6/b.Elapsed().Seconds(), "MB/s")
	b.ReportMetric(float64(commands)/mib, "cmds/MiB")
}
