package nvmeof

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/model"
)

// offHome sums the pool's nvmecr_pool_off_home_total series.
func offHome(p *HostPool) uint64 {
	var n uint64
	for _, s := range p.slots {
		n += s.tel.offHome.Value()
	}
	return n
}

// TestPoolHomeByAddress pins the placement rule: a command's scan starts
// at the queue pair that owns its offset, and everything after the start
// — spill depth, shallowest-wins — is TestBatchingPoolFillFirst's.
func TestPoolHomeByAddress(t *testing.T) {
	const fill = 64
	dial := func(t *testing.T, nsid uint32, size int64, pairs int, batch bool) *HostPool {
		t.Helper()
		_, addr := startTarget(t, map[uint32]int64{1: size})
		p, err := DialPool(addr, nsid, PoolConfig{QueuePairs: pairs, Batch: BatchConfig{Enabled: batch}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}

	t.Run("acquire", func(t *testing.T) {
		const q = 4 * model.MB // one queue pair's range of the 16 MiB namespace
		four := dial(t, 1, 4*q, 4, true)
		plain := dial(t, 1, 4*q, 4, false)
		// Three 1 MiB partitions over two pairs: the boundary is at
		// 1.5 MiB, so the middle partition straddles it and its two halves
		// use different pairs.
		three := dial(t, 1, 3*model.MB, 2, true)
		admin := dial(t, 0, q, 2, true)
		for _, tc := range []struct {
			name  string
			pool  *HostPool
			off   int64
			n     int
			depth []int32
			want  int
		}{
			{"first byte", four, 0, 512, []int32{0, 0, 0, 0}, 0},
			{"last byte of range 0", four, q - 1, 512, []int32{0, 0, 0, 0}, 0},
			{"first byte of range 1", four, q, 512, []int32{0, 0, 0, 0}, 1},
			{"range 3", four, 3*q + 17, 512, []int32{0, 0, 0, 0}, 3},
			{"at namespace size", four, 4 * q, 512, []int32{0, 0, 0, 0}, 3},
			// What a caller's negative offset looks like on the wire.
			{"far past namespace size", four, -1, 512, []int32{0, 0, 0, 0}, 3},

			{"small stays home under the fill depth", four, 2 * q, 512, []int32{0, 0, fill - 1, 0}, 2},
			{"small spills in slot order", four, 2 * q, 512, []int32{0, 0, fill, 0}, 3},
			{"spill wraps", four, 2 * q, 512, []int32{0, 0, fill, fill}, 0},
			{"spill wraps past a full slot 0", four, 2 * q, 512, []int32{fill, 0, fill, fill}, 1},
			{"all full: shallowest", four, 2 * q, 512, []int32{fill + 2, fill + 1, fill + 3, fill + 2}, 1},
			{"all equally full: home", four, 2 * q, 512, []int32{fill, fill, fill, fill}, 2},
			{"bulk stays on an idle home", four, q, sockBufSize, []int32{0, 0, 0, 0}, 1},
			{"bulk spills past one command", four, q, sockBufSize, []int32{0, 1, 0, 0}, 2},
			{"bulk, all busy: shallowest", four, q, MaxDataLen, []int32{2, 3, 3, 1}, 3},
			{"no batcher: small is placed like bulk", plain, 3 * q, 512, []int32{0, 0, 0, 1}, 0},
			{"no batcher: idle home", plain, 3 * q, 512, []int32{1, 1, 1, 0}, 3},

			{"3 over 2: partition 0", three, 0, 512, []int32{0, 0}, 0},
			{"3 over 2: partition 1, low half", three, model.MB, 512, []int32{0, 0}, 0},
			{"3 over 2: partition 1, high half", three, model.MB + model.MB/2, 512, []int32{0, 0}, 1},
			{"3 over 2: partition 2", three, 2 * model.MB, 512, []int32{0, 0}, 1},

			{"admin pool: no namespace, slot 0", admin, 0, 0, []int32{0, 0}, 0},
			{"admin pool: CREATE-NS carries a size, not an address", admin, 64 * model.MB, 0, []int32{0, 0}, 0},
		} {
			undo := setDepths(tc.pool, tc.depth...)
			s, _, err := tc.pool.acquire(tc.n, tc.pool.home(uint64(tc.off)))
			undo()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if s.id != tc.want {
				t.Errorf("%s: offset %d, %d bytes, depths %v: qp %d, want %d",
					tc.name, tc.off, tc.n, tc.depth, s.id, tc.want)
			}
		}
	})

	// The benchmark's shape (BENCHMARK.json: ckpt_small, meta_storm): two
	// ranks, one partition each, two queue pairs, synchronous callers. Each
	// rank keeps every command on its own pair and nothing is placed off
	// home. Run under -race.
	for _, size := range []int{4 << 10, 256 << 10} {
		t.Run(fmt.Sprintf("two-callers/%dKiB", size>>10), func(t *testing.T) {
			const (
				half    = 8 * model.MB
				perCall = 100
			)
			_, addr := startTarget(t, map[uint32]int64{1: 2 * half})
			p, err := DialPool(addr, 1, PoolConfig{QueuePairs: 2, Batch: BatchConfig{Enabled: true, MergeWrites: true}})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			buf := make([]byte, size) // shared: the payload is only read
			got := runCallers(t, p, 2, perCall, func(c, i int) error {
				off := int64(c)*half + int64(i%16)*int64(size)
				if i%2 == 0 {
					return p.WriteAt(off, buf)
				}
				_, err := p.ReadAt(off, int64(size))
				return err
			})
			for qp, n := range got {
				if n != perCall {
					t.Errorf("qp %d took %d commands, want caller %d's %d and no others", qp, n, qp, perCall)
				}
			}
			if n := offHome(p); n != 0 {
				t.Errorf("%d commands placed off home, want 0", n)
			}
		})
	}

	// A burst from one region still meets in one batcher: as many small
	// submitters as the fill depth never see their home full.
	t.Run("burst", func(t *testing.T) {
		const (
			q          = 4 * model.MB
			submitters = fill
			perCall    = 8
			home       = 1
		)
		tgt := NewTarget()
		// A little device time keeps the submitters overlapping.
		if err := tgt.AddNamespace(1, NewMemNamespaceWithLatency(4*q, 200*time.Microsecond)); err != nil {
			t.Fatal(err)
		}
		addr, err := tgt.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer tgt.Close()
		p, err := DialPool(addr, 1, PoolConfig{QueuePairs: 4, Batch: BatchConfig{Enabled: true}})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if p.fill != fill {
			t.Fatalf("fill depth %d, want %d", p.fill, fill)
		}
		buf := make([]byte, 512)
		got := runCallers(t, p, submitters, perCall, func(c, i int) error {
			return p.WriteAt(home*q+int64(c*perCall+i)*1024, buf)
		})[home]
		if total := uint64(submitters * perCall); got*10 < total*9 {
			t.Errorf("home qp %d took %d of %d same-region commands, want >= 90%%", home, got, total)
		}
		if n, rest := offHome(p), uint64(submitters*perCall)-got; n != rest {
			t.Errorf("off-home counter %d, but %d commands left home", n, rest)
		}
	})
}

// BenchmarkHostPoolTwoPartitions is the benchmark's small-command shape
// at the pool: two synchronous callers, one per half of the namespace
// (two ranks, one partition each), two queue pairs. 4 KiB is a metadata
// or small checkpoint write, 32 KiB a directory-tail command. ns/op is
// per command per caller. Printed ungated by scripts/bench.sh.
func BenchmarkHostPoolTwoPartitions(b *testing.B) {
	const half = 8 * model.MB
	for _, size := range []int{4 << 10, 32 << 10} {
		for _, batched := range []bool{true, false} {
			b.Run(fmt.Sprintf("size=%dKiB/batch=%v", size>>10, batched), func(b *testing.B) {
				_, addr := startTarget(b, map[uint32]int64{1: 2 * half})
				cfg := PoolConfig{QueuePairs: 2}
				if batched {
					cfg.Batch = BatchConfig{Enabled: true, MergeWrites: true}
				}
				p, err := DialPool(addr, 1, cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer p.Close()
				var wg sync.WaitGroup
				b.SetBytes(2 * int64(size))
				b.ResetTimer()
				for c := int64(0); c < 2; c++ {
					wg.Add(1)
					go func(base int64) {
						defer wg.Done()
						buf := make([]byte, size)
						for i := 0; i < b.N; i++ {
							if err := p.WriteAt(base+int64(i%64)*int64(size), buf); err != nil {
								b.Error(err)
								return
							}
						}
					}(c * half)
				}
				wg.Wait()
			})
		}
	}
}
