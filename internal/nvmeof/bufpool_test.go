package nvmeof

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/plane"
)

// TestPayloadFreeListClasses pins the free list's shape: its classes
// run from sockBufSize to MaxDataLen, and whatever a take returns — a
// hit or a miss — is exactly as long as asked, with a capacity under
// twice that, even when the class holds buffers too short for it.
func TestPayloadFreeListClasses(t *testing.T) {
	if 1<<payloadMinShift != sockBufSize || 1<<payloadMaxShift != MaxDataLen {
		t.Fatalf("classes [2^%d, 2^%d], want [sockBufSize %d, MaxDataLen %d]",
			payloadMinShift, payloadMaxShift, sockBufSize, MaxDataLen)
	}
	for _, tc := range []struct{ n, class int }{
		{sockBufSize - 1, -1}, {sockBufSize, 0}, {2*sockBufSize - 1, 0},
		{2 * sockBufSize, 1}, {MaxDataLen, payloadMaxShift - payloadMinShift},
		{2 * MaxDataLen, -1},
	} {
		if got := payloadClass(tc.n); got != tc.class {
			t.Errorf("payloadClass(%d) = %d, want %d", tc.n, got, tc.class)
		}
	}
	var l payloadFreeList
	for _, n := range []int{80 << 10, 96 << 10, 100 << 10, 127 << 10, 128 << 10} {
		for i := 0; i < 8; i++ {
			l.recycle(make([]byte, 96<<10))
			got := l.take(n)
			if len(got) != n || cap(got) >= 2*n {
				t.Fatalf("take of %d bytes: len %d cap %d", n, len(got), cap(got))
			}
			l.recycle(got)
		}
	}
}

// TestPayloadFreeListSurvivesGC: a recycled buffer is still there for
// the next take of its class after garbage collection has run, however
// long the phase without a READ that separates them. Break-demo: with
// the free list as the per-class sync.Pool it replaced, the take after
// two collections misses and allocates a fresh buffer (red three times
// out of three).
func TestPayloadFreeListSurvivesGC(t *testing.T) {
	var l payloadFreeList
	for _, n := range []int{sockBufSize, 512 << 10, MaxDataLen} {
		b := make([]byte, n)
		l.recycle(b)
		runtime.GC()
		runtime.GC()
		got := l.take(n)
		if len(got) != n || &got[0] != &b[0] {
			t.Fatalf("%d-byte buffer: the take after two collections did not get it back", n)
		}
	}
}

// TestPayloadFreeListBudget: the list keeps at most payloadBudget bytes
// of capacity, however much is recycled into it, and a take longer than
// every buffer its class keeps misses — it allocates exactly what it
// asked for and leaves the kept buffers where they are.
func TestPayloadFreeListBudget(t *testing.T) {
	var l payloadFreeList
	const n = 96 << 10
	for i := 0; i < 2*payloadBudget/n; i++ {
		l.recycle(make([]byte, n))
	}
	kept := 0
	for _, stack := range l.class {
		for _, b := range stack {
			kept += cap(b)
		}
	}
	if kept > payloadBudget || kept != l.held {
		t.Fatalf("%d bytes kept (held counts %d) after recycling %d, budget %d", kept, l.held, 2*payloadBudget, payloadBudget)
	}
	if kept < payloadBudget-n {
		t.Fatalf("%d bytes kept, the budget %d has room for more", kept, payloadBudget)
	}
	k := payloadClass(n)
	before := len(l.class[k])
	if got := l.take(n + 1); cap(got) != n+1 {
		t.Fatalf("take of %d bytes from a class of %d-byte buffers: cap %d, want a fresh %d", n+1, n, cap(got), n+1)
	}
	if len(l.class[k]) != before {
		t.Fatalf("a miss changed its class from %d buffers to %d", before, len(l.class[k]))
	}
	if got := l.take(n); cap(got) != n || len(l.class[k]) != before-1 {
		t.Fatalf("take of %d bytes: cap %d, class left with %d of %d", n, cap(got), len(l.class[k]), before)
	}
}

// TestPayloadFreeListConcurrent: every read loop and stripe shares the
// free list, so takes and recycles from several goroutines at once must
// never hand one buffer to two holders, and the byte count the budget
// is held to must match what the stacks keep. scripts/verify.sh runs it
// under -race.
func TestPayloadFreeListConcurrent(t *testing.T) {
	var l payloadFreeList
	sizes := []int{sockBufSize, 96 << 10, 512 << 10, MaxDataLen}
	const stride = 4096 // a mark per page is enough to tell holders apart
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := l.take(sizes[(g+i)%len(sizes)])
				for j := 0; j < len(b); j += stride {
					b[j] = byte(g)
				}
				runtime.Gosched()
				for j := 0; j < len(b); j += stride {
					if b[j] != byte(g) {
						t.Errorf("goroutine %d: a buffer it held was written by goroutine %d", g, b[j])
						return
					}
				}
				l.recycle(b)
			}
		}(g)
	}
	wg.Wait()
	kept := 0
	for _, stack := range l.class {
		for _, b := range stack {
			kept += cap(b)
		}
	}
	if kept != l.held || kept > payloadBudget {
		t.Fatalf("stacks keep %d bytes, held counts %d, budget %d", kept, l.held, payloadBudget)
	}
}

// TestWritePayloadLifetimeUnderLoad is the -race lifetime test of the
// WRITE payload contract: once WriteAt or WriteAtV returns successfully
// the transport is done with the caller's bytes, so scribbling over them
// at once must be race-free and must not reach the target — with
// batching, merging and concurrent submitters in play. scripts/verify.sh
// runs it with -race; a transport goroutine still touching a completed
// payload shows up as a data race, and one that sends it late as a
// read-back mismatch.
func TestWritePayloadLifetimeUnderLoad(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: 64 * model.MB})
	p, err := DialPool(addr, 1, PoolConfig{
		QueuePairs: 2,
		Batch:      BatchConfig{Enabled: true, MergeWrites: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const workers = 8
	const writes = 300
	const size = 2048
	fill := func(buf []byte, w, i int) {
		for j := range buf {
			buf[j] = byte(w ^ i ^ j)
		}
	}
	at := func(w, i int) int64 { return int64(w)*size + int64(i%4)*workers*size }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, size)
			for i := 0; i < writes; i++ {
				fill(buf, w, i)
				var err error
				if i%2 == 0 {
					err = p.WriteAt(at(w, i), buf)
				} else {
					cut := (w*31 + i*17) % size
					err = p.WriteAtV(at(w, i), [][]byte{buf[:cut], buf[cut:]})
				}
				if err != nil {
					t.Error(err)
					return
				}
				// The call returned: the bytes are the caller's again.
				for j := range buf {
					buf[j] = 0xEE
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := make([]byte, size)
	for w := 0; w < workers; w++ {
		for i := writes - 4; i < writes; i++ {
			got, err := p.ReadAt(at(w, i), size)
			if err != nil {
				t.Fatal(err)
			}
			fill(want, w, i)
			if !bytes.Equal(got, want) {
				t.Fatalf("worker %d write %d: the target holds bytes other than the payload at its return", w, i)
			}
		}
	}
}

// TestReadPayloadRecycling holds the payload free list to its one rule:
// only a READ payload that dies inside the package goes back to it,
// never a buffer a caller was handed. Over loopback targets, several
// goroutines per plane read distinct pseudo-random bytes — random
// offsets and sequential runs, so TCPPlane read-ahead windows are cut
// too — and keep every result through all the reads after it; at the
// end each kept result must still equal the oracle. The planes cover
// every place a buffer goes back: a RAID-0 StripedPlane (member buffers
// once scattered, window slices among them), a mirror with read
// verification (the non-authority copies; the authority is the result),
// a one-group mirror on both sides of the split rule (a read under two
// units is a member's buffer, which must not go back; one of two units
// or more splits, and its parts go back once scattered) and a TCPPlane
// read above maxChunk (its chunks once appended), next to one-capsule
// and windowed TCPPlane reads that must not go back.
//
// Break-demos, each run red three times out of three: recycling the
// one-member result in StripedPlane.Read ("mirror, one group" and
// "mirror, verify" fail with a kept result overwritten by a later read);
// recycling the result a stripe scattered into ("raid0" and "mirror,
// one group", whose reads of two units or more split); and recycling
// the window slice TCPPlane.Read has just handed out ("tcpplane" fails
// the same way, and so do "raid0" and the mirrors, whose members cut
// windows of their own).
func TestReadPayloadRecycling(t *testing.T) {
	const unit = 64 * model.KB
	const childSize = 8 * model.MB
	children := func(t *testing.T, n int) []plane.Plane {
		out := make([]plane.Plane, n)
		for i := range out {
			_, addr := startTarget(t, map[uint32]int64{1: childSize})
			pool, err := DialPool(addr, 1, PoolConfig{QueuePairs: 2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { pool.Close() })
			if out[i], err = NewTCPPlane(pool, 0, childSize); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	mirror := func(t *testing.T, verify bool) plane.Plane {
		m, err := NewMirroredPlane(children(t, 2), unit, 2)
		if err != nil {
			t.Fatal(err)
		}
		m.SetVerifyReads(verify)
		return m
	}
	for _, tc := range []struct {
		name    string
		plane   func(t *testing.T) plane.Plane
		lengths []int64 // drawn from at random, one per run of reads
		reads   int     // per goroutine
	}{
		{"raid0", func(t *testing.T) plane.Plane {
			s, err := NewStripedPlane(children(t, 2), unit)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, []int64{unit, 2 * unit, 3 * unit, 4 * unit}, 48},
		{"mirror, verify", func(t *testing.T) plane.Plane { return mirror(t, true) },
			[]int64{unit, 96 * model.KB, 2 * unit}, 48},
		{"mirror, one group", func(t *testing.T) plane.Plane { return mirror(t, false) },
			[]int64{unit, 96 * model.KB, 2 * unit, 3 * unit, 4 * unit}, 48},
		{"tcpplane", func(t *testing.T) plane.Plane { return children(t, 1)[0] },
			[]int64{unit, unit, unit, maxChunk + unit}, 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := tc.plane(t)
			size := pl.Size()
			oracle := make([]byte, size)
			rand.New(rand.NewSource(34)).Read(oracle)
			for off := int64(0); off < size; off += maxChunk {
				n := min(maxChunk, size-off)
				if err := pl.Write(nil, off, n, oracle[off:off+n], 0); err != nil {
					t.Fatal(err)
				}
			}
			type kept struct {
				off int64
				b   []byte
			}
			const goroutines = 3
			results := make([][]kept, goroutines)
			var wg sync.WaitGroup
			for g := range results {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					var off, n int64
					for i := 0; i < tc.reads; i++ {
						if next := off + n; i%4 == 0 || next+n > size || n > maxChunk {
							// A new run: random length and place.
							n = tc.lengths[rng.Intn(len(tc.lengths))]
							off = rng.Int63n(size - n + 1)
						} else {
							off = next
						}
						b, err := pl.Read(nil, off, n, 0)
						if err != nil {
							t.Error(err)
							return
						}
						results[g] = append(results[g], kept{off, b})
					}
				}(g)
			}
			wg.Wait()
			for g, rs := range results {
				for i, r := range rs {
					if want := oracle[r.off : r.off+int64(len(r.b))]; !bytes.Equal(r.b, want) {
						t.Fatalf("goroutine %d read %d [%d,+%d): a kept result was overwritten after it was returned",
							g, i, r.off, len(r.b))
					}
				}
			}
		})
	}
}
