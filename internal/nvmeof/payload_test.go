package nvmeof

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/microfs"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// TestPayloadFreeListClasses pins plane's read buffer free list to this
// transport. Its smallest kept class is one 512-byte sector, so the
// list keeps what small reads hand out: a TCPPlane read-ahead window's
// results (16 KiB on ckpt_small), which are copied out of the window
// and alias nothing, and meta_storm's 512 B-4 KiB file reads. Its
// largest is MaxDataLen, the longest READ payload a capsule carries.
func TestPayloadFreeListClasses(t *testing.T) {
	if plane.RecycleMin != 512 || plane.RecycleMax != MaxDataLen {
		t.Fatalf("classes [%d, %d], want [one sector 512, MaxDataLen %d]",
			plane.RecycleMin, plane.RecycleMax, MaxDataLen)
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
// read above maxChunk (its chunks once copied into place), next to
// one-capsule and windowed TCPPlane reads that must not go back.
//
// Break-demos, each run red three times out of three: recycling the
// one-member result in StripedPlane.Read ("mirror, verify" fails with a
// kept result overwritten by a later read), and recycling the result a
// stripe scattered into ("raid0" and "mirror, one group", whose reads
// of two units or more split). A TCPPlane read-ahead hand-out is copied
// out of the window, and the window goes back only once spent or
// replaced; TestTCPPlaneReadAheadProperty is that lifetime's suite.
func TestReadPayloadRecycling(t *testing.T) {
	const unit = 64 * model.KB
	const childSize = 8 * model.MB
	children := func(t *testing.T, n int) []plane.Plane { return loopbackPlanes(t, n, childSize) }
	mirror := func(t *testing.T, verify bool) plane.Plane {
		m, err := NewMirroredPlane(children(t, 2), unit, 2)
		if err != nil {
			t.Fatal(err)
		}
		if verify {
			return resyncing{m}
		}
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

// resyncing serves every Read through ReadResync, the one verifying
// read.
type resyncing struct{ *StripedPlane }

func (r resyncing) Read(p *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error) {
	return r.ReadResync(p, off, length, cmdUnit)
}

// unsimulated hands the plane beneath it no simulation process, as the
// end-to-end benchmark's plane seam does: a StripedPlane fans out
// concurrently, and splits a mirror read, only without one.
type unsimulated struct{ plane.Plane }

func (u unsimulated) Write(_ *sim.Proc, off, length int64, data []byte, cmdUnit int64) error {
	return u.Plane.Write(nil, off, length, data, cmdUnit)
}

func (u unsimulated) Read(_ *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error) {
	return u.Plane.Read(nil, off, length, cmdUnit)
}

func (u unsimulated) Flush(*sim.Proc) error { return u.Plane.Flush(nil) }

// loopbackPlanes opens n TCPPlanes of size bytes, each on a loopback
// target of its own.
func loopbackPlanes(t testing.TB, n int, size int64) []plane.Plane {
	out := make([]plane.Plane, n)
	for i := range out {
		_, addr := startTarget(t, map[uint32]int64{1: size})
		pool, err := DialPool(addr, 1, PoolConfig{QueuePairs: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pool.Close() })
		if out[i], err = NewTCPPlane(pool, 0, size); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestFileReadRecycling is the use-after-recycle suite of microfs's read
// path, which gives every plane result back to the free list once it
// has copied it into the caller's buffer. Three microfs instances, each
// on loopback targets of its own — over a 2-target RAID-0 StripedPlane,
// a 2-replica mirror and a plain TCPPlane — write seeded files and then
// read them back at once, each from its own goroutine, in seeded calls
// of 4 KiB to 2 MiB; sequential runs of 64 to 128 KiB calls make the
// plain TCPPlane cut them off read-ahead windows. A fourth goroutine
// stands in for other ranks' reads: it takes buffers of the kept sizes
// the readers recycle (256 KiB to 2 MiB) and marks one byte in every
// KiB of each. Every byte read is checked. scripts/verify.sh runs it
// under -race.
//
// Break-demo: moving plane.Recycle(data) above the copy in microfs's
// file.read turns it red — all three instances return marked bytes
// (red five times out of five), and under -race the copy races the
// scribbler's writes.
func TestFileReadRecycling(t *testing.T) {
	const seed = 37
	const childSize = 16 * model.MB
	const unit = 128 * model.KB
	raid0, err := NewStripedPlane(loopbackPlanes(t, 2, childSize), unit)
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := NewMirroredPlane(loopbackPlanes(t, 2, childSize), unit, 2)
	if err != nil {
		t.Fatal(err)
	}
	planes := []struct {
		name string
		pl   plane.Plane
	}{
		{"raid0", unsimulated{raid0}},
		{"mirror", unsimulated{mirror}},
		{"tcpplane", loopbackPlanes(t, 1, childSize)[0]},
	}
	sizes := []int{4 << 10, 16 << 10, 64 << 10, 96 << 10, 120 << 10, 256 << 10, 1 << 20, 2 << 20}
	stop := make(chan struct{})
	var scribbler sync.WaitGroup
	scribbler.Add(1)
	go func() {
		defer scribbler.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b := plane.TakeBuffer(sizes[5+i%3])
			for j := 0; j < len(b); j += 1 << 10 {
				b[j] = 0xEE
			}
			plane.Recycle(b)
		}
	}()
	var readers sync.WaitGroup
	for i, tc := range planes {
		readers.Add(1)
		go func(i int, name string, pl plane.Plane) {
			defer readers.Done()
			env := sim.NewEnv()
			env.Go(name, func(p *sim.Proc) {
				if err := readBackFiles(p, pl, rand.New(rand.NewSource(seed+int64(i))), sizes); err != nil {
					t.Errorf("%s (seed %d): %v", name, seed+int64(i), err)
				}
			})
			if _, err := env.Run(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}(i, tc.name, tc.pl)
	}
	readers.Wait()
	close(stop)
	scribbler.Wait()
}

// readBackFiles writes seeded files through a fresh microfs instance
// over pl, then reads each back three times in seeded calls drawn from
// sizes, in runs of one to eight calls of one size, checking every byte.
func readBackFiles(p *sim.Proc, pl plane.Plane, rng *rand.Rand, sizes []int) error {
	inst, err := microfs.New(p.Env(), microfs.Config{
		Plane: pl, Features: microfs.AllFeatures(), LogBytes: 1 * model.MB, SnapBytes: 2 * model.MB,
	})
	if err != nil {
		return err
	}
	files := make([][]byte, 3)
	for i := range files {
		files[i] = make([]byte, model.MB+rng.Int63n(3*model.MB))
		rng.Read(files[i])
		f, err := inst.Open(p, fmt.Sprintf("/f%d", i), vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(p, files[i]); err != nil {
			return err
		}
		if err := f.Close(p); err != nil {
			return err
		}
	}
	buf := make([]byte, sizes[len(sizes)-1])
	for pass := 0; pass < 3; pass++ {
		for i, want := range files {
			f, err := inst.Open(p, fmt.Sprintf("/f%d", i), vfs.O_RDONLY, 0)
			if err != nil {
				return err
			}
			var n, left int
			for pos := 0; pos < len(want); pos += n {
				if left == 0 {
					n, left = sizes[rng.Intn(len(sizes))], 1+rng.Intn(8)
				}
				left--
				got, err := f.Read(p, buf[:n])
				if err != nil {
					return err
				}
				if got != min(n, len(want)-pos) || !bytes.Equal(buf[:got], want[pos:pos+got]) {
					return fmt.Errorf("pass %d file %d: a %d-byte read at %d returned bytes other than the file's", pass, i, n, pos)
				}
			}
			if err := f.Close(p); err != nil {
				return err
			}
		}
	}
	return nil
}
