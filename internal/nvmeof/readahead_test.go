package nvmeof

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/plane"
)

// dialPlane starts a target with one namespace of size bytes and opens
// the whole of it as a TCPPlane over a single queue pair.
func dialPlane(t *testing.T, size int64) (*Target, *TCPPlane) {
	t.Helper()
	tgt, addr := startTarget(t, map[uint32]int64{1: size})
	h := dialOne(t, addr, 1, PoolConfig{})
	pl, err := NewTCPPlane(h, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	return tgt, pl
}

// TestTCPPlaneWriteDataLength: plane.Plane requires len(data) == length
// for a non-nil payload; a mismatch is an error, not an out-of-range
// slice.
func TestTCPPlaneWriteDataLength(t *testing.T) {
	_, pl := dialPlane(t, 1*model.MB)
	for _, n := range []int{0, 50, 200} {
		if err := pl.Write(nil, 0, 100, make([]byte, n), 0); !errors.Is(err, ErrDataLength) {
			t.Errorf("Write of %d bytes with length 100: %v, want ErrDataLength", n, err)
		}
	}
	if err := pl.Write(nil, 0, 100, make([]byte, 100), 0); err != nil {
		t.Error(err)
	}
}

// TestTCPPlaneSyntheticWrite: a nil-data write stores zeros over exactly
// its range, also when it is longer than one capsule, and is sent from
// the shared zero block, which stays zero.
func TestTCPPlaneSyntheticWrite(t *testing.T) {
	const size = 12 * model.MB
	_, pl := dialPlane(t, size)
	want := bytes.Repeat([]byte{0xA5}, int(size))
	if err := pl.Write(nil, 0, size, want, 0); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int64{{100, 32 * model.KB}, {1*model.MB + 7, 2*maxChunk + 12345}} {
		if err := pl.Write(nil, r[0], r[1], nil, 0); err != nil {
			t.Fatal(err)
		}
		clear(want[r[0] : r[0]+r[1]])
	}
	got, err := pl.Read(nil, 0, size, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("synthetic writes did not store zeros over exactly their ranges")
	}
	if zeros != [maxChunk]byte{} {
		t.Error("the shared zero block was written to")
	}
}

// TestTCPPlaneReadAheadProperty drives one TCPPlane over a live loopback
// target with a seeded mix of everything the read-ahead window has to
// get right — sequential runs, jumps, backward re-reads, reads at and
// across the window's length threshold, runs into the partition end,
// writes and gather writes into the fetched-but-unconsumed part of the
// window, flushes — against a flat in-memory oracle. Every result is
// scribbled over and appended to once checked, so a result that shared
// bytes with a later one would corrupt it. Then it goes back to the free
// list, as microfs's File.Read gives it back, and before it does a
// buffer of its length is taken from the list, scribbled over and given
// back too, as another reader would: the take comes first, so that it
// draws a buffer an earlier read gave back, whose window may have been
// fetched again since. A result that aliased its window would hand that
// window's unread bytes to the scribbler.
//
// Break-demo: a hand-out left as t.win[:length:length] (the window still
// recycled once spent) is red three times out of three, with
// "read 522 [2170705,+27402) differs from the oracle".
func TestTCPPlaneReadAheadProperty(t *testing.T) {
	const base, size = 1 * model.MB, 6 * model.MB
	_, addr := startTarget(t, map[uint32]int64{1: 8 * model.MB})
	pool, err := DialPool(addr, 1, PoolConfig{QueuePairs: 2, Batch: BatchConfig{Enabled: true, MergeWrites: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pl, err := NewTCPPlane(pool, base, size)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	oracle := make([]byte, size)
	rng.Read(oracle)
	if err := pl.Write(nil, 0, size, oracle, 0); err != nil {
		t.Fatal(err)
	}

	reads := 0
	read := func(off, n int64) {
		t.Helper()
		got, err := pl.Read(nil, off, n, 0)
		if err != nil {
			t.Fatalf("read [%d,+%d): %v", off, n, err)
		}
		if !bytes.Equal(got, oracle[off:off+n]) {
			t.Fatalf("read %d [%d,+%d) differs from the oracle", reads, off, n)
		}
		reads++
		for i := range got {
			got[i] = 0xEE
		}
		_ = append(got, 0xEE, 0xEE, 0xEE, 0xEE)
		b := plane.TakeBuffer(len(got))
		for i := range b {
			b[i] = 0xDD
		}
		plane.Recycle(got)
		plane.Recycle(b)
	}
	write := func(off, n int64, vectored bool) {
		t.Helper()
		data := make([]byte, n)
		rng.Read(data)
		copy(oracle[off:], data)
		var err error
		if vectored {
			cut := rng.Int63n(n + 1)
			err = pl.WriteV(nil, off, [][]byte{data[:cut], data[cut:]})
		} else {
			err = pl.Write(nil, off, n, data, 0)
		}
		if err != nil {
			t.Fatalf("write [%d,+%d): %v", off, n, err)
		}
	}
	smallLen := func() int64 { return 1 + rng.Int63n(40*model.KB) }
	var pos int64 // where the last sequential run stopped
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); op {
		case 0, 1, 2: // a sequential run of equal small reads
			n, pos0 := smallLen(), rng.Int63n(size)
			for k := rng.Intn(60); k >= 0 && pos0+n <= size; k-- {
				read(pos0, n)
				pos0 += n
			}
			pos = pos0
		case 3: // continue the run with varying lengths
			for k := rng.Intn(20); k >= 0; k-- {
				n := smallLen()
				if pos+n > size {
					break
				}
				read(pos, n)
				pos += n
			}
		case 4: // backward re-read of what was just handed out
			n := min(smallLen(), pos)
			read(pos-n, n)
		case 5: // at and across the threshold, continuing the run or not
			n := readAheadBelow + rng.Int63n(3) - 1
			off := pos
			if rng.Intn(2) == 0 || off+n > size {
				off = rng.Int63n(size - n)
			}
			read(off, n)
			pos = off + n
		case 6: // a run that ends exactly at the partition end
			n := smallLen()
			for off := size - n*int64(3+rng.Intn(30)); off < size; off += n {
				if off >= 0 {
					read(off, n)
				}
			}
			pos = size
		case 7, 8: // store into what a window fetched ahead, then read on
			n := smallLen()
			if off := pos + rng.Int63n(64*model.KB); off+n <= size {
				write(off, n, op == 8)
			}
			for k := 0; k < 6 && pos+n <= size; k++ {
				read(pos, n)
				pos += n
			}
		case 9:
			if err := pl.Flush(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if reads < 4000 {
		t.Fatalf("only %d reads issued; the mix is not exercising the window", reads)
	}
	whole, err := pl.Read(nil, 0, size, 0)
	if err != nil || !bytes.Equal(whole, oracle) {
		t.Fatalf("final image differs from the oracle (%v)", err)
	}
}

// TestTCPPlaneConcurrentReaders: a mirrored stripe may read one child
// from two goroutines. Each reader walks its own sequential stream, so
// the two keep breaking and restarting each other's runs; every byte
// must still be right and the window state race-free.
func TestTCPPlaneConcurrentReaders(t *testing.T) {
	const size = 4 * model.MB
	_, addr := startTarget(t, map[uint32]int64{1: size})
	pool, err := DialPool(addr, 1, PoolConfig{QueuePairs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pl, err := NewTCPPlane(pool, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	oracle := make([]byte, size)
	rand.New(rand.NewSource(5)).Read(oracle)
	if err := pl.Write(nil, 0, size, oracle, 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for pass := 0; pass < 3; pass++ {
				n := int64(4096 << rng.Intn(3))
				for off := int64(g) * size / 2; off+n <= int64(g+1)*size/2; off += n {
					got, err := pl.Read(nil, off, n, 0)
					if err != nil || !bytes.Equal(got, oracle[off:off+n]) {
						t.Errorf("reader %d [%d,+%d): wrong bytes (%v)", g, off, n, err)
						return
					}
					got[0] ^= 0xFF
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTCPPlaneReadAheadCommandCount is the count the window exists for,
// and it repeats exactly: 2 048 sequential 16 KiB reads (one rank's
// restart on the benchmark's ckpt_small) reach the target as a few dozen
// READ commands, and the same number of reads in random order still
// costs one command each.
func TestTCPPlaneReadAheadCommandCount(t *testing.T) {
	const reads, length = 2048, 16 * model.KB
	const size = reads*length + 1*model.MB
	tgt, pl := dialPlane(t, size)
	count := func(order []int) uint64 {
		t.Helper()
		if err := pl.Flush(nil); err != nil { // a fresh run, no window
			t.Fatal(err)
		}
		before := tgt.Snapshot().Commands
		for _, i := range order {
			if got, err := pl.Read(nil, int64(i)*length, length, 0); err != nil || int64(len(got)) != length {
				t.Fatalf("read %d: %d bytes, %v", i, len(got), err)
			}
		}
		return tgt.Snapshot().Commands - before
	}
	order := make([]int, reads)
	for i := range order {
		order[i] = i
	}
	if n := count(order); n > 48 {
		t.Errorf("%d sequential reads issued %d READ commands, want <= 48", reads, n)
	} else {
		t.Logf("%d sequential reads: %d READ commands", reads, n)
	}
	// A seeded shuffle: a window needs three reads in a row in ascending
	// order, which this one does not contain.
	rand.New(rand.NewSource(3)).Shuffle(reads, func(i, j int) { order[i], order[j] = order[j], order[i] })
	if n := count(order); n != reads {
		t.Errorf("%d random reads issued %d READ commands, want one each", reads, n)
	}
}
