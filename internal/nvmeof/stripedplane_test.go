package nvmeof

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
)

// memPlane is an in-memory plane.Plane test double. capture=false
// models a backing device that does not hold payloads (Read → nil),
// the contract StripedPlane must propagate.
type memPlane struct {
	mu        sync.Mutex
	data      []byte
	capture   bool
	flushes   int
	flushErr  error
	writeErrs map[int64]error // by offset, consumed once
}

func newMemPlane(size int64, capture bool) *memPlane {
	return &memPlane{data: make([]byte, size), capture: capture}
}

func (m *memPlane) Write(p *sim.Proc, off, length int64, data []byte, cmdUnit int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off < 0 || length < 0 || off+length > int64(len(m.data)) {
		return fmt.Errorf("memplane: write [%d,+%d) out of range", off, length)
	}
	if err, ok := m.writeErrs[off]; ok {
		delete(m.writeErrs, off)
		return err
	}
	if data != nil {
		copy(m.data[off:off+length], data)
	}
	return nil
}

func (m *memPlane) Read(p *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off < 0 || length < 0 || off+length > int64(len(m.data)) {
		return nil, fmt.Errorf("memplane: read [%d,+%d) out of range", off, length)
	}
	if !m.capture {
		return nil, nil
	}
	return append([]byte(nil), m.data[off:off+length]...), nil
}

func (m *memPlane) Flush(p *sim.Proc) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushes++
	return m.flushErr
}

func (m *memPlane) Size() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(len(m.data))
}

func stripedOverMem(t *testing.T, n int, childSize, unit int64, capture bool) (*StripedPlane, []*memPlane) {
	t.Helper()
	children := make([]plane.Plane, n)
	mems := make([]*memPlane, n)
	for i := range children {
		mems[i] = newMemPlane(childSize, capture)
		children[i] = mems[i]
	}
	sp, err := NewStripedPlane(children, unit)
	if err != nil {
		t.Fatal(err)
	}
	return sp, mems
}

// TestStripedPlaneMatchesSingle is the in-memory equivalence core:
// random writes and reads through a StripedPlane behave exactly like
// the same operations against one flat buffer.
func TestStripedPlaneMatchesSingle(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		n := n
		t.Run(fmt.Sprintf("targets=%d", n), func(t *testing.T) {
			const unit = 512
			const childSize = 16 * 1024
			sp, _ := stripedOverMem(t, n, childSize, unit, true)
			ref := make([]byte, sp.Size())
			rng := rand.New(rand.NewSource(int64(1000 + n)))
			for op := 0; op < 300; op++ {
				off := rng.Int63n(sp.Size())
				length := 1 + rng.Int63n(4*unit)
				if off+length > sp.Size() {
					length = sp.Size() - off
				}
				if rng.Intn(3) < 2 {
					payload := make([]byte, length)
					rng.Read(payload)
					if err := sp.Write(nil, off, length, payload, 0); err != nil {
						t.Fatalf("op %d: write: %v", op, err)
					}
					copy(ref[off:off+length], payload)
				} else {
					got, err := sp.Read(nil, off, length, 0)
					if err != nil {
						t.Fatalf("op %d: read: %v", op, err)
					}
					if !bytes.Equal(got, ref[off:off+length]) {
						t.Fatalf("op %d: read [%d,+%d) diverged from flat buffer", op, off, length)
					}
				}
			}
			full, err := sp.Read(nil, 0, sp.Size(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(full, ref) {
				t.Fatal("full striped read-back diverged from flat buffer")
			}
		})
	}
}

// TestStripedPlaneNilReadPropagation pins the satellite fix: when ANY
// child does not capture payloads, the striped read is nil as a whole —
// never a partially-filled buffer.
func TestStripedPlaneNilReadPropagation(t *testing.T) {
	const unit = 512
	capturing := newMemPlane(8192, true)
	blind := newMemPlane(8192, false)
	sp, err := NewStripedPlane([]plane.Plane{capturing, blind}, unit)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Write(nil, 0, 4*unit, bytes.Repeat([]byte{0xEE}, 4*unit), 0); err != nil {
		t.Fatal(err)
	}
	// A range touching both children: nil, not half-data.
	got, err := sp.Read(nil, 0, 4*unit, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("read spanning a non-capturing child = %d bytes, want nil", len(got))
	}
	// A range entirely on the capturing child still returns data: the
	// contract is per-backing-device, and this request never consulted
	// the blind one.
	got, err = sp.Read(nil, 0, unit, 0)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0xEE}, unit)) {
		t.Fatalf("read on capturing child = %v, %v", len(got), err)
	}
	// Zero-length reads stay nil with no error, like every plane.
	if got, err := sp.Read(nil, 0, 0, 0); err != nil || got != nil {
		t.Fatalf("zero-length read = %v, %v", got, err)
	}
}

// TestStripedPlaneFlushBarrier pins the flush rule: every child is
// flushed (the barrier), and one child's failure fails the barrier
// without skipping the siblings.
func TestStripedPlaneFlushBarrier(t *testing.T) {
	sp, mems := stripedOverMem(t, 3, 8192, 512, true)
	if err := sp.Flush(nil); err != nil {
		t.Fatal(err)
	}
	for i, m := range mems {
		if m.flushes != 1 {
			t.Errorf("child %d flushed %d times, want 1", i, m.flushes)
		}
	}
	bang := errors.New("child 1 flush failed")
	mems[1].flushErr = bang
	if err := sp.Flush(nil); !errors.Is(err, bang) {
		t.Fatalf("Flush = %v, want child failure", err)
	}
	for i, m := range mems {
		if m.flushes != 2 {
			t.Errorf("child %d flushed %d times after failed barrier, want 2 (barrier visits all)", i, m.flushes)
		}
	}
}

// TestStripedPlaneWriteErrorSurfaces pins partial-write semantics: a
// failing stripe unit fails the whole write, while sibling units still
// land (the same exposure a chunked single-target write has).
func TestStripedPlaneWriteErrorSurfaces(t *testing.T) {
	sp, mems := stripedOverMem(t, 2, 8192, 512, true)
	bang := errors.New("unit write failed")
	mems[1].writeErrs = map[int64]error{0: bang}
	err := sp.Write(nil, 0, 1024, bytes.Repeat([]byte{0x77}, 1024), 0)
	if !errors.Is(err, bang) {
		t.Fatalf("Write = %v, want child failure", err)
	}
	// Child 0's unit landed; re-issuing the write (the caller's retry)
	// completes it.
	if err := sp.Write(nil, 0, 1024, bytes.Repeat([]byte{0x77}, 1024), 0); err != nil {
		t.Fatal(err)
	}
	got, err := sp.Read(nil, 0, 1024, 0)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0x77}, 1024)) {
		t.Fatalf("read after retry = %v, %v", len(got), err)
	}
}

func TestStripedPlaneBounds(t *testing.T) {
	sp, _ := stripedOverMem(t, 2, 8192, 512, true)
	if sp.Size() != 2*8192 {
		t.Fatalf("Size = %d, want %d", sp.Size(), 2*8192)
	}
	if err := sp.Write(nil, sp.Size()-100, 200, nil, 0); err == nil {
		t.Error("write past striped end accepted")
	}
	if _, err := sp.Read(nil, -1, 10, 0); err == nil {
		t.Error("negative read offset accepted")
	}
	if err := sp.Write(nil, 0, 100, []byte("short"), 0); err == nil {
		t.Error("length/buffer mismatch accepted")
	}
	if _, err := NewStripedPlane(nil, 512); err == nil {
		t.Error("zero-width stripe accepted")
	}
	if _, err := NewStripedPlane([]plane.Plane{newMemPlane(256, true)}, 512); err == nil {
		t.Error("unit larger than child accepted")
	}
}

// TestStripedPlaneConcurrentOverTCP drives a StripedPlane whose
// children are real TCP targets from many goroutines at once (run
// under -race): the concurrent stripe fan-out and the batched
// submission path must cooperate without corruption.
func TestStripedPlaneConcurrentOverTCP(t *testing.T) {
	const targets = 3
	const childSize = 4 * model.MB
	const unit = 64 * 1024
	children := make([]plane.Plane, targets)
	for i := range children {
		_, addr := startTarget(t, map[uint32]int64{1: childSize})
		pool, err := DialPool(addr, 1, PoolConfig{
			QueuePairs: 2,
			Batch:      BatchConfig{Enabled: true, MergeWrites: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pool.Close() })
		tp, err := NewTCPPlane(pool, 0, childSize)
		if err != nil {
			t.Fatal(err)
		}
		children[i] = tp
	}
	sp, err := NewStripedPlane(children, unit)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 6
	var wg sync.WaitGroup
	errs := make([]error, workers)
	region := sp.Size() / workers
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7700 + i)))
			base := int64(i) * region
			for op := 0; op < 12; op++ {
				length := unit/2 + rng.Int63n(3*unit)
				off := base + rng.Int63n(region-length)
				payload := make([]byte, length)
				rng.Read(payload)
				if err := sp.Write(nil, off, length, payload, 0); err != nil {
					errs[i] = err
					return
				}
				got, err := sp.Read(nil, off, length, 0)
				if err != nil {
					errs[i] = err
					return
				}
				if !bytes.Equal(got, payload) {
					errs[i] = fmt.Errorf("worker %d op %d: striped read-back mismatch", i, op)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := sp.Flush(nil); err != nil {
		t.Fatal(err)
	}
}

// TestStripedPlaneReadScatterTable walks reads whose offsets and lengths
// sit on, one before and one after stripe-unit boundaries, over 2 and 3
// groups unmirrored and 2-way mirrored — healthy, with one member down,
// and in verify-reads mode — each against one flat plane holding the
// same bytes. It covers every way a member's buffer is placed into the
// result: returned as is, scattered whole, scattered per split part,
// and scattered from the verify path's authority copy.
func TestStripedPlaneReadScatterTable(t *testing.T) {
	const unit = 64
	const childSize = 16 * unit
	for _, groups := range []int{2, 3} {
		for _, replicas := range []int{1, 2} {
			modes := []string{"healthy"}
			if replicas > 1 {
				modes = append(modes, "member-down", "verify")
			}
			for _, mode := range modes {
				t.Run(fmt.Sprintf("groups=%d/r=%d/%s", groups, replicas, mode), func(t *testing.T) {
					sp, _ := mirroredOverMem(t, groups, replicas, childSize, unit)
					oracle := newMemPlane(sp.Size(), true)
					pattern := make([]byte, sp.Size())
					rand.New(rand.NewSource(int64(groups*10 + replicas))).Read(pattern)
					if err := sp.Write(nil, 0, sp.Size(), pattern, 0); err != nil {
						t.Fatal(err)
					}
					if err := oracle.Write(nil, 0, sp.Size(), pattern, 0); err != nil {
						t.Fatal(err)
					}
					switch mode {
					case "member-down":
						if err := sp.SetChildDown(sp.Geometry().Member(groups-1, 0)); err != nil {
							t.Fatal(err)
						}
					case "verify":
						sp.SetVerifyReads(true)
					}
					edges := []int64{-1, 0, 1}
					for k := int64(0); k <= int64(groups)+1; k++ {
						for _, d := range edges {
							off := k*unit + d
							for j := int64(0); j <= 2*int64(groups)+1; j++ {
								for _, e := range edges {
									length := j*unit + e
									if off < 0 || length <= 0 || off+length > sp.Size() {
										continue
									}
									got, err := sp.Read(nil, off, length, 0)
									if err != nil {
										t.Fatalf("read [%d,+%d): %v", off, length, err)
									}
									want, _ := oracle.Read(nil, off, length, 0)
									if !bytes.Equal(got, want) {
										t.Fatalf("read [%d,+%d) differs from the single-plane oracle", off, length)
									}
								}
							}
						}
					}
				})
			}
		}
	}
}
