package blockpool

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1024, 0); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := New(10, 32); err == nil {
		t.Error("partition smaller than one block accepted")
	}
}

func TestAllocFreeCycle(t *testing.T) {
	p, err := New(10*32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if p.Blocks() != 10 || p.Free() != 10 {
		t.Fatalf("Blocks/Free = %d/%d", p.Blocks(), p.Free())
	}
	var got []int64
	for i := 0; i < 10; i++ {
		b, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b)
	}
	if _, err := p.Alloc(); err == nil {
		t.Error("alloc from exhausted pool succeeded")
	}
	// All distinct, all in range.
	seen := map[int64]bool{}
	for _, b := range got {
		if b < 0 || b >= 10 || seen[b] {
			t.Fatalf("bad allocation %v", got)
		}
		seen[b] = true
	}
	for _, b := range got {
		if err := p.FreeBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if p.Free() != 10 {
		t.Fatalf("Free = %d after releasing everything", p.Free())
	}
}

func TestAllocNAtomic(t *testing.T) {
	p, _ := New(8*32, 32)
	if _, err := p.AllocN(9); err == nil {
		t.Error("oversized AllocN succeeded")
	}
	if p.Used() != 0 {
		t.Errorf("failed AllocN leaked %d blocks", p.Used())
	}
	blocks, err := p.AllocN(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 8 {
		t.Fatalf("AllocN returned %d blocks", len(blocks))
	}
	if _, err := p.AllocN(-1); err == nil {
		t.Error("negative AllocN accepted")
	}
}

func TestFreeValidation(t *testing.T) {
	p, _ := New(4*32, 32)
	if err := p.FreeBlock(99); err == nil {
		t.Error("out-of-range free accepted")
	}
	if err := p.FreeBlock(0); err == nil {
		t.Error("free with nothing allocated accepted")
	}
}

func TestOffset(t *testing.T) {
	p, _ := New(1024, 32)
	if got := p.Offset(3); got != 96 {
		t.Errorf("Offset(3) = %d, want 96", got)
	}
}

func TestBlocksFor(t *testing.T) {
	p, _ := New(1<<20, 32768)
	cases := []struct{ bytes, want int64 }{
		{0, 0}, {1, 1}, {32768, 1}, {32769, 2}, {65536, 2}, {-5, 0},
	}
	for _, c := range cases {
		if got := p.BlocksFor(c.bytes); got != c.want {
			t.Errorf("BlocksFor(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestHugeblocksShrinkPool(t *testing.T) {
	// The paper's 8x claim: a 32 KB pool over the same partition has
	// 8x fewer blocks (and so 8x less bookkeeping) than a 4 KB pool.
	part := int64(1 << 30)
	small, _ := New(part, 4<<10)
	huge, _ := New(part, 32<<10)
	if small.Blocks() != 8*huge.Blocks() {
		t.Errorf("4K pool %d blocks vs 32K pool %d blocks, want 8x", small.Blocks(), huge.Blocks())
	}
	if small.FootprintBytes() <= huge.FootprintBytes() {
		t.Error("hugeblock pool should have smaller footprint")
	}
}

func TestReserve(t *testing.T) {
	p, _ := New(8*64, 64)
	if err := p.Reserve(5); err != nil {
		t.Fatal(err)
	}
	if p.Used() != 1 {
		t.Fatalf("Used = %d", p.Used())
	}
	// Block 5 is gone: the next 7 allocations return everything else.
	seen := map[int64]bool{}
	for i := 0; i < 7; i++ {
		b, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if b == 5 || seen[b] {
			t.Fatalf("allocation %d returned reserved/duplicate block %d", i, b)
		}
		seen[b] = true
	}
	if err := p.Reserve(0); err == nil {
		t.Error("reserving an allocated block succeeded")
	}
	if err := p.Reserve(99); err == nil {
		t.Error("reserving an out-of-range block succeeded")
	}
}

func TestSnapshotRestoreExactOrder(t *testing.T) {
	// Recovery depends on the restored pool handing out blocks in
	// exactly the captured order.
	p, _ := New(16*64, 64)
	for i := 0; i < 5; i++ {
		p.Alloc()
	}
	p.FreeBlock(2) // perturb the circular order
	snap := p.Snapshot()

	q, err := Restore(snap, 16*64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if q.Used() != p.Used() || q.BlockSize() != p.BlockSize() || q.Blocks() != p.Blocks() {
		t.Fatalf("restored shape differs: %d/%d/%d vs %d/%d/%d",
			q.Used(), q.BlockSize(), q.Blocks(), p.Used(), p.BlockSize(), p.Blocks())
	}
	// Both pools must hand out the identical sequence.
	for i := int64(0); i < q.Free(); {
		a, errA := p.Alloc()
		b, errB := q.Alloc()
		if errA != nil || errB != nil {
			t.Fatalf("alloc errors: %v / %v", errA, errB)
		}
		if a != b {
			t.Fatalf("divergent allocation order at step %d: %d vs %d", i, a, b)
		}
		i++
	}
}

// TestRestoreValidation: Restore refuses, with ErrBadState, every state
// that does not describe a pool over the partition it is given. Against
// the Restore that checked only the free list's length, six rows were
// accepted: a block listed twice, out of range or negative, a negative
// used count, and both geometries the partition does not have. A block
// listed twice is handed to two files. The row with more blocks than the
// partition is left out of that demo: it asked for 8 TiB of free list.
func TestRestoreValidation(t *testing.T) {
	const size, bs = 4 * 64, 64 // four blocks
	for _, tc := range []struct {
		name string
		s    State
	}{
		{"empty", State{}},
		{"free list too long", State{BlockSize: bs, NBlocks: 4, Used: 1, Free: []int64{0, 1, 2, 3}}},
		{"free list too short", State{BlockSize: bs, NBlocks: 4, Used: 1, Free: []int64{0, 1}}},
		{"block listed twice", State{BlockSize: bs, NBlocks: 4, Used: 1, Free: []int64{0, 1, 1}}},
		{"block out of range", State{BlockSize: bs, NBlocks: 4, Used: 1, Free: []int64{0, 1, 4}}},
		{"negative block", State{BlockSize: bs, NBlocks: 4, Used: 1, Free: []int64{0, -1, 2}}},
		{"negative used", State{BlockSize: bs, NBlocks: 4, Used: -1, Free: []int64{0, 1, 2, 3, 0}}},
		{"used past the pool", State{BlockSize: bs, NBlocks: 4, Used: 5}},
		{"other block size", State{BlockSize: 2 * bs, NBlocks: 2, Used: 2}},
		{"more blocks than the partition", State{BlockSize: bs, NBlocks: 1 << 40, Used: 1<<40 - 1, Free: []int64{0}}},
		{"fewer blocks than the partition", State{BlockSize: bs, NBlocks: 3, Used: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Restore(tc.s, size, bs); !errors.Is(err, ErrBadState) {
				t.Errorf("Restore(%+v) = %v, want ErrBadState", tc.s, err)
			}
		})
	}
	p, err := Restore(State{BlockSize: bs, NBlocks: 4, Used: 1, Free: []int64{3, 0, 2}}, size, bs)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []int64{3, 0, 2} {
		if b, err := p.Alloc(); err != nil || b != want {
			t.Fatalf("Alloc = %d, %v, want %d", b, err, want)
		}
	}
}

// Property: any interleaving of allocs and frees never hands out a block
// twice and conserves the total count.
func TestPropertyNoDoubleAllocation(t *testing.T) {
	f := func(ops []bool) bool {
		p, err := New(16*64, 64)
		if err != nil {
			return false
		}
		held := map[int64]bool{}
		var order []int64
		for _, alloc := range ops {
			if alloc {
				b, err := p.Alloc()
				if err != nil {
					if p.Free() != 0 {
						return false
					}
					continue
				}
				if held[b] {
					return false // double allocation
				}
				held[b] = true
				order = append(order, b)
			} else if len(order) > 0 {
				b := order[0]
				order = order[1:]
				if err := p.FreeBlock(b); err != nil {
					return false
				}
				delete(held, b)
			}
		}
		return p.Used() == int64(len(held))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
