// Package blockpool implements the paper's circular block pool: an O(1)
// allocator for hugeblocks, the large fixed-size units (default 32 KB)
// in which NVMe-CR manages SSD space. Hugeblocks keep the pool small —
// the paper reports an 8x reduction in pool size and inode count moving
// from 4 KB to 32 KB blocks — and make allocation a pointer bump.
package blockpool

import (
	"errors"
	"fmt"
)

// Pool allocates fixed-size blocks from a contiguous partition using a
// circular free list. The zero value is not usable; call New.
type Pool struct {
	blockSize int64
	nblocks   int64

	// free is a circular buffer of free block indices.
	free []int64
	head int64 // next block to hand out
	tail int64 // next slot to return a freed block into
	used int64
}

// New creates a pool over a partition of `size` bytes divided into
// `blockSize`-byte hugeblocks. Any remainder bytes are unusable.
func New(size, blockSize int64) (*Pool, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("blockpool: block size %d", blockSize)
	}
	n := size / blockSize
	if n <= 0 {
		return nil, fmt.Errorf("blockpool: partition of %d bytes holds no %d-byte blocks", size, blockSize)
	}
	p := &Pool{blockSize: blockSize, nblocks: n, free: make([]int64, n)}
	for i := int64(0); i < n; i++ {
		p.free[i] = i
	}
	return p, nil
}

// BlockSize returns the hugeblock size in bytes.
func (p *Pool) BlockSize() int64 { return p.blockSize }

// Blocks returns the total number of blocks in the pool.
func (p *Pool) Blocks() int64 { return p.nblocks }

// Free returns the number of currently free blocks.
func (p *Pool) Free() int64 { return p.nblocks - p.used }

// Used returns the number of allocated blocks.
func (p *Pool) Used() int64 { return p.used }

// Alloc hands out one block index in O(1).
func (p *Pool) Alloc() (int64, error) {
	if p.used == p.nblocks {
		return 0, fmt.Errorf("blockpool: out of space (%d blocks of %d bytes)", p.nblocks, p.blockSize)
	}
	b := p.free[p.head]
	p.head = (p.head + 1) % p.nblocks
	p.used++
	return b, nil
}

// AllocN hands out n blocks, failing atomically (nothing allocated) if
// fewer are free.
func (p *Pool) AllocN(n int64) ([]int64, error) {
	if n < 0 {
		return nil, fmt.Errorf("blockpool: negative count %d", n)
	}
	if p.Free() < n {
		return nil, fmt.Errorf("blockpool: need %d blocks, only %d free", n, p.Free())
	}
	out := make([]int64, n)
	for i := range out {
		b, err := p.Alloc()
		if err != nil {
			return nil, err // unreachable given the check above
		}
		out[i] = b
	}
	return out, nil
}

// FreeBlock returns a block to the pool in O(1). Double frees and
// out-of-range indices are rejected as corruption.
func (p *Pool) FreeBlock(b int64) error {
	if b < 0 || b >= p.nblocks {
		return fmt.Errorf("blockpool: block %d out of range [0,%d)", b, p.nblocks)
	}
	if p.used == 0 {
		return fmt.Errorf("blockpool: free of block %d with no blocks allocated", b)
	}
	p.free[p.tail] = b
	p.tail = (p.tail + 1) % p.nblocks
	p.used--
	return nil
}

// Reserve marks a specific block as allocated, removing it from the
// free list in O(free). It is used when reconstructing pool state from a
// metadata snapshot during recovery; the subsequent replayed operations
// then re-derive the exact allocation order deterministically.
func (p *Pool) Reserve(b int64) error {
	if b < 0 || b >= p.nblocks {
		return fmt.Errorf("blockpool: block %d out of range [0,%d)", b, p.nblocks)
	}
	freeCount := p.nblocks - p.used
	for i := int64(0); i < freeCount; i++ {
		idx := (p.head + i) % p.nblocks
		if p.free[idx] == b {
			// Swap the found block to the head slot and consume it.
			p.free[idx] = p.free[p.head]
			p.free[p.head] = b
			if _, err := p.Alloc(); err != nil {
				return err
			}
			return nil
		}
	}
	return fmt.Errorf("blockpool: block %d is not free", b)
}

// State is a serializable image of the pool, captured into metadata
// snapshots so that recovery restores the exact circular order (which
// later replayed allocations depend on).
type State struct {
	BlockSize int64
	NBlocks   int64
	Free      []int64 // free blocks in hand-out order
	Used      int64
}

// Snapshot captures the pool state.
func (p *Pool) Snapshot() State {
	freeCount := p.nblocks - p.used
	free := make([]int64, freeCount)
	for i := int64(0); i < freeCount; i++ {
		free[i] = p.free[(p.head+i)%p.nblocks]
	}
	return State{BlockSize: p.blockSize, NBlocks: p.nblocks, Free: free, Used: p.used}
}

// ErrBadState reports a snapshot State that does not describe a pool
// over the partition it is restored onto.
var ErrBadState = errors.New("blockpool: snapshot state does not fit the partition")

// Restore rebuilds a pool from a snapshot, over a partition of size bytes
// in blockSize-byte hugeblocks (New's geometry). It refuses with
// ErrBadState a state of another geometry, a used count outside [0,
// blocks], a free list of the wrong length, and one that names a block
// out of range or twice; nothing is allocated until the geometry and the
// counts check out.
func Restore(s State, size, blockSize int64) (*Pool, error) {
	n := s.NBlocks
	switch {
	case blockSize <= 0 || n <= 0 || s.BlockSize != blockSize || n != size/blockSize:
		return nil, fmt.Errorf("%w: %d blocks of %d bytes on a partition of %d bytes in %d-byte blocks",
			ErrBadState, n, s.BlockSize, size, blockSize)
	case s.Used < 0 || s.Used > n:
		return nil, fmt.Errorf("%w: %d of %d blocks used", ErrBadState, s.Used, n)
	case int64(len(s.Free)) != n-s.Used:
		return nil, fmt.Errorf("%w: %d free blocks listed, %d of %d used", ErrBadState, len(s.Free), s.Used, n)
	}
	p := &Pool{blockSize: blockSize, nblocks: n, free: make([]int64, n), used: s.Used}
	// Until the copy below, free marks the blocks listed so far.
	for _, b := range s.Free {
		if b < 0 || b >= n {
			return nil, fmt.Errorf("%w: free block %d out of range [0,%d)", ErrBadState, b, n)
		}
		if p.free[b] != 0 {
			return nil, fmt.Errorf("%w: free block %d listed twice", ErrBadState, b)
		}
		p.free[b] = 1
	}
	clear(p.free[copy(p.free, s.Free):])
	p.tail = int64(len(s.Free)) % n
	return p, nil
}

// Offset converts a block index to a byte offset in the partition.
func (p *Pool) Offset(b int64) int64 { return b * p.blockSize }

// BlocksFor returns how many blocks are needed to store `bytes` payload
// bytes.
func (p *Pool) BlocksFor(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	return (bytes + p.blockSize - 1) / p.blockSize
}

// FootprintBytes estimates the DRAM footprint of the pool's bookkeeping
// (Table I accounting): one 8-byte index per block.
func (p *Pool) FootprintBytes() int64 { return p.nblocks*8 + 64 }
