// Package extent implements a sparse byte store addressed by absolute
// offsets. It backs the NVMe device model: writes record real bytes (when
// data capture is enabled) so that functional tests can read back and
// checksum exactly what was written, while overlapping writes split and
// replace intervals the way a block device would.
package extent

import (
	"fmt"
	"slices"
	"sort"
)

// Store is a sparse, offset-addressed byte store. The zero value is not
// usable; create one with New. Store is not safe for concurrent use; the
// simulation engine guarantees single-threaded access, and the TCP
// NVMe-oF target wraps it in its own lock.
type Store struct {
	// extents sorted by offset, non-overlapping; adjacent extents merge
	// up to mergeMax (see Write).
	extents []extent
	bytes   int64 // total stored payload bytes
}

type extent struct {
	off  int64
	data []byte
}

func (e extent) end() int64 { return e.off + int64(len(e.data)) }

// New returns an empty store.
func New() *Store { return &Store{} }

// Bytes returns the number of payload bytes currently stored.
func (s *Store) Bytes() int64 { return s.bytes }

// Extents returns the number of stored extents (diagnostics).
func (s *Store) Extents() int { return len(s.extents) }

// Write stores data at the given offset, overwriting any overlapping
// ranges. The data slice is copied.
func (s *Store) Write(off int64, data []byte) error {
	if off < 0 {
		return fmt.Errorf("extent: negative offset %d", off)
	}
	if len(data) == 0 {
		return nil
	}
	end := off + int64(len(data))
	// Find the first extent whose end is after off.
	i := sort.Search(len(s.extents), func(i int) bool {
		return s.extents[i].end() > off
	})
	// Fast path: the write falls entirely inside one existing extent.
	// Overwrite in place — no splice, no allocation, no change to the
	// stored byte count. This is the steady state of a block device
	// under rewrite (every checkpoint round after the first), and it is
	// what keeps the store off the NVMe-oF target's hot path.
	if i < len(s.extents) {
		if e := s.extents[i]; e.off <= off && end <= e.end() {
			copy(e.data[off-e.off:], data)
			return nil
		}
	}
	// Covered path: the write range is fully covered by a contiguous
	// chain of existing extents (a large rewrite over a range first
	// populated by several smaller writes). Overwrite each extent's
	// slice in place instead of splicing — the splice would allocate a
	// fresh copy of the whole payload per write, which is where the
	// device-bound benchmark's bytes-per-op inflation came from.
	if i < len(s.extents) && s.extents[i].off <= off {
		cover := s.extents[i].end()
		j := i
		for cover < end && j+1 < len(s.extents) && s.extents[j+1].off == cover {
			j++
			cover = s.extents[j].end()
		}
		if cover >= end {
			pos := off
			for k := i; pos < end; k++ {
				e := s.extents[k]
				to := min64(e.end(), end)
				copy(e.data[pos-e.off:to-e.off], data[pos-off:to-off])
				pos = to
			}
			return nil
		}
	}
	// Merge path: the write starts past an extent's first byte, no later
	// than its end, runs past that end and overlaps no other extent: the
	// shape of a log that lands each record where the last one stopped
	// (over the zero byte that marked its head). The write is copied
	// over the extent's tail and the rest appended to it, with capacity
	// doubling, while the extent stays within mergeMax: one that kept
	// growing past it would be copied whole by each reallocation. A write
	// from an extent's first byte replaces all of it and takes the splice
	// path, sized exactly: a rewrite does not grow. The pieces of a split
	// extent share its array, each at its own offsets; growing in place
	// writes only at offsets no extent covers.
	m := i - 1 // the extent the write starts in, past its first byte, or right after
	if i < len(s.extents) && s.extents[i].off < off {
		m = i
	}
	if m >= 0 && s.extents[m].end() >= off && (m+1 == len(s.extents) || end <= s.extents[m+1].off) {
		if e := &s.extents[m]; end-e.off <= mergeMax {
			n := copy(e.data[off-e.off:], data)
			e.data = grow(e.data, data[n:])
			s.bytes += int64(len(data) - n)
			return nil
		}
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.splice(i, off, end, cp)
	return nil
}

// mergeMax bounds the extent the merge path grows: 64 KiB holds over a
// thousand log records and is copied at most once per doubling.
const mergeMax = 64 << 10

// grow appends rest to b, doubling b's capacity (up to mergeMax) when it
// runs out.
func grow(b, rest []byte) []byte {
	if need := len(b) + len(rest); need > cap(b) {
		nb := make([]byte, len(b), min(max(2*cap(b), need), mergeMax))
		copy(nb, b)
		b = nb
	}
	return append(b, rest...)
}

// splice replaces extents[i:j], the extents overlapping [off, end), with
// what of them lies outside that range and, between the two, mid (when
// non-nil), keeping extents sorted and disjoint. The slice is changed in
// place: no extent outside [i, j) moves unless the count changes.
func (s *Store) splice(i int, off, end int64, mid []byte) {
	var repl [3]extent
	n := 0
	j := i
	var right []byte
	for ; j < len(s.extents) && s.extents[j].off < end; j++ {
		e := s.extents[j]
		s.bytes -= int64(len(e.data))
		if e.off < off {
			repl[n] = extent{off: e.off, data: e.data[:off-e.off]}
			n++
		}
		if e.end() > end {
			// Only the last overlapped extent can reach past end
			// (extents are disjoint), so at most one right remainder.
			right = e.data[end-e.off:]
		}
	}
	if mid != nil {
		repl[n] = extent{off: off, data: mid}
		n++
	}
	if right != nil {
		repl[n] = extent{off: end, data: right}
		n++
	}
	for _, e := range repl[:n] {
		s.bytes += int64(len(e.data))
	}
	s.extents = slices.Replace(s.extents, i, j, repl[:n]...)
}

// Read copies up to length bytes starting at off into a fresh slice.
// Gaps (never-written ranges) read as zero bytes. The second result
// reports whether the entire range had been written.
func (s *Store) Read(off, length int64) ([]byte, bool) {
	if length <= 0 {
		return nil, true
	}
	buf := make([]byte, length)
	return buf, s.ReadInto(off, buf)
}

// ReadInto fills dst with the bytes stored at [off, off+len(dst)) and
// reports whether the entire range had been written. dst may hold
// anything on entry (callers reuse it): gaps are zeroed explicitly.
func (s *Store) ReadInto(off int64, dst []byte) bool {
	pos, end := off, off+int64(len(dst)) // dst[:pos-off] is final
	i := sort.Search(len(s.extents), func(i int) bool {
		return s.extents[i].end() > off
	})
	covered := true
	for ; i < len(s.extents) && s.extents[i].off < end; i++ {
		e := s.extents[i]
		from := max64(e.off, off)
		to := min64(e.end(), end)
		if from > pos {
			clear(dst[pos-off : from-off])
			covered = false
		}
		copy(dst[from-off:to-off], e.data[from-e.off:to-e.off])
		pos = to
	}
	if pos < end {
		clear(dst[pos-off:])
		covered = false
	}
	return covered
}

// Trim discards all data in [off, off+length).
func (s *Store) Trim(off, length int64) {
	if length <= 0 {
		return
	}
	i := sort.Search(len(s.extents), func(i int) bool {
		return s.extents[i].end() > off
	})
	s.splice(i, off, off+length, nil)
}

// Clone returns a deep copy of the store (used for crash snapshots).
func (s *Store) Clone() *Store {
	c := &Store{bytes: s.bytes, extents: make([]extent, len(s.extents))}
	for i, e := range s.extents {
		d := make([]byte, len(e.data))
		copy(d, e.data)
		c.extents[i] = extent{off: e.off, data: d}
	}
	return c
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
