// Package wal implements NVMe-CR's metadata provenance log: a compact
// operation log stored on the remote SSD that records every
// metadata-mutating syscall (mkdir, create, write, unlink). Metadata
// itself lives in compute-node DRAM; the log is what makes it durable.
//
// The package also implements the paper's log record coalescing
// (Figure 5): checkpoint IO is sequential, so a write record that
// extends the previous write to the same file updates that record in
// place instead of appending a new one. This slows log fill-up (fewer
// internal metadata checkpoints) and shrinks replay time to near zero.
//
// The writer belongs to the call: Append and Sync write through the one
// they are handed, and a Log made by New reaches no device until then.
//
// A Log has one caller at a time: no call begins while another, its
// write included, is in progress. The owner serializes its calls (microfs
// lets one process into an instance at a time); nothing here checks.
//
// Durability contract. A record that Append adds to the log is on the
// device when Append returns. An extension coalesced into the log's last
// record changes the in-memory image only; it reaches the device with
// the next record's flush or with Sync, whichever comes first — the
// caller's durability points (fsync, close of a written file). Until
// then the device holds the same records with a shorter last write.
//
// Write unit. A flush carries either the whole log pages its bytes fall
// in (the default: the paper's timing model charges a page per record)
// or, with Options.ExactFlush, exactly the bytes it changed: a pending
// extension's length and CRC, the new record, and one zero byte at the
// new head, where replay stops on the same OpInvalid test that a page's
// zero tail gives it. The on-device format is the same in both modes, so
// a region written in one loads and keeps appending in the other.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Op identifies a logged operation.
type Op uint8

const (
	// OpInvalid marks unused log space.
	OpInvalid Op = iota
	// OpMkdir records directory creation.
	OpMkdir
	// OpCreate records file creation (path -> inode binding).
	OpCreate
	// OpWrite records a data extent written to an inode.
	OpWrite
	// OpUnlink records file removal.
	OpUnlink
	// OpTruncate records truncation of an inode to Length bytes.
	OpTruncate
	// OpRename records a path change (path -> path2), the atomic
	// commit step of the write-to-temp-then-rename checkpoint idiom.
	OpRename
)

func (o Op) String() string {
	switch o {
	case OpMkdir:
		return "mkdir"
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpUnlink:
		return "unlink"
	case OpTruncate:
		return "truncate"
	case OpRename:
		return "rename"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Record is one provenance log entry. Only the syscall type and its
// parameters are stored — the paper's "compact log records" — never
// file data or full inodes.
type Record struct {
	Op     Op
	Path   string // mkdir, create, unlink; rename source
	Path2  string // rename destination
	Inode  uint64
	Offset uint64 // write
	Length uint64 // write, truncate
	Mode   uint32 // mkdir, create (low 16 bits)
}

// header layout:
//
//	op(1) epoch(1) pathLen(2) path2Len(2) inode(8) offset(8)
//	length(8) mode(2) = 32
//	then path bytes, then path2 bytes, then crc32 (4) over everything
//	before it.
const headerSize = 32

// EncodedSize returns the on-log size of a record.
func EncodedSize(r Record) int { return headerSize + len(r.Path) + len(r.Path2) + 4 }

var (
	// ErrLogFull is returned by Append when the log region cannot hold
	// another record; the caller must checkpoint metadata and Reset.
	ErrLogFull = errors.New("wal: log region full")
	// ErrCorrupt is returned when decoding hits an invalid record
	// before the expected end of the log.
	ErrCorrupt = errors.New("wal: corrupt record")
)

// WriteFunc persists len(data) bytes at byte offset off within the log
// region for the operation that hands it to Append or Sync, which call it
// synchronously, once per appended record or Sync that finds an extension
// pending, with one ascending range: whole pages, or with
// Options.ExactFlush the bytes that changed (see the package comment).
// A page stays the unit of atomicity either way: coalescing never mutates
// a record across a page boundary (extendsLast). It must not call
// back into the Log: the call that handed it over is still in progress.
// The paper flushes the log before processing every subsequent operation;
// here a coalesced extension waits for the next record or Sync (see the
// package comment and DESIGN.md).
type WriteFunc func(off int64, data []byte) error

// Log is the provenance log for one runtime instance.
type Log struct {
	capacity int64
	pageSize int64
	coalesce bool
	exact    bool

	epoch byte
	head  int64

	// The in-memory mirror of the region's live prefix. image holds the
	// region from the page-aligned offset base on: everything Append,
	// extendsLast and flush touch; past the head, zeros. What lies below
	// base is kept, for Image only, in the buffers it arrived in — the
	// chunks Load read, the blocks Append filled — oldest first.
	image []byte
	base  int64
	below []span

	// last is the byte offset of the newest record appended since the
	// last Reset or Load, the one coalescing candidate; -1 when there is
	// none. dirty reports that last's length and CRC, extended in memory,
	// have not reached the device.
	last  int64
	dirty bool

	live int64 // records since the last Reset

	// Stats.
	appended  int64
	coalesced int64
	devWrites int64
	devBytes  int64
}

// span is a buffer holding the log region's bytes from offset off on.
type span struct {
	off int64
	b   []byte
}

// Options configures a Log.
type Options struct {
	// Capacity is the log region size in bytes.
	Capacity int64
	// PageSize is the device write granularity (default 4096).
	PageSize int64
	// NoCoalesce disables log record coalescing (for the ablation
	// benchmarks).
	NoCoalesce bool
	// ExactFlush makes every flush carry only the bytes it changed
	// instead of the pages they fall in: for a device with no time model,
	// where a page's unchanged bytes are cost and nothing else.
	ExactFlush bool
}

// New creates a log.
func New(opts Options) (*Log, error) {
	if opts.Capacity <= 0 {
		return nil, fmt.Errorf("wal: capacity %d", opts.Capacity)
	}
	if opts.PageSize <= 0 {
		opts.PageSize = 4096
	}
	return &Log{
		capacity: opts.Capacity,
		pageSize: opts.PageSize,
		coalesce: !opts.NoCoalesce,
		exact:    opts.ExactFlush,
		epoch:    1,
		last:     -1,
	}, nil
}

// encode writes r into buf (which must be EncodedSize(r) long).
func (l *Log) encode(buf []byte, r Record) {
	buf[0] = byte(r.Op)
	buf[1] = l.epoch
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(r.Path)))
	binary.LittleEndian.PutUint16(buf[4:], uint16(len(r.Path2)))
	binary.LittleEndian.PutUint64(buf[6:], r.Inode)
	binary.LittleEndian.PutUint64(buf[14:], r.Offset)
	binary.LittleEndian.PutUint64(buf[22:], r.Length)
	binary.LittleEndian.PutUint16(buf[30:], uint16(r.Mode))
	copy(buf[headerSize:], r.Path)
	copy(buf[headerSize+len(r.Path):], r.Path2)
	payload := headerSize + len(r.Path) + len(r.Path2)
	crc := crc32.ChecksumIEEE(buf[:payload])
	binary.LittleEndian.PutUint32(buf[payload:], crc)
}

// extOff and extEnd bound, relative to a write record's offset, the bytes
// an in-place extension mutates: the length field and, write records
// carrying no paths, the CRC right after the header.
const (
	extOff = 22
	extEnd = headerSize + 4
)

// Append logs r. A write that extends the log's last record is coalesced
// into it in memory and left for the next flush; any other record is
// appended and persisted through w before Append returns, in one device
// write that also carries a pending extension. It reports whether the
// record was coalesced.
func (l *Log) Append(w WriteFunc, r Record) (coalesced bool, err error) {
	if r.Op == OpInvalid {
		return false, fmt.Errorf("wal: cannot append invalid op")
	}
	if len(r.Path) > 0xFFFF || len(r.Path2) > 0xFFFF {
		return false, fmt.Errorf("wal: path too long (%d/%d bytes)", len(r.Path), len(r.Path2))
	}
	if r.Mode > 0xFFFF {
		return false, fmt.Errorf("wal: mode %#o exceeds 16 bits", r.Mode)
	}
	if l.extendsLast(r) {
		rec := l.image[l.last-l.base:]
		length := binary.LittleEndian.Uint64(rec[extOff:])
		binary.LittleEndian.PutUint64(rec[extOff:], length+r.Length)
		binary.LittleEndian.PutUint32(rec[headerSize:], crc32.ChecksumIEEE(rec[:headerSize]))
		l.dirty = true
		l.coalesced++
		return true, nil
	}
	size := int64(EncodedSize(r))
	if l.head+size > l.capacity {
		return false, ErrLogFull
	}
	off := l.head
	to := off + size
	if l.exact && to < l.capacity {
		to++ // the zero at the new head; the image holds zeros past the head
	}
	l.reserve(to)
	l.encode(l.image[off-l.base:off-l.base+size], r)
	// The pending extension sits in the record that ends where this one
	// begins, so one ascending range covers both, at most a page longer
	// than the record's own. A device that tears it between pages keeps
	// the extension and loses the record, never the reverse.
	from := off
	if l.dirty {
		from = l.last + extOff
	}
	if err = l.flush(w, from, to); err != nil {
		// The record may be absent or torn on the device. Un-append it:
		// were head/appended/last advanced here, every later
		// acknowledged record would sit beyond a torn one on disk and
		// be silently lost at replay (the walk stops at the first corrupt
		// record). Zeroing the whole slot keeps Image()/Decode consistent
		// with "not appended" and the image zero past the head, so a
		// shorter record appended here next sends no stale tail. A
		// pending extension stays pending: the next flush writes it again.
		clear(l.image[off-l.base : off-l.base+size])
		return false, err
	}
	l.head += size
	l.appended++
	l.live++
	l.last, l.dirty = off, false
	return false, nil
}

// reserve makes the image reach the end of the page that holds byte
// end-1 of the region. An image that does not is retired to below, and a
// new block of loadChunk bytes (or what one record needs) starts at the
// page of the oldest byte still in play — the last record's, else the
// head's — so growth copies a record and its page, never the log.
func (l *Log) reserve(end int64) {
	end = min((end+l.pageSize-1)/l.pageSize*l.pageSize, l.capacity)
	if end <= l.base+int64(len(l.image)) {
		return
	}
	keep := l.head
	if l.last >= 0 {
		keep = l.last
	}
	start := keep / l.pageSize * l.pageSize
	block := make([]byte, min(max(loadChunk, end-start), l.capacity-start))
	copy(block, l.image[start-l.base:])
	if start > l.base {
		l.below = append(l.below, span{l.base, l.image[:start-l.base]})
	}
	l.image, l.base = block, start
}

// extendsLast reports whether r is a write that the log's last record
// can absorb: a write record on the same inode whose extent ends where r
// begins.
//
// Only the last record qualifies. Coalescing moves r's effect to the
// target's position in replay order, and recovery reconstructs block
// placement by repeating the original allocation sequence (see microfs
// replay), so no record may sit between the target and the tail whose
// replay allocates or frees a block. Every kind can: writes, unlinks and
// truncates obviously, and create, mkdir and rename because each grows
// the parent directory by one entry, which takes a block at the
// directory's first entry and at every BlockSize/64-th after it. Ordering
// settles it without inspecting records: every record other than the
// target is a barrier.
func (l *Log) extendsLast(r Record) bool {
	off := l.last
	if r.Op != OpWrite || !l.coalesce || off < 0 {
		return false
	}
	rec := l.image[off-l.base:]
	if Op(rec[0]) != OpWrite || binary.LittleEndian.Uint64(rec[6:]) != r.Inode {
		return false
	}
	start := binary.LittleEndian.Uint64(rec[14:])
	length := binary.LittleEndian.Uint64(rec[extOff:])
	if start+length != r.Offset {
		return false
	}
	// The device contract is page-atomic log writes: a mutation inside
	// one page lands entirely or not at all, but one straddling a page
	// boundary can half-land in a crash and corrupt an already
	// acknowledged record mid-log — replay would then stop there and
	// silently drop every acknowledged record after it. Append fresh
	// instead; only log-space savings are forgone.
	return (off+extOff)/l.pageSize == (off+extEnd-1)/l.pageSize
}

// Sync persists a pending extension through w, making every coalesced
// write acknowledged so far part of the device's log. It is the log half
// of the caller's fsync. After a failed Sync the extension is still
// pending and the next Sync or record flush repairs the page. Like every
// call, Sync has the log to itself until it returns, its write included.
func (l *Log) Sync(w WriteFunc) error {
	if !l.dirty {
		return nil
	}
	if err := l.flush(w, l.last+extOff, l.last+extEnd); err != nil {
		return err
	}
	l.dirty = false
	return nil
}

// flush persists the log bytes [from, to) through w: exactly those with
// ExactFlush, else the whole pages covering them.
func (l *Log) flush(w WriteFunc, from, to int64) error {
	if !l.exact {
		from = from / l.pageSize * l.pageSize
		to = min((to+l.pageSize-1)/l.pageSize*l.pageSize, l.capacity)
	}
	l.devWrites++
	l.devBytes += to - from
	return w(from, l.image[from-l.base:to-l.base])
}

// Reset discards all records (after the caller has checkpointed
// metadata), a pending extension with them, and the memory that held
// them. Old records are invalidated by an epoch bump, so no device
// zeroing is needed.
func (l *Log) Reset() {
	l.epoch++
	if l.epoch == 0 { // skip the zero epoch, which marks unused space
		l.epoch = 1
	}
	l.head = 0
	l.live = 0
	l.last, l.dirty = -1, false
	l.image, l.base, l.below = nil, 0, nil
}

// Records returns the number of live records (since the last Reset).
func (l *Log) Records() int64 { return l.live }

// FillFraction reports how full the log region is (0..1); the
// background checkpoint thread triggers when this passes its threshold.
func (l *Log) FillFraction() float64 {
	return float64(l.head) / float64(l.capacity)
}

// Head returns the current append offset (diagnostics).
func (l *Log) Head() int64 { return l.head }

// Stats reports appended records, coalesced records, device writes, and
// device bytes since creation.
func (l *Log) Stats() (appended, coalesced, devWrites, devBytes int64) {
	return l.appended, l.coalesced, l.devWrites, l.devBytes
}

// Image returns a copy of the log region from offset 0 to the end of the
// image: below the head, what a crashed node's recovery would read back
// from the SSD (diagnostics and tests).
func (l *Log) Image() []byte {
	out := make([]byte, l.base+int64(len(l.image)))
	l.copyBelow(out[:l.base], 0)
	copy(out[l.base:], l.image)
	return out
}

// copyBelow fills dst, which stands for the region from offset off on,
// with what below holds of it; where two buffers overlap the newer is right.
func (l *Log) copyBelow(dst []byte, off int64) {
	for _, s := range l.below {
		lo, hi := max(s.off, off), min(s.off+int64(len(s.b)), off+int64(len(dst)))
		if lo < hi {
			copy(dst[lo-off:hi-off], s.b[lo-s.off:hi-s.off])
		}
	}
}

// Epoch returns the current epoch (diagnostics and tests).
func (l *Log) Epoch() byte { return l.epoch }

// LocatedRecord is a decoded record together with its byte offset in
// the log region, so recovery can replay only the suffix written after
// a metadata snapshot was taken.
type LocatedRecord struct {
	Record
	Off int64
}

// walk decodes the records of the given epoch in buf, which stands for
// the log region from byte offset base on, and hands each to visit in log
// order. It returns the region offset at which it stopped and how it
// stopped. need > 0: it ran into the end of buf, and the slot at head can
// be judged once need bytes of it are there — a minimal record's, or,
// with ErrCorrupt, those of the record whose header buf holds; for a
// caller holding only a prefix of the region that means "read more and
// resume at head", never "torn". need == 0: it stopped for good, at an
// unused or other-epoch slot, at a CRC mismatch (ErrCorrupt), or at a
// record visit refused (visit's error, as it is).
func walk(buf []byte, base int64, epoch byte, visit func(LocatedRecord) error) (head int64, need int, err error) {
	off := 0
	for off+headerSize+4 <= len(buf) {
		op := Op(buf[off])
		if op == OpInvalid || op > OpRename || buf[off+1] != epoch {
			return base + int64(off), 0, nil
		}
		pathLen := int(binary.LittleEndian.Uint16(buf[off+2:]))
		path2Len := int(binary.LittleEndian.Uint16(buf[off+4:]))
		payload := off + headerSize + pathLen + path2Len
		if payload+4 > len(buf) {
			return base + int64(off), payload + 4 - off, ErrCorrupt
		}
		if binary.LittleEndian.Uint32(buf[payload:]) != crc32.ChecksumIEEE(buf[off:payload]) {
			return base + int64(off), 0, ErrCorrupt
		}
		if err := visit(LocatedRecord{
			Off: base + int64(off),
			Record: Record{
				Op:     op,
				Path:   string(buf[off+headerSize : off+headerSize+pathLen]),
				Path2:  string(buf[off+headerSize+pathLen : payload]),
				Inode:  binary.LittleEndian.Uint64(buf[off+6:]),
				Offset: binary.LittleEndian.Uint64(buf[off+14:]),
				Length: binary.LittleEndian.Uint64(buf[off+22:]),
				Mode:   uint32(binary.LittleEndian.Uint16(buf[off+30:])),
			},
		}); err != nil {
			return base + int64(off), 0, err
		}
		off = payload + 4
	}
	return base + int64(off), headerSize + 4, nil
}

// Decode scans a log region image and returns the records of the given
// epoch, in append order. Scanning stops cleanly at the first unused or
// other-epoch slot; a CRC mismatch mid-log returns ErrCorrupt with the
// records decoded so far (a torn final record is reported as corrupt —
// callers decide whether to accept the prefix).
func Decode(image []byte, epoch byte) ([]Record, error) {
	var out []Record
	_, _, err := walk(image, 0, epoch, func(lr LocatedRecord) error {
		out = append(out, lr.Record)
		return nil
	})
	return out, err
}

// DecodeLocated is Decode with byte offsets attached.
func DecodeLocated(image []byte, epoch byte) ([]LocatedRecord, error) {
	var out []LocatedRecord
	_, _, err := walk(image, 0, epoch, func(lr LocatedRecord) error {
		out = append(out, lr)
		return nil
	})
	return out, err
}

// NextEpoch returns the epoch the log will use after the next Reset.
func (l *Log) NextEpoch() byte {
	e := l.epoch + 1
	if e == 0 {
		e = 1
	}
	return e
}

// ReadFunc returns the n bytes the device holds at byte offset off
// within the log region, in a buffer that from then on is the log's.
type ReadFunc func(off, n int64) ([]byte, error)

// loadChunk is the first read Load issues; every further one doubles. It
// is also the block Append's image grows by.
const loadChunk = 64 << 10

// Load makes l the log a crashed instance left on the device, replaying
// it on the way: it reads the region from offset 0 in doubling chunks,
// walks each chunk once, where it was read, and hands every valid record
// of the given epoch to visit in log order, until the walk ends for good
// — at an unused or other-epoch slot, or at a CRC mismatch on a record
// that lies wholly inside the bytes read — or the region is exhausted.
// Only a record that straddles the end of a chunk is copied, to be
// walked in one piece. Load then positions the append head after the last
// valid record, with the head's page as the image and the chunks kept
// below it. An Append to the loaded log continues the same epoch; l's
// counters start over. An error from read or visit ends the load there
// and is returned as it is; l is then the log it was before the call,
// and Load may be called again.
func (l *Log) Load(read ReadFunc, epoch byte, visit func(LocatedRecord) error) error {
	var (
		have, head, records int64
		chunks              []span
		carry               []byte // the region from head on, when a chunk ended inside a slot
		failed              error  // walk's own ErrCorrupt is not a failure: see below
	)
	each := func(lr LocatedRecord) error { records++; failed = visit(lr); return failed }
	need := headerSize + 4
	for chunk := int64(loadChunk); need > 0 && have < l.capacity; chunk *= 2 {
		n := min(chunk, l.capacity-have)
		data, err := read(have, n)
		if err != nil {
			return err
		}
		if int64(len(data)) < n {
			// A device that captured no payloads reads as zeros.
			data = append(make([]byte, 0, n), data...)[:n]
		}
		chunks = append(chunks, span{have, data})
		// A torn final record is expected after a crash: ErrCorrupt from
		// the walk means accept the valid prefix and resume appending
		// over the torn bytes.
		pos := int64(0)
		for len(carry) > 0 {
			take := min(int64(need-len(carry)), n-pos)
			carry = append(carry, data[pos:pos+take]...)
			pos += take
			if len(carry) < need {
				break // the slot outlasts this chunk too
			}
			var at int64
			if at, need, _ = walk(carry, head, epoch, each); at > head || need == 0 {
				head, carry = at, carry[:0] // the record is through, or the log ends here
			}
		}
		if need > 0 && len(carry) == 0 {
			head, need, _ = walk(data[pos:], have+pos, epoch, each)
			if need > 0 {
				carry = append(carry, data[head-have:]...)
			}
		}
		if failed != nil {
			return failed
		}
		have += n
	}
	l.epoch, l.head = epoch, head
	l.last, l.dirty = -1, false
	l.live, l.appended = records, records
	l.coalesced, l.devWrites, l.devBytes = 0, 0, 0
	l.image, l.base, l.below = nil, head/l.pageSize*l.pageSize, chunks
	l.reserve(head)
	l.copyBelow(l.image[:head-l.base], l.base)
	return nil
}
