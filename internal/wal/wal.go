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
// Durability contract. A record that Append adds to the log is on the
// device when Append returns. An extension coalesced into the log's last
// record changes the in-memory image only; it reaches the device with
// the next record's flush or with Sync, whichever comes first — the
// caller's durability points (fsync, close of a written file). Until
// then the device holds the same records with a shorter last write.
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
// region. The Log calls it synchronously, once per appended record and
// once per Sync that finds an extension pending, always with whole pages
// in ascending order. The paper flushes the log before processing every
// subsequent operation; here a coalesced extension waits for the next
// record or Sync (see the package comment and DESIGN.md).
type WriteFunc func(off int64, data []byte) error

// Log is the provenance log for one runtime instance.
type Log struct {
	capacity int64
	pageSize int64
	coalesce bool
	write    WriteFunc

	epoch byte
	image []byte // in-memory mirror of the log region
	head  int64

	// last is the byte offset of the newest record appended since the
	// last Reset or Load, the one coalescing candidate; -1 when there is
	// none. dirty reports that last's length and CRC, extended in
	// memory, have not reached the device.
	last  int64
	dirty bool

	live int64 // records since the last Reset

	// Stats.
	appended  int64
	coalesced int64
	devWrites int64
	devBytes  int64
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
}

// New creates a log. write may be nil for in-memory use (tests).
func New(opts Options, write WriteFunc) (*Log, error) {
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
		write:    write,
		epoch:    1,
		image:    make([]byte, opts.Capacity),
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
// appended and persisted before Append returns, in one device write that
// also carries a pending extension. It reports whether the record was
// coalesced.
func (l *Log) Append(r Record) (coalesced bool, err error) {
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
		off := l.last
		length := binary.LittleEndian.Uint64(l.image[off+extOff:])
		binary.LittleEndian.PutUint64(l.image[off+extOff:], length+r.Length)
		crc := crc32.ChecksumIEEE(l.image[off : off+headerSize])
		binary.LittleEndian.PutUint32(l.image[off+headerSize:], crc)
		l.dirty = true
		l.coalesced++
		return true, nil
	}
	size := int64(EncodedSize(r))
	if l.head+size > l.capacity {
		return false, ErrLogFull
	}
	off := l.head
	l.encode(l.image[off:off+size], r)
	// The pending extension sits in the record that ends where this one
	// begins, so one ascending page range covers both, at most a page
	// longer than the record's own. A device that tears it between pages
	// keeps the extension and loses the record, never the reverse.
	from := off
	if l.dirty {
		from = l.last + extOff
	}
	if err := l.flushRange(from, off+size-from); err != nil {
		// The record may be absent or torn on the device. Un-append it:
		// were head/appended/last advanced here, every later
		// acknowledged record would sit beyond a torn one on disk and
		// be silently lost at replay (scan stops at the first corrupt
		// record). Marking the slot invalid keeps Image()/Decode
		// consistent with "not appended". A pending extension stays
		// pending: the next flush writes its page again.
		l.image[off] = byte(OpInvalid)
		return false, err
	}
	l.head += size
	l.appended++
	l.live++
	l.last, l.dirty = off, false
	return false, nil
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
	if Op(l.image[off]) != OpWrite || binary.LittleEndian.Uint64(l.image[off+6:]) != r.Inode {
		return false
	}
	start := binary.LittleEndian.Uint64(l.image[off+14:])
	length := binary.LittleEndian.Uint64(l.image[off+extOff:])
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

// Sync persists a pending extension, making every coalesced write
// acknowledged so far part of the device's log. It is the log half of
// the caller's fsync. After a failed Sync the extension is still
// pending and the next Sync or record flush repairs the page.
func (l *Log) Sync() error {
	if !l.dirty {
		return nil
	}
	if err := l.flushRange(l.last+extOff, extEnd-extOff); err != nil {
		return err
	}
	l.dirty = false
	return nil
}

// flushRange persists the log pages covering [off, off+n).
func (l *Log) flushRange(off, n int64) error {
	if l.write == nil {
		return nil
	}
	start := off / l.pageSize * l.pageSize
	end := (off + n + l.pageSize - 1) / l.pageSize * l.pageSize
	if end > l.capacity {
		end = l.capacity
	}
	l.devWrites++
	l.devBytes += end - start
	return l.write(start, l.image[start:end])
}

// Reset discards all records (after the caller has checkpointed
// metadata), a pending extension with them. Old records are invalidated
// by an epoch bump, so no device zeroing is needed.
func (l *Log) Reset() {
	l.epoch++
	if l.epoch == 0 { // skip the zero epoch, which marks unused space
		l.epoch = 1
	}
	l.head = 0
	l.live = 0
	l.last, l.dirty = -1, false
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

// Image returns the live log region bytes (what a crashed node's
// recovery would read back from the SSD).
func (l *Log) Image() []byte { return l.image }

// Epoch returns the current epoch (diagnostics and tests).
func (l *Log) Epoch() byte { return l.epoch }

// LocatedRecord is a decoded record together with its byte offset in
// the log region, so recovery can replay only the suffix written after
// a metadata snapshot was taken.
type LocatedRecord struct {
	Record
	Off int64
}

// scan walks a log region image from byte offset from, decoding records
// of the given epoch. short reports that the walk ran into the end of
// the image — inside a record, or with less than a minimal record left —
// rather than into an invalid op, another epoch or a CRC mismatch: for a
// caller holding only a prefix of the region that means "read more and
// resume at the returned offset", never "torn".
func scan(image []byte, from int64, epoch byte) (out []LocatedRecord, head int64, short bool, err error) {
	off := int(from)
	for off+headerSize+4 <= len(image) {
		op := Op(image[off])
		if op == OpInvalid || op > OpRename {
			return out, int64(off), false, nil
		}
		if image[off+1] != epoch {
			return out, int64(off), false, nil
		}
		pathLen := int(binary.LittleEndian.Uint16(image[off+2:]))
		path2Len := int(binary.LittleEndian.Uint16(image[off+4:]))
		end := off + headerSize + pathLen + path2Len + 4
		if end > len(image) {
			return out, int64(off), true, ErrCorrupt
		}
		payload := off + headerSize + pathLen + path2Len
		want := binary.LittleEndian.Uint32(image[payload:])
		got := crc32.ChecksumIEEE(image[off:payload])
		if want != got {
			return out, int64(off), false, ErrCorrupt
		}
		out = append(out, LocatedRecord{
			Off: int64(off),
			Record: Record{
				Op:     op,
				Path:   string(image[off+headerSize : off+headerSize+pathLen]),
				Path2:  string(image[off+headerSize+pathLen : payload]),
				Inode:  binary.LittleEndian.Uint64(image[off+6:]),
				Offset: binary.LittleEndian.Uint64(image[off+14:]),
				Length: binary.LittleEndian.Uint64(image[off+22:]),
				Mode:   uint32(binary.LittleEndian.Uint16(image[off+30:])),
			},
		})
		off = end
	}
	return out, int64(off), true, nil
}

// Decode scans a log region image and returns the records of the given
// epoch, in append order. Scanning stops cleanly at the first unused or
// other-epoch slot; a CRC mismatch mid-log returns ErrCorrupt with the
// records decoded so far (a torn final record is reported as corrupt —
// callers decide whether to accept the prefix).
func Decode(image []byte, epoch byte) ([]Record, error) {
	located, _, _, err := scan(image, 0, epoch)
	out := make([]Record, len(located))
	for i, lr := range located {
		out[i] = lr.Record
	}
	return out, err
}

// DecodeLocated is Decode with byte offsets attached.
func DecodeLocated(image []byte, epoch byte) ([]LocatedRecord, error) {
	located, _, _, err := scan(image, 0, epoch)
	return located, err
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
// within the log region.
type ReadFunc func(off, n int64) ([]byte, error)

// loadChunk is the first read Load issues; every further one doubles.
const loadChunk = 64 << 10

// Load makes l the log a crashed instance left on the device: it reads
// the region from offset 0 into l's image in doubling chunks until the
// scan of the given epoch's records ends for good — at an unused or
// other-epoch slot, or at a CRC mismatch on a record that lies wholly
// inside the bytes read — or the region is exhausted, positions the
// append head after the last valid record, and returns the records for
// replay. The unread tail of the image is zeros. Appending to the
// loaded log continues the same epoch; l's counters start over. After a
// failed read l holds part of the device's log and must be loaded again
// before it is used.
func (l *Log) Load(read ReadFunc, epoch byte) ([]LocatedRecord, error) {
	var records []LocatedRecord
	var have, head int64
	short := true
	for chunk := int64(loadChunk); short && have < l.capacity; chunk *= 2 {
		n := min(chunk, l.capacity-have)
		data, err := read(have, n)
		if err != nil {
			return nil, err
		}
		// A device that captured no payloads reads as zeros.
		got := int64(copy(l.image[have:have+n], data))
		clear(l.image[have+got : have+n])
		have += n
		var more []LocatedRecord
		// A torn final record is expected after a crash: accept the
		// valid prefix and resume appending over the torn bytes.
		more, head, short, _ = scan(l.image[:have], head, epoch)
		records = append(records, more...)
	}
	clear(l.image[have:])
	l.epoch, l.head = epoch, head
	l.last, l.dirty = -1, false
	l.live, l.appended = int64(len(records)), int64(len(records))
	l.coalesced, l.devWrites, l.devBytes = 0, 0, 0
	return records, nil
}
