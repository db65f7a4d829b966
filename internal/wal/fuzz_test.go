package wal

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// FuzzDecode hardens the log scanner against arbitrary on-SSD bytes: a
// crashed or corrupted log region must never panic the recovery path,
// only stop cleanly or report ErrCorrupt.
func FuzzDecode(f *testing.F) {
	// Seed with a real log image.
	l, err := New(Options{Capacity: 1 << 14}, nil)
	if err != nil {
		f.Fatal(err)
	}
	l.Append(Record{Op: OpMkdir, Path: "/d", Inode: 2, Mode: 0o755})
	l.Append(Record{Op: OpCreate, Path: "/d/f", Inode: 3, Mode: 0o644})
	l.Append(Record{Op: OpWrite, Inode: 3, Offset: 0, Length: 32768})
	l.Append(Record{Op: OpRename, Path: "/d/f", Path2: "/d/g", Inode: 3})
	f.Add(append([]byte(nil), l.Image()[:l.Head()+64]...), byte(1))
	f.Add([]byte{}, byte(1))
	f.Add(bytes.Repeat([]byte{0xFF}, 256), byte(3))
	f.Add(bytes.Repeat([]byte{0x00}, 256), byte(0))

	f.Fuzz(func(t *testing.T, image []byte, epoch byte) {
		records, err := Decode(image, epoch)
		if err != nil && err != ErrCorrupt {
			t.Fatalf("unexpected error class: %v", err)
		}
		// Whatever decoded must re-encode within the image bounds.
		var total int
		for _, r := range records {
			total += EncodedSize(r)
		}
		if total > len(image) {
			t.Fatalf("decoded %d bytes of records from a %d-byte image", total, len(image))
		}
	})
}

// loadImage is the full-region reference load: a fresh log over opts
// that Loads image as its device content.
func loadImage(opts Options, image []byte, epoch byte) (*Log, []LocatedRecord, error) {
	l, err := New(opts, nil)
	if err != nil {
		return nil, nil, err
	}
	dev := make([]byte, opts.Capacity)
	copy(dev, image)
	var records []LocatedRecord
	err = l.Load(func(off, n int64) ([]byte, error) { return dev[off : off+n], nil }, epoch,
		func(lr LocatedRecord) error {
			records = append(records, lr)
			return nil
		})
	return l, records, err
}

// FuzzLoadRoundTrip: loading any image and appending must keep the log
// self-consistent (append after load decodes back).
func FuzzLoadRoundTrip(f *testing.F) {
	l, _ := New(Options{Capacity: 1 << 12}, nil)
	l.Append(Record{Op: OpCreate, Path: "/x", Inode: 2})
	f.Add(append([]byte(nil), l.Image()...), byte(1))
	f.Add(make([]byte, 100), byte(1))

	f.Fuzz(func(t *testing.T, image []byte, epoch byte) {
		if epoch == 0 {
			epoch = 1
		}
		loaded, prefix, err := loadImage(Options{Capacity: 1 << 12}, image, epoch)
		if err != nil {
			return
		}
		if _, err := loaded.Append(Record{Op: OpUnlink, Path: "/probe", Inode: 9}); err != nil {
			return // full: fine
		}
		all, err := Decode(loaded.Image(), epoch)
		if err != nil && err != ErrCorrupt {
			t.Fatalf("decode after load+append: %v", err)
		}
		if len(all) < len(prefix) {
			t.Fatalf("append lost records: %d -> %d", len(prefix), len(all))
		}
	})
}

// FuzzReplayTorn crashes a real log at fuzzer-chosen points: the
// device-side image is truncated (a torn tail — later pages never
// landed) and corrupted (one flipped byte anywhere), then replayed.
// Replay must never panic and must never surface a record that was not
// acknowledged by Append: whatever decodes is an exact prefix of the
// acknowledged sequence, and loading the torn image keeps the log
// usable.
func FuzzReplayTorn(f *testing.F) {
	f.Add(uint16(200), uint16(50), byte(0xFF))
	f.Add(uint16(0), uint16(0), byte(0))
	f.Add(uint16(1<<12), uint16(300), byte(0x01))
	f.Add(uint16(65), uint16(4000), byte(0x80))

	f.Fuzz(func(t *testing.T, truncateAt, corruptOff uint16, xor byte) {
		const capacity = 1 << 12
		dev := make([]byte, capacity)
		write := func(off int64, data []byte) error {
			copy(dev[off:], data)
			return nil
		}
		l, err := New(Options{Capacity: capacity, NoCoalesce: true}, write)
		if err != nil {
			t.Fatal(err)
		}
		var acked []Record
		for i := 0; i < 24; i++ {
			r := Record{Op: OpCreate, Path: fmt.Sprintf("/ckpt/file-%02d", i), Inode: uint64(i + 2), Mode: 0o644}
			switch i % 4 {
			case 1:
				r = Record{Op: OpWrite, Inode: uint64(i + 1), Offset: uint64(i) * 4096, Length: 32768}
			case 2:
				r = Record{Op: OpRename, Path: fmt.Sprintf("/tmp-%02d", i), Path2: fmt.Sprintf("/fin-%02d", i), Inode: uint64(i + 1)}
			case 3:
				r = Record{Op: OpUnlink, Path: fmt.Sprintf("/ckpt/file-%02d", i-3), Inode: uint64(i - 1)}
			}
			if _, err := l.Append(r); err != nil {
				break // full: the acked prefix is what matters
			}
			acked = append(acked, r)
		}

		// Tear the device image: everything from truncateAt on is lost.
		ta := int(truncateAt) % (capacity + 1)
		for i := ta; i < capacity; i++ {
			dev[i] = 0
		}
		if xor != 0 {
			dev[int(corruptOff)%capacity] ^= xor
		}

		decoded, err := Decode(dev, l.Epoch())
		if err != nil && err != ErrCorrupt {
			t.Fatalf("unexpected error class from torn replay: %v", err)
		}
		if len(decoded) > len(acked) {
			t.Fatalf("replay surfaced %d records, only %d were acknowledged", len(decoded), len(acked))
		}
		for i, r := range decoded {
			if !reflect.DeepEqual(r, acked[i]) {
				t.Fatalf("replayed record %d = %+v, want acknowledged %+v", i, r, acked[i])
			}
		}

		// Recovery over the torn image: Load accepts the valid prefix
		// and the log keeps working.
		loaded, prefix, err := loadImage(Options{Capacity: capacity, NoCoalesce: true}, dev, l.Epoch())
		if err != nil {
			t.Fatalf("load of torn image: %v", err)
		}
		if len(prefix) != len(decoded) {
			t.Fatalf("Load returned %d records, Decode %d", len(prefix), len(decoded))
		}
		if _, err := loaded.Append(Record{Op: OpMkdir, Path: "/post-crash", Inode: 99, Mode: 0o755}); err != nil && err != ErrLogFull {
			t.Fatalf("append after torn load: %v", err)
		}
	})
}
