package wal

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// createRec returns a create record that encodes to exactly size bytes.
func createRec(size, inode int) Record {
	return Record{Op: OpCreate, Path: "/" + strings.Repeat("p", size-headerSize-4-1), Inode: uint64(inode), Mode: 0o644}
}

// TestLoadChunkBoundaries checks Load's chunked read against the
// full-region read it replaced: for every shape of log around a chunk
// boundary it must return the records DecodeLocated finds in the whole
// device image, leave the log appendable at the same head, and read no
// further than the shape requires.
func TestLoadChunkBoundaries(t *testing.T) {
	const capacity = 1 << 20
	const first = loadChunk        // bytes after one read
	const second = first + 2*first // bytes after two
	// fill appends a record of lead bytes (if any), 64-byte records up to
	// upTo-lastSize (the last one stretched to fit) and one record of
	// lastSize, so the live prefix ends at upTo.
	fill := func(t *testing.T, l *Log, lead, upTo, lastSize int) {
		t.Helper()
		n := 0
		add := func(size int) {
			n++
			if _, err := l.Append(createRec(size, n)); err != nil {
				t.Fatal(err)
			}
		}
		if lead > 0 {
			add(lead)
		}
		for rem := upTo - lastSize - int(l.Head()); rem > 0; rem = upTo - lastSize - int(l.Head()) {
			if rem >= 128 {
				rem = 64
			}
			add(rem)
		}
		add(lastSize)
		if int(l.Head()) != upTo {
			t.Fatalf("built a prefix of %d bytes, want %d", l.Head(), upTo)
		}
	}
	for _, tc := range []struct {
		name     string
		capacity int64
		build    func(t *testing.T, l *Log, dev []byte)
		wantRead int64
	}{
		{"empty", capacity, func(*testing.T, *Log, []byte) {}, first},
		{"small", capacity, func(t *testing.T, l *Log, _ []byte) { fill(t, l, 0, 4096, 64) }, first},
		// The slot after the prefix is judged only once a minimal
		// record fits in what has been read.
		{"minimal record fits before boundary", capacity, func(t *testing.T, l *Log, _ []byte) { fill(t, l, 0, first-headerSize-4, 64) }, first},
		{"minimal record does not fit", capacity, func(t *testing.T, l *Log, _ []byte) { fill(t, l, 0, first-headerSize-3, 65) }, second},
		{"ends 1 before boundary", capacity, func(t *testing.T, l *Log, _ []byte) { fill(t, l, 0, first-1, 63) }, second},
		{"ends at boundary", capacity, func(t *testing.T, l *Log, _ []byte) { fill(t, l, 0, first, 64) }, second},
		{"ends 1 after boundary", capacity, func(t *testing.T, l *Log, _ []byte) { fill(t, l, 0, first+1, 65) }, second},
		{"record straddles boundary", capacity, func(t *testing.T, l *Log, _ []byte) { fill(t, l, 96, first+32, 64) }, second},
		{"ends at second boundary", capacity, func(t *testing.T, l *Log, _ []byte) { fill(t, l, 0, second, 64) }, second + 4*first},
		{"torn final record", capacity, func(t *testing.T, l *Log, dev []byte) {
			fill(t, l, 0, 8192, 64)
			clear(dev[8192-20 : 8192])
		}, first},
		{"torn record straddling boundary", capacity, func(t *testing.T, l *Log, dev []byte) {
			fill(t, l, 96, first+32, 64)
			clear(dev[first : first+32])
		}, second},
		{"corrupt mid-log", capacity, func(t *testing.T, l *Log, dev []byte) {
			fill(t, l, 0, second, 64)
			dev[first+100] ^= 0x40
		}, second},
		{"full", 256 << 10, func(t *testing.T, l *Log, _ []byte) {
			for i := 0; ; i++ {
				if _, err := l.Append(createRec(64+i%7, i)); err == ErrLogFull {
					return
				} else if err != nil {
					t.Fatal(err)
				}
			}
		}, 256 << 10},
		{"post-Reset epoch over stale records", capacity, func(t *testing.T, l *Log, _ []byte) {
			fill(t, l, 0, second+999, 71)
			l.Reset()
			fill(t, l, 0, 4000, 64)
		}, first},
		{"post-Reset epoch across boundary", capacity, func(t *testing.T, l *Log, _ []byte) {
			fill(t, l, 96, second+999, 71)
			l.Reset()
			fill(t, l, 0, first+1, 65)
		}, second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := make([]byte, tc.capacity)
			opts := Options{Capacity: tc.capacity, NoCoalesce: true}
			l := newLog(t, opts, func(off int64, data []byte) error {
				copy(dev[off:], data)
				return nil
			})
			tc.build(t, l, dev)
			epoch := l.Epoch()

			// Reference: one read of the whole region.
			want, _ := DecodeLocated(dev, epoch)
			var wantHead int64
			if n := len(want); n > 0 {
				wantHead = want[n-1].Off + int64(EncodedSize(want[n-1].Record))
			}

			// The log being loaded has a life behind it, so the zero
			// tail is Load's doing.
			loaded := newLog(t, opts, nil)
			for i := 0; i < 10; i++ {
				loaded.Append(createRec(3000, i))
			}
			var read int64
			got, err := loaded.Load(func(off, n int64) ([]byte, error) {
				if off != read {
					t.Errorf("read at %d, want the next unread byte %d", off, read)
				}
				read += n
				return dev[off : off+n], nil
			}, epoch)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("chunked load returned %d records, the full read %d", len(got), len(want))
			}
			if loaded.Head() != wantHead || loaded.Records() != int64(len(want)) || loaded.Epoch() != epoch {
				t.Errorf("head/records/epoch = %d/%d/%d, want %d/%d/%d",
					loaded.Head(), loaded.Records(), loaded.Epoch(), wantHead, len(want), epoch)
			}
			if read != tc.wantRead {
				t.Errorf("read %d bytes of the region, want %d", read, tc.wantRead)
			}
			img := loaded.Image()
			if !bytes.Equal(img[:read], dev[:read]) {
				t.Error("image differs from the device over the bytes read")
			}
			if bytes.Count(img[read:], []byte{0}) != len(img[read:]) {
				t.Error("unread tail of the image is not zeros")
			}
			if a, c, w, b := loaded.Stats(); a != int64(len(want)) || c+w+b != 0 {
				t.Errorf("stats after load = %d/%d/%d/%d", a, c, w, b)
			}
			// The loaded log keeps working where the valid prefix ends.
			probe := Record{Op: OpUnlink, Path: "/probe", Inode: 9}
			if _, err := loaded.Append(probe); err == nil {
				all, _ := Decode(loaded.Image(), epoch)
				if len(all) != len(want)+1 || all[len(want)] != probe {
					t.Errorf("append after load: %d records, want %d ending in the probe", len(all), len(want)+1)
				}
			} else if err != ErrLogFull {
				t.Fatal(err)
			}
		})
	}
}

// TestLoadReadError: a failed device read fails the load.
func TestLoadReadError(t *testing.T) {
	l := newLog(t, Options{}, nil)
	if _, err := l.Load(func(off, n int64) ([]byte, error) { return nil, ErrCorrupt }, 1); err != ErrCorrupt {
		t.Fatalf("err = %v, want the read error", err)
	}
}
