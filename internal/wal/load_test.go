package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// headOf returns the offset after the last of records.
func headOf(records []LocatedRecord) int64 {
	if n := len(records); n > 0 {
		return records[n-1].Off + int64(EncodedSize(records[n-1].Record))
	}
	return 0
}

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
	var w WriteFunc                // the device of the case being run
	// fill appends a record of lead bytes (if any), 64-byte records up to
	// upTo-lastSize (the last one stretched to fit) and one record of
	// lastSize, so the live prefix ends at upTo.
	fill := func(t *testing.T, l *Log, lead, upTo, lastSize int) {
		t.Helper()
		n := 0
		add := func(size int) {
			n++
			if _, err := l.Append(w, createRec(size, n)); err != nil {
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
				if _, err := l.Append(w, createRec(64+i%7, i)); err == ErrLogFull {
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
			l := newLog(t, opts)
			w = capture(dev)
			tc.build(t, l, dev)
			epoch := l.Epoch()

			// Reference: one read of the whole region.
			want, _ := DecodeLocated(dev, epoch)
			wantHead := headOf(want)

			// The log being loaded has a life behind it, which Load
			// replaces.
			loaded := newLog(t, opts)
			for i := 0; i < 10; i++ {
				loaded.Append(discard, createRec(3000, i))
			}
			var read int64
			var got []LocatedRecord
			err := loaded.Load(func(off, n int64) ([]byte, error) {
				if off != read {
					t.Errorf("read at %d, want the next unread byte %d", off, read)
				}
				read += n
				return bytes.Clone(dev[off : off+n]), nil
			}, epoch, func(lr LocatedRecord) error {
				got = append(got, lr)
				return nil
			})
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
			if img := loaded.Image(); !bytes.Equal(img[:wantHead], dev[:wantHead]) {
				t.Error("image differs from the device below the head")
			}
			if a, c, w, b := loaded.Stats(); a != int64(len(want)) || c+w+b != 0 {
				t.Errorf("stats after load = %d/%d/%d/%d", a, c, w, b)
			}
			// The loaded log keeps working where the valid prefix ends.
			probe := Record{Op: OpUnlink, Path: "/probe", Inode: 9}
			if _, err := loaded.Append(discard, probe); err == nil {
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
	l := newLog(t, Options{})
	visit := func(LocatedRecord) error { return nil }
	if err := l.Load(func(off, n int64) ([]byte, error) { return nil, ErrCorrupt }, 1, visit); err != ErrCorrupt {
		t.Fatalf("err = %v, want the read error", err)
	}
}

// randomRecord draws one record of any of the six ops, with paths of up
// to maxPath bytes where the op carries them.
func randomRecord(rng *rand.Rand, maxPath int) Record {
	path := func() string { return "/" + strings.Repeat(string(rune('a'+rng.Intn(26))), rng.Intn(maxPath)) }
	switch op := Op(1 + rng.Intn(int(OpRename))); op {
	case OpMkdir, OpCreate:
		return Record{Op: op, Path: path(), Inode: rng.Uint64(), Mode: uint32(rng.Intn(0o1000))}
	case OpUnlink:
		return Record{Op: op, Path: path(), Inode: rng.Uint64()}
	case OpRename:
		return Record{Op: op, Path: path(), Path2: path(), Inode: rng.Uint64()}
	case OpTruncate:
		return Record{Op: op, Inode: rng.Uint64(), Length: rng.Uint64()}
	default:
		return Record{Op: OpWrite, Inode: rng.Uint64(), Offset: rng.Uint64() >> 1, Length: uint64(rng.Int63n(1 << 30))}
	}
}

// TestLoadStreamsWhatDecodeFinds is the property that the streaming
// walker is the old decoder: over random logs — all six ops, paths of up
// to 200 bytes, now and then a record longer than a whole chunk, ending
// cleanly, torn, in a stale epoch's records or at the end of a full
// region — Load hands its visitor exactly the records DecodeLocated finds
// in the whole device image, whatever chunk ends the records straddle and
// whether or not the device hands back the zeros beyond the data, leaves
// the head and the counts a whole-region decode implies, and appends from
// there so that the device decodes to the same records plus the new ones
// with not a byte below the old head changed. A visitor that refuses a
// record gets its error back as it is, sees no record after it, and
// leaves the log as it was.
func TestLoadStreamsWhatDecodeFinds(t *testing.T) {
	straddled := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := int64(loadChunk + rng.Intn(8*loadChunk))
		opts := Options{Capacity: capacity, PageSize: []int64{512, 4096}[rng.Intn(2)], NoCoalesce: rng.Intn(2) == 0}
		dev := make([]byte, capacity)
		l, w := newLog(t, opts), capture(dev)
		// fill appends random records up to about upTo bytes, or to the
		// end of the region.
		fill := func(upTo int64) {
			for l.Head() < upTo {
				r := randomRecord(rng, 200)
				if rng.Intn(400) == 0 {
					r = Record{Op: OpRename, Path: strings.Repeat("p", 0xFFFF), Path2: strings.Repeat("q", 0xFFFF)}
				}
				if _, err := l.Append(w, r); err == ErrLogFull {
					return
				} else if err != nil {
					t.Fatal(err)
				}
			}
		}
		shape := rng.Intn(4)
		switch fill(rng.Int63n(capacity)); shape {
		case 1: // torn tail: the last record's final bytes never landed
			if head := l.Head(); head > 0 {
				clear(dev[head-1-int64(rng.Intn(20)) : head])
			}
		case 2: // a new epoch over the stale records of a longer one
			l.Reset()
			fill(rng.Int63n(capacity))
		case 3: // full region
			fill(capacity)
		}
		epoch := l.Epoch()
		want, _ := DecodeLocated(dev, epoch)
		wantHead := headOf(want)
		for _, lr := range want {
			for end := int64(loadChunk); end < capacity; end = 2*end + loadChunk {
				if lr.Off < end && lr.Off+int64(EncodedSize(lr.Record)) > end {
					straddled++
				}
			}
		}

		dev2 := bytes.Clone(dev)
		loaded, w2 := newLog(t, opts), capture(dev2)
		sparse := rng.Intn(2) == 0
		read := func(off, n int64) ([]byte, error) {
			data := bytes.Clone(dev[off : off+n])
			if sparse {
				data = bytes.TrimRight(data, "\x00")
			}
			return data, nil
		}

		// A refused record ends the load and changes nothing.
		refused := errors.New("refused")
		if len(want) > 0 {
			k, seen := rng.Intn(len(want)), 0
			err := loaded.Load(read, epoch, func(lr LocatedRecord) error {
				if seen++; lr != want[k] {
					return nil
				}
				return refused
			})
			if err != refused || seen != k+1 {
				t.Fatalf("seed %d: refusing record %d: Load returned %v after %d visits", seed, k, err, seen)
			}
			if loaded.Head() != 0 || loaded.Records() != 0 || loaded.Epoch() != 1 {
				t.Fatalf("seed %d: a refused load left head/records/epoch %d/%d/%d", seed, loaded.Head(), loaded.Records(), loaded.Epoch())
			}
		}

		var got []LocatedRecord
		if err := loaded.Load(read, epoch, func(lr LocatedRecord) error {
			got = append(got, lr)
			return nil
		}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("seed %d (shape %d): Load visited %d records, DecodeLocated finds %d", seed, shape, len(got), len(want))
		}
		if loaded.Head() != wantHead || loaded.Records() != int64(len(want)) || loaded.Epoch() != epoch {
			t.Fatalf("seed %d: head/records/epoch = %d/%d/%d, want %d/%d/%d", seed,
				loaded.Head(), loaded.Records(), loaded.Epoch(), wantHead, len(want), epoch)
		}
		if !bytes.Equal(loaded.Image()[:wantHead], dev[:wantHead]) {
			t.Fatalf("seed %d: image differs from the device below the head", seed)
		}

		// An Append continues the log the device holds.
		var probes []Record
		for i, n := 0, 1+rng.Intn(40); i < n; i++ {
			r := randomRecord(rng, 4000) // enough of them cross into a new block
			if _, err := loaded.Append(w2, r); err == ErrLogFull {
				break
			} else if err != nil {
				t.Fatalf("seed %d: append after load: %v", seed, err)
			}
			probes = append(probes, r)
		}
		if !bytes.Equal(dev2[:wantHead], dev[:wantHead]) {
			t.Fatalf("seed %d: appending after load changed the device below the old head", seed)
		}
		all, err := Decode(dev2, epoch)
		if err != nil && len(all) == len(want)+len(probes) {
			err = nil // stale bytes after the last probe may read as a torn record
		}
		if err != nil || len(all) != len(want)+len(probes) {
			t.Fatalf("seed %d (shape %d): the device decodes to %d records (%v), want %d loaded + %d appended",
				seed, shape, len(all), err, len(want), len(probes))
		}
		for i, r := range probes {
			if all[len(want)+i] != r {
				t.Fatalf("seed %d: appended record %d reads back as %+v, want %+v", seed, i, all[len(want)+i], r)
			}
		}
		if head := loaded.Head(); !bytes.Equal(loaded.Image()[:head], dev2[:head]) {
			t.Fatalf("seed %d: image and device differ below the head after appending", seed)
		}
	}
	if straddled < 300 {
		t.Errorf("only %d records straddled a chunk end over all seeds", straddled)
	}
}

// TestLoadAcrossFlushModes: the flush mode is no part of the on-device
// format. A region that a log in one mode wrote, over stale bytes, loads
// in the other mode, which keeps appending to it; the device then decodes,
// with a clean stop at the head, to every record both lives appended.
func TestLoadAcrossFlushModes(t *testing.T) {
	const capacity, page = 1 << 13, 512
	for _, first := range []bool{false, true} {
		dev := bytes.Repeat([]byte{byte(OpMkdir)}, capacity) // a same-epoch header no CRC matches
		w := capture(dev)
		var want []Record
		life := func(l *Log, n int) {
			t.Helper()
			for i := 0; i < n; i++ {
				ino := uint64(len(want) + 2)
				r := createRec(40+7*i%50, int(ino))
				if _, err := l.Append(w, r); err != nil {
					t.Fatal(err)
				}
				want = append(want, r)
				first := Record{Op: OpWrite, Inode: ino, Length: 100}
				if _, err := l.Append(w, first); err != nil {
					t.Fatal(err)
				}
				want = append(want, first)
				// An extension, unless its length field would straddle a page.
				ext := Record{Op: OpWrite, Inode: ino, Offset: 100, Length: 50}
				co, err := l.Append(w, ext)
				switch {
				case err != nil:
					t.Fatal(err)
				case co:
					want[len(want)-1].Length += ext.Length
				default:
					want = append(want, ext)
				}
				if err := l.Sync(w); err != nil {
					t.Fatal(err)
				}
			}
		}
		l := newLog(t, Options{Capacity: capacity, PageSize: page, ExactFlush: first})
		life(l, 20)

		next := newLog(t, Options{Capacity: capacity, PageSize: page, ExactFlush: !first})
		var loaded []Record
		err := next.Load(func(off, n int64) ([]byte, error) { return dev[off : off+n], nil }, l.Epoch(),
			func(lr LocatedRecord) error { loaded = append(loaded, lr.Record); return nil })
		if err != nil || !reflect.DeepEqual(loaded, want) {
			t.Fatalf("exact=%v wrote, exact=%v loaded %d records (%v), want %d", first, !first, len(loaded), err, len(want))
		}
		life(next, 20)
		if got, err := Decode(dev, l.Epoch()); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("exact=%v wrote, exact=%v appended: the device decodes to %d records (%v), want %d", first, !first, len(got), err, len(want))
		}
	}
}
