package wal

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func newLog(t *testing.T, opts Options) *Log {
	t.Helper()
	if opts.Capacity == 0 {
		opts.Capacity = 1 << 20
	}
	l, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// discard is the writer of tests that check the log, not the device.
func discard(int64, []byte) error { return nil }

// capture is a writer whose device is dev: every flush lands whole.
func capture(dev []byte) WriteFunc {
	return func(off int64, data []byte) error {
		copy(dev[off:], data)
		return nil
	}
}

func TestAppendDecodeRoundTrip(t *testing.T) {
	l := newLog(t, Options{})
	recs := []Record{
		{Op: OpMkdir, Path: "/ckpt", Mode: 0755},
		{Op: OpCreate, Path: "/ckpt/file0", Inode: 42, Mode: 0644},
		{Op: OpWrite, Inode: 42, Offset: 0, Length: 4096},
		{Op: OpUnlink, Path: "/ckpt/file0", Inode: 42},
		{Op: OpTruncate, Inode: 42, Length: 100},
	}
	for _, r := range recs {
		if _, err := l.Append(discard, r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Decode(l.Image(), l.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	// The write at offset 0 cannot coalesce (no prior write), so all 5
	// records appear.
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i, r := range recs {
		if got[i] != r {
			t.Errorf("record %d = %+v, want %+v", i, got[i], r)
		}
	}
}

func TestCoalescingSequentialWrites(t *testing.T) {
	l := newLog(t, Options{})
	l.Append(discard, Record{Op: OpCreate, Path: "/f", Inode: 1})
	// Ten sequential 32 KB writes must fold into one record.
	for i := 0; i < 10; i++ {
		co, err := l.Append(discard, Record{Op: OpWrite, Inode: 1, Offset: uint64(i * 32768), Length: 32768})
		if err != nil {
			t.Fatal(err)
		}
		if (i == 0) == co {
			t.Errorf("write %d coalesced=%v", i, co)
		}
	}
	recs, err := Decode(l.Image(), l.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("decoded %d records, want 2 (create + merged write)", len(recs))
	}
	w := recs[1]
	if w.Op != OpWrite || w.Offset != 0 || w.Length != 10*32768 {
		t.Errorf("merged write = %+v", w)
	}
	appended, coalesced, _, _ := l.Stats()
	if appended != 2 || coalesced != 9 {
		t.Errorf("appended/coalesced = %d/%d, want 2/9", appended, coalesced)
	}
}

func TestNonContiguousWritesDoNotCoalesce(t *testing.T) {
	l := newLog(t, Options{})
	l.Append(discard, Record{Op: OpWrite, Inode: 1, Offset: 0, Length: 100})
	co, _ := l.Append(discard, Record{Op: OpWrite, Inode: 1, Offset: 500, Length: 100})
	if co {
		t.Error("non-contiguous write coalesced")
	}
	co, _ = l.Append(discard, Record{Op: OpWrite, Inode: 2, Offset: 600, Length: 100})
	if co {
		t.Error("different-inode write coalesced")
	}
}

func TestInterleavedFileWritesDoNotCoalesce(t *testing.T) {
	// Writes to two files strictly alternating: each file's next write
	// is contiguous with its previous one, but another file's write sits
	// in between. Coalescing across it would move this extent before the
	// other file's allocation at replay time, and block placement —
	// reconstructed by repeating the original allocation order — would
	// diverge. A write to another inode is a replay-order barrier.
	l := newLog(t, Options{})
	l.Append(discard, Record{Op: OpWrite, Inode: 1, Offset: 0, Length: 10})
	l.Append(discard, Record{Op: OpWrite, Inode: 2, Offset: 0, Length: 10})
	co, _ := l.Append(discard, Record{Op: OpWrite, Inode: 1, Offset: 10, Length: 10})
	if co {
		t.Error("write coalesced across another inode's allocation")
	}
	co, _ = l.Append(discard, Record{Op: OpWrite, Inode: 2, Offset: 10, Length: 10})
	if co {
		t.Error("second file's write coalesced across another inode's allocation")
	}
}

func TestCoalesceStopsAtNamespaceRecords(t *testing.T) {
	// Create, mkdir and rename each append an entry to the parent
	// directory, which allocates a block at the directory's first entry
	// and at every BlockSize/64-th: folding a write into a record that
	// sits before one of them would replay its allocation too early. Every
	// record other than the log's last is a barrier, whatever its kind.
	for _, barrier := range []Record{
		{Op: OpCreate, Path: "/g", Inode: 2, Mode: 0o644},
		{Op: OpMkdir, Path: "/d", Inode: 2, Mode: 0o755},
		{Op: OpRename, Path: "/g", Path2: "/h", Inode: 2},
		{Op: OpUnlink, Path: "/h", Inode: 2},
		{Op: OpTruncate, Inode: 2},
	} {
		l := newLog(t, Options{})
		l.Append(discard, Record{Op: OpWrite, Inode: 1, Offset: 0, Length: 10})
		if co, _ := l.Append(discard, Record{Op: OpWrite, Inode: 1, Offset: 10, Length: 10}); !co {
			t.Fatal("contiguous write did not coalesce into the last record")
		}
		l.Append(discard, barrier)
		if co, _ := l.Append(discard, Record{Op: OpWrite, Inode: 1, Offset: 20, Length: 10}); co {
			t.Errorf("write coalesced across a %v record", barrier.Op)
		}
		// The fresh record is the last one again and takes extensions.
		if co, _ := l.Append(discard, Record{Op: OpWrite, Inode: 1, Offset: 30, Length: 10}); !co {
			t.Errorf("write after a %v record did not coalesce into the record that followed it", barrier.Op)
		}
	}
}

// TestSealKeepsPendingExtension: after Seal a contiguous write is a
// record of its own, and the extension pending at Seal still reaches the
// device, with that record's flush or with Sync.
func TestSealKeepsPendingExtension(t *testing.T) {
	for _, viaSync := range []bool{false, true} {
		dev := make([]byte, 1<<12)
		w := capture(dev)
		l := newLog(t, Options{Capacity: 1 << 12})
		l.Append(w, Record{Op: OpWrite, Inode: 1, Offset: 0, Length: 10})
		l.Append(w, Record{Op: OpWrite, Inode: 1, Offset: 10, Length: 10})
		l.Seal()
		if viaSync {
			if err := l.Sync(w); err != nil {
				t.Fatal(err)
			}
		}
		if co, _ := l.Append(w, Record{Op: OpWrite, Inode: 1, Offset: 20, Length: 10}); co {
			t.Fatal("a write coalesced into a sealed record")
		}
		want := []Record{{Op: OpWrite, Inode: 1, Offset: 0, Length: 20}, {Op: OpWrite, Inode: 1, Offset: 20, Length: 10}}
		if got, err := Decode(dev, l.Epoch()); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("sync first %v: device decodes to %+v (%v), want %+v", viaSync, got, err, want)
		}
		if co, _ := l.Append(w, Record{Op: OpWrite, Inode: 1, Offset: 30, Length: 10}); !co {
			t.Error("the record after Seal takes no extensions")
		}
	}
}

// TestSyncMeetsCoalesce: a Sync whose page write yields — to the rank,
// while a snapshot syncs — must not count as sent an extension coalesced
// while the page was on its way, into a newer record or into the one it
// carries. Clearing the pending state unconditionally, the next Sync
// found nothing to send and the fsynced extension never reached the
// device:
//
//	newer_record: device decodes to a last write of 100 bytes, want 200
//	same_record: device decodes to a last write of 200 bytes, want 300
func TestSyncMeetsCoalesce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		overlap []Record // appended while the Sync's page is in flight
		want    uint64
	}{
		{"newer record", []Record{{Op: OpWrite, Inode: 2, Length: 100}, {Op: OpWrite, Inode: 2, Offset: 100, Length: 100}}, 200},
		{"same record", []Record{{Op: OpWrite, Inode: 1, Offset: 200, Length: 100}}, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := make([]byte, 1<<12)
			w := capture(dev)
			l := newLog(t, Options{Capacity: 1 << 12})
			l.Append(w, Record{Op: OpWrite, Inode: 1, Length: 100})
			l.Append(w, Record{Op: OpWrite, Inode: 1, Offset: 100, Length: 100}) // pending
			inFlight := func(off int64, data []byte) error {
				w(off, data) // what the command carries left with it
				for _, r := range tc.overlap {
					if _, err := l.Append(w, r); err != nil {
						return err
					}
				}
				return nil
			}
			if err := l.Sync(inFlight); err != nil {
				t.Fatal(err)
			}
			if err := l.Sync(w); err != nil { // the rank's fsync
				t.Fatal(err)
			}
			got, err := Decode(dev, l.Epoch())
			if err != nil || len(got) == 0 {
				t.Fatalf("device decodes to %+v, %v", got, err)
			}
			if last := got[len(got)-1]; last.Length != tc.want {
				t.Errorf("device decodes to a last write of %d bytes, want %d", last.Length, tc.want)
			}
		})
	}
}

func TestNoCoalesceOption(t *testing.T) {
	l := newLog(t, Options{NoCoalesce: true})
	for i := 0; i < 5; i++ {
		co, err := l.Append(discard, Record{Op: OpWrite, Inode: 1, Offset: uint64(i * 10), Length: 10})
		if err != nil {
			t.Fatal(err)
		}
		if co {
			t.Error("coalesced with NoCoalesce set")
		}
	}
	if l.Records() != 5 {
		t.Errorf("Records = %d, want 5", l.Records())
	}
}

func TestLogFull(t *testing.T) {
	l := newLog(t, Options{Capacity: 200, NoCoalesce: true})
	var err error
	n := 0
	for ; n < 100; n++ {
		if _, err = l.Append(discard, Record{Op: OpWrite, Inode: 1, Offset: uint64(n * 7919), Length: 1}); err != nil {
			break
		}
	}
	if err != ErrLogFull {
		t.Fatalf("err = %v after %d records, want ErrLogFull", err, n)
	}
	if n == 0 {
		t.Fatal("no records fit at all")
	}
}

func TestResetAndEpoch(t *testing.T) {
	l := newLog(t, Options{})
	l.Append(discard, Record{Op: OpCreate, Path: "/a", Inode: 1})
	oldEpoch := l.Epoch()
	l.Reset()
	if l.Epoch() == oldEpoch {
		t.Error("epoch unchanged after Reset")
	}
	if l.Records() != 0 || l.Head() != 0 {
		t.Errorf("Records/Head = %d/%d after Reset", l.Records(), l.Head())
	}
	// Old-epoch records must be invisible to Decode at the new epoch.
	recs, err := Decode(l.Image(), l.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("decoded %d stale records after Reset", len(recs))
	}
	// New records decode fine.
	l.Append(discard, Record{Op: OpCreate, Path: "/b", Inode: 2})
	recs, err = Decode(l.Image(), l.Epoch())
	if err != nil || len(recs) != 1 || recs[0].Path != "/b" {
		t.Fatalf("post-reset decode = %v, %v", recs, err)
	}
}

func TestDecodeCorruptRecord(t *testing.T) {
	l := newLog(t, Options{})
	l.Append(discard, Record{Op: OpCreate, Path: "/a", Inode: 1})
	l.Append(discard, Record{Op: OpCreate, Path: "/b", Inode: 2})
	// Corrupt the second record's CRC region.
	img := l.Image()
	img[l.Head()-1] ^= 0xFF
	recs, err := Decode(img, l.Epoch())
	if err != ErrCorrupt {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if len(recs) != 1 || recs[0].Path != "/a" {
		t.Fatalf("prefix = %v", recs)
	}
}

func TestFlushWritesPages(t *testing.T) {
	type flush struct {
		off int64
		n   int
	}
	var writes []flush
	w := func(off int64, data []byte) error {
		writes = append(writes, flush{off, len(data)})
		return nil
	}
	expect := func(what string, n int, last flush) {
		t.Helper()
		if len(writes) != n {
			t.Fatalf("after %s: %d device writes %v, want %d", what, len(writes), writes, n)
		}
		if writes[n-1] != last {
			t.Fatalf("after %s: last flush = %+v, want %+v", what, writes[n-1], last)
		}
	}
	const page = 128
	l := newLog(t, Options{PageSize: page})
	// Every record is flushed before Append returns, as whole pages.
	l.Append(w, Record{Op: OpCreate, Path: "/a", Inode: 1}) // [0, 38)
	expect("create", 1, flush{0, page})
	l.Append(w, Record{Op: OpWrite, Inode: 1, Offset: 0, Length: 10}) // [38, 74)
	expect("first write", 2, flush{0, page})
	// An extension changes the image and reaches the device with Sync...
	l.Append(w, Record{Op: OpWrite, Inode: 1, Offset: 10, Length: 10})
	l.Append(w, Record{Op: OpWrite, Inode: 1, Offset: 20, Length: 10})
	expect("two extensions", 2, flush{0, page})
	if err := l.Sync(w); err != nil {
		t.Fatal(err)
	}
	expect("Sync", 3, flush{0, page})
	l.Sync(w)
	expect("Sync with nothing pending", 3, flush{0, page})
	// ...or with the next record, in the one write that record costs
	// anyway: here the record starts in the extension's page and ends in
	// the next.
	l.Append(w, Record{Op: OpWrite, Inode: 1, Offset: 30, Length: 10})
	l.Append(w, Record{Op: OpCreate, Path: "/" + string(make([]byte, 40)), Inode: 2}) // [74, 151)
	expect("record after an extension", 4, flush{0, 2 * page})
	l.Sync(w)
	expect("Sync after the record carried the extension", 4, flush{0, 2 * page})
	// A record that starts on a page boundary right after an extended one
	// has its flush start one page lower, never more.
	l.Append(w, Record{Op: OpCreate, Path: "/" + string(make([]byte, 32)), Inode: 3}) // [151, 220)
	l.Append(w, Record{Op: OpWrite, Inode: 3, Offset: 0, Length: 10})                 // [220, 256)
	expect("padding", 6, flush{page, page})
	l.Append(w, Record{Op: OpWrite, Inode: 3, Offset: 10, Length: 10})
	l.Append(w, Record{Op: OpCreate, Path: "/b", Inode: 4}) // [256, 294): page 2 alone
	expect("record on the page after its extension", 7, flush{page, 2 * page})
	_, _, devWrites, devBytes := l.Stats()
	if devWrites != 7 || devBytes != 9*page {
		t.Errorf("Stats: %d device writes, %d bytes, want 7 and %d", devWrites, devBytes, 9*page)
	}
}

func TestFillFraction(t *testing.T) {
	l := newLog(t, Options{Capacity: 1000, NoCoalesce: true})
	if l.FillFraction() != 0 {
		t.Error("fresh log not empty")
	}
	l.Append(discard, Record{Op: OpWrite, Inode: 1, Offset: 0, Length: 1})
	if l.FillFraction() <= 0 {
		t.Error("fill fraction did not grow")
	}
}

func TestInvalidAppend(t *testing.T) {
	l := newLog(t, Options{})
	if _, err := l.Append(discard, Record{Op: OpInvalid}); err == nil {
		t.Error("invalid op accepted")
	}
}

func TestCoalescingReducesRecordsVersusNoCoalescing(t *testing.T) {
	// The ablation the paper reports: with coalescing the log fills
	// far slower for sequential checkpoint IO.
	run := func(noCoalesce bool) int64 {
		l := newLog(t, Options{NoCoalesce: noCoalesce})
		l.Append(discard, Record{Op: OpCreate, Path: "/ckpt", Inode: 1})
		for i := 0; i < 1000; i++ {
			l.Append(discard, Record{Op: OpWrite, Inode: 1, Offset: uint64(i * 32768), Length: 32768})
		}
		return l.Records()
	}
	with := run(false)
	without := run(true)
	if with >= without/100 {
		t.Errorf("coalescing: %d records vs %d without — expected >100x reduction", with, without)
	}
}

// Property: decoding after any sequence of appends returns records whose
// total written extent equals the sum of appended lengths per inode.
func TestPropertyCoalescePreservesExtents(t *testing.T) {
	f := func(lens []uint16) bool {
		l, err := New(Options{Capacity: 1 << 22})
		if err != nil {
			return false
		}
		var off, total uint64
		for _, n := range lens {
			length := uint64(n) + 1
			if _, err := l.Append(discard, Record{Op: OpWrite, Inode: 9, Offset: off, Length: length}); err != nil {
				return false
			}
			off += length
			total += length
		}
		recs, err := Decode(l.Image(), l.Epoch())
		if err != nil {
			return false
		}
		var sum uint64
		for _, r := range recs {
			sum += r.Length
		}
		// Sequential writes must have merged into exactly one record.
		if len(lens) > 0 && len(recs) != 1 {
			return false
		}
		return sum == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: encode/decode round-trips arbitrary single records.
func TestPropertyRecordRoundTrip(t *testing.T) {
	f := func(opRaw uint8, path, path2 string, inode, offset, length uint64, mode uint32) bool {
		op := Op(opRaw%6) + 1
		if len(path) > 1000 {
			path = path[:1000]
		}
		if len(path2) > 1000 {
			path2 = path2[:1000]
		}
		mode &= 0xFFFF // the record stores a 16-bit mode
		l, err := New(Options{Capacity: 1 << 16, NoCoalesce: true})
		if err != nil {
			return false
		}
		in := Record{Op: op, Path: path, Path2: path2, Inode: inode, Offset: offset, Length: length, Mode: mode}
		if _, err := l.Append(discard, in); err != nil {
			return false
		}
		out, err := Decode(l.Image(), l.Epoch())
		return err == nil && len(out) == 1 && out[0] == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRenameRecordRoundTrip(t *testing.T) {
	l := newLog(t, Options{})
	in := Record{Op: OpRename, Path: "/ckpt/tmp.dat", Path2: "/ckpt/final.dat", Inode: 7}
	if _, err := l.Append(discard, in); err != nil {
		t.Fatal(err)
	}
	out, err := Decode(l.Image(), l.Epoch())
	if err != nil || len(out) != 1 || out[0] != in {
		t.Fatalf("decode = %+v, %v", out, err)
	}
}

func TestOversizedModeRejected(t *testing.T) {
	l := newLog(t, Options{})
	if _, err := l.Append(discard, Record{Op: OpCreate, Path: "/f", Mode: 1 << 20}); err == nil {
		t.Error("32-bit mode accepted into a 16-bit field")
	}
}

// Property: under any sequence of Append, Sync and Reset the device holds
// what the contract says. Right after a record's append and after Sync
// the device's log is the in-memory log, byte for byte below the head;
// in between it decodes to the same records, the last one a write no
// longer than in memory. Every flush is whole pages, one per record or
// Sync, and a record's flush is at most one page longer than the record's
// own pages.
func TestPropertyDeviceFollowsLog(t *testing.T) {
	const (
		capacity = 2048
		page     = 128
	)
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dev := make([]byte, capacity)
		var flushes, flushed int64
		l := newLog(t, Options{Capacity: capacity, PageSize: page})
		w := func(off int64, data []byte) error {
			if off%page != 0 || (len(data)%page != 0 && off+int64(len(data)) != capacity) {
				t.Fatalf("seed %d: flush [%d,+%d) is not whole pages", seed, off, len(data))
			}
			flushes++
			flushed = int64(len(data))
			copy(dev[off:], data)
			return nil
		}
		synced := func(what string) {
			t.Helper()
			if !bytes.Equal(dev[:l.Head()], l.Image()[:l.Head()]) {
				t.Fatalf("seed %d: device differs from the log below the head after %s", seed, what)
			}
		}
		pos := map[uint64]uint64{} // next contiguous offset per inode
		for step := 0; step < 200; step++ {
			before := flushes
			switch k := rng.Intn(20); {
			case k == 0:
				l.Reset()
				continue
			case k < 3:
				if err := l.Sync(w); err != nil {
					t.Fatal(err)
				}
				if flushes > before+1 {
					t.Fatalf("seed %d: Sync flushed %d times", seed, flushes-before)
				}
				synced("Sync")
				continue
			}
			var r Record
			switch k := rng.Intn(10); {
			case k < 7: // mostly contiguous writes on few inodes
				ino := uint64(2 + rng.Intn(2))
				r = Record{Op: OpWrite, Inode: ino, Offset: pos[ino], Length: uint64(1 + rng.Intn(5000))}
				if rng.Intn(8) == 0 {
					r.Offset += 7 // a gap breaks the run
				}
				pos[ino] = r.Offset + r.Length
			case k < 9:
				r = Record{Op: OpCreate, Path: "/" + strings.Repeat("n", rng.Intn(150)), Inode: uint64(rng.Intn(9)), Mode: 0o644}
			default:
				r = Record{Op: OpUnlink, Path: "/u", Inode: uint64(rng.Intn(9))}
			}
			head := l.Head()
			co, err := l.Append(w, r)
			if err == ErrLogFull {
				l.Reset()
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if co {
				if flushes != before {
					t.Fatalf("seed %d: a coalesced write reached the device", seed)
				}
			} else {
				own := (l.Head()+page-1)/page*page - head/page*page
				if flushes != before+1 || flushed > own+page {
					t.Fatalf("seed %d: record [%d,%d) cost %d flushes, the last of %d bytes", seed, head, l.Head(), flushes-before, flushed)
				}
				synced("a record's append")
			}
			// Past the head lie an earlier epoch's bytes, which may stop
			// the scan with ErrCorrupt as a torn tail does: the records
			// before it are what recovery replays.
			inMem, _ := Decode(l.Image(), l.Epoch())
			onDev, _ := Decode(dev, l.Epoch())
			if int64(len(inMem)) != l.Records() || len(onDev) != len(inMem) {
				t.Fatalf("seed %d: device decodes to %d records, log to %d, %d are live", seed, len(onDev), len(inMem), l.Records())
			}
			for i, want := range inMem {
				got := onDev[i]
				if i == len(inMem)-1 && want.Op == OpWrite && got.Length <= want.Length {
					got.Length = want.Length
				}
				if got != want {
					t.Fatalf("seed %d: device record %d = %+v, log has %+v", seed, i, onDev[i], want)
				}
			}
		}
	}
}
