package wal

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/faults"
)

// mirrorDevice simulates the SSD log region: flushes copy pages in,
// and an armed failure tears the flush (a prefix lands, then an error),
// which is what a crashed or failing transport does to an append.
type mirrorDevice struct {
	image    []byte
	failNext bool
	tornTo   int // bytes of the failing flush that still land
}

func (d *mirrorDevice) write(off int64, data []byte) error {
	if d.failNext {
		d.failNext = false
		copy(d.image[off:], data[:d.tornTo])
		return errors.New("mirror: injected flush failure")
	}
	copy(d.image[off:], data)
	return nil
}

// TestAppendRollsBackOnFlushError is the regression test for the
// partial-write audit: a failed flush must leave the in-memory tail
// exactly where the on-disk tail is. Before the fix, Append advanced
// head/appended/live before the flush, so records acknowledged after a
// failed one sat beyond torn bytes on the device and were silently
// dropped by replay (scan stops at the first corrupt record).
func TestAppendRollsBackOnFlushError(t *testing.T) {
	dev := &mirrorDevice{image: make([]byte, 1<<14)}
	l, err := New(Options{Capacity: 1 << 14, NoCoalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	r1 := Record{Op: OpCreate, Path: "/a", Inode: 2, Mode: 0o644}
	r2 := Record{Op: OpCreate, Path: "/lost", Inode: 3, Mode: 0o644}
	r3 := Record{Op: OpCreate, Path: "/b", Inode: 4, Mode: 0o644}

	if _, err := l.Append(dev.write, r1); err != nil {
		t.Fatal(err)
	}
	headBefore := l.Head()

	dev.failNext, dev.tornTo = true, 10 // r2's flush tears mid-record
	if _, err := l.Append(dev.write, r2); err == nil {
		t.Fatal("append with failing flush reported success")
	}
	if l.Head() != headBefore {
		t.Fatalf("head advanced across a failed flush: %d -> %d", headBefore, l.Head())
	}
	if l.Records() != 1 {
		t.Fatalf("live records = %d after failed append, want 1", l.Records())
	}
	if app, _, _, _ := l.Stats(); app != 1 {
		t.Fatalf("appended stat = %d after failed append, want 1", app)
	}

	// The next acknowledged append overwrites the torn bytes.
	if _, err := l.Append(dev.write, r3); err != nil {
		t.Fatalf("append after failed flush: %v", err)
	}

	want := []Record{r1, r3}
	inMem, err := Decode(l.Image(), l.Epoch())
	if err != nil || !reflect.DeepEqual(inMem, want) {
		t.Fatalf("in-memory decode = %+v (%v), want %+v", inMem, err, want)
	}
	// The device-side replay — what post-crash recovery actually reads —
	// must return every acknowledged record and nothing else.
	onDev, err := Decode(dev.image, l.Epoch())
	if err != nil || !reflect.DeepEqual(onDev, want) {
		t.Fatalf("device replay = %+v (%v), want %+v", onDev, err, want)
	}
}

// TestFailedSyncKeepsExtensionPending: an extension lives in memory until
// a flush carries it, so a flush that fails loses nothing — the log still
// holds the extension, the device still decodes, and the next flush
// (Sync, or the next record's) repairs whatever the failed one tore.
func TestFailedSyncKeepsExtensionPending(t *testing.T) {
	dev := &mirrorDevice{image: make([]byte, 1<<14)}
	l, err := New(Options{Capacity: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	first := Record{Op: OpWrite, Inode: 3, Offset: 0, Length: 100}
	if _, err := l.Append(dev.write, first); err != nil {
		t.Fatal(err)
	}
	if co, err := l.Append(dev.write, Record{Op: OpWrite, Inode: 3, Offset: 100, Length: 50}); err != nil || !co {
		t.Fatalf("extension: coalesced=%v err=%v", co, err)
	}
	whole := Record{Op: OpWrite, Inode: 3, Offset: 0, Length: 150}
	decode := func(what string, image []byte, want ...Record) {
		t.Helper()
		got, err := Decode(image, l.Epoch())
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s = %+v (%v), want %+v", what, got, err, want)
		}
	}
	decode("device before any flush", dev.image, first)

	dev.failNext = true
	if err := l.Sync(dev.write); err == nil {
		t.Fatal("Sync with failing flush reported success")
	}
	decode("log after failed Sync", l.Image(), whole)
	decode("device after failed Sync", dev.image, first)

	// A record's flush fails next, with the extension still pending: the
	// record is un-appended, the extension stays.
	lost := Record{Op: OpCreate, Path: "/lost", Inode: 4, Mode: 0o644}
	dev.failNext, dev.tornTo = true, 60 // the extension's bytes land, the record's do not
	if _, err := l.Append(dev.write, lost); err == nil {
		t.Fatal("append with failing flush reported success")
	}
	decode("log after failed append", l.Image(), whole)
	if _, co, _, _ := l.Stats(); co != 1 {
		t.Fatalf("coalesced stat = %d, want 1", co)
	}

	// The next flush repairs the device, whichever kind it is.
	if err := l.Sync(dev.write); err != nil {
		t.Fatal(err)
	}
	decode("device after Sync", dev.image, whole)
	kept := Record{Op: OpCreate, Path: "/kept", Inode: 4, Mode: 0o644}
	if _, err := l.Append(dev.write, kept); err != nil {
		t.Fatal(err)
	}
	decode("device after the next record", dev.image, whole, kept)
	if !bytes.Equal(dev.image[:l.Head()], l.Image()[:l.Head()]) {
		t.Fatal("device and log differ below the head")
	}
}

// TestTornFlushOfExtensionAndRecord drives the one multi-page flush a
// 36-byte write record can cause — the pending extension's page plus the
// next record's — through the fault layer's "append-straddle" rule, cut
// at the page boundary. A device that keeps a prefix keeps the extension
// and loses the record: both records the device then decodes were
// acknowledged, and the lost one was not.
func TestTornFlushOfExtensionAndRecord(t *testing.T) {
	const page = 128
	dev := make([]byte, 1<<12)
	plan := faults.NewPlan(1, faults.Rule{
		Name: "torn-straddle", Layer: faults.LayerWAL, Op: "append-straddle",
		Nth: 1, Kind: faults.KindTornWrite, Arg: page, Count: 1,
	})
	l := newLog(t, Options{Capacity: 1 << 12, PageSize: page})
	w := faults.TornAppendFunc(plan, 0, page, nil, capture(dev))
	// [0, 92) create, [92, 128) write: the next record starts page 1.
	pad := Record{Op: OpCreate, Path: "/" + strings.Repeat("p", 55), Inode: 2, Mode: 0o644}
	for _, r := range []Record{pad, {Op: OpWrite, Inode: 2, Offset: 0, Length: 10}, {Op: OpWrite, Inode: 2, Offset: 10, Length: 5}} {
		if _, err := l.Append(w, r); err != nil {
			t.Fatal(err)
		}
	}
	if l.Head() != page {
		t.Fatalf("head = %d, want the page boundary", l.Head())
	}
	_, err := l.Append(w, Record{Op: OpCreate, Path: "/next", Inode: 3, Mode: 0o644})
	if !faults.IsInjected(err) || plan.Injections() != 1 {
		t.Fatalf("append = %v after %d injections, want the straddle rule to tear it", err, plan.Injections())
	}
	want := []Record{pad, {Op: OpWrite, Inode: 2, Offset: 0, Length: 15}}
	got, err := Decode(dev, l.Epoch())
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("device after the tear = %+v (%v), want %+v", got, err, want)
	}
	if inMem, _ := Decode(l.Image(), l.Epoch()); !reflect.DeepEqual(inMem, want) {
		t.Fatalf("log after the tear = %+v, want %+v", inMem, want)
	}
}
