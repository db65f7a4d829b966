package nvmeof

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

func TestFlightRingWraparound(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		fr.Record(0, FlightRecord{CID: uint16(i)})
	}
	recs := fr.QueuePair(0)
	if len(recs) != 4 {
		t.Fatalf("ring holds %d records, want 4", len(recs))
	}
	// Oldest first: 6, 7, 8, 9 survive out of 0..9.
	for i, rec := range recs {
		if want := uint16(6 + i); rec.CID != want {
			t.Errorf("recs[%d].CID = %d, want %d", i, rec.CID, want)
		}
	}
	// A ring that never filled returns only what it holds.
	fr.Record(7, FlightRecord{CID: 42})
	if recs := fr.QueuePair(7); len(recs) != 1 || recs[0].CID != 42 {
		t.Fatalf("partial ring = %+v", recs)
	}
	if got := fr.QueuePairs(); len(got) != 2 || got[0] != 0 || got[1] != 7 {
		t.Fatalf("QueuePairs = %v", got)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(8)
	const qps, writers, per = 4, 4, 200
	var wg sync.WaitGroup
	for qp := 0; qp < qps; qp++ {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(qp, w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					fr.Record(qp, FlightRecord{QP: qp, CID: uint16(w*per + i)})
				}
			}(qp, w)
		}
	}
	// Snapshots race with the writers; they must stay internally
	// consistent (full rings, right queue pair) even mid-write.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for _, recs := range fr.Snapshot() {
				if len(recs) > fr.Depth() {
					panic(fmt.Sprintf("snapshot over depth: %d", len(recs)))
				}
			}
		}
	}()
	wg.Wait()
	<-done
	snap := fr.Snapshot()
	if len(snap) != qps {
		t.Fatalf("snapshot has %d queue pairs, want %d", len(snap), qps)
	}
	for qp, recs := range snap {
		if len(recs) != 8 {
			t.Errorf("qp %d retained %d records, want 8", qp, len(recs))
		}
		for _, rec := range recs {
			if rec.QP != qp {
				t.Errorf("qp %d ring holds record for qp %d", qp, rec.QP)
			}
		}
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(0, FlightRecord{})
	if fr.QueuePair(0) != nil || fr.QueuePairs() != nil || fr.Snapshot() != nil || fr.Depth() != 0 {
		t.Fatal("nil recorder must read empty")
	}
}

// decodeTrace parses a tracer's JSONL output.
func decodeTrace(t *testing.T, buf *bytes.Buffer) []telemetry.Event {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var events []telemetry.Event
	for sc.Scan() {
		var ev telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	return events
}

// flightDumps returns the "nvmeof.flight" events of a tracer's output.
func flightDumps(t *testing.T, buf *bytes.Buffer) []telemetry.Event {
	t.Helper()
	var dumps []telemetry.Event
	for _, ev := range decodeTrace(t, buf) {
		if ev.Name == "nvmeof.flight" {
			dumps = append(dumps, ev)
		}
	}
	return dumps
}

// TestTimeoutDumpsOnlyThatQueuePair pins the flight recorder's lock
// striping at the dump path: when one queue pair times out, the dump
// carries that queue pair's ring only — sibling traffic stays out.
func TestTimeoutDumpsOnlyThatQueuePair(t *testing.T) {
	tgt := NewTarget()
	ns := NewMemNamespace(model.MB)
	if err := tgt.AddNamespace(1, ns); err != nil {
		t.Fatal(err)
	}
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()

	var traceBuf bytes.Buffer
	p, err := DialPool(addr, 1, PoolConfig{
		QueuePairs:     2,
		CommandTimeout: 100 * time.Millisecond,
		Tracer:         telemetry.NewTracer(&traceBuf),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Healthy traffic homed on queue pair 0 populates its ring.
	for i := 0; i < 3; i++ {
		if err := p.WriteAt(0, []byte("qp0")); err != nil {
			t.Fatal(err)
		}
	}

	// Wedge the namespace so a WRITE homed on queue pair 1 (the upper
	// half) times out.
	ns.stripes[0].mu.Lock()
	err = p.WriteAt(model.MB/2, []byte("qp1-stuck"))
	ns.stripes[0].mu.Unlock()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("WriteAt = %v, want timeout", err)
	}

	dumps := flightDumps(t, &traceBuf)
	if len(dumps) != 1 {
		t.Fatalf("got %d flight dumps, want 1", len(dumps))
	}
	if qp, _ := dumps[0].Attrs["qp"].(float64); int(qp) != 1 {
		t.Fatalf("dump is for qp %v, want 1", dumps[0].Attrs["qp"])
	}
	if reason, _ := dumps[0].Attrs["reason"].(string); reason != "timeout" {
		t.Fatalf("dump reason = %q, want timeout", dumps[0].Attrs["reason"])
	}
	recs, _ := dumps[0].Attrs["records"].([]any)
	if len(recs) == 0 {
		t.Fatal("dump carries no records")
	}
	for _, r := range recs {
		rec := r.(map[string]any)
		if qp, _ := rec["qp"].(float64); int(qp) != 1 {
			t.Errorf("dump leaked a record from qp %v", rec["qp"])
		}
	}
	// The pool's recorder still holds both rings, untouched.
	if got := len(p.Flight().QueuePair(0)); got != 4 { // CONNECT + 3 WRITEs
		t.Errorf("qp 0 ring holds %d records, want 4", got)
	}
}
