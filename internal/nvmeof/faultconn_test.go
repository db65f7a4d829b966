package nvmeof

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/faults"
	"github.com/nvme-cr/nvmecr/internal/model"
)

// TestFaultConnMidReadKillRetriesIdempotently kills the connection the
// moment the first READ capsule has been written: the command reaches
// the target but its completion never returns. The pool must retry the
// READ on a sibling queue pair without ever duplicating a completed
// command — verified by CID accounting over the flight recorder dump.
func TestFaultConnMidReadKillRetriesIdempotently(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: 4 * model.MB})
	plan := faults.NewPlan(21, faults.Rule{
		Name: "kill-mid-read", Layer: faults.LayerTCP, Op: "READ", Nth: 1,
		Kind: faults.KindConnReset,
	})
	pool, err := DialPool(addr, 1, PoolConfig{
		QueuePairs:     2,
		CommandTimeout: 2 * time.Second,
		Dial:           FaultDialer(plan),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	payload := bytes.Repeat([]byte("ckpt"), 1024)
	if err := pool.WriteAt(0, payload); err != nil {
		t.Fatal(err)
	}
	got, err := pool.ReadAt(0, int64(len(payload)))
	if err != nil {
		t.Fatalf("read across injected reset: %v\n%s", err, plan.FormatTrace())
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read returned wrong data after retry")
	}
	if plan.Injections() != 1 {
		t.Fatalf("plan delivered %d injections, want 1\n%s", plan.Injections(), plan.FormatTrace())
	}

	// CID accounting over the flight dump: exactly one READ attempt
	// failed at the transport (the killed capsule), exactly one READ
	// completed with StatusOK — the retry did not duplicate a
	// completed command — and the two attempts used different queue
	// pairs under distinct CIDs.
	type attempt struct {
		qp  int
		cid uint16
	}
	var failed, completed []attempt
	for qp, recs := range pool.Flight().Snapshot() {
		for _, r := range recs {
			if r.Opcode != OpReadCmd {
				continue
			}
			if r.Err != "" {
				failed = append(failed, attempt{qp, r.CID})
			} else if r.Status == StatusOK {
				completed = append(completed, attempt{qp, r.CID})
			}
		}
	}
	if len(failed) != 1 {
		t.Fatalf("flight dump shows %d failed READ attempts, want 1: %+v", len(failed), failed)
	}
	if len(completed) != 1 {
		t.Fatalf("flight dump shows %d completed READs, want exactly 1 (no duplication): %+v",
			len(completed), completed)
	}
	if failed[0].qp == completed[0].qp {
		t.Fatalf("retry reused the killed queue pair %d", failed[0].qp)
	}

	// The pool recorded the retry, and the killed queue pair is
	// eventually re-dialed (through the fault dialer again).
	var retries uint64
	for _, s := range pool.Snapshot() {
		retries += s.Retries
	}
	if retries == 0 {
		t.Fatal("pool telemetry shows no retries")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		healthy := 0
		for _, s := range pool.Snapshot() {
			if s.Healthy {
				healthy++
			}
		}
		if healthy == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed queue pair never reconnected (%d/2 healthy)", healthy)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFaultConnDuplicateFrameIsDiscarded duplicates the first WRITE
// capsule on the wire: the target executes the same CID twice and sends
// two completions. The host must deliver exactly one and drop the
// stale duplicate without poisoning the queue pair.
func TestFaultConnDuplicateFrameIsDiscarded(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: 4 * model.MB})
	plan := faults.NewPlan(22, faults.Rule{
		Layer: faults.LayerTCP, Op: "WRITE", Nth: 1, Kind: faults.KindDuplicate,
	})
	h := dialOne(t, addr, 1, PoolConfig{
		CommandTimeout: 2 * time.Second,
		Dial:           FaultDialer(plan),
	})

	payload := []byte("duplicated capsule payload")
	if err := h.WriteAt(0, payload); err != nil {
		t.Fatalf("duplicated write failed: %v", err)
	}
	// The queue pair survives the stale duplicate completion and keeps
	// carrying commands.
	got, err := h.ReadAt(0, int64(len(payload)))
	if err != nil {
		t.Fatalf("read after duplicate completion: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data corrupted by duplicated WRITE capsule")
	}
	if !h.Snapshot()[0].Healthy {
		t.Fatal("queue pair poisoned by a duplicate completion")
	}
}

// TestFaultConnBlackholeHitsDeadline swallows one FLUSH capsule: the
// command never reaches the target, so it must end in ErrTimeout —
// and the queue pair stays usable (a timeout abandons the command, not
// the connection).
func TestFaultConnBlackholeHitsDeadline(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: 4 * model.MB})
	plan := faults.NewPlan(23, faults.Rule{
		Layer: faults.LayerTCP, Op: "FLUSH", Nth: 1, Kind: faults.KindBlackhole,
	})
	h := dialOne(t, addr, 1, PoolConfig{
		CommandTimeout: 200 * time.Millisecond,
		Dial:           FaultDialer(plan),
	})

	if err := h.Flush(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("blackholed FLUSH returned %v, want ErrTimeout", err)
	}
	if !h.Snapshot()[0].Healthy {
		t.Fatal("queue pair poisoned by a deadline")
	}
	if err := h.WriteAt(0, []byte("after the blackhole")); err != nil {
		t.Fatalf("write after blackholed command: %v", err)
	}
}
