package nvmeof

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
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

// TestFaultConnMidWriteResetKeepsAckedWrites resets and delays WRITE
// frames under concurrent writers on the pool shape production runs: a
// batching, merging pool of two queue pairs. Each of eight writers owns
// every eighth 4 KiB block, so a round of writes is contiguous across
// writers and merges into shared capsules, and a reset takes a whole
// batch, merged followers included, down with it. Every acknowledged
// WRITE must read back byte for byte, every failed one must fail within
// the command deadline, the pool must reconnect, and a later WRITE must
// succeed.
func TestFaultConnMidWriteResetKeepsAckedWrites(t *testing.T) {
	const (
		writers = 8
		rounds  = 64
		block   = 4 * model.KB
		timeout = 2 * time.Second
	)
	_, addr := startTarget(t, map[uint32]int64{1: writers * rounds * block})
	plan := faults.NewPlan(42,
		// The pinned reset makes sure at least one fires.
		faults.Rule{Name: "mid-reset", Layer: faults.LayerTCP, Op: "WRITE",
			Probability: 0.02, Count: 2, Kind: faults.KindConnReset},
		faults.Rule{Name: "pinned-reset", Layer: faults.LayerTCP, Op: "WRITE",
			Nth: 10, Kind: faults.KindConnReset},
		faults.Rule{Name: "mid-delay", Layer: faults.LayerTCP, Op: "WRITE",
			Probability: 0.05, Count: 4, Kind: faults.KindDelay, Arg: (2 * time.Millisecond).Nanoseconds()},
	)
	pool, err := DialPool(addr, 1, PoolConfig{
		QueuePairs:       2,
		CommandTimeout:   timeout,
		RetryBackoff:     time.Millisecond,
		ReconnectBackoff: time.Millisecond,
		Batch:            BatchConfig{Enabled: true, MergeWrites: true},
		Dial:             FaultDialer(plan),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	blockData := func(k int) []byte {
		b := make([]byte, block)
		for i := range b {
			b[i] = byte(k*7 + i*13)
		}
		binary.LittleEndian.PutUint32(b, uint32(k))
		return b
	}
	acked := make([][]bool, writers)
	var wg sync.WaitGroup
	fail := make(chan error, writers*rounds)
	for w := 0; w < writers; w++ {
		acked[w] = make([]bool, rounds)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := r*writers + w
				start := time.Now()
				err := pool.WriteAt(int64(k)*block, blockData(k))
				if err == nil {
					acked[w][r] = true
				} else if d := time.Since(start); d >= timeout {
					fail <- fmt.Errorf("block %d failed after %v (deadline %v): %v", k, d, timeout, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Errorf("%v\n%s", err, plan.FormatTrace())
	}

	resets, nacked := 0, 0
	for _, inj := range plan.Trace() {
		if inj.Kind == faults.KindConnReset {
			resets++
		}
	}
	if resets == 0 {
		t.Fatalf("no reset fired\n%s", plan.FormatTrace())
	}
	for w := range acked {
		for r, ok := range acked[w] {
			if !ok {
				continue
			}
			nacked++
			k := r*writers + w
			got, err := pool.ReadAt(int64(k)*block, block)
			if err != nil {
				t.Fatalf("read back block %d: %v", k, err)
			}
			if !bytes.Equal(got, blockData(k)) {
				t.Fatalf("acknowledged block %d reads back different bytes\n%s", k, plan.FormatTrace())
			}
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		healthy, reconnects := 0, uint64(0)
		for _, st := range pool.Snapshot() {
			if st.Healthy {
				healthy++
			}
			reconnects += st.Reconnects
		}
		if healthy == 2 && reconnects >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never reconnected: %+v", pool.Snapshot())
		}
		time.Sleep(2 * time.Millisecond)
	}
	after := []byte("after the resets")
	if err := pool.WriteAt(0, after); err != nil {
		t.Fatalf("write after reconnect: %v", err)
	}
	if got, err := pool.ReadAt(0, int64(len(after))); err != nil || !bytes.Equal(got, after) {
		t.Fatalf("read after reconnect = %q, %v", got, err)
	}
	var merged uint64
	for _, in := range pool.Telemetry().Snapshot(nil).Instruments {
		if in.Name == MetricQPBatchMerged {
			merged += in.U
		}
	}
	t.Logf("%d of %d writes acknowledged, %d resets, %d merged", nacked, writers*rounds, resets, merged)
}
