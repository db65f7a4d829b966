package nvmeof

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// TestBatchWireBytesPinned pins encodeCommandHeader to WriteCommandV:
// the batcher renders headers itself (so payloads can ride as separate
// iovecs), and the two encodings must never diverge — a batch is
// byte-for-byte the capsules a direct sender would emit.
func TestBatchWireBytesPinned(t *testing.T) {
	cmds := []*Command{
		{Opcode: OpConnect, NSID: 7, ProposeVersion: MaxVersion},
		{Opcode: OpWriteCmd, CID: 42, NSID: 1, Offset: 1 << 30, Data: []byte("payload")},
		{Opcode: OpReadCmd, CID: 0xFFFF, NSID: 3, Offset: 4096, Length: 8192},
		{Opcode: OpFlushCmd, CID: 9},
		{Opcode: OpWriteCmd, CID: 11, Offset: 512, Traced: true, TraceID: 0xDEADBEEFCAFE, Data: []byte("traced")},
	}
	for _, cmd := range cmds {
		version := VersionLegacy
		if cmd.Traced {
			version = VersionTrace
		}
		var direct bytes.Buffer
		if err := WriteCommandV(&direct, cmd, version); err != nil {
			t.Fatalf("%s: %v", cmd.Opcode, err)
		}
		batched := append(encodeCommandHeader(cmd), cmd.Data...)
		if !bytes.Equal(direct.Bytes(), batched) {
			t.Errorf("%s: batched encoding diverges from WriteCommandV\n direct:  %x\n batched: %x",
				cmd.Opcode, direct.Bytes(), batched)
		}
	}
}

// recordingConn captures every byte written to the wire.
type recordingConn struct {
	net.Conn
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (c recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.buf.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// TestBatchedWireStreamMatchesUnbatched is the legacy-interop pin: a
// batched initiator issuing commands one at a time puts the exact same
// bytes on the wire as an unbatched one, so any legacy target that
// speaks the capsule protocol is automatically a valid batch peer.
func TestBatchedWireStreamMatchesUnbatched(t *testing.T) {
	run := func(batch BatchConfig) []byte {
		_, addr := startTarget(t, map[uint32]int64{1: model.MB})
		var mu sync.Mutex
		var wire bytes.Buffer
		h := dialOne(t, addr, 1, PoolConfig{
			Batch: batch,
			Dial: func(a string) (net.Conn, error) {
				c, err := net.Dial("tcp", a)
				if err != nil {
					return nil, err
				}
				return recordingConn{Conn: c, mu: &mu, buf: &wire}, nil
			},
		})
		if err := h.WriteAt(0, []byte("interop-payload")); err != nil {
			t.Fatal(err)
		}
		if _, err := h.ReadAt(0, 15); err != nil {
			t.Fatal(err)
		}
		if err := h.Flush(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		return append([]byte(nil), wire.Bytes()...)
	}
	unbatched := run(BatchConfig{})
	batched := run(BatchConfig{Enabled: true, MergeWrites: true})
	if !bytes.Equal(unbatched, batched) {
		t.Fatalf("batched wire stream diverged from unbatched\n unbatched: %x\n batched:   %x", unbatched, batched)
	}
}

// gatedConn blocks writes while the gate is held, so a test can wedge
// the flush leader mid-writev and pile followers into the pending queue.
type gatedConn struct {
	net.Conn
	gate *sync.Mutex
}

func (c gatedConn) Write(p []byte) (int, error) {
	c.gate.Lock()
	c.gate.Unlock()
	return c.Conn.Write(p)
}

// TestBatchMergeAdjacentWrites wedges the flush leader and submits two
// offset-adjacent WRITEs behind it: they must coalesce into one capsule
// (one target command), complete both submitters, and read back intact.
func TestBatchMergeAdjacentWrites(t *testing.T) {
	tgt, addr := startTarget(t, map[uint32]int64{1: model.MB})
	var gate sync.Mutex
	p := dialOne(t, addr, 1, PoolConfig{
		Batch: BatchConfig{Enabled: true, MergeWrites: true},
		Dial: func(a string) (net.Conn, error) {
			c, err := net.Dial("tcp", a)
			if err != nil {
				return nil, err
			}
			return gatedConn{Conn: c, gate: &gate}, nil
		},
	})
	h := p.slots[0].host

	// Leader: a WRITE at offset 0 whose flush wedges on the gate.
	gate.Lock()
	errA := make(chan error, 1)
	go func() { errA <- p.WriteAt(0, bytes.Repeat([]byte{0xA1}, 64)) }()
	waitInflight := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for h.InFlight() < n {
			if time.Now().After(deadline) {
				t.Fatalf("in-flight never reached %d", n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitInflight(1)

	// Followers: two adjacent WRITEs at [100,150) and [150,200). The
	// first becomes a pending capsule; the second merges into it.
	errB := make(chan error, 1)
	go func() { errB <- p.WriteAt(100, bytes.Repeat([]byte{0xB2}, 50)) }()
	waitInflight(2)
	errC := make(chan error, 1)
	go func() { errC <- p.WriteAt(150, bytes.Repeat([]byte{0xC3}, 50)) }()
	// The merged WRITE shares B's CID, so in-flight stays at 2; wait for
	// the merge via the telemetry counter instead.
	deadline := time.Now().Add(5 * time.Second)
	for h.tel.batchMerged.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("merge never recorded")
		}
		time.Sleep(time.Millisecond)
	}

	gate.Unlock()
	for name, ch := range map[string]chan error{"A": errA, "B": errB, "C": errC} {
		if err := <-ch; err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
	}

	// One capsule carried B and C: the target served CONNECT + A + BC.
	if got := tgt.Snapshot().Commands; got != 3 {
		t.Errorf("target served %d commands, want 3 (CONNECT + 2 WRITE capsules)", got)
	}
	got, err := p.ReadAt(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{0xB2}, 50), bytes.Repeat([]byte{0xC3}, 50)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("merged write read-back mismatch: got %x... want %x...", got[:8], want[:8])
	}
}

// TestBatchRespectsBudgets pins the cut points: a run of submissions
// larger than MaxCommands splits into several flushes, and every
// command still completes.
func TestBatchRespectsBudgets(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: model.MB})
	var gate sync.Mutex
	p := dialOne(t, addr, 1, PoolConfig{
		Batch: BatchConfig{Enabled: true, MaxCommands: 4},
		Dial: func(a string) (net.Conn, error) {
			c, err := net.Dial("tcp", a)
			if err != nil {
				return nil, err
			}
			return gatedConn{Conn: c, gate: &gate}, nil
		},
	})
	h := p.slots[0].host

	gate.Lock()
	const writers = 10
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		go func(i int) {
			errs <- p.WriteAt(int64(i)*128, []byte(fmt.Sprintf("cmd-%02d", i)))
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.InFlight() < writers {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight = %d, want %d", h.InFlight(), writers)
		}
		time.Sleep(time.Millisecond)
	}
	gate.Unlock()
	for i := 0; i < writers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	// 9 pending commands drained after the leader's solo flush, cut at
	// 4 per batch: at least 3 flushes total, and the batch-shape
	// histogram records one observation per flush.
	flushes := h.tel.batchFlushes.Value()
	if flushes < 3 {
		t.Errorf("%d flushes for %d commands with MaxCommands=4, want >= 3", flushes, writers)
	}
	if cmds := h.tel.batchCmds.Count(); cmds != flushes {
		t.Errorf("batch-commands histogram saw %d flushes, counter says %d", cmds, flushes)
	}
}

// TestBatchFlusherVsReconnect races the vectored flush path against
// queue-pair death and pool reconnection (run under -race): writers
// keep submitting through a batched pool while the target restarts.
func TestBatchFlusherVsReconnect(t *testing.T) {
	tgt := NewTarget()
	ns := NewMemNamespace(model.MB)
	if err := tgt.AddNamespace(1, ns); err != nil {
		t.Fatal(err)
	}
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := DialPool(addr, 1, PoolConfig{
		QueuePairs:       2,
		CommandTimeout:   time.Second,
		RetryBackoff:     time.Millisecond,
		ReconnectBackoff: time.Millisecond,
		Batch:            BatchConfig{Enabled: true, MergeWrites: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	const writers = 4
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(i + 1)}, 256)
			off := int64(i) * 1024
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected while the target is down; the
				// assertion is recovery, not lossless service.
				pool.WriteAt(off, payload)
			}
		}(i)
	}

	time.Sleep(20 * time.Millisecond)
	tgt.Close()
	tgt2 := NewTarget()
	if err := tgt2.AddNamespace(1, ns); err != nil {
		t.Fatal(err)
	}
	var listenErr error
	for i := 0; i < 200; i++ {
		if _, listenErr = tgt2.Listen(addr); listenErr == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if listenErr != nil {
		t.Fatalf("restart listen: %v", listenErr)
	}
	defer tgt2.Close()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The pool must converge back to batched service.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := pool.WriteAt(0, []byte("recovered")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never recovered: %+v", pool.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, err := pool.ReadAt(0, 9)
	if err != nil || string(got) != "recovered" {
		t.Fatalf("read after recovery = %q, %v", got, err)
	}
}

// TestFlightDumpDuringBatchedTimeout pins the flight-recorder path on
// the batched submission route: a batched command that times out dumps
// the queue pair's ring exactly as a direct one does, and its record
// carries the batch size.
func TestFlightDumpDuringBatchedTimeout(t *testing.T) {
	addr := stalledTarget(t, model.MB)
	var traceBuf bytes.Buffer
	tr := telemetry.NewTracer(&traceBuf)
	h := dialOne(t, addr, 1, PoolConfig{
		CommandTimeout: 50 * time.Millisecond,
		Tracer:         tr,
		Batch:          BatchConfig{Enabled: true},
	})
	if err := h.WriteAt(0, []byte("doomed")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("WriteAt = %v, want timeout", err)
	}
	dumps := flightDumps(t, &traceBuf)
	if len(dumps) == 0 {
		t.Fatal("no flight dump after batched timeout")
	}
	dump := dumps[len(dumps)-1]
	if reason, _ := dump.Attrs["reason"].(string); reason != "timeout" {
		t.Fatalf("dump reason = %q, want timeout", dump.Attrs["reason"])
	}
	recs := h.Flight().QueuePair(0)
	if len(recs) == 0 {
		t.Fatal("flight ring empty after batched timeout")
	}
	last := recs[len(recs)-1]
	if last.Err == "" || last.Batch < 1 {
		t.Errorf("timeout record = %+v, want Err set and Batch >= 1", last)
	}
}

// TestBatchedConcurrentWriteRead hammers one batched queue pair from
// many goroutines (run under -race): every write lands intact and the
// batch telemetry accounts for every command.
func TestBatchedConcurrentWriteRead(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: 64 * model.MB})
	p := dialOne(t, addr, 1, PoolConfig{
		Batch: BatchConfig{Enabled: true, MergeWrites: true},
	})
	h := p.slots[0].host

	const workers = 8
	const writes = 50
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			base := int64(i) * model.MB
			for j := 0; j < writes; j++ {
				payload := []byte(fmt.Sprintf("worker%02d-write%03d", i, j))
				off := base + int64(j)*64
				if err := p.WriteAt(off, payload); err != nil {
					errs[i] = err
					return
				}
				got, err := p.ReadAt(off, int64(len(payload)))
				if err != nil {
					errs[i] = err
					return
				}
				if !bytes.Equal(got, payload) {
					errs[i] = fmt.Errorf("worker %d write %d mismatch", i, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if h.tel.batchFlushes.Value() == 0 {
		t.Error("no batch flushes recorded on a batching queue pair")
	}
	if want := h.tel.batchFlushes.Value(); h.tel.batchBytes.Count() != want {
		t.Errorf("batch-bytes histogram saw %d flushes, counter says %d", h.tel.batchBytes.Count(), want)
	}
}
