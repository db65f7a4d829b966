package nvmeof

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// TestBatchWireBytesPinned pins the command encoder — the one the
// batcher, the direct path and WriteCommand all render headers through
// — against literal bytes, so an untraced capsule stays the plain
// format byte for byte and a batch stays the concatenation of such
// capsules. The header is magic, opcode, flags, CID, NSID, offset,
// length, data length and four reserved bytes, then the trace ID when
// flagged, then the data. Writing the traced flag to byte 6 instead of
// byte 5, or leaving a stale buffer's bytes 28-31 in place, fails it.
func TestBatchWireBytesPinned(t *testing.T) {
	cases := []struct {
		cmd  *Command
		want string
	}{
		{
			&Command{Opcode: OpWriteCmd, CID: 42, NSID: 1, Offset: 1 << 30, Data: []byte("payload")},
			"464d564e" + "02" + "00" + "2a00" + "01000000" + "0000004000000000" + "00000000" + "07000000" + "00000000" +
				"7061796c6f6164",
		},
		{
			&Command{Opcode: OpWriteCmd, CID: 11, NSID: 1, Offset: 512, Traced: true, TraceID: 0xDEADBEEFCAFE, Data: []byte("traced")},
			"464d564e" + "02" + "01" + "0b00" + "01000000" + "0002000000000000" + "00000000" + "06000000" + "00000000" +
				"fecaefbeadde0000" + "747261636564",
		},
		{
			&Command{Opcode: OpConnect, NSID: 7},
			"464d564e" + "01" + "00" + "0000" + "07000000" + "0000000000000000" + "00000000" + "00000000" + "00000000",
		},
	}
	for _, tc := range cases {
		want, err := hex.DecodeString(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		// A stale slot buffer: every byte the encoder leaves alone
		// shows up as 0xff.
		var buf [cmdHdrLen + traceExtLen]byte
		for i := range buf {
			buf[i] = 0xff
		}
		n := encodeCommandHeader(buf[:], tc.cmd, len(tc.cmd.Data))
		if !bytes.Equal(buf[28:32], make([]byte, 4)) {
			t.Errorf("%s: reserved bytes 28-31 = %x, want zero", tc.cmd.Opcode, buf[28:32])
		}
		if got := append(buf[:n:n], tc.cmd.Data...); !bytes.Equal(got, want) {
			t.Errorf("%s: encodeCommandHeader\n got:  %x\n want: %x", tc.cmd.Opcode, got, want)
		}
		var direct bytes.Buffer
		if err := WriteCommand(&direct, tc.cmd); err != nil {
			t.Fatalf("%s: %v", tc.cmd.Opcode, err)
		}
		if !bytes.Equal(direct.Bytes(), want) {
			t.Errorf("%s: WriteCommand\n got:  %x\n want: %x", tc.cmd.Opcode, direct.Bytes(), want)
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
// larger than batchMaxCommands splits into several flushes, and every
// command still completes.
func TestBatchRespectsBudgets(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: model.MB})
	var gate sync.Mutex
	p := dialOne(t, addr, 1, PoolConfig{
		Batch: BatchConfig{Enabled: true},
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
	const writers = 2*batchMaxCommands + 10
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		go func(i int) {
			errs <- p.WriteAt(int64(i)*128, []byte(fmt.Sprintf("cmd-%03d", i)))
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

	// writers-1 pending commands drained after the leader's solo flush,
	// cut at batchMaxCommands per batch: at least four flushes total, and
	// the batch-shape histogram records one observation per flush.
	flushes := h.tel.batchFlushes.Value()
	if flushes < 4 {
		t.Errorf("%d flushes for %d commands at %d per flush, want >= 4", flushes, writers, batchMaxCommands)
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
