package nvmeof

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/plane"
)

// fakeTarget starts a raw listener whose connections are handled by fn,
// for tests that need a misbehaving or stalled target.
func fakeTarget(t *testing.T, fn func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go fn(c)
		}
	}()
	return ln.Addr().String()
}

func TestPoolWriteReadAcrossQueuePairs(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: 64 * model.MB})
	pool, err := DialPool(addr, 1, PoolConfig{QueuePairs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.NamespaceSize() != 64*model.MB {
		t.Errorf("NamespaceSize = %d", pool.NamespaceSize())
	}
	if pool.QueuePairs() != 4 {
		t.Errorf("QueuePairs = %d", pool.QueuePairs())
	}

	const workers = 8
	const writes = 32
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			base := int64(i) * 4 * model.MB
			for j := 0; j < writes; j++ {
				payload := []byte(fmt.Sprintf("worker%02d-write%03d", i, j))
				off := base + int64(j)*64
				if err := pool.WriteAt(off, payload); err != nil {
					errs[i] = err
					return
				}
				got, err := pool.ReadAt(off, int64(len(payload)))
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
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if size, err := pool.Identify(); err != nil || size != 64*model.MB {
		t.Errorf("Identify = %d, %v", size, err)
	}

	// The load must actually shard: more than one queue pair carried
	// commands.
	used := 0
	var total uint64
	for _, st := range pool.Snapshot() {
		if st.Commands > 0 {
			used++
		}
		total += st.Commands
		if !st.Healthy {
			t.Errorf("queue pair %d unhealthy after clean run", st.ID)
		}
	}
	if used < 2 {
		t.Errorf("only %d of 4 queue pairs carried commands", used)
	}
	// Every round trip counts, including each queue pair's CONNECT at
	// dial and its FLUSH at the barrier.
	if want := uint64(workers*writes*2 + 4 + 4 + 1); total != want {
		t.Errorf("pool issued %d commands, want %d", total, want)
	}
}

func TestPoolRetryAfterQueuePairFailure(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: model.MB})
	pool, err := DialPool(addr, 1, PoolConfig{
		QueuePairs:       2,
		MaxRetries:       3,
		RetryBackoff:     time.Millisecond,
		ReconnectBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if err := pool.WriteAt(0, []byte("survives")); err != nil {
		t.Fatal(err)
	}

	// Sever one queue pair's connection out from under the pool. Reads
	// are idempotent and must succeed via retry on the sibling.
	pool.slots[0].mu.Lock()
	dead := pool.slots[0].host
	pool.slots[0].mu.Unlock()
	dead.conn.Close()
	for i := 0; i < 20; i++ {
		got, err := pool.ReadAt(0, 8)
		if err != nil {
			t.Fatalf("read %d failed despite healthy sibling: %v", i, err)
		}
		if string(got) != "survives" {
			t.Fatalf("read %d = %q", i, got)
		}
	}

	// The dead queue pair is re-dialed and re-registered, not poisoned.
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
			t.Fatalf("queue pair never reconnected: %+v", pool.Snapshot())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestPoolReconnectAfterTargetRestart(t *testing.T) {
	tgt := NewTarget()
	if err := tgt.AddNamespace(1, NewMemNamespace(model.MB)); err != nil {
		t.Fatal(err)
	}
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := DialPool(addr, 1, PoolConfig{
		QueuePairs:       2,
		CommandTimeout:   500 * time.Millisecond,
		RetryBackoff:     time.Millisecond,
		ReconnectBackoff: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if err := pool.WriteAt(0, []byte("before-restart")); err != nil {
		t.Fatal(err)
	}

	// Kill the target; the pool must report errors, not hang.
	tgt.Close()
	if err := pool.WriteAt(0, []byte("during-outage")); err == nil {
		t.Fatal("write succeeded against a dead target")
	}

	// Restart a fresh target on the same address and namespace.
	tgt2 := NewTarget()
	if err := tgt2.AddNamespace(1, NewMemNamespace(model.MB)); err != nil {
		t.Fatal(err)
	}
	var listenErr error
	for i := 0; i < 100; i++ {
		if _, listenErr = tgt2.Listen(addr); listenErr == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if listenErr != nil {
		t.Fatalf("restart listen: %v", listenErr)
	}
	defer tgt2.Close()

	// The pool re-CONNECTs in the background and service resumes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := pool.WriteAt(0, []byte("after-restart")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never recovered after target restart: %+v", pool.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, err := pool.ReadAt(0, 13)
	if err != nil || string(got) != "after-restart" {
		t.Fatalf("read after recovery = %q, %v", got, err)
	}
	var reconnects uint64
	for _, st := range pool.Snapshot() {
		reconnects += st.Reconnects
	}
	if reconnects == 0 {
		t.Error("recovery happened without any recorded reconnect")
	}
}

// stalledTarget acks CONNECT and then swallows every further command
// without completing it.
func stalledTarget(t *testing.T, size int64) string {
	return fakeTarget(t, func(c net.Conn) {
		defer c.Close()
		br := bufio.NewReader(c)
		cmd, err := ReadCommand(br)
		if err != nil || cmd.Opcode != OpConnect {
			return
		}
		WriteResponse(c, &Response{CID: cmd.CID, Status: StatusOK, Value: uint64(size)})
		for {
			if _, err := ReadCommand(br); err != nil {
				return
			}
		}
	})
}

func TestPoolCommandTimeout(t *testing.T) {
	addr := stalledTarget(t, model.MB)
	pool, err := DialPool(addr, 1, PoolConfig{
		QueuePairs:     2,
		CommandTimeout: 30 * time.Millisecond,
		MaxRetries:     1,
		RetryBackoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	start := time.Now()
	_, err = pool.ReadAt(0, 16)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("read against stalled target: %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
	// Timeouts abandon the command but keep the queue pairs: both must
	// still be connected (the target is stalled, not dead).
	for _, st := range pool.Snapshot() {
		if !st.Healthy {
			t.Errorf("queue pair %d marked dead by a timeout", st.ID)
		}
	}
}

func TestPoolClosedErrors(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: model.MB})
	pool, err := DialPool(addr, 1, PoolConfig{QueuePairs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.WriteAt(0, []byte("x")); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("write after close: %v, want ErrPoolClosed", err)
	}
	if err := pool.Flush(); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("flush after close: %v, want ErrPoolClosed", err)
	}
	if err := pool.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestBatchingPoolFillFirst pins the spill depth, the one thing that
// separates a batching pool from an unbatched one: a batching pool
// concentrates small submissions on the first queue pair of the scan
// with room (so overlapping submissions meet in one batcher) and spills
// only at the batch command budget, while bulk commands, and every
// command of an unbatched pool, spill past a single command in flight.
// Where the scan starts is TestPoolHomeByAddress.
func TestBatchingPoolFillFirst(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: model.MB})
	pool, err := DialPool(addr, 1, PoolConfig{
		QueuePairs: 4,
		Batch:      BatchConfig{Enabled: true, MaxCommands: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for i := 0; i < 8; i++ {
		s, _, err := pool.acquire(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if s.id != 0 {
			t.Fatalf("idle batching pool acquired qp %d, want 0 (fill-first)", s.id)
		}
	}
	// Push queue pair 0 to the batch command budget: acquisition must
	// spill to queue pair 1.
	h0 := pool.slots[0].host
	h0.inflightN.Add(4)
	s, _, err := pool.acquire(0, 0)
	h0.inflightN.Add(-4)
	if err != nil {
		t.Fatal(err)
	}
	if s.id != 1 {
		t.Fatalf("full qp 0 spilled to qp %d, want 1", s.id)
	}

	// The size rule, at the acquire level: a bulk command spills past a
	// single command in flight, one byte under the threshold does not,
	// and with every pair busy the shallowest wins.
	plain, err := DialPool(addr, 1, PoolConfig{QueuePairs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	for _, tc := range []struct {
		pool  *HostPool
		depth []int32
		n     int
		want  int
	}{
		{pool, []int32{0, 0, 0, 0}, sockBufSize, 0},
		{pool, []int32{1, 0, 0, 0}, sockBufSize, 1},
		{pool, []int32{1, 0, 0, 0}, sockBufSize - 1, 0},
		{pool, []int32{3, 1, 0, 2}, MaxDataLen, 2},
		{pool, []int32{3, 2, 1, 2}, sockBufSize, 2},
		{pool, []int32{3, 2, 1, 2}, 512, 0},
		{pool, []int32{4, 4, 5, 4}, 512, 0},
		// No batcher: a small command is placed like a bulk one.
		{plain, []int32{0, 0, 0, 0}, 512, 0},
		{plain, []int32{1, 0, 0, 0}, 512, 1},
		{plain, []int32{3, 2, 1, 2}, 512, 2},
	} {
		undo := setDepths(tc.pool, tc.depth...)
		s, _, err := tc.pool.acquire(tc.n, 0)
		undo()
		if err != nil {
			t.Fatal(err)
		}
		if s.id != tc.want {
			t.Errorf("fill %d, depths %v, %d-byte command: qp %d, want %d", tc.pool.fill, tc.depth, tc.n, s.id, tc.want)
		}
	}
}

// runCallers has callers goroutines issue perCall commands each, one at
// a time, and returns how many commands each queue pair took.
func runCallers(t *testing.T, p *HostPool, callers, perCall int, op func(caller, i int) error) []uint64 {
	t.Helper()
	before := p.Snapshot()
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCall && errs[c] == nil; i++ {
				errs[c] = op(c, i)
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", c, err)
		}
	}
	got := make([]uint64, len(p.slots))
	for i, st := range p.Snapshot() {
		got[i] = st.Commands - before[i].Commands
	}
	return got
}

// setDepths makes the pool's queue pairs look d commands deep to acquire
// and returns the undo.
func setDepths(p *HostPool, d ...int32) func() {
	for i, n := range d {
		p.slots[i].host.inflightN.Add(n)
	}
	return func() {
		for i, n := range d {
			p.slots[i].host.inflightN.Add(-n)
		}
	}
}

// TestPoolPlacementBySize drives the size rule with real callers on a
// batching pool and reads the outcome off Snapshot: synchronous bulk
// callers, no more of them than queue pairs, each end up with a
// connection of their own; the same callers issuing small commands still
// meet in one batcher; more bulk callers than queue pairs share by depth
// and nothing fails. Run under -race.
func TestPoolPlacementBySize(t *testing.T) {
	const (
		pairs   = 4
		perCall = 24
		bulk    = 1 * model.MB
	)
	tgt := NewTarget()
	// A little device time per command keeps every caller's command in
	// flight while its siblings choose, whatever the scheduler does.
	if err := tgt.AddNamespace(1, NewMemNamespaceWithLatency(16*model.MB, 4*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	pool, err := DialPool(addr, 1, PoolConfig{
		QueuePairs: pairs,
		Batch:      BatchConfig{Enabled: true, MergeWrites: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	run := func(callers int, op func(caller, i int) error) []uint64 {
		t.Helper()
		return runCallers(t, pool, callers, perCall, op)
	}
	bulkRead := func(c, i int) error {
		_, err := pool.ReadAt(int64(c%8)*bulk, bulk)
		return err
	}
	smallWrite := func(c, i int) error {
		return pool.WriteAt(int64(c)*bulk+int64(i)*512, make([]byte, 512))
	}

	for _, callers := range []int{2, pairs} {
		got := run(callers, bulkRead)
		// Two callers can look at the same idle pair in the same instant
		// and both take it; the slack is for that, not for a caller
		// camping on a neighbour's connection.
		const slack = perCall / 2
		for qp, n := range got {
			if qp < callers && n == 0 {
				t.Errorf("%d bulk callers: qp %d idle, per-qp commands %v", callers, qp, got)
			}
			if n > perCall+slack {
				t.Errorf("%d bulk callers: qp %d took %d commands, want <= %d: %v", callers, qp, n, perCall+slack, got)
			}
		}
	}

	got := run(pairs, smallWrite)
	if total := pairs * perCall; got[0]*10 < uint64(total)*9 {
		t.Errorf("small writes: slot 0 took %d of %d commands, want >= 90%%: %v", got[0], total, got)
	}

	got = run(2*pairs, bulkRead)
	var total uint64
	for qp, n := range got {
		total += n
		if n == 0 {
			t.Errorf("%d bulk callers on %d pairs: qp %d idle: %v", 2*pairs, pairs, qp, got)
		}
	}
	if want := uint64(2 * pairs * perCall); total != want {
		t.Errorf("%d bulk callers issued %d commands, want %d", 2*pairs, total, want)
	}
}

// TestPoolFlushIsOneRoundTrip pins the Flush fan-out: the barrier costs
// the slowest queue pair's round trip, not the sum of them, and keeps
// its error contract — a queue pair that dies under its FLUSH fails the
// barrier and is handed to the reconnector.
func TestPoolFlushIsOneRoundTrip(t *testing.T) {
	const cmdTime = 50 * time.Millisecond
	var conns, dropFlushOn atomic.Int32
	addr := fakeTarget(t, func(c net.Conn) {
		defer c.Close()
		id := conns.Add(1)
		br := bufio.NewReader(c)
		for {
			cmd, err := ReadCommand(br)
			if err != nil {
				return
			}
			if cmd.Opcode != OpConnect {
				if dropFlushOn.Load() == id {
					return
				}
				time.Sleep(cmdTime)
			}
			if WriteResponse(c, &Response{CID: cmd.CID, Status: StatusOK, Value: uint64(model.MB)}) != nil {
				return
			}
		}
	})
	pool, err := DialPool(addr, 1, PoolConfig{QueuePairs: 4, ReconnectBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	start := time.Now()
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < cmdTime || d >= 2*cmdTime {
		t.Errorf("Flush over 4 queue pairs took %v, want one %v command time (under two)", d, cmdTime)
	}
	for _, st := range pool.Snapshot() {
		if st.Commands != 2 { // CONNECT + FLUSH
			t.Errorf("qp %d issued %d commands, want 2: %+v", st.ID, st.Commands, st)
		}
	}

	dropFlushOn.Store(3) // the third connection dialed is slot 2
	if err := pool.Flush(); err == nil {
		t.Fatal("Flush succeeded although a queue pair died under its barrier")
	}
	deadline := time.Now().Add(5 * time.Second)
	for pool.Snapshot()[2].Reconnects == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("dead queue pair never handed to the reconnector: %+v", pool.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPoolAdminLifecycle(t *testing.T) {
	tgt := NewTargetWithCapacity(16 * model.MB)
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	// NSID 0: an admin pool, every queue pair unbound.
	pool, err := DialPool(addr, 0, PoolConfig{QueuePairs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	nsid, err := pool.CreateNamespace(4 * model.MB)
	if err != nil {
		t.Fatal(err)
	}
	list, err := pool.ListNamespaces()
	if err != nil || len(list) != 1 || list[0].NSID != nsid {
		t.Fatalf("ListNamespaces = %+v, %v", list, err)
	}
	if err := pool.DeleteNamespace(nsid); err != nil {
		t.Fatal(err)
	}
}

// benchPool spins up a loopback target plus pool and drives concurrent
// small writes through it, reporting MB/s. Shared by the batched and
// unbatched dimensions of BenchmarkHostPool.
func benchPool(b *testing.B, payloadSize int64, deviceLatency time.Duration, cfg PoolConfig) {
	b.Helper()
	tgt := NewTarget()
	if err := tgt.AddNamespace(1, NewMemNamespaceWithLatency(256*model.MB, deviceLatency)); err != nil {
		b.Fatal(err)
	}
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	pool, err := DialPool(addr, 1, cfg)
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xCF}, int(payloadSize))
	var slot uint64
	b.SetBytes(payloadSize)
	b.SetParallelism(64)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		off := int64(atomic.AddUint64(&slot, 1)%1024) * payloadSize
		for pb.Next() {
			if err := pool.WriteAt(off, payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	pool.Close()
	tgt.Close()
}

// BenchmarkHostPool measures aggregate small-command (1KB) write
// throughput across two dimensions: queue pair count and capsule
// batching. Small commands with no modeled device latency put the
// per-capsule wire cost — one write syscall per command — in the
// denominator, which is precisely what batching amortizes: concurrent
// submitters coalesce into one vectored writev per flush. The qp
// dimension is the original pool claim (independent queue pairs lift
// the single-connection head-of-line bottleneck, §III Fig. 4); the
// batch dimension is the new one (the regression gate compares
// batch=on against batch=off at equal qp, expecting >=1.5x at qp>=4
// for <=4KB commands; scripts/bench.sh checks it).
func BenchmarkHostPool(b *testing.B) {
	const payloadSize = 512
	for _, qps := range []int{1, 2, 4, 8} {
		for _, batched := range []bool{false, true} {
			b.Run(fmt.Sprintf("qp=%d/batch=%v", qps, batched), func(b *testing.B) {
				cfg := PoolConfig{QueuePairs: qps}
				if batched {
					cfg.Batch = BatchConfig{Enabled: true, MergeWrites: true}
				}
				benchPool(b, payloadSize, 0, cfg)
			})
		}
	}
}

// BenchmarkHostPoolDeviceBound preserves the original device-bound
// configuration (16KB commands, ~20µs modeled SSD program time): here
// throughput scales with queue pairs because service time overlaps
// across connections, and batching is expected to be roughly neutral —
// the device, not the wire, is the bottleneck.
func BenchmarkHostPoolDeviceBound(b *testing.B) {
	const payloadSize = 16 * 1024
	const deviceLatency = 20 * time.Microsecond
	for _, qps := range []int{1, 4} {
		for _, batched := range []bool{false, true} {
			b.Run(fmt.Sprintf("qp=%d/batch=%v", qps, batched), func(b *testing.B) {
				cfg := PoolConfig{QueuePairs: qps}
				if batched {
					cfg.Batch = BatchConfig{Enabled: true, MergeWrites: true}
				}
				benchPool(b, payloadSize, deviceLatency, cfg)
			})
		}
	}
}

// BenchmarkHostPoolBulk measures restart-shaped traffic: as many
// synchronous callers as queue pairs, each fetching 1 MiB at a time
// through a batching pool (what two ranks' read-ahead windows look like
// from the pool). With one connection the callers' transfers serialise
// on one TCP stream, one target reader and one serve loop; size-aware
// placement gives each caller a connection of its own, so qp=2 must beat
// qp=1 (scripts/bench.sh gates it at 1.2x; fill-first for every command
// measured 1.0x).
func BenchmarkHostPoolBulk(b *testing.B) {
	const length = 1 * model.MB
	const region = 16 * model.MB
	for _, qps := range []int{1, 2} {
		b.Run(fmt.Sprintf("qp=%d", qps), func(b *testing.B) {
			tgt := NewTarget()
			if err := tgt.AddNamespace(1, NewMemNamespace(region)); err != nil {
				b.Fatal(err)
			}
			addr, err := tgt.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			pool, err := DialPool(addr, 1, PoolConfig{
				QueuePairs: qps,
				Batch:      BatchConfig{Enabled: true, MergeWrites: true},
			})
			if err != nil {
				b.Fatal(err)
			}
			payload := bytes.Repeat([]byte{0xB7}, int(length))
			for off := int64(0); off < region; off += length {
				if err := pool.WriteAt(off, payload); err != nil {
					b.Fatal(err)
				}
			}
			var next atomic.Int64
			var wg sync.WaitGroup
			b.SetBytes(length)
			b.ResetTimer()
			for c := 0; c < qps; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
						if _, err := pool.ReadAt(i%(region/length)*length, length); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			pool.Close()
			tgt.Close()
		})
	}
}

// BenchmarkStripedPlane measures one rank's large-transfer bandwidth
// through a StripedPlane of 1, 2, and 4 loopback targets (width 1 is
// the single-target baseline: spans coalesce to one command). Striping
// wins by driving N sockets — and N target-side service queues — at
// once for a single logical write, the paper's aggregate-bandwidth
// claim (§IV, Fig. 7).
func BenchmarkStripedPlane(b *testing.B) {
	const unit = 64 * 1024
	const opSize = 1 * model.MB
	const childTotal = 64 * model.MB
	const deviceLatency = 20 * time.Microsecond
	// The paper's striping win needs the paper's regime: the device,
	// not the fabric, is the bottleneck (NVMe ~2.2 GB/s behind a
	// ~12.5 GB/s NIC). A single-core TCP loopback moves roughly half a
	// GB/s, so the modeled device bandwidth is scaled down with it to
	// keep the same device:fabric ratio — each target then charges a
	// per-byte program time, a one-target plane pays it serially, and a
	// striped plane overlaps the per-target shares. A flat per-command
	// latency alone models the split as free and hides exactly that
	// effect.
	const deviceBW = 400 * model.MB
	for _, targets := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("targets=%d", targets), func(b *testing.B) {
			children := make([]plane.Plane, targets)
			var cleanups []func()
			for i := range children {
				tgt := NewTarget()
				if err := tgt.AddNamespace(1, NewMemNamespaceWithModel(childTotal/int64(targets), deviceLatency, deviceBW)); err != nil {
					b.Fatal(err)
				}
				addr, err := tgt.Listen("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				pool, err := DialPool(addr, 1, PoolConfig{
					QueuePairs: 2,
					Batch:      BatchConfig{Enabled: true, MergeWrites: true},
				})
				if err != nil {
					b.Fatal(err)
				}
				tp, err := NewTCPPlane(pool, 0, childTotal/int64(targets))
				if err != nil {
					b.Fatal(err)
				}
				children[i] = tp
				cleanups = append(cleanups, func() { pool.Close(); tgt.Close() })
			}
			sp, err := NewStripedPlane(children, unit)
			if err != nil {
				b.Fatal(err)
			}
			payload := bytes.Repeat([]byte{0xBD}, int(opSize))
			ops := sp.Size() / opSize
			b.SetBytes(opSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (int64(i) % ops) * opSize
				if err := sp.Write(nil, off, opSize, payload, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for _, c := range cleanups {
				c()
			}
		})
	}
}
