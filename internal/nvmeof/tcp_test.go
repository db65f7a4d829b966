package nvmeof

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

func startTarget(t testing.TB, namespaces map[uint32]int64) (*Target, string) {
	t.Helper()
	tgt := NewTarget()
	for nsid, size := range namespaces {
		if err := tgt.AddNamespace(nsid, NewMemNamespace(size)); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tgt.Close() })
	return tgt, addr
}

// dialOne dials a pool of one queue pair and closes it with the test.
// White-box tests reach the pair as p.slots[0].host; a test that counts
// attempts, or wants a transport failure surfaced instead of retried,
// passes MaxRetries: -1.
func dialOne(t testing.TB, addr string, nsid uint32, cfg PoolConfig) *HostPool {
	t.Helper()
	cfg.QueuePairs = 1
	p, err := DialPool(addr, nsid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestConnectAndIdentify(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: 4 * model.MB})
	h := dialOne(t, addr, 1, PoolConfig{})
	if h.NamespaceSize() != 4*model.MB {
		t.Errorf("NamespaceSize = %d", h.NamespaceSize())
	}
	size, err := h.Identify()
	if err != nil || size != 4*model.MB {
		t.Errorf("Identify = %d, %v", size, err)
	}
}

func TestConnectUnknownNamespace(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: model.MB})
	if _, err := DialPool(addr, 99, PoolConfig{QueuePairs: 1}); err == nil {
		t.Fatal("connect to unknown namespace succeeded")
	}
}

func TestWriteReadRoundTripOverTCP(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{7: 16 * model.MB})
	h := dialOne(t, addr, 7, PoolConfig{})
	payload := bytes.Repeat([]byte("checkpoint-over-fabrics-"), 4096)
	if err := h.WriteAt(32768, payload); err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := h.ReadAt(32768, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch over TCP transport")
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: 4096})
	h := dialOne(t, addr, 1, PoolConfig{})
	if err := h.WriteAt(4000, make([]byte, 200)); err == nil {
		t.Error("out-of-range write accepted")
	}
	if _, err := h.ReadAt(-1, 10); err == nil {
		t.Error("negative-offset read accepted")
	}
	// The queue pair stays usable after an error completion.
	if err := h.WriteAt(0, []byte("ok")); err != nil {
		t.Errorf("write after error: %v", err)
	}
}

func TestMultiTenantIsolation(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: model.MB, 2: model.MB})
	h1 := dialOne(t, addr, 1, PoolConfig{})
	h2 := dialOne(t, addr, 2, PoolConfig{})
	if err := h1.WriteAt(0, []byte("tenant-one-data")); err != nil {
		t.Fatal(err)
	}
	got, err := h2.ReadAt(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, []byte("tenant-one-data")) {
		t.Error("namespace 2 sees namespace 1's data")
	}
}

func TestConcurrentQueuePairs(t *testing.T) {
	tgt, addr := startTarget(t, map[uint32]int64{1: 64 * model.MB})
	const hosts = 8
	const writes = 50
	var wg sync.WaitGroup
	errs := make([]error, hosts)
	for i := 0; i < hosts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := DialPool(addr, 1, PoolConfig{QueuePairs: 1})
			if err != nil {
				errs[i] = err
				return
			}
			defer h.Close()
			base := int64(i) * 4 * model.MB
			for j := 0; j < writes; j++ {
				payload := []byte(fmt.Sprintf("host%02d-write%03d", i, j))
				off := base + int64(j)*64
				if err := h.WriteAt(off, payload); err != nil {
					errs[i] = err
					return
				}
				got, err := h.ReadAt(off, int64(len(payload)))
				if err != nil {
					errs[i] = err
					return
				}
				if !bytes.Equal(got, payload) {
					errs[i] = fmt.Errorf("host %d write %d mismatch", i, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
	}
	snap := tgt.Snapshot()
	wantCmds := uint64(hosts * (1 + 2*writes)) // connect + write/read pairs
	if snap.Commands != wantCmds {
		t.Errorf("target served %d commands, want %d", snap.Commands, wantCmds)
	}
	if snap.BytesIn == 0 {
		t.Error("target recorded no ingress bytes")
	}
}

func TestPipelinedSubmissionSingleQueue(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: 64 * model.MB})
	h := dialOne(t, addr, 1, PoolConfig{})
	const depth = 16
	var wg sync.WaitGroup
	errs := make([]error, depth)
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			off := int64(i) * model.MB
			payload := bytes.Repeat([]byte{byte(i)}, 1024)
			if err := h.WriteAt(off, payload); err != nil {
				errs[i] = err
				return
			}
			got, err := h.ReadAt(off, 1024)
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got, payload) {
				errs[i] = fmt.Errorf("slot %d mismatch", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
}

func TestDuplicateNamespaceRejected(t *testing.T) {
	tgt := NewTarget()
	if err := tgt.AddNamespace(1, NewMemNamespace(model.MB)); err != nil {
		t.Fatal(err)
	}
	if err := tgt.AddNamespace(1, NewMemNamespace(model.MB)); err == nil {
		t.Error("duplicate nsid accepted")
	}
}

func TestHostFailsAfterTargetClose(t *testing.T) {
	tgt, addr := startTarget(t, map[uint32]int64{1: model.MB})
	h := dialOne(t, addr, 1, PoolConfig{})
	if err := h.WriteAt(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	tgt.Close()
	h.slots[0].host.conn.Close() // sever the queue pair
	if err := h.WriteAt(0, []byte("y")); err == nil {
		t.Error("write succeeded after teardown")
	}
}

// Property: command capsules round-trip through the wire encoding.
func TestPropertyCommandCodec(t *testing.T) {
	f := func(op uint8, cid uint16, nsid uint32, off uint64, length uint32, data []byte) bool {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		in := &Command{Opcode: Opcode(op), CID: cid, NSID: nsid, Offset: off, Length: length, Data: data}
		var buf bytes.Buffer
		if err := WriteCommand(&buf, in); err != nil {
			return false
		}
		out, err := ReadCommand(&buf)
		if err != nil {
			return false
		}
		if out.Opcode != in.Opcode || out.CID != in.CID || out.NSID != in.NSID ||
			out.Offset != in.Offset || out.Length != in.Length {
			return false
		}
		if len(data) == 0 {
			return len(out.Data) == 0
		}
		return bytes.Equal(out.Data, in.Data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: response capsules round-trip through the wire encoding.
// The status high bit is reserved on the wire (it flags the phase
// extension), so it is masked out of the generated status and a status
// carrying it must be rejected by the encoder.
func TestPropertyResponseCodec(t *testing.T) {
	bad := &Response{Status: StatusOK | respFlagPhases}
	if err := WriteResponse(io.Discard, bad); err == nil {
		t.Fatal("encoder accepted a status colliding with the phase flag")
	}
	f := func(cid, status uint16, value uint64, data []byte) bool {
		status &^= respFlagPhases
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		in := &Response{CID: cid, Status: status, Value: value, Data: data}
		var buf bytes.Buffer
		if err := WriteResponse(&buf, in); err != nil {
			return false
		}
		out, err := ReadResponse(&buf)
		if err != nil {
			return false
		}
		if out.CID != in.CID || out.Status != in.Status || out.Value != in.Value {
			return false
		}
		if len(data) == 0 {
			return len(out.Data) == 0
		}
		return bytes.Equal(out.Data, in.Data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAbandonedSlotNotReissued pins the timed-out-command contract the
// old CID-wraparound test pinned for the map-based host: a slot whose
// owner abandoned it (timeout) keeps its CID out of circulation until
// the late completion actually arrives, so a stale answer can never be
// mis-routed to a future command. The read loop reclaims the slot on
// delivery and only then does the CID return to the free ring.
func TestAbandonedSlotNotReissued(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: model.MB})
	p := dialOne(t, addr, 1, PoolConfig{})
	h := p.slots[0].host
	// Abandon four slots the way a timeout does: acquire, register, then
	// detach the owner (CAS inflight -> abandoned under respMu).
	var abandoned []*hostSlot
	for i := 0; i < 4; i++ {
		s, err := h.acquireSlot()
		if err != nil {
			t.Fatal(err)
		}
		if err := h.registerSlot(s); err != nil {
			t.Fatal(err)
		}
		h.respMu.Lock()
		if !s.state.CompareAndSwap(slotInflight, slotAbandoned) {
			t.Fatal("slot not in flight after registration")
		}
		h.respMu.Unlock()
		abandoned = append(abandoned, s)
	}
	// Commands keep completing normally and never land on an abandoned
	// slot's CID.
	for i := 0; i < 5; i++ {
		if _, err := p.Identify(); err != nil {
			t.Fatalf("identify %d with abandoned slots held: %v", i, err)
		}
	}
	for _, s := range abandoned {
		if got := s.state.Load(); got != slotAbandoned {
			t.Fatalf("abandoned slot %d reached state %d without a completion", s.idx, got)
		}
	}
	// The late completions arrive; the read loop reclaims each slot.
	for _, s := range abandoned {
		h.deliver(&Response{CID: s.idx + 1, Status: StatusOK})
		if got := s.state.Load(); got != slotFree {
			t.Fatalf("late completion left slot %d in state %d, want free", s.idx, got)
		}
	}
	if _, err := p.Identify(); err != nil {
		t.Fatalf("identify after reclaim: %v", err)
	}
}

func TestQueueFullRejected(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: model.MB})
	p := dialOne(t, addr, 1, PoolConfig{})
	h := p.slots[0].host
	// Drain the free ring: every slot is now (as far as acquisition is
	// concerned) in flight.
	var held []uint16
	for {
		idx, ok := h.freeRing.pop()
		if !ok {
			break
		}
		held = append(held, idx)
	}
	if len(held) != hostQueueDepth {
		t.Fatalf("drained %d slots, want %d", len(held), hostQueueDepth)
	}
	// An IDENTIFY on exactly this pair, outside the pool's retry and
	// re-dial: the ring's own answer.
	identify := func() error {
		resp, err := h.submitPayload(&Command{Opcode: OpIdentify}, nil, 0, nil)
		return checkResp(resp, err, "identify")
	}
	if err := identify(); err == nil {
		t.Fatal("command accepted with a full slot ring")
	}
	for _, idx := range held {
		h.freeRing.push(idx)
	}
	if err := identify(); err != nil {
		t.Fatalf("identify after queue drained: %v", err)
	}
}

// misbehavingReadTarget acks CONNECT and answers every READ (and every
// LIST-NS, as a read of one 12-byte entry) with a payload whose length
// is transformed by fn (nil return = no payload).
func misbehavingReadTarget(t *testing.T, fn func(length uint32) []byte) string {
	return fakeTarget(t, func(c net.Conn) {
		defer c.Close()
		br := bufio.NewReader(c)
		for {
			cmd, err := ReadCommand(br)
			if err != nil {
				return
			}
			resp := &Response{CID: cmd.CID, Status: StatusOK}
			switch cmd.Opcode {
			case OpConnect:
				resp.Value = uint64(model.MB)
			case OpReadCmd:
				resp.Data = fn(cmd.Length)
			case OpListNS:
				resp.Data = fn(12)
			}
			if err := WriteResponse(c, resp); err != nil {
				return
			}
		}
	})
}

// TestReadResponseLengthValidated: a READ or LIST-NS completion whose
// payload disagrees with the request is ErrBadResponse, answered once (a
// protocol violation is an answer, not a transport failure: no retry,
// the pair stays up) and followed by the postmortem docs/tracing.md
// promises — one flight dump, for the queue pair that served it. The
// READ is homed on pair 1 of two so that a dump naming slot 0 by default
// cannot pass.
func TestReadResponseLengthValidated(t *testing.T) {
	read := func(p *HostPool) error { _, err := p.ReadAt(model.MB/2, 64); return err }
	list := func(p *HostPool) error { _, err := p.ListNamespaces(); return err }
	cases := []struct {
		name string
		fn   func(length uint32) []byte
		call func(*HostPool) error
		qp   int
	}{
		{"short", func(l uint32) []byte { return make([]byte, l-1) }, read, 1},
		{"oversized", func(l uint32) []byte { return make([]byte, l+1) }, read, 1},
		{"missing", func(l uint32) []byte { return nil }, read, 1},
		{"list-ns", func(l uint32) []byte { return make([]byte, l+1) }, list, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var answers atomic.Int32
			addr := misbehavingReadTarget(t, func(l uint32) []byte {
				answers.Add(1)
				return tc.fn(l)
			})
			var traceBuf bytes.Buffer
			p, err := DialPool(addr, 1, PoolConfig{QueuePairs: 2, Tracer: telemetry.NewTracer(&traceBuf)})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if err := tc.call(p); !errors.Is(err, ErrBadResponse) {
				t.Errorf("%s response: %v, want ErrBadResponse", tc.name, err)
			}
			if got := answers.Load(); got != 1 {
				t.Errorf("target answered %d times, want 1: a malformed answer is not retried", got)
			}
			if !p.Snapshot()[tc.qp].Healthy {
				t.Error("a malformed answer took the queue pair down")
			}
			dumps := flightDumps(t, &traceBuf)
			if len(dumps) != 1 {
				t.Fatalf("got %d flight dumps, want 1", len(dumps))
			}
			if reason, _ := dumps[0].Attrs["reason"].(string); reason != "bad-response" {
				t.Errorf("dump reason = %q, want bad-response", dumps[0].Attrs["reason"])
			}
			if qp, _ := dumps[0].Attrs["qp"].(float64); int(qp) != tc.qp {
				t.Errorf("dump is for qp %v, want %d", dumps[0].Attrs["qp"], tc.qp)
			}
		})
	}
}

func TestReadLengthValidatedClientSide(t *testing.T) {
	// These must be rejected before any capsule is built: a negative
	// length would truncate into the uint32 wire field, and an
	// over-limit length could never be answered.
	_, addr := startTarget(t, map[uint32]int64{1: model.MB})
	h := dialOne(t, addr, 1, PoolConfig{})
	if _, err := h.ReadAt(0, -5); err == nil {
		t.Error("negative read length accepted")
	}
	if _, err := h.ReadAt(0, MaxDataLen+1); err == nil {
		t.Error("read length above MaxDataLen accepted")
	}
	// The queue pair stays usable.
	if _, err := h.ReadAt(0, 16); err != nil {
		t.Errorf("read after rejected lengths: %v", err)
	}
}

func TestHostCommandTimeout(t *testing.T) {
	addr := stalledTarget(t, model.MB)
	p := dialOne(t, addr, 1, PoolConfig{CommandTimeout: 30 * time.Millisecond, MaxRetries: -1})
	h := p.slots[0].host
	if _, err := p.ReadAt(0, 16); !errors.Is(err, ErrTimeout) {
		t.Fatalf("read against stalled target: %v, want ErrTimeout", err)
	}
	// The timed-out command's CID slot is abandoned, not freed, so a
	// late completion can never answer a future command.
	if n := h.InFlight(); n != 1 {
		t.Errorf("InFlight = %d after timeout, want 1 abandoned slot", n)
	}
	if !h.Healthy() {
		t.Error("timeout poisoned the queue pair")
	}
}

// TestCloseDrainsInflightWrite pins the Target.Close contract: a WRITE
// already received by the target completes — and its completion reaches
// the host — before Close returns.
func TestCloseDrainsInflightWrite(t *testing.T) {
	tgt := NewTarget()
	ns := NewMemNamespace(model.MB)
	if err := tgt.AddNamespace(1, ns); err != nil {
		t.Fatal(err)
	}
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := dialOne(t, addr, 1, PoolConfig{})

	// Stall the namespace (via its first stripe lock) so the WRITE
	// wedges mid-processing inside the target's serve loop.
	ns.stripes[0].mu.Lock()
	writeDone := make(chan error, 1)
	go func() { writeDone <- h.WriteAt(0, []byte("in-flight-at-close")) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if tgt.Snapshot().Commands >= 2 { // CONNECT + WRITE received
			break
		}
		if time.Now().After(deadline) {
			ns.stripes[0].mu.Unlock()
			t.Fatal("WRITE never reached the target")
		}
		time.Sleep(time.Millisecond)
	}

	closeDone := make(chan struct{})
	go func() { tgt.Close(); close(closeDone) }()
	select {
	case <-closeDone:
		t.Fatal("Close returned while a WRITE was still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	ns.stripes[0].mu.Unlock()
	if err := <-writeDone; err != nil {
		t.Fatalf("in-flight write failed during drain: %v", err)
	}
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the WRITE drained")
	}
	if got, _ := ns.readAt(0, 18, new([]byte)); string(got) != "in-flight-at-close" {
		t.Errorf("drained write not durable: %q", got)
	}
}

// TestConcurrentSubmittersDuringFail hammers one queue pair from many
// goroutines while its connection is severed; every submitter must get
// an error promptly (no strand, no deadlock). The target is unreachable
// after the first dial — a pool would otherwise re-dial it and carry
// on. Run under -race.
func TestConcurrentSubmittersDuringFail(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: 16 * model.MB})
	var dials atomic.Int32
	h := dialOne(t, addr, 1, PoolConfig{Dial: func(addr string) (net.Conn, error) {
		if dials.Add(1) > 1 {
			return nil, errors.New("target down")
		}
		return net.Dial("tcp", addr)
	}})
	const submitters = 16
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			off := int64(i) * model.MB
			for {
				if err := h.WriteAt(off, []byte("storm")); err != nil {
					return
				}
				if _, err := h.ReadAt(off, 5); err != nil {
					return
				}
			}
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	h.slots[0].host.conn.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("submitters stranded after connection failure")
	}
	if err := h.WriteAt(0, []byte("after")); err == nil {
		t.Error("write succeeded on a failed queue pair")
	}
}

func TestBadMagicRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(make([]byte, 64))
	if _, err := ReadCommand(&buf); err == nil {
		t.Error("zero-magic command accepted")
	}
	buf.Reset()
	buf.Write(make([]byte, 64))
	if _, err := ReadResponse(&buf); err == nil {
		t.Error("zero-magic response accepted")
	}
}

// TestReadAfterLargerTransferReturnsZeros pins the reused READ buffer:
// a queue pair that has just answered a large READ (and taken a large
// WRITE) must still return zeros for every byte nothing was written to
// — a never-written range, a half-written one, and one crossing a
// namespace stripe — never the previous payload's bytes.
func TestReadAfterLargerTransferReturnsZeros(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: 8 * model.MB})
	h := dialOne(t, addr, 1, PoolConfig{})
	big := bytes.Repeat([]byte{0xAB}, 256*1024)
	dirty := func() {
		t.Helper()
		if err := h.WriteAt(0, big); err != nil {
			t.Fatal(err)
		}
		got, err := h.ReadAt(0, int64(len(big)))
		if err != nil || !bytes.Equal(got, big) {
			t.Fatalf("large read-back: err=%v", err)
		}
	}
	half := bytes.Repeat([]byte{0xCD}, 2048)
	if err := h.WriteAt(2*model.MB, half); err != nil {
		t.Fatal(err)
	}
	if err := h.WriteAt(stripeBytes-512, half[:512]); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		off  int64
		want []byte
	}{
		{"never written", 4 * model.MB, make([]byte, 4096)},
		{"half written", 2 * model.MB, append(append([]byte(nil), half...), make([]byte, 2048)...)},
		{"gap before data", 2*model.MB - 1024, append(make([]byte, 1024), half...)},
		{"across a namespace stripe", stripeBytes - 1024,
			append(append(make([]byte, 512), half[:512]...), make([]byte, 1024)...)},
	} {
		dirty()
		got, err := h.ReadAt(tc.off, int64(len(tc.want)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s: read [%d,+%d) returned stale or wrong bytes", tc.name, tc.off, len(tc.want))
		}
	}
}

// The early-flush tests charge device time by the byte: 20 ms for the
// 4 KiB WRITE whose ack is watched, 160 ms for the 32 KiB command queued
// behind it. Both are under sockBufSize, so only the device-time half of
// the rule is in play.
const (
	ackFast     = 4 << 10
	ackSlow     = 32 << 10
	ackBPS      = ackFast * 50
	ackSlowTime = time.Second * ackSlow / ackBPS
)

// waitInService returns once the target has taken n commands into
// service (the counter moves when service starts, not when it ends).
func waitInService(t *testing.T, tgt *Target, n uint64) {
	t.Helper()
	for start := time.Now(); tgt.Snapshot().Commands < n; time.Sleep(100 * time.Microsecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("target took %d commands into service, want %d", tgt.Snapshot().Commands, n)
		}
	}
}

// TestTargetAckNotHeldBehindService pins the serve loop's early flush: a
// finished command's completion is not kept in the response buffer
// while the next command on the connection is in the device. The slow
// command is submitted once the target has started servicing the WRITE,
// so it is parsed and waiting in the submission queue when the WRITE's
// response is written: the response then skips the end-of-loop flush and
// must go out before the slow command is serviced, not after.
//
// Break-demo: remove the early flush in Target.serve and both cases go
// red, with the ack arriving after ~180 ms.
func TestTargetAckNotHeldBehindService(t *testing.T) {
	for _, slowOp := range []string{"write", "read"} {
		t.Run("behind-"+slowOp, func(t *testing.T) {
			tgt := NewTarget()
			if err := tgt.AddNamespace(1, NewMemNamespaceWithModel(model.MB, 0, ackBPS)); err != nil {
				t.Fatal(err)
			}
			addr, err := tgt.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer tgt.Close()
			h := dialOne(t, addr, 1, PoolConfig{})

			start := time.Now()
			acked := make(chan time.Duration, 1)
			go func() {
				if err := h.WriteAt(0, make([]byte, ackFast)); err != nil {
					t.Error(err)
				}
				acked <- time.Since(start)
			}()
			waitInService(t, tgt, 2) // CONNECT + the fast WRITE
			slowDone := make(chan error, 1)
			go func() {
				if slowOp == "write" {
					slowDone <- h.WriteAt(ackFast, make([]byte, ackSlow))
					return
				}
				_, err := h.ReadAt(ackFast, ackSlow)
				slowDone <- err
			}()
			ack := <-acked
			if err := <-slowDone; err != nil {
				t.Fatal(err)
			}
			if total := time.Since(start); total < ackSlowTime {
				t.Fatalf("slow %s finished in %v, under its %v of device time", slowOp, total, ackSlowTime)
			}
			if ack > ackSlowTime/2 {
				t.Errorf("4 KiB WRITE acked after %v: held behind the next command's %v of device time", ack, ackSlowTime)
			}
		})
	}
}

// TestTargetEarlyFlushFailureTearsDown pins the other half of the early
// flush: when it fails, the queue pair is torn down the way a failed
// end-of-loop flush tears it down — reader forced off the socket, the
// queued commands dropped unserviced, serve loop gone so Close returns.
// The host resets the connection while the 4 KiB WRITE is in the device
// and a slow WRITE waits behind it; the WRITE's completion then fails
// at the early flush and the slow WRITE must never reach the namespace.
func TestTargetEarlyFlushFailureTearsDown(t *testing.T) {
	tgt := NewTarget()
	ns := NewMemNamespaceWithModel(model.MB, 0, ackBPS)
	if err := tgt.AddNamespace(1, ns); err != nil {
		t.Fatal(err)
	}
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteCommand(conn, &Command{Opcode: OpConnect, CID: 1, NSID: 1}); err != nil {
		t.Fatal(err)
	}
	if resp, err := ReadResponse(conn); err != nil || resp.Status != StatusOK {
		t.Fatalf("connect: %+v, %v", resp, err)
	}
	var both bytes.Buffer
	WriteCommand(&both, &Command{Opcode: OpWriteCmd, CID: 2, Offset: 0, Data: bytes.Repeat([]byte{0xFA}, ackFast)})
	WriteCommand(&both, &Command{Opcode: OpWriteCmd, CID: 3, Offset: ackFast, Data: bytes.Repeat([]byte{0x51}, ackSlow)})
	if _, err := conn.Write(both.Bytes()); err != nil {
		t.Fatal(err)
	}
	waitInService(t, tgt, 2)         // CONNECT + the fast WRITE
	time.Sleep(5 * time.Millisecond) // the reader parses the slow WRITE; the fast one is still in the device
	conn.(*net.TCPConn).SetLinger(0) // close with a reset: the target's next socket write fails
	conn.Close()

	closed := make(chan struct{})
	go func() { tgt.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned: the serve loop outlived its failed flush")
	}
	if got := tgt.Snapshot().Commands; got != 2 {
		t.Errorf("target serviced %d commands, want 2: the WRITE queued behind the failed flush ran", got)
	}
	if got, _ := ns.readAt(ackFast, 1, new([]byte)); got[0] != 0 {
		t.Errorf("slow WRITE reached the namespace (byte %#x) after its connection was torn down", got[0])
	}
}

// TestTargetDropsCommandsQueuedOnDeadConnection pins what the target owes
// commands still queued when their connection dies: nothing. The first
// WRITE is held in service (its stripe lock is wedged) with two more
// parsed and queued behind it, the peer resets, and only then is the
// lock released — the queued WRITEs must never reach the namespace. A
// host told "connection reset" goes on, and a stale WRITE landing later
// would overwrite what it wrote next through another queue pair (the
// rule the QoS campaign's oracle relies on). The namespace has no device
// model, so holdsLoop is false and no early flush trips over the dead
// socket first.
//
// Break-demo: drop the qp.lost check in Target.serve and the target
// services 4 commands and both queued payloads land.
func TestTargetDropsCommandsQueuedOnDeadConnection(t *testing.T) {
	tgt := NewTarget()
	ns := NewMemNamespace(model.MB)
	if err := tgt.AddNamespace(1, ns); err != nil {
		t.Fatal(err)
	}
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteCommand(conn, &Command{Opcode: OpConnect, CID: 1, NSID: 1}); err != nil {
		t.Fatal(err)
	}
	if resp, err := ReadResponse(conn); err != nil || resp.Status != StatusOK {
		t.Fatalf("connect: %+v, %v", resp, err)
	}
	ns.stripes[0].mu.Lock()
	var all bytes.Buffer
	WriteCommand(&all, &Command{Opcode: OpWriteCmd, CID: 2, Offset: 0, Data: []byte("in service")})
	WriteCommand(&all, &Command{Opcode: OpWriteCmd, CID: 3, Offset: 4096, Data: bytes.Repeat([]byte{0x51}, 512)})
	WriteCommand(&all, &Command{Opcode: OpWriteCmd, CID: 4, Offset: 8192, Data: bytes.Repeat([]byte{0x52}, 512)})
	if _, err := conn.Write(all.Bytes()); err != nil {
		ns.stripes[0].mu.Unlock()
		t.Fatal(err)
	}
	waitInService(t, tgt, 2)         // CONNECT + the held WRITE
	time.Sleep(5 * time.Millisecond) // the reader parses the two behind it out of the same socket read
	conn.(*net.TCPConn).SetLinger(0) // close with a reset
	conn.Close()
	// The reader has seen the reset before the service loop moves on.
	for start := time.Now(); ; time.Sleep(100 * time.Microsecond) {
		tgt.mu.Lock()
		lost := false
		for _, qp := range tgt.conns {
			lost = lost || qp.lost.Load()
		}
		tgt.mu.Unlock()
		if lost {
			break
		}
		if time.Since(start) > 5*time.Second {
			ns.stripes[0].mu.Unlock()
			t.Fatal("target reader never saw the reset")
		}
	}
	ns.stripes[0].mu.Unlock()

	closed := make(chan struct{})
	go func() { tgt.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	if got := tgt.Snapshot().Commands; got != 2 {
		t.Errorf("target serviced %d commands, want 2: WRITEs queued on a reset connection ran", got)
	}
	if got, _ := ns.readAt(0, 10, new([]byte)); string(got) != "in service" {
		t.Errorf("the WRITE already in service did not complete: %q", got)
	}
	for _, off := range []int64{4096, 8192} {
		if got, _ := ns.readAt(off, 1, new([]byte)); got[0] != 0 {
			t.Errorf("WRITE queued at %d reached the namespace (byte %#x) after its connection was reset", off, got[0])
		}
	}
}
