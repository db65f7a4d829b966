package nvmeof

import (
	"strings"
	"testing"
	"time"
)

// startTelemetryTarget exports one namespace and returns its address.
func startTelemetryTarget(t *testing.T, size int64) (*Target, string) {
	t.Helper()
	tgt := NewTarget()
	if err := tgt.AddNamespace(1, NewMemNamespace(size)); err != nil {
		t.Fatal(err)
	}
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tgt.Close() })
	return tgt, addr
}

// TestPoolRoundTripTelemetry drives commands through a HostPool against
// a live target and asserts both sides' counters move: the acceptance
// check that telemetry observes real traffic, not just unit updates.
func TestPoolRoundTripTelemetry(t *testing.T) {
	tgt, addr := startTelemetryTarget(t, 1<<20)
	p, err := DialPool(addr, 1, PoolConfig{QueuePairs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	reg := p.Telemetry()

	payload := make([]byte, 4096)
	const writes = 16
	for i := 0; i < writes; i++ {
		if err := p.WriteAt(int64(i)*4096, payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.ReadAt(0, 4096); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}

	snaps := p.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("Snapshot returned %d queue pairs, want 2", len(snaps))
	}
	var commands, bytesOut, latCount uint64
	for _, s := range snaps {
		if !s.Healthy {
			t.Errorf("qp %d unhealthy", s.ID)
		}
		commands += s.Commands
		bytesOut += s.BytesOut
		latCount += s.Latency.Count
		if s.Commands > 0 && s.Latency.P50 <= 0 {
			t.Errorf("qp %d: %d commands but P50 = %v", s.ID, s.Commands, s.Latency.P50)
		}
	}
	// Per qp: CONNECT at dial + FLUSH at the barrier; plus the writes
	// and the read spread across the pool.
	wantMin := uint64(writes + 1 + 2 + 2)
	if commands < wantMin {
		t.Errorf("pool commands = %d, want >= %d", commands, wantMin)
	}
	if bytesOut < writes*4096 {
		t.Errorf("pool bytes out = %d, want >= %d", bytesOut, writes*4096)
	}
	if latCount != commands {
		t.Errorf("latency observations = %d, commands = %d", latCount, commands)
	}

	// Target-side view of the same traffic.
	ts := tgt.Snapshot()
	if ts.Commands != commands {
		t.Errorf("target commands = %d, initiator commands = %d", ts.Commands, commands)
	}
	if ts.BytesIn != bytesOut {
		t.Errorf("target bytes in = %d, initiator bytes out = %d", ts.BytesIn, bytesOut)
	}
	if len(ts.QueuePairs) != 2 {
		t.Errorf("target sees %d queue pairs, want 2", len(ts.QueuePairs))
	}
	// The serve loop observes a command's latency after its response has
	// left, so the last observation can trail the host seeing the
	// completion. Close waits for every serve loop to return.
	p.Close()
	tgt.Close()
	if got := tgt.Snapshot().Latency.Count; got != commands {
		t.Errorf("target latency observations = %d, want %d", got, commands)
	}

	// Both registries must expose the traffic in Prometheus form.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`nvmecr_qp_commands_total{qp="0"}`,
		`nvmecr_qp_commands_total{qp="1"}`,
		"nvmecr_pool_queue_pairs 2",
		"# TYPE nvmecr_qp_command_latency_seconds histogram",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("pool exposition missing %q", want)
		}
	}
	sb.Reset()
	if err := tgt.Telemetry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "nvmecr_target_commands_total") {
		t.Errorf("target exposition missing nvmecr_target_commands_total")
	}
}

// TestHostTelemetryDefaultRegistry: a pool of one snapshots real counts
// from the registry it keeps for itself.
func TestHostTelemetryDefaultRegistry(t *testing.T) {
	_, addr := startTelemetryTarget(t, 1<<20)
	h := dialOne(t, addr, 1, PoolConfig{})
	if err := h.WriteAt(0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	snaps := h.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("Snapshot returned %d queue pairs, want 1", len(snaps))
	}
	// CONNECT + WRITE.
	if snaps[0].Commands != 2 {
		t.Errorf("commands = %d, want 2", snaps[0].Commands)
	}
	if snaps[0].BytesOut != 5 {
		t.Errorf("bytes out = %d, want 5", snaps[0].BytesOut)
	}
	if h.Telemetry() == nil {
		t.Error("Telemetry() = nil, want private registry")
	}
}

// TestPoolErrorTelemetry: a command the target rejects counts as an
// initiator-side error, not a latency observation.
func TestPoolErrorTelemetry(t *testing.T) {
	_, addr := startTelemetryTarget(t, 1<<20)
	p, err := DialPool(addr, 1, PoolConfig{QueuePairs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Out-of-range write: the target answers StatusOutOfRange, a
	// definitive completion — no transport error, no retry.
	if err := p.WriteAt(1<<30, []byte("x")); err == nil {
		t.Fatal("out-of-range write succeeded")
	}
	s := p.Snapshot()[0]
	// A rejected completion is still a completed round trip, so it is
	// not counted in Errors (those are transport failures); the write
	// payload must not count as delivered either way.
	if s.Commands < 2 {
		t.Errorf("commands = %d, want >= 2 (connect + rejected write)", s.Commands)
	}
	if s.Retries != 0 {
		t.Errorf("retries = %d, want 0 (status errors are not retried)", s.Retries)
	}
}

// TestQueueInterface locks the promoted interface: a function taking a
// Queue drives a pool of one and a pool of many alike.
func TestQueueInterface(t *testing.T) {
	_, addr := startTelemetryTarget(t, 1<<20)
	drive := func(q Queue) {
		t.Helper()
		if err := q.WriteAt(0, []byte("abc")); err != nil {
			t.Fatal(err)
		}
		got, err := q.ReadAt(0, 3)
		if err != nil || string(got) != "abc" {
			t.Fatalf("read = %q, %v", got, err)
		}
		if size, err := q.Identify(); err != nil || size != 1<<20 {
			t.Fatalf("identify = %d, %v", size, err)
		}
		if len(q.Snapshot()) == 0 || q.Telemetry() == nil {
			t.Fatal("queue lacks telemetry")
		}
		if err := q.Close(); err != nil {
			t.Fatal(err)
		}
	}
	drive(dialOne(t, addr, 1, PoolConfig{}))
	p, err := DialPool(addr, 1, PoolConfig{QueuePairs: 2})
	if err != nil {
		t.Fatal(err)
	}
	drive(p)
}

// TestReconnectTelemetry: a repaired queue pair continues the same
// series (registry get-or-create) and bumps the reconnect counter.
func TestReconnectTelemetry(t *testing.T) {
	tgt, addr := startTelemetryTarget(t, 1<<20)
	p, err := DialPool(addr, 1, PoolConfig{
		QueuePairs:       1,
		MaxRetries:       4,
		RetryBackoff:     5 * time.Millisecond,
		ReconnectBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	before := p.Snapshot()[0]

	// Kill the connection out from under the pool; the reconnector
	// re-dials the same target.
	tgt.mu.Lock()
	for _, qp := range tgt.conns {
		qp.conn.Close()
	}
	tgt.mu.Unlock()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := p.ReadAt(0, 0); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never recovered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	after := p.Snapshot()[0]
	if after.Reconnects <= before.Reconnects {
		t.Errorf("reconnects = %d, want > %d", after.Reconnects, before.Reconnects)
	}
	if after.Commands <= before.Commands {
		t.Errorf("commands after reconnect = %d, want > %d (same series)", after.Commands, before.Commands)
	}
}
