package nvmeof

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/model"
)

// The target robustness suite: peers that misbehave at the connection
// level (stall mid-capsule, stop reading, vanish mid-capsule) must not
// stall other queue pairs, must not keep Close from returning, and must
// leave no goroutine behind.

// goroutinesBack waits until the process runs no more goroutines than
// before, and fails with every goroutine's stack if that takes longer
// than five seconds.
func goroutinesBack(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// robustTarget starts a target with one namespace; the test closes it.
func robustTarget(t *testing.T, size int64) (*Target, string) {
	t.Helper()
	tgt := NewTarget()
	if err := tgt.AddNamespace(1, NewMemNamespace(size)); err != nil {
		t.Fatal(err)
	}
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return tgt, addr
}

// waitQueuePairs waits until the target has exactly n live queue pairs.
func waitQueuePairs(t *testing.T, tgt *Target, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(tgt.Snapshot().QueuePairs) != n {
		if time.Now().After(deadline) {
			t.Fatalf("target has %d queue pairs, want %d", len(tgt.Snapshot().QueuePairs), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// serveRoundTrips checks that a fresh pool is served: writes and reads
// back a few blocks, then closes the pool.
func serveRoundTrips(t *testing.T, addr string) {
	t.Helper()
	p, err := DialPool(addr, 1, PoolConfig{QueuePairs: 2, CommandTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 16; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, 4096)
		off := int64(i) * 4096
		if err := p.WriteAt(off, data); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got, err := p.ReadAt(off, int64(len(data)))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read %d returned other bytes", i)
		}
	}
}

// rawCapsule encodes one legacy-format command capsule.
func rawCapsule(t *testing.T, c *Command) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCommand(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A client that sends half a capsule header and then idles holds only
// its own queue pair: another connection is served, and Close wakes the
// stalled reader at once instead of waiting for the rest of the header.
func TestTargetHalfOpenClient(t *testing.T) {
	before := runtime.NumGoroutine()
	tgt, addr := robustTarget(t, model.MB)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var hdr [cmdHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[:], cmdMagic)
	if _, err := raw.Write(hdr[:cmdHdrLen/2]); err != nil {
		t.Fatal(err)
	}
	waitQueuePairs(t, tgt, 1)

	serveRoundTrips(t, addr)

	start := time.Now()
	tgt.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with a half-open client, want under 1s", d)
	}
	raw.Close()
	goroutinesBack(t, before)
}

// A client that submits 64 READs of 1 MiB and never reads the answers
// fills its socket buffers and wedges its serve loop in a write. Other
// connections are still served, and Close gives the wedged pair
// drainWriteGrace to take its answers before it drops it.
func TestTargetSlowReader(t *testing.T) {
	before := runtime.NumGoroutine()
	tgt, addr := robustTarget(t, 2*model.MB)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	caps := rawCapsule(t, &Command{Opcode: OpConnect, CID: 1, NSID: 1})
	for i := 0; i < targetSQDepth; i++ {
		caps = append(caps, rawCapsule(t, &Command{Opcode: OpReadCmd, CID: uint16(i + 2), Length: uint32(model.MB)})...)
	}
	if _, err := raw.Write(caps); err != nil {
		t.Fatal(err)
	}
	// Wait for the pair to start answering READs: 64 MiB of answers do
	// not fit in the socket buffers, so its serve loop wedges from here.
	waitQueuePairs(t, tgt, 1)
	for tgt.Snapshot().QueuePairs[0].Commands < 2 {
		time.Sleep(time.Millisecond)
	}

	serveRoundTrips(t, addr)

	start := time.Now()
	tgt.Close()
	if d, limit := time.Since(start), drainWriteGrace+time.Second; d > limit {
		t.Fatalf("Close took %v with a client that stopped reading, want under %v", d, limit)
	}
	raw.Close()
	goroutinesBack(t, before)
}

// 200 connections that come and go, a third of them mid-header and a
// third mid-payload, leave no queue pair registered and no goroutine
// running, and the target still serves afterwards.
func TestTargetConnectionChurn(t *testing.T) {
	before := runtime.NumGoroutine()
	tgt, addr := robustTarget(t, model.MB)
	connect := rawCapsule(t, &Command{Opcode: OpConnect, CID: 1, NSID: 1})
	write := rawCapsule(t, &Command{Opcode: OpWriteCmd, CID: 2, Data: make([]byte, 64<<10)})
	for i := 0; i < 200; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		switch i % 3 {
		case 1: // mid-header
			_, err = c.Write(connect[:cmdHdrLen/2])
		case 2: // connected, then mid-payload
			_, err = c.Write(append(append([]byte{}, connect...), write[:len(write)/2]...))
		}
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		c.Close()
	}
	waitQueuePairs(t, tgt, 0)

	serveRoundTrips(t, addr)

	tgt.Close()
	goroutinesBack(t, before)
}
