package nvmeof

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/model"
)

// TestBufferPoolRecycle pins the pool contract: Release returns the
// buffer for reuse, and steady-state Get hands recycled buffers back
// instead of allocating.
func TestBufferPoolRecycle(t *testing.T) {
	p := NewBufferPool(4096)
	if p.BufferSize() != 4096 {
		t.Fatalf("BufferSize = %d", p.BufferSize())
	}
	a := p.Get()
	if len(a.Bytes()) != 4096 {
		t.Fatalf("buffer length %d", len(a.Bytes()))
	}
	if a.Registered() {
		t.Fatal("fresh buffer reports registered")
	}
	a.Release()
	b := p.Get()
	if a != b {
		t.Fatal("Release did not recycle the buffer")
	}
	b.Release()
}

// TestBufferReleaseWhileRegisteredPanics pins the use-after-register
// detector: releasing a buffer some in-flight submission still pins
// must panic rather than let the caller mutate bytes the transport
// still owns.
func TestBufferReleaseWhileRegisteredPanics(t *testing.T) {
	p := NewBufferPool(512)
	b := p.Get()
	b.register() // as a submission would
	if !b.Registered() {
		t.Fatal("registered buffer reports unregistered")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Release while registered did not panic")
			}
		}()
		b.Release()
	}()
	b.unregister()
	b.Release() // now legal

	func() {
		defer func() {
			if recover() == nil {
				t.Error("over-unregister did not panic")
			}
		}()
		c := p.Get()
		c.unregister()
	}()
}

// TestBufferTimeoutKeepsRegistration is the end-to-end detector test: a
// WriteAtBuffer that times out has NOT returned the buffer's bytes to
// the caller — the abandoned capsule may still be draining into the
// socket — so the buffer must still report registered and Release must
// panic. Once the stalled target finally answers, the read loop
// reclaims the abandoned slot, drops the pin, and Release succeeds.
func TestBufferTimeoutKeepsRegistration(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Answer CONNECT, then stall the WRITE until released.
		cmd, err := ReadCommand(conn)
		if err != nil || cmd.Opcode != OpConnect {
			return
		}
		WriteResponse(conn, &Response{CID: cmd.CID, Status: StatusOK})
		cmd, err = ReadCommand(conn)
		if err != nil || cmd.Opcode != OpWriteCmd {
			return
		}
		<-release
		WriteResponse(conn, &Response{CID: cmd.CID, Status: StatusOK})
	}()

	h := dialOne(t, ln.Addr().String(), 1, PoolConfig{CommandTimeout: 50 * time.Millisecond})
	pool := NewBufferPool(1024)
	buf := pool.Get()
	copy(buf.Bytes(), bytes.Repeat([]byte{0xAB}, 1024))
	if err := h.WriteAtBuffer(0, buf); err == nil {
		t.Fatal("stalled write did not time out")
	}
	if !buf.Registered() {
		t.Fatal("timed-out buffer dropped its registration while the capsule may still be in flight")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Release after timeout did not panic while still registered")
			}
		}()
		buf.Release()
	}()

	close(release) // late completion: the read loop reclaims the slot
	deadline := time.After(5 * time.Second)
	for buf.Registered() {
		select {
		case <-deadline:
			t.Fatal("registration never dropped after the late completion")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	buf.Release()
	<-done
}

// TestBufferLifetimeUnderLoad is the -race lifetime test: once
// WriteAtBuffer returns successfully, the transport is provably done
// with the bytes — mutating and reusing the buffer immediately must be
// race-free even with batching, merging, and concurrent submitters in
// play. scripts/verify.sh runs this with -race; a transport goroutine
// still touching a completed buffer's bytes shows up as a data race.
func TestBufferLifetimeUnderLoad(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: 64 * model.MB})
	p, err := DialPool(addr, 1, PoolConfig{
		QueuePairs: 2,
		Batch:      BatchConfig{Enabled: true, MergeWrites: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const workers = 8
	const writes = 300
	pool := NewBufferPool(2048)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := pool.Get()
			defer buf.Release()
			for i := 0; i < writes; i++ {
				// Mutate the payload each iteration: safe exactly
				// because the previous WriteAtBuffer completed.
				for j := range buf.Bytes() {
					buf.Bytes()[j] = byte(w ^ i ^ j)
				}
				off := int64(w)*2048 + int64(i%4)*int64(workers)*2048
				if err := p.WriteAtBuffer(off, buf); err != nil {
					t.Error(err)
					return
				}
				if buf.Registered() {
					t.Error("buffer still registered after a completed write")
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
