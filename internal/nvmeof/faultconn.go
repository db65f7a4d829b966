package nvmeof

import (
	"encoding/binary"
	"net"
	"time"

	"github.com/nvme-cr/nvmecr/internal/faults"
)

// FaultConn wraps a net.Conn with fault injection driven by a
// faults.Plan, for exercising the real TCP plane's failure handling —
// HostPool deadlines, idempotent retry, reconnect — against connection
// resets, truncated or duplicated frames, and blackholed capsules.
//
// Write-side points carry the opcode name of the capsule the frame
// starts with as the op ("CONNECT", "READ", "WRITE", …), and "write"
// when it starts with no command header. An unbatched initiator flushes
// one capsule per Write, so there the op is exact. A batching one hands
// a whole batch to one Write (writeBuffers), so the op names the batch's
// first capsule and an injection hits every capsule in it. Read-side
// points use op "read"; the byte stream arrives in arbitrary chunks, so
// read rules count syscalls, not capsules. Points carry rank -1 and the
// plan's wall-clock Elapsed time.
//
// Injected kinds:
//
//   - KindConnReset: the frame is sent, then the connection closes —
//     the command reaches the target but its completion never returns.
//   - KindTruncate: only the first Arg bytes are sent, then the
//     connection closes (a capsule cut mid-flight).
//   - KindDuplicate: the frame is sent twice (the peer sees the same
//     capsule, same CID, twice).
//   - KindBlackhole: the frame is silently discarded; the command can
//     only end in its deadline.
//   - KindDelay: a real Arg-nanosecond sleep before the operation.
//
// A FaultConn is as concurrency-safe as the underlying net.Conn: one
// writer and one reader goroutine, the initiator's usage.
type FaultConn struct {
	net.Conn
	plan *faults.Plan
}

// NewFaultConn wraps conn with injections from plan.
func NewFaultConn(conn net.Conn, plan *faults.Plan) *FaultConn {
	return &FaultConn{Conn: conn, plan: plan}
}

// FaultDialer returns a dial function (for PoolConfig.Dial) that wraps
// every new connection in a FaultConn. Reconnected queue pairs are
// wrapped too, so a plan can schedule faults across an outage and its
// repair.
func FaultDialer(plan *faults.Plan) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return NewFaultConn(conn, plan), nil
	}
}

// frameOp names a write-side frame for rule scoping: the capsule's
// opcode when the frame starts with a command header, "write" otherwise.
func frameOp(b []byte) string {
	if len(b) >= cmdHdrLen && binary.LittleEndian.Uint32(b) == cmdMagic {
		return Opcode(b[4]).String()
	}
	return "write"
}

func (c *FaultConn) Write(b []byte) (int, error) {
	inj, ok := c.plan.Eval(faults.Point{
		Layer: faults.LayerTCP, Op: frameOp(b), Rank: -1, Now: c.plan.Elapsed(),
	})
	if ok {
		switch inj.Kind {
		case faults.KindDelay:
			time.Sleep(time.Duration(inj.Arg))
		case faults.KindConnReset:
			n, err := c.Conn.Write(b)
			c.Conn.Close()
			if err != nil {
				return n, err
			}
			return n, &faults.Error{Inj: inj}
		case faults.KindTruncate:
			keep := inj.Arg
			if keep < 0 || keep > int64(len(b)) {
				keep = int64(len(b)) / 2
			}
			n, err := c.Conn.Write(b[:keep])
			c.Conn.Close()
			if err != nil {
				return n, err
			}
			return n, &faults.Error{Inj: inj}
		case faults.KindDuplicate:
			if _, err := c.Conn.Write(b); err != nil {
				return 0, err
			}
			return c.Conn.Write(b)
		case faults.KindBlackhole:
			// Swallowed: the caller believes the frame is on the wire.
			return len(b), nil
		}
	}
	return c.Conn.Write(b)
}

func (c *FaultConn) Read(b []byte) (int, error) {
	inj, ok := c.plan.Eval(faults.Point{
		Layer: faults.LayerTCP, Op: "read", Rank: -1, Now: c.plan.Elapsed(),
	})
	if ok {
		switch inj.Kind {
		case faults.KindDelay:
			time.Sleep(time.Duration(inj.Arg))
		case faults.KindConnReset:
			c.Conn.Close()
			return 0, &faults.Error{Inj: inj}
		}
	}
	return c.Conn.Read(b)
}
