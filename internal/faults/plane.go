package faults

import (
	"fmt"
	"time"

	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
)

// CrashPlane wraps a data plane with process-crash semantics: when the
// plan fires KindCrash or KindTornWrite on a write, the process is
// considered dead from that instant — this write is dropped (or torn to
// a prefix) and every later write or flush is silently swallowed,
// exactly what a power cut does to IO that never reached the device.
// Operations still "succeed" from the caller's perspective, the way a
// doomed process keeps running until the kill lands; tests consult
// Crashed to decide which operations were really acknowledged.
//
// Reads after the crash error out: a dead process reads nothing, and a
// recovery path accidentally reusing a crashed plane is a harness bug
// worth failing loudly on.
//
// Torn writes honor command atomicity, the device model the on-SSD
// layouts are designed against: an NVMe device with power-loss
// protection completes each command it accepted (the capacitance model
// in internal/nvme), so a dying host tears a multi-command transfer
// between commands, not inside one. The surviving prefix is rounded
// down to a whole number of command units (the write's cmdUnit, 512 B
// minimum). Sub-unit commit records — the snapshot header, a log page
// update — therefore land entirely or not at all. Byte-granular tearing
// is available at the WAL layer via TornAppendFunc, where the record
// CRC is the defense being tested.
type CrashPlane struct {
	inner   plane.Plane
	plan    *Plan
	rank    int
	crashed bool
}

// tornSectorBytes is the minimum atomic unit for torn plane writes,
// used when a write carries no meaningful command unit.
const tornSectorBytes = 512

// NewCrashPlane wraps inner. rank labels this plane's points (use the
// instance's MPI rank, or -1).
func NewCrashPlane(inner plane.Plane, plan *Plan, rank int) *CrashPlane {
	return &CrashPlane{inner: inner, plan: plan, rank: rank}
}

// Crashed reports whether the crash point has been reached.
func (c *CrashPlane) Crashed() bool { return c.crashed }

// Write forwards to the inner plane until the crash fires.
func (c *CrashPlane) Write(p *sim.Proc, off, length int64, data []byte, cmdUnit int64) error {
	keep, ok := c.land(p, length, cmdUnit)
	if !ok {
		return nil // dead: nothing reaches the device
	}
	if data != nil {
		data = data[:keep]
	}
	return c.inner.Write(p, off, keep, data, cmdUnit)
}

// Charge implements plane.Charger: a write's plan point and crash
// semantics over the inner plane's charge, when the inner plane charges.
func (c *CrashPlane) Charge(p *sim.Proc, off, length, cmdUnit int64) error {
	ch, ok := c.inner.(plane.Charger)
	if !ok {
		return nil
	}
	keep, ok := c.land(p, length, cmdUnit)
	if !ok {
		return nil
	}
	return ch.Charge(p, off, keep, cmdUnit)
}

// land evaluates a write's plan point and returns how many of its length
// bytes reach the inner plane; ok is false when none do because the
// process is, or from this write on becomes, dead.
func (c *CrashPlane) land(p *sim.Proc, length, cmdUnit int64) (keep int64, ok bool) {
	if c.crashed {
		return 0, false
	}
	inj, fired := c.plan.Eval(Point{Layer: LayerProcess, Op: "write", Rank: c.rank, Now: p.Now()})
	if !fired {
		return length, true
	}
	switch inj.Kind {
	case KindCrash:
		c.crashed = true
		return 0, false
	case KindTornWrite:
		unit := cmdUnit
		if unit < tornSectorBytes {
			unit = tornSectorBytes
		}
		keep = inj.Arg
		if keep < 0 {
			keep = length / 2
		}
		if keep < length {
			keep -= keep % unit
		} else {
			keep = length
		}
		c.crashed = true
		return keep, keep > 0
	}
	return length, true
}

// Read errors after the crash (see the type comment).
func (c *CrashPlane) Read(p *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error) {
	if c.crashed {
		return nil, fmt.Errorf("faults: read on crashed plane (recover with a fresh plane)")
	}
	return c.inner.Read(p, off, length, cmdUnit)
}

// Flush is swallowed after the crash.
func (c *CrashPlane) Flush(p *sim.Proc) error {
	if c.crashed {
		return nil
	}
	return c.inner.Flush(p)
}

// Size returns the partition size.
func (c *CrashPlane) Size() int64 { return c.inner.Size() }

// TornAppendFunc wraps a WAL write callback (wal.WriteFunc's signature)
// with torn-append injection: when the plan fires KindTornWrite on an
// "append" point, only the first Arg bytes of the flush land and the
// append returns an injected error; KindCrash drops the flush entirely.
// The error makes wal.Append roll its in-memory tail back, so the log
// never acknowledges a record the device does not hold; a wal.Sync that
// fails keeps its write extension pending for the next flush.
//
// Every flush evaluates the "append" point. A flush spanning more than
// one log page — a record straddling a page boundary, the one shape a
// page-atomic device can tear mid-record, or a record flushed together
// with the pending extension on the page before it — additionally
// evaluates "append-straddle" first, so a plan can target exactly the
// tears that the record CRC exists to catch (Arg: pageBytes cuts at the
// boundary).
// pageBytes is the log's device page size (wal.Options.PageSize);
// <= 0 uses the WAL default of 4096.
//
// now supplies the point's clock (the owning process's virtual time);
// nil uses zero, which suits plans without time windows.
func TornAppendFunc(plan *Plan, rank int, pageBytes int64, now func() int64, inner func(off int64, data []byte) error) func(off int64, data []byte) error {
	if pageBytes <= 0 {
		pageBytes = 4096
	}
	return func(off int64, data []byte) error {
		var t int64
		if now != nil {
			t = now()
		}
		inj, ok := Injection{}, false
		if int64(len(data)) > pageBytes {
			inj, ok = plan.Eval(Point{Layer: LayerWAL, Op: "append-straddle", Rank: rank, Now: time.Duration(t)})
		}
		if !ok {
			inj, ok = plan.Eval(Point{Layer: LayerWAL, Op: "append", Rank: rank, Now: time.Duration(t)})
		}
		if !ok {
			if inner == nil {
				return nil
			}
			return inner(off, data)
		}
		switch inj.Kind {
		case KindTornWrite:
			keep := inj.Arg
			if keep < 0 {
				keep = int64(len(data)) / 2
			}
			if keep > int64(len(data)) {
				keep = int64(len(data))
			}
			if keep > 0 && inner != nil {
				if err := inner(off, data[:keep]); err != nil {
					return err
				}
			}
			return &Error{Inj: inj}
		case KindCrash:
			return &Error{Inj: inj}
		default:
			// A kind this layer does not implement: pass through.
			if inner == nil {
				return nil
			}
			return inner(off, data)
		}
	}
}
