// Package spdk models Intel SPDK's userspace NVMe driver: unprivileged
// direct device access through memory-mapped queues, polling instead of
// interrupts, and a run-to-completion request pipeline. Per-command cost
// is the (small) host-side submission work; there are no kernel traps
// and no interrupt completions on this path.
package spdk

import (
	"fmt"
	"time"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/nvme"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// Plane is a userspace data plane onto a contiguous segment of a local
// NVMe namespace. It implements plane.Plane.
type Plane struct {
	ns    *nvme.Namespace
	queue *nvme.Queue
	base  int64
	size  int64
	host  model.Host
	acct  *vfs.Account
}

// NewPlane opens a partition [base, base+size) of ns through a dedicated
// hardware queue. acct receives the time classification (may be shared
// with the owning client).
func NewPlane(ns *nvme.Namespace, base, size int64, host model.Host, acct *vfs.Account) (*Plane, error) {
	if base < 0 || size <= 0 || base+size > ns.Size() {
		return nil, fmt.Errorf("spdk: partition [%d,+%d) outside namespace of %d bytes", base, size, ns.Size())
	}
	return &Plane{
		ns:    ns,
		queue: ns.Device().AllocQueue(),
		base:  base,
		size:  size,
		host:  host,
		acct:  acct,
	}, nil
}

// Size returns the partition size.
func (pl *Plane) Size() int64 { return pl.size }

func (pl *Plane) check(off, length int64) error {
	if off < 0 || length < 0 || off+length > pl.size {
		return fmt.Errorf("spdk: access [%d,+%d) outside partition of %d bytes", off, length, pl.size)
	}
	return nil
}

// submitCost charges the host-side per-command submission work.
func (pl *Plane) submitCost(p *sim.Proc, length, cmdUnit int64) {
	cmds := model.CmdsFor(length, cmdUnit)
	if cmds == 0 {
		cmds = 1
	}
	pl.acct.Charge(p, vfs.User, time.Duration(cmds)*pl.host.PerCmdSubmit)
}

// Write implements plane.Plane.
func (pl *Plane) Write(p *sim.Proc, off, length int64, data []byte, cmdUnit int64) error {
	if err := pl.check(off, length); err != nil {
		return err
	}
	pl.submitCost(p, length, cmdUnit)
	t0 := p.Now()
	_, err := pl.ns.Submit(p, pl.queue, nvme.Request{
		Op: nvme.OpWrite, Offset: pl.base + off, Length: length, Data: data, CmdUnit: cmdUnit,
	})
	pl.acct.Attribute(vfs.IOWait, p.Now()-t0)
	return err
}

// Charge implements plane.Charger: a synthetic write, which the device
// times and never stores.
func (pl *Plane) Charge(p *sim.Proc, off, length, cmdUnit int64) error {
	return pl.Write(p, off, length, nil, cmdUnit)
}

// Read implements plane.Plane.
func (pl *Plane) Read(p *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error) {
	if err := pl.check(off, length); err != nil {
		return nil, err
	}
	pl.submitCost(p, length, cmdUnit)
	t0 := p.Now()
	out, err := pl.ns.Submit(p, pl.queue, nvme.Request{
		Op: nvme.OpRead, Offset: pl.base + off, Length: length, CmdUnit: cmdUnit,
	})
	pl.acct.Attribute(vfs.IOWait, p.Now()-t0)
	return out, err
}

// Flush implements plane.Plane.
func (pl *Plane) Flush(p *sim.Proc) error {
	pl.submitCost(p, 0, 0)
	t0 := p.Now()
	_, err := pl.ns.Submit(p, pl.queue, nvme.Request{Op: nvme.OpFlush})
	pl.acct.Attribute(vfs.IOWait, p.Now()-t0)
	return err
}
