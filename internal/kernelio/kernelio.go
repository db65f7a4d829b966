// Package kernelio models the kernel software path of paper Figure 2:
// every IO traps into the OS, descends through the VFS and generic block
// layer, and completes via interrupt. For remote devices it adds the
// kernel nvme_rdma/nvmet_rdma cost. It wraps any other data plane,
// charging the extra kernel time, and is used both by the kernel
// filesystem baselines and by the "base design" arm of the paper's
// drilldown experiment (Figure 7d).
package kernelio

import (
	"time"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// Plane wraps an underlying data plane with kernel-path costs.
type Plane struct {
	inner  plane.Plane
	params model.Kernel
	acct   *vfs.Account
	// remote adds the kernel NVMe-oF module cost per operation.
	remote bool
}

// Wrap layers kernel costs over inner. Set remote for the nvme_rdma
// path to a disaggregated SSD.
func Wrap(inner plane.Plane, params model.Kernel, acct *vfs.Account, remote bool) *Plane {
	return &Plane{inner: inner, params: params, acct: acct, remote: remote}
}

// Size returns the partition size.
func (k *Plane) Size() int64 { return k.inner.Size() }

// perOp charges the trap/VFS/interrupt (and kernel-NVMf) time for one
// syscall-level operation.
func (k *Plane) perOp(p *sim.Proc) {
	d := k.params.SyscallTrap + k.params.VFSPerOp + k.params.Interrupt
	if k.remote {
		d += k.params.NVMfPerOp
	}
	k.acct.Charge(p, vfs.Kernel, d)
}

// copyCost charges the kernel/user boundary copy for length bytes.
func (k *Plane) copyCost(p *sim.Proc, length int64) {
	if length <= 0 || k.params.MemcpyBW <= 0 {
		return
	}
	k.acct.Charge(p, vfs.Kernel, time.Duration(float64(length)/k.params.MemcpyBW*float64(time.Second)))
}

// Write implements plane.Plane.
func (k *Plane) Write(p *sim.Proc, off, length int64, data []byte, cmdUnit int64) error {
	k.perOp(p)
	k.copyCost(p, length)
	return k.inner.Write(p, off, length, data, cmdUnit)
}

// Charge implements plane.Charger: Write's kernel costs over the inner
// plane's charge, when the inner plane charges.
func (k *Plane) Charge(p *sim.Proc, off, length, cmdUnit int64) error {
	c, ok := k.inner.(plane.Charger)
	if !ok {
		return nil
	}
	k.perOp(p)
	k.copyCost(p, length)
	return c.Charge(p, off, length, cmdUnit)
}

// Read implements plane.Plane.
func (k *Plane) Read(p *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error) {
	k.perOp(p)
	k.copyCost(p, length)
	return k.inner.Read(p, off, length, cmdUnit)
}

// Flush implements plane.Plane.
func (k *Plane) Flush(p *sim.Proc) error {
	k.perOp(p)
	return k.inner.Flush(p)
}
