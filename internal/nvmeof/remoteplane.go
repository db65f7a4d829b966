// Package nvmeof implements NVMe-over-Fabrics, in two forms:
//
//   - A simulated RDMA transport (this file): the userspace SPDK
//     initiator-to-target path of paper Figure 4, with calibrated
//     latency on the deterministic simulation substrate. All experiment
//     timing uses this path.
//   - A real TCP transport (protocol.go, target.go, host.go): a target
//     daemon and host client speaking a capsule protocol over net.Conn,
//     exercising a genuine remote data plane end-to-end. RDMA hardware
//     is unavailable in this reproduction, so TCP substitutes for the
//     functional (non-timing) half per the repository's substitution
//     rule; see DESIGN.md.
package nvmeof

import (
	"time"

	"github.com/nvme-cr/nvmecr/internal/fabric"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/topology"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// TargetPerOp is the SPDK NVMe-oF target's userspace per-command service
// cost (multi-tenant polling target; Guz et al. measured ~10% end-to-end
// overhead for small IO, which this constant plus wire latency
// reproduces).
const TargetPerOp = 3 * time.Microsecond

// TargetCPU models the SPDK NVMe-oF target daemon's polling cores on
// one storage node: a shared, capacity-limited resource through which
// every command to that node passes (TargetPerOp each). At the paper's
// scales it is far from saturation — SPDK's target is the reason NVMf
// overhead stays under 3.5% — but modeling it keeps queueing honest
// when many SSDs share a node.
type TargetCPU struct {
	res    *sim.Resource
	perCmd time.Duration
}

// NewTargetCPU builds a target daemon model with the given core count.
func NewTargetCPU(env *sim.Env, cores int) *TargetCPU {
	if cores < 1 {
		cores = 1
	}
	return &TargetCPU{res: env.NewResource(cores), perCmd: TargetPerOp}
}

// process charges the target-side work for a batch of commands.
func (t *TargetCPU) process(p *sim.Proc, cmds int64) {
	if cmds <= 0 {
		return
	}
	t.res.Acquire(p)
	p.Sleep(time.Duration(cmds) * t.perCmd)
	t.res.Release()
}

// RemotePlane is a userspace NVMe-oF data plane: an SPDK initiator on
// the compute node driving a partition served by an SPDK target on a
// storage node. It implements plane.Plane.
//
// Data transfer is pipelined with device service (the target DMAs
// directly between the wire and the device), so the modeled cost per
// operation is the wire latency plus device service, plus a correction
// when the NIC — not the SSD — would be the bottleneck.
type RemotePlane struct {
	inner plane.Plane // the target-side SPDK plane onto the SSD
	fab   *fabric.Fabric
	src   *topology.Node // compute node (initiator)
	dst   *topology.Node // storage node (target)
	acct  *vfs.Account
	// kernelPath switches to the in-kernel nvme_rdma initiator
	// (paper Figure 2): every operation additionally traps and pays
	// the kernel NVMf module cost. Used by baselines.
	kernelPath bool
	kernel     model.Kernel

	tcpu *TargetCPU
}

// WithTargetCPU routes this plane's commands through a shared
// storage-node target daemon model.
func (r *RemotePlane) WithTargetCPU(t *TargetCPU) *RemotePlane {
	r.tcpu = t
	return r
}

// NewRemotePlane builds the userspace (SPDK) NVMe-oF path.
func NewRemotePlane(inner plane.Plane, fab *fabric.Fabric, src, dst *topology.Node, acct *vfs.Account) *RemotePlane {
	return &RemotePlane{inner: inner, fab: fab, src: src, dst: dst, acct: acct}
}

// NewKernelRemotePlane builds the kernel nvme_rdma path of Figure 2.
func NewKernelRemotePlane(inner plane.Plane, fab *fabric.Fabric, src, dst *topology.Node, acct *vfs.Account, k model.Kernel) *RemotePlane {
	return &RemotePlane{inner: inner, fab: fab, src: src, dst: dst, acct: acct, kernelPath: true, kernel: k}
}

// Size returns the partition size.
func (r *RemotePlane) Size() int64 { return r.inner.Size() }

// wireCost charges the per-operation fabric latency and, when the NIC
// would throttle below device speed, the residual wire time.
func (r *RemotePlane) wireCost(p *sim.Proc, length int64, deviceTime time.Duration) {
	net := r.fab.Params()
	lat := net.RDMABase + time.Duration(r.fab.Cluster().Hops(r.src, r.dst))*net.PerHop + TargetPerOp
	if r.kernelPath {
		k := r.kernel
		r.acct.Charge(p, vfs.Kernel, k.SyscallTrap+k.NVMfPerOp+k.Interrupt)
	}
	wire := model.DurFor(length, net.NICBW)
	if wire > deviceTime {
		lat += wire - deviceTime
	}
	r.acct.Charge(p, vfs.IOWait, lat)
}

// Write implements plane.Plane.
func (r *RemotePlane) Write(p *sim.Proc, off, length int64, data []byte, cmdUnit int64) error {
	return r.write(p, length, cmdUnit, func() error { return r.inner.Write(p, off, length, data, cmdUnit) })
}

// Charge implements plane.Charger: what Write costs, over the inner
// plane's charge, when the inner plane charges.
func (r *RemotePlane) Charge(p *sim.Proc, off, length, cmdUnit int64) error {
	c, ok := r.inner.(plane.Charger)
	if !ok {
		return nil
	}
	return r.write(p, length, cmdUnit, func() error { return c.Charge(p, off, length, cmdUnit) })
}

// write is Write and Charge around the inner plane's half, device.
func (r *RemotePlane) write(p *sim.Proc, length, cmdUnit int64, device func() error) error {
	if r.tcpu != nil {
		r.tcpu.process(p, model.CmdsFor(length, cmdUnit))
	}
	t0 := p.Now()
	if err := device(); err != nil {
		return err
	}
	r.wireCost(p, length, p.Now()-t0)
	return nil
}

// Read implements plane.Plane.
func (r *RemotePlane) Read(p *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error) {
	if r.tcpu != nil {
		r.tcpu.process(p, model.CmdsFor(length, cmdUnit))
	}
	t0 := p.Now()
	out, err := r.inner.Read(p, off, length, cmdUnit)
	if err != nil {
		return nil, err
	}
	r.wireCost(p, length, p.Now()-t0)
	return out, nil
}

// Flush implements plane.Plane.
func (r *RemotePlane) Flush(p *sim.Proc) error {
	t0 := p.Now()
	if err := r.inner.Flush(p); err != nil {
		return err
	}
	r.wireCost(p, 0, p.Now()-t0)
	return nil
}
