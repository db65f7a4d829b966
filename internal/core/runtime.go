// Package core implements the NVMe-CR runtime: the per-job orchestration
// that the paper performs inside intercepted MPI_Init/MPI_Finalize.
//
// At initialization the runtime invokes the storage balancer to allocate
// SSDs from partner failure domains, splits MPI_COMM_WORLD into one
// MPI_COMM_CR communicator per shared SSD, carves the SSD namespace into
// contiguous per-rank partitions, and starts one microfs instance per
// rank over its partition (reached through SPDK locally or SPDK+NVMe-oF
// remotely). After that, no operation coordinates across ranks — the
// runtime mirrors the application's lifetime and terminates with it.
package core

import (
	"fmt"
	"time"

	"github.com/nvme-cr/nvmecr/internal/balancer"
	"github.com/nvme-cr/nvmecr/internal/fabric"
	"github.com/nvme-cr/nvmecr/internal/kernelio"
	"github.com/nvme-cr/nvmecr/internal/microfs"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/mpi"
	"github.com/nvme-cr/nvmecr/internal/nvme"
	"github.com/nvme-cr/nvmecr/internal/nvmeof"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/qos"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/spdk"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
	"github.com/nvme-cr/nvmecr/internal/topology"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// PlaneMode selects how a rank's data plane reaches its SSD partition.
type PlaneMode int

const (
	// RemoteSPDK is the production path: userspace SPDK initiator over
	// NVMe-oF RDMA to a disaggregated SSD (paper Figure 4).
	RemoteSPDK PlaneMode = iota
	// LocalSPDK is direct userspace access to a node-local SSD (the
	// Figure 7c configuration).
	LocalSPDK
	// RemoteKernel is the in-kernel nvme_rdma path (paper Figure 2).
	RemoteKernel
	// LocalKernel traps into the kernel for a local SSD (the drilldown
	// base design).
	LocalKernel
)

func (m PlaneMode) String() string {
	switch m {
	case RemoteSPDK:
		return "remote-spdk"
	case LocalSPDK:
		return "local-spdk"
	case RemoteKernel:
		return "remote-kernel"
	case LocalKernel:
		return "local-kernel"
	default:
		return fmt.Sprintf("PlaneMode(%d)", int(m))
	}
}

// Options configures a job's runtime.
type Options struct {
	// SSDs is the number of devices to allocate (0 = recommended from
	// the job size, keeping the process:SSD ratio in 56-112).
	SSDs int
	// BytesPerRank sizes each rank's partition (default 2 GB).
	BytesPerRank int64
	// Mode selects the data-plane path.
	Mode PlaneMode
	// Features toggles the paper's optimizations (drilldown).
	Features microfs.Features
	// GlobalNamespace, when true, routes metadata through an emulated
	// shared-namespace lock (drilldown "no private namespace" arm).
	GlobalNamespace bool
	// NoCoalesce disables log record coalescing (ablation).
	NoCoalesce bool
	// LogBytes / SnapBytes size the per-rank metadata regions
	// (defaults 4 MB / 64 MB).
	LogBytes  int64
	SnapBytes int64
	// Background enables the per-rank background snapshot thread.
	Background bool
	// Host overrides userspace cost constants (defaults to
	// model.Default().Host).
	Host model.Host
	// Telemetry, when non-nil, receives the job's live metrics:
	// per-device queue depth and throughput, and the balancer's
	// ranks-per-SSD placement.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, receives virtual-time spans for every
	// rank's writes, fsyncs, snapshots, and restarts.
	Tracer *telemetry.Tracer

	// defaulted marks an Options built by DefaultOptions, so NewJob
	// can tell the blessed defaults from a deliberate zero value.
	defaulted bool
}

// DefaultOptions returns the production configuration: the remote SPDK
// data plane with every paper optimization and the background snapshot
// thread enabled. Callers tweak fields from here instead of guessing
// which zero values are meaningful.
func DefaultOptions() Options {
	return Options{
		Mode:       RemoteSPDK,
		Features:   microfs.AllFeatures(),
		Background: true,
		defaulted:  true,
	}
}

// IsDefaulted reports whether o came from DefaultOptions (possibly
// modified since).
func (o Options) IsDefaulted() bool { return o.defaulted }

func (o *Options) setDefaults() {
	if o.BytesPerRank == 0 {
		o.BytesPerRank = 2 * model.GB
	}
	if o.LogBytes == 0 {
		o.LogBytes = 4 * model.MB
	}
	if o.SnapBytes == 0 {
		o.SnapBytes = 64 * model.MB
	}
	zero := model.Host{}
	if o.Host == zero {
		o.Host = model.Default().Host
	}
}

// Runtime is one job's NVMe-CR runtime.
type Runtime struct {
	env   *sim.Env
	world *mpi.World
	fab   *fabric.Fabric
	opts  Options

	alloc      *balancer.Allocation
	namespaces []*nvme.Namespace // one per allocated SSD
	globalNS   *microfs.GlobalNamespace

	ranksPerSSD []int
	clients     []*Client // indexed by world rank

	// targetCPUs models the SPDK NVMe-oF target daemon per storage
	// node (4 polling cores each).
	targetCPUs map[int]*nvmeof.TargetCPU
}

// Client is one rank's view of the runtime: its microfs instance plus
// identification. It satisfies vfs.Client through the embedded instance.
type Client struct {
	*microfs.Instance
	Rank      int
	CommCR    *mpi.Comm
	Partition balancer.Partition
	SSD       balancer.StorageDevice
}

// NewRuntime allocates storage for the job — the scheduler-integration
// half of initialization (§III-F: SSD selection and one NVMe namespace
// per SSD, the job's isolation boundary, happen before ranks start).
func NewRuntime(env *sim.Env, world *mpi.World, fab *fabric.Fabric, devices []balancer.StorageDevice, opts Options) (*Runtime, error) {
	opts.setDefaults()
	b, err := balancer.New(world.Cluster(), devices)
	if err != nil {
		return nil, err
	}
	rankNodes := make([]*topology.Node, world.Size())
	for r := range rankNodes {
		rankNodes[r] = world.Node(r)
	}
	alloc, err := b.AllocateSSDs(rankNodes, opts.SSDs)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		env:         env,
		world:       world,
		fab:         fab,
		opts:        opts,
		alloc:       alloc,
		ranksPerSSD: alloc.RanksPerSSD(),
		clients:     make([]*Client, world.Size()),
		targetCPUs:  make(map[int]*nvmeof.TargetCPU),
	}
	if opts.GlobalNamespace {
		rt.globalNS = microfs.NewGlobalNamespace(env, 100*time.Microsecond)
	}
	alloc.Instrument(opts.Telemetry)
	rt.namespaces = make([]*nvme.Namespace, len(alloc.SSDs))
	for i, sd := range alloc.SSDs {
		size := int64(rt.ranksPerSSD[i]) * opts.BytesPerRank
		ns, err := sd.Device.CreateNamespace(size)
		if err != nil {
			return nil, fmt.Errorf("core: namespace on %s: %w", sd.Node.Name, err)
		}
		rt.namespaces[i] = ns
	}
	return rt, nil
}

// Allocation exposes the job's SSD allocation (diagnostics, Figure 7b).
func (rt *Runtime) Allocation() *balancer.Allocation { return rt.alloc }

// Options returns the runtime's configuration.
func (rt *Runtime) Options() Options { return rt.opts }

// InitRank performs the per-rank half of initialization, called from
// every rank (the intercepted MPI_Init): it splits MPI_COMM_CR, derives
// the rank's partition, builds the data plane, and starts the microfs
// instance. Coordination happens here and only here.
func (rt *Runtime) InitRank(p *sim.Proc, r *mpi.Rank) (*Client, error) {
	rank := r.ID()
	initStart := p.Now()
	ssdIdx := rt.alloc.RankSSD[rank]
	commCR, err := rt.world.Comm().Split(p, r, ssdIdx, rank)
	if err != nil {
		return nil, err
	}
	ns := rt.namespaces[ssdIdx]
	part, err := balancer.PartitionNamespace(ns, commCR.Size(), commCR.Rank(r), 32*model.KB)
	if err != nil {
		return nil, err
	}
	acct := &vfs.Account{}
	pl, err := rt.buildPlane(part, r, acct)
	if err != nil {
		return nil, err
	}
	inst, err := microfs.New(rt.env, microfs.Config{
		Plane:      pl,
		Account:    acct,
		Host:       rt.opts.Host,
		Features:   rt.opts.Features,
		LogBytes:   rt.opts.LogBytes,
		SnapBytes:  rt.opts.SnapBytes,
		NoCoalesce: rt.opts.NoCoalesce,
		GlobalNS:   rt.globalNS,
		Tracer:     rt.opts.Tracer,
		Rank:       rank,
	})
	if err != nil {
		return nil, err
	}
	if rt.opts.Background {
		inst.StartBackground()
	}
	c := &Client{
		Instance:  inst,
		Rank:      rank,
		CommCR:    commCR,
		Partition: part,
		SSD:       rt.alloc.SSDs[ssdIdx],
	}
	rt.clients[rank] = c
	// Initialization ends with a barrier, after which all control and
	// data plane operations are coordination-free.
	if err := rt.world.Comm().Barrier(p, r); err != nil {
		return nil, err
	}
	rt.opts.Tracer.SpanVirt("core.init-rank", rank, initStart, p.Now(), nil)
	return c, nil
}

// buildPlane constructs the data-plane stack for one partition according
// to the configured mode.
func (rt *Runtime) buildPlane(part balancer.Partition, r *mpi.Rank, acct *vfs.Account) (plane.Plane, error) {
	local, err := spdk.NewPlane(part.Namespace, part.Base, part.Size, rt.opts.Host, acct)
	if err != nil {
		return nil, err
	}
	kernelParams := model.Default().Kernel
	switch rt.opts.Mode {
	case LocalSPDK:
		return local, nil
	case LocalKernel:
		return kernelio.Wrap(local, kernelParams, acct, false), nil
	case RemoteSPDK, RemoteKernel:
		if rt.fab == nil {
			return nil, fmt.Errorf("core: remote plane mode %v requires a fabric", rt.opts.Mode)
		}
		src := r.Node()
		dst := rt.alloc.SSDs[rt.alloc.RankSSD[r.ID()]].Node
		if rt.opts.Mode == RemoteKernel {
			return nvmeof.NewKernelRemotePlane(local, rt.fab, src, dst, acct, kernelParams), nil
		}
		tcpu := rt.targetCPUs[dst.ID]
		if tcpu == nil {
			tcpu = nvmeof.NewTargetCPU(rt.env, 4)
			rt.targetCPUs[dst.ID] = tcpu
		}
		return nvmeof.NewRemotePlane(local, rt.fab, src, dst, acct).WithTargetCPU(tcpu), nil
	default:
		return nil, fmt.Errorf("core: unknown plane mode %v", rt.opts.Mode)
	}
}

// Finalize is the intercepted MPI_Finalize: it stops the background
// thread and synchronizes the job.
func (rt *Runtime) Finalize(p *sim.Proc, r *mpi.Rank) error {
	c := rt.clients[r.ID()]
	if c != nil {
		c.StopBackground(p)
	}
	return rt.world.Comm().Barrier(p, r)
}

// Client returns the runtime client for a world rank (nil before
// InitRank).
func (rt *Runtime) Client(rank int) *Client { return rt.clients[rank] }

// Namespace assembles a multi-tenant vfs.Namespace over the initialized
// ranks: rank r's private microfs is mounted at /rank%04d with its rank
// id as the telemetry label. Call after every rank has run InitRank;
// reg may be nil to skip per-mount telemetry. The mounts share the
// ranks' backends, so traffic through the namespace is charged to the
// owning rank's account exactly as direct client calls are.
func (rt *Runtime) Namespace(reg *telemetry.Registry) (*vfs.Namespace, error) {
	ns := vfs.NewNamespace(reg)
	for rank, c := range rt.clients {
		if c == nil {
			return nil, fmt.Errorf("core: rank %d not initialized; call Namespace after InitRank", rank)
		}
		if _, err := ns.Mount(vfs.MountConfig{
			Path:    fmt.Sprintf("/rank%04d", rank),
			Backend: c,
			Name:    fmt.Sprintf("rank%04d", rank),
		}); err != nil {
			return nil, err
		}
	}
	return ns, nil
}

// NamespaceQoS is Namespace with per-rank admission control: every
// rank's mount gets its own qos tenant (named like the mount,
// "rank%04d") registered on ctrl with the given limits, so one rank
// saturating its budget is throttled with qos.ErrAdmission instead of
// inflating its neighbors' latency. Quotas on the mounts still
// classify first (see vfs.MountConfig.Admission).
func (rt *Runtime) NamespaceQoS(reg *telemetry.Registry, ctrl *qos.Controller, lim qos.TenantLimits) (*vfs.Namespace, error) {
	if ctrl == nil {
		return nil, fmt.Errorf("core: NamespaceQoS requires a controller")
	}
	ns := vfs.NewNamespace(reg)
	for rank, c := range rt.clients {
		if c == nil {
			return nil, fmt.Errorf("core: rank %d not initialized; call NamespaceQoS after InitRank", rank)
		}
		name := fmt.Sprintf("rank%04d", rank)
		if _, err := ns.Mount(vfs.MountConfig{
			Path:      "/" + name,
			Backend:   c,
			Name:      name,
			Admission: ctrl.Tenant(name, lim),
		}); err != nil {
			return nil, err
		}
	}
	return ns, nil
}

// JobStats aggregates per-instance accounting for the paper's Table I.
type JobStats struct {
	// MetaStorageBytes is SSD space holding logs + metadata snapshots,
	// summed across ranks.
	MetaStorageBytes int64
	// InodeDRAMBytes and BTreeDRAMBytes are summed DRAM footprints.
	InodeDRAMBytes int64
	BTreeDRAMBytes int64
	// BytesWritten/BytesRead are application payload totals.
	BytesWritten int64
	BytesRead    int64
	Creates      int64
	Snapshots    int64
}

// Stats aggregates accounting across all initialized ranks.
func (rt *Runtime) Stats() JobStats {
	var s JobStats
	for _, c := range rt.clients {
		if c == nil {
			continue
		}
		s.MetaStorageBytes += c.MetaStorageBytes()
		ib, tb := c.MetaDRAMBytes()
		s.InodeDRAMBytes += ib
		s.BTreeDRAMBytes += tb
		st := c.Instance.Stats()
		s.BytesWritten += st.BytesWritten
		s.BytesRead += st.BytesRead
		s.Creates += st.Creates
		s.Snapshots += st.Snapshots
	}
	return s
}

// HardwarePeakWrite returns the aggregate write bandwidth of the job's
// allocated SSDs in bytes/sec — the denominator of the paper's
// efficiency metric.
func (rt *Runtime) HardwarePeakWrite() float64 {
	var bw float64
	for _, sd := range rt.alloc.SSDs {
		bw += sd.Device.Params().WriteBW
	}
	return bw
}

// HardwarePeakRead is the read-side analogue.
func (rt *Runtime) HardwarePeakRead() float64 {
	var bw float64
	for _, sd := range rt.alloc.SSDs {
		bw += sd.Device.Params().ReadBW
	}
	return bw
}
