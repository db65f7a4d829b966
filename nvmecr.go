// Package nvmecr is the public API of the NVMe-CR reproduction: a
// scalable ephemeral storage runtime for checkpoint/restart with
// NVMe-over-Fabrics (Gugnani, Li, Lu — IPDPS 2021), together with the
// simulated disaggregated cluster it runs on and every baseline system
// the paper compares against.
//
// The central abstraction is the microfs: a per-process, private-
// namespace, userspace filesystem over a directly-accessed SSD
// partition. A Job wires a whole cluster together — topology, fabric,
// MPI world, storage balancer, NVMe devices — and hands each rank a
// POSIX-like client:
//
//	job, _ := nvmecr.NewJob(nvmecr.JobConfig{Ranks: 64})
//	elapsed, _ := job.Run(func(ctx *nvmecr.RankCtx) error {
//		f, _ := ctx.FS.Open(ctx.Proc, "/ckpt.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
//		f.WriteN(ctx.Proc, 64<<20)
//		f.Fsync(ctx.Proc)
//		return f.Close(ctx.Proc)
//	})
//
// Everything runs on a deterministic discrete-event simulation of the
// paper's testbed (see DESIGN.md for the substitution rationale); a real
// TCP NVMe-oF target/host pair (package internal/nvmeof) provides a
// genuine wire-level remote data plane for functional use.
package nvmecr

import (
	"fmt"
	"io"
	"time"

	"github.com/nvme-cr/nvmecr/internal/balancer"
	"github.com/nvme-cr/nvmecr/internal/core"
	"github.com/nvme-cr/nvmecr/internal/fabric"
	"github.com/nvme-cr/nvmecr/internal/harness"
	"github.com/nvme-cr/nvmecr/internal/microfs"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/mpi"
	"github.com/nvme-cr/nvmecr/internal/nvme"
	"github.com/nvme-cr/nvmecr/internal/nvmeof"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
	"github.com/nvme-cr/nvmecr/internal/topology"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// Re-exported core types, so downstream code imports only this package.
type (
	// Options configures the runtime (plane mode, features, sizes).
	Options = core.Options
	// Features toggles the paper's individual optimizations.
	Features = microfs.Features
	// Client is the per-rank filesystem interface.
	Client = vfs.Client
	// File is an open file handle.
	File = vfs.File
	// OpenFlags is the POSIX-style open(2) flag bitmask.
	OpenFlags = vfs.OpenFlags
	// FileInfo describes one file or directory.
	FileInfo = vfs.FileInfo
	// PlaneMode selects the data-plane path.
	PlaneMode = core.PlaneMode
	// ExperimentOptions configures harness runs.
	ExperimentOptions = harness.Options
	// ExperimentTable is one reproduced figure/table.
	ExperimentTable = harness.Table
	// Proc is a simulated process handle.
	Proc = sim.Proc
)

// Telemetry (metrics registry, snapshots, and JSONL tracing).
type (
	// Registry is a concurrency-safe metrics registry: counters,
	// gauges, and latency histograms with a Prometheus text
	// exposition. Pass one to NewNamespace for per-mount series, or
	// read the registry every Target/Queue creates for itself.
	Registry = telemetry.Registry
	// MetricLabels distinguishes series of the same metric name.
	MetricLabels = telemetry.Labels
	// Tracer writes a JSONL event stream (one telemetry.Event per
	// line). Attach via Options.Tracer or ExperimentOptions.Trace.
	Tracer = telemetry.Tracer
	// TraceEvent is one point or span in a trace stream.
	TraceEvent = telemetry.Event
	// LatencySnapshot summarizes a latency histogram (count, mean,
	// p50/p95/p99).
	LatencySnapshot = telemetry.LatencySnapshot
	// QueueSnapshot is one initiator queue pair's counters.
	QueueSnapshot = telemetry.HostQPSnapshot
	// TargetSnapshot is a target's aggregate and per-QP counters.
	TargetSnapshot = telemetry.TargetSnapshot
)

// Multi-tenant namespaces (mount table over pluggable backends; see
// docs/vfs.md).
type (
	// Backend is the six-method contract a storage engine implements to
	// be mountable (microfs instances, baselines, MemBackend all do).
	Backend = vfs.Backend
	// Namespace is a mount table dispatching paths to backends by
	// longest-prefix match, with per-mount quotas and telemetry.
	Namespace = vfs.Namespace
	// MountConfig describes one mount: path, backend, quotas,
	// telemetry label.
	MountConfig = vfs.MountConfig
	// MountPoint is one live mount (usage, quota, backend accessors).
	MountPoint = vfs.Mount
	// MemBackend is a heap-backed Backend for tests, tooling, and
	// tenants that need no durability.
	MemBackend = vfs.MemBackend
)

// Open flags (Linux ABI encoding; combine with |).
const (
	O_RDONLY = vfs.O_RDONLY
	O_WRONLY = vfs.O_WRONLY
	O_RDWR   = vfs.O_RDWR
	O_CREATE = vfs.O_CREATE
	O_EXCL   = vfs.O_EXCL
	O_TRUNC  = vfs.O_TRUNC
	O_APPEND = vfs.O_APPEND
)

// NewNamespace creates an empty mount table. reg may be nil to skip
// per-mount telemetry.
func NewNamespace(reg *Registry) *Namespace { return vfs.NewNamespace(reg) }

// NewMemBackend creates an empty in-memory backend.
func NewMemBackend() *MemBackend { return vfs.NewMemBackend() }

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry { return telemetry.New() }

// NewTracer creates a tracer writing JSONL events to w.
func NewTracer(w io.Writer) *Tracer { return telemetry.NewTracer(w) }

// Plane modes.
const (
	// RemoteSPDK is the production NVMe-oF userspace path.
	RemoteSPDK = core.RemoteSPDK
	// LocalSPDK accesses a node-local SSD directly.
	LocalSPDK = core.LocalSPDK
	// RemoteKernel is the in-kernel nvme_rdma baseline path.
	RemoteKernel = core.RemoteKernel
	// LocalKernel traps into the kernel for a local SSD.
	LocalKernel = core.LocalKernel
)

// AllFeatures returns the production feature set (metadata provenance +
// hugeblocks).
func AllFeatures() Features { return microfs.AllFeatures() }

// DefaultOptions returns the production runtime configuration: remote
// NVMe-oF userspace plane, all features, background provenance thread.
// Modify the returned value to diverge from one blessed default instead
// of constructing Options field by field.
func DefaultOptions() Options { return core.DefaultOptions() }

// JobConfig configures NewJob.
type JobConfig struct {
	// Ranks is the number of MPI processes (required).
	Ranks int
	// Options configures the runtime; the zero value and
	// DefaultOptions() both mean production remote NVMe-oF with all
	// features. Start from DefaultOptions() to override single fields.
	Options Options
	// Capture stores real payload bytes on the simulated devices so
	// files can be read back verbatim (slower; for functional use).
	Capture bool
}

// Job is a fully wired simulated job: cluster, fabric, world, devices,
// and the NVMe-CR runtime.
type Job struct {
	Env     *sim.Env
	Cluster *topology.Cluster
	Fabric  *fabric.Fabric
	World   *mpi.World
	Runtime *core.Runtime
	Devices []balancer.StorageDevice
}

// RankCtx is what each rank's body receives.
type RankCtx struct {
	Rank *mpi.Rank
	Proc *sim.Proc
	// FS is the rank's NVMe-CR client (its private namespace).
	FS *core.Client
}

// NewJob builds a job over a fresh simulated cluster: the paper testbed
// (topology.PaperTestbed) with the paper-calibrated model constants
// (model.Default).
func NewJob(cfg JobConfig) (*Job, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("nvmecr: JobConfig.Ranks must be positive")
	}
	params := model.Default()
	cluster, err := topology.New(topology.PaperTestbed())
	if err != nil {
		return nil, err
	}
	env := sim.NewEnv()
	fab := fabric.New(env, cluster, params.Net)
	world, err := mpi.NewWorld(env, cluster, cfg.Ranks)
	if err != nil {
		return nil, err
	}
	var devices []balancer.StorageDevice
	for _, sn := range cluster.StorageNodes() {
		for i := 0; i < sn.SSDs; i++ {
			devices = append(devices, balancer.StorageDevice{
				Node:   sn,
				Device: nvme.New(env, fmt.Sprintf("%s-ssd%d", sn.Name, i), params.SSD, cfg.Capture),
			})
		}
	}
	opts := cfg.Options
	if !opts.IsDefaulted() && opts == (core.Options{}) {
		opts = core.DefaultOptions()
	}
	rt, err := core.NewRuntime(env, world, fab, devices, opts)
	if err != nil {
		return nil, err
	}
	return &Job{
		Env:     env,
		Cluster: cluster,
		Fabric:  fab,
		World:   world,
		Runtime: rt,
		Devices: devices,
	}, nil
}

// Run launches every rank: the runtime initializes (balancer,
// MPI_COMM_CR, partitioning), body executes, and the runtime finalizes.
// It returns the virtual makespan. A Job can be Run once.
func (j *Job) Run(body func(ctx *RankCtx) error) (time.Duration, error) {
	errs := make([]error, j.World.Size())
	j.World.Launch(func(r *mpi.Rank, p *sim.Proc) {
		me := r.ID()
		client, err := j.Runtime.InitRank(p, r)
		if err != nil {
			errs[me] = err
			return
		}
		if err := body(&RankCtx{Rank: r, Proc: p, FS: client}); err != nil {
			errs[me] = err
			return
		}
		errs[me] = j.Runtime.Finalize(p, r)
	})
	end, runErr := j.Env.Run()
	for i, e := range errs {
		if e != nil {
			return end, fmt.Errorf("nvmecr: rank %d: %w", i, e)
		}
	}
	return end, runErr
}

// RunExperiment regenerates one of the paper's tables/figures by id
// (fig1, fig7a..fig7d, fig8a, fig8b, fig9strong, fig9weak, tab1, tab2).
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentTable, error) {
	return harness.Run(id, opts)
}

// Experiments lists the available experiment ids.
func Experiments() []string { return harness.IDs() }

// TCP NVMe-oF (functional remote data plane; see internal/nvmeof).

// Queue is the canonical NVMe-oF initiator: namespace-aware reads,
// writes, and flushes plus a telemetry snapshot, backed by a pool of
// one queue pair (DialTarget) or of many (DialTargetPool). Write code
// against Queue; reach for the concrete HostPool type only when you
// need its extra knobs.
type Queue = nvmeof.Queue

// Target is a TCP NVMe-oF target daemon.
type Target = nvmeof.Target

// NewTarget creates an empty TCP NVMe-oF target.
func NewTarget() *Target { return nvmeof.NewTarget() }

// NewMemNamespace creates a target-side namespace of the given size.
func NewMemNamespace(size int64) *nvmeof.MemNamespace { return nvmeof.NewMemNamespace(size) }

// DialTarget connects a single queue pair to a TCP target: a pool of
// one, so like any pool it retries idempotent commands and re-dials a
// failed connection in the background.
func DialTarget(addr string, nsid uint32) (Queue, error) {
	return DialTargetPool(addr, nsid, PoolConfig{QueuePairs: 1})
}

// HostPool is a multi-queue-pair TCP NVMe-oF initiator: commands shard
// across independent connections, idempotent commands retry, and failed
// queue pairs reconnect in the background (advanced; most code should
// hold a Queue).
type HostPool = nvmeof.HostPool

// PoolConfig tunes DialTargetPool (queue pairs, deadlines, retry and
// reconnect backoff, shared telemetry registry).
type PoolConfig = nvmeof.PoolConfig

// DialTargetPool connects a pool of queue pairs to a TCP target.
func DialTargetPool(addr string, nsid uint32, cfg PoolConfig) (Queue, error) {
	return nvmeof.DialPool(addr, nsid, cfg)
}
