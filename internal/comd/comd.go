// Package comd is a proxy for the ECP CoMD classical molecular dynamics
// application, the paper's evaluation workload. It reproduces CoMD's
// IO-relevant behaviour: alternating compute phases (EAM force
// computation over a lattice of atoms) and N-N application-level
// checkpoint phases in which every rank dumps its state to a private
// file. Compute itself is modeled as virtual time proportional to
// atom-steps; the checkpoint bytes are written through any vfs.Client,
// so the same application runs unmodified over NVMe-CR and every
// baseline — the paper's application-obliviousness.
package comd

import (
	"fmt"
	"time"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/mpi"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// ChunkBytes is the application write() and read() granularity.
const ChunkBytes = 4 * model.MB

// computePerAtomStep is the virtual compute time per atom per timestep.
// It calibrates the 448-rank weak-scaling run to ~29 s of total
// compute, which reproduces the paper's Table II progress rates.
const computePerAtomStep = 900 * time.Nanosecond

// Config describes one CoMD run.
type Config struct {
	// AtomsPerRank drives the compute-phase duration (weak scaling
	// fixes this; strong scaling divides TotalAtoms by ranks).
	AtomsPerRank int64
	// StepsPerInterval is the number of MD timesteps between
	// checkpoints (default 100).
	StepsPerInterval int
	// Checkpoints is the number of checkpoint phases (paper: 10).
	Checkpoints int
	// CheckpointBytesPerRank is each rank's dump size. The paper's
	// weak-scaling runs write 700 GB over 448 ranks x 10 checkpoints
	// = ~156 MB per rank per checkpoint.
	CheckpointBytesPerRank int64
	// MultiLevelEvery, when >0 with a SecondTier, sends every k-th
	// checkpoint to the second tier (multi-level checkpointing; the
	// paper writes one in ten to Lustre).
	MultiLevelEvery int
}

func (c *Config) setDefaults() {
	if c.AtomsPerRank <= 0 {
		c.AtomsPerRank = 32 * 1024
	}
	if c.StepsPerInterval <= 0 {
		c.StepsPerInterval = 100
	}
	if c.Checkpoints <= 0 {
		c.Checkpoints = 10
	}
	if c.CheckpointBytesPerRank <= 0 {
		c.CheckpointBytesPerRank = 156 * model.MB
	}
}

// WeakScaling returns the paper's weak-scaling configuration: 32 K atoms
// per process, 10 checkpoints, 700 GB total at 448 processes.
func WeakScaling() Config {
	return Config{
		AtomsPerRank:           32 * 1024,
		Checkpoints:            10,
		CheckpointBytesPerRank: 156 * model.MB,
	}
}

// StrongScaling returns the paper's strong-scaling configuration at a
// given process count: 16,384 K atoms total, 86 GB of checkpoints over
// 10 dumps.
func StrongScaling(ranks int) Config {
	total := int64(16384 * 1024)
	perRankBytes := 86 * model.GB / int64(ranks) / 10
	return Config{
		AtomsPerRank:           total / int64(ranks),
		Checkpoints:            10,
		CheckpointBytesPerRank: perRankBytes,
	}
}

// Result aggregates a run's timing.
type Result struct {
	// CheckpointTimes is the wall time of each checkpoint phase
	// (barrier to barrier across all ranks).
	CheckpointTimes []time.Duration
	// ComputeTime is the total compute wall time.
	ComputeTime time.Duration
	// TotalTime is end-to-end wall time.
	TotalTime time.Duration
	// BytesPerCheckpoint is the aggregate dump size per phase.
	BytesPerCheckpoint int64
}

// TotalCheckpointTime sums the checkpoint phases.
func (r *Result) TotalCheckpointTime() time.Duration {
	var t time.Duration
	for _, d := range r.CheckpointTimes {
		t += d
	}
	return t
}

// ProgressRate is compute / (compute + checkpoint) — the paper's
// application progress metric (Table II).
func (r *Result) ProgressRate() float64 {
	total := r.ComputeTime + r.TotalCheckpointTime()
	if total <= 0 {
		return 0
	}
	return r.ComputeTime.Seconds() / total.Seconds()
}

// App is one CoMD run bound to a world and per-rank storage clients.
type App struct {
	cfg     Config
	world   *mpi.World
	clients []vfs.Client // indexed by rank: the first-tier storage
	second  []vfs.Client // optional second tier (multi-level)

	// PreRecover, when set, runs at the start of the measured recovery
	// window on every rank — the storage runtime's own metadata
	// recovery (log replay), which precedes application restart reads.
	PreRecover func(rank int, p *sim.Proc) error

	result Result
}

// New builds an App. clients[r] is rank r's storage client; second may
// be nil (no multi-level checkpointing).
func New(world *mpi.World, clients []vfs.Client, second []vfs.Client, cfg Config) (*App, error) {
	cfg.setDefaults()
	if len(clients) != world.Size() {
		return nil, fmt.Errorf("comd: %d clients for %d ranks", len(clients), world.Size())
	}
	if second != nil && len(second) != world.Size() {
		return nil, fmt.Errorf("comd: %d second-tier clients for %d ranks", len(second), world.Size())
	}
	if cfg.MultiLevelEvery > 0 && second == nil {
		return nil, fmt.Errorf("comd: multi-level checkpointing requires a second tier")
	}
	return &App{cfg: cfg, world: world, clients: clients, second: second}, nil
}

// Result returns the run's timing (valid after the simulation ends).
func (a *App) Result() *Result { return &a.result }

// RankBody is the per-rank program: pass it to world.Launch.
func (a *App) RankBody(r *mpi.Rank, p *sim.Proc) error {
	cfg := a.cfg
	comm := a.world.Comm()
	me := r.ID()
	client := a.clients[me]
	if err := comm.Barrier(p, r); err != nil {
		return err
	}
	runStart := p.Now()
	var computeTotal time.Duration
	for ckpt := 0; ckpt < cfg.Checkpoints; ckpt++ {
		// Compute phase.
		compute := time.Duration(cfg.AtomsPerRank*int64(cfg.StepsPerInterval)) * computePerAtomStep
		p.Sleep(compute)
		computeTotal += compute

		// Checkpoint phase (N-N): every rank writes a private file.
		if err := comm.Barrier(p, r); err != nil {
			return err
		}
		phaseStart := p.Now()
		target := client
		if cfg.MultiLevelEvery > 0 && (ckpt+1)%cfg.MultiLevelEvery == 0 {
			target = a.second[me]
		}
		path := fmt.Sprintf("/rank%05d.ckpt%04d.dat", me, ckpt)
		f, err := target.Open(p, path, vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			return fmt.Errorf("rank %d ckpt %d: %w", me, ckpt, err)
		}
		if _, err := vfs.WriteAllN(p, f, cfg.CheckpointBytesPerRank, ChunkBytes); err != nil {
			return fmt.Errorf("rank %d ckpt %d write: %w", me, ckpt, err)
		}
		if err := f.Fsync(p); err != nil {
			return err
		}
		if err := f.Close(p); err != nil {
			return err
		}
		if err := comm.Barrier(p, r); err != nil {
			return err
		}
		if me == 0 {
			a.result.CheckpointTimes = append(a.result.CheckpointTimes, p.Now()-phaseStart)
		}
	}
	if err := comm.Barrier(p, r); err != nil {
		return err
	}
	if me == 0 {
		a.result.ComputeTime = computeTotal
		a.result.TotalTime = p.Now() - runStart
		a.result.BytesPerCheckpoint = cfg.CheckpointBytesPerRank * int64(a.world.Size())
	}
	return nil
}

// Recover replays an application restart: every rank opens its most
// recent first-tier checkpoint and reads it back fully. It returns the
// wall time of the read phase on rank 0.
func (a *App) Recover(r *mpi.Rank, p *sim.Proc, recovered *time.Duration) error {
	comm := a.world.Comm()
	me := r.ID()
	// The most recent first-tier checkpoint index.
	last := a.cfg.Checkpoints - 1
	if a.cfg.MultiLevelEvery > 0 {
		for last >= 0 && (last+1)%a.cfg.MultiLevelEvery == 0 {
			last--
		}
	}
	if last < 0 {
		return fmt.Errorf("comd: no first-tier checkpoint to recover from")
	}
	if err := comm.Barrier(p, r); err != nil {
		return err
	}
	start := p.Now()
	if a.PreRecover != nil {
		if err := a.PreRecover(me, p); err != nil {
			return fmt.Errorf("comd: rank %d runtime recovery: %w", me, err)
		}
	}
	path := fmt.Sprintf("/rank%05d.ckpt%04d.dat", me, last)
	f, err := a.clients[me].Open(p, path, vfs.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("rank %d recover: %w", me, err)
	}
	if _, err := vfs.ReadAllN(p, f, a.cfg.CheckpointBytesPerRank, ChunkBytes); err != nil {
		return err
	}
	if err := f.Close(p); err != nil {
		return err
	}
	if err := comm.Barrier(p, r); err != nil {
		return err
	}
	if me == 0 && recovered != nil {
		*recovered = p.Now() - start
	}
	return nil
}
