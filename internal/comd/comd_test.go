package comd

import (
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/balancer"
	"github.com/nvme-cr/nvmecr/internal/core"
	"github.com/nvme-cr/nvmecr/internal/fabric"
	"github.com/nvme-cr/nvmecr/internal/microfs"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/mpi"
	"github.com/nvme-cr/nvmecr/internal/nvme"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/topology"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// buildRun assembles a small CoMD run over the NVMe-CR runtime.
func buildRun(t *testing.T, ranks int, cfg Config) (*sim.Env, *mpi.World, *App, *core.Runtime) {
	t.Helper()
	cl, err := topology.New(topology.PaperTestbed())
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	params := model.Default()
	params.SSD.CapacityGB = 8
	fab := fabric.New(env, cl, params.Net)
	world, err := mpi.NewWorld(env, cl, ranks)
	if err != nil {
		t.Fatal(err)
	}
	var devs []balancer.StorageDevice
	for _, sn := range cl.StorageNodes() {
		devs = append(devs, balancer.StorageDevice{Node: sn, Device: nvme.New(env, sn.Name, params.SSD, false)})
	}
	rt, err := core.NewRuntime(env, world, fab, devs, core.Options{
		BytesPerRank: 128 * model.MB,
		LogBytes:     256 * model.KB,
		SnapBytes:    1 * model.MB,
		Features:     microfs.AllFeatures(),
		Mode:         core.RemoteSPDK,
	})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]vfs.Client, ranks)
	// Clients are created lazily inside rank bodies; the App needs the
	// slice up front, so fill it during init below.
	app, err := New(world, clients, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env, world, app, rt
}

func TestWeakScalingRunProducesResult(t *testing.T) {
	cfg := Config{
		AtomsPerRank:           1024,
		StepsPerInterval:       10,
		Checkpoints:            3,
		CheckpointBytesPerRank: 8 * model.MB,
	}
	env, world, app, rt := buildRun(t, 16, cfg)
	world.Launch(func(r *mpi.Rank, p *sim.Proc) {
		c, err := rt.InitRank(p, r)
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
			return
		}
		app.clients[r.ID()] = c
		if err := app.RankBody(r, p); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
		var rec time.Duration
		if err := app.Recover(r, p, &rec); err != nil {
			t.Errorf("rank %d recover: %v", r.ID(), err)
		}
		if r.ID() == 0 && rec == 0 {
			t.Error("recovery took no time")
		}
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	res := app.Result()
	if len(res.CheckpointTimes) != 3 {
		t.Fatalf("%d checkpoint phases, want 3", len(res.CheckpointTimes))
	}
	for i, d := range res.CheckpointTimes {
		if d <= 0 {
			t.Errorf("checkpoint %d took %v", i, d)
		}
	}
	if res.ComputeTime <= 0 || res.TotalTime <= res.ComputeTime {
		t.Errorf("compute %v total %v", res.ComputeTime, res.TotalTime)
	}
	pr := res.ProgressRate()
	if pr <= 0 || pr >= 1 {
		t.Errorf("progress rate = %v", pr)
	}
	if res.BytesPerCheckpoint != 16*8*model.MB {
		t.Errorf("BytesPerCheckpoint = %d", res.BytesPerCheckpoint)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}
	cfg.setDefaults()
	if cfg.AtomsPerRank != 32*1024 || cfg.Checkpoints != 10 {
		t.Errorf("defaults = %+v", cfg)
	}
	weak := WeakScaling()
	if weak.CheckpointBytesPerRank != 156*model.MB {
		t.Errorf("weak scaling dump = %d", weak.CheckpointBytesPerRank)
	}
	strong := StrongScaling(448)
	if strong.AtomsPerRank != 16384*1024/448 {
		t.Errorf("strong atoms = %d", strong.AtomsPerRank)
	}
	if strong.CheckpointBytesPerRank != 86*model.GB/448/10 {
		t.Errorf("strong dump = %d", strong.CheckpointBytesPerRank)
	}
}

func TestValidation(t *testing.T) {
	cl, _ := topology.New(topology.PaperTestbed())
	env := sim.NewEnv()
	world, _ := mpi.NewWorld(env, cl, 4)
	if _, err := New(world, make([]vfs.Client, 3), nil, Config{}); err == nil {
		t.Error("client/rank mismatch accepted")
	}
	if _, err := New(world, make([]vfs.Client, 4), nil, Config{MultiLevelEvery: 10}); err == nil {
		t.Error("multi-level without second tier accepted")
	}
	if _, err := New(world, make([]vfs.Client, 4), make([]vfs.Client, 2), Config{}); err == nil {
		t.Error("second-tier size mismatch accepted")
	}
}

func TestProgressRateCalibration(t *testing.T) {
	// Table II sanity: the default compute model at the paper's weak
	// scaling gives ~2.9 s of compute per interval.
	cfg := WeakScaling()
	cfg.setDefaults()
	perInterval := time.Duration(cfg.AtomsPerRank*int64(cfg.StepsPerInterval)) * computePerAtomStep
	if perInterval < 2500*time.Millisecond || perInterval > 3500*time.Millisecond {
		t.Errorf("compute per interval = %v, want ~2.9s", perInterval)
	}
}
