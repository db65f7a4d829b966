// Multi-level checkpointing (paper §III-F, evaluated in Table II):
// most checkpoints go to the fast NVMe-CR tier, every k-th to a slower
// but replicated Lustre-like PFS. A cascading failure that takes out a
// storage domain loses the NVMe tier — the job then falls back to the
// PFS copy, which is the whole point of the scheme.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/nvme-cr/nvmecr/internal/balancer"
	"github.com/nvme-cr/nvmecr/internal/baseline"
	"github.com/nvme-cr/nvmecr/internal/comd"
	"github.com/nvme-cr/nvmecr/internal/core"
	"github.com/nvme-cr/nvmecr/internal/fabric"
	"github.com/nvme-cr/nvmecr/internal/metrics"
	"github.com/nvme-cr/nvmecr/internal/microfs"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/mpi"
	"github.com/nvme-cr/nvmecr/internal/nvme"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/topology"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

func main() {
	const ranks = 56
	cluster, err := topology.New(topology.PaperTestbed())
	if err != nil {
		log.Fatal(err)
	}
	env := sim.NewEnv()
	params := model.Default()
	fab := fabric.New(env, cluster, params.Net)
	world, err := mpi.NewWorld(env, cluster, ranks)
	if err != nil {
		log.Fatal(err)
	}

	// Tier 1: NVMe-CR over the storage rack.
	var devices []balancer.StorageDevice
	for _, sn := range cluster.StorageNodes() {
		devices = append(devices, balancer.StorageDevice{
			Node: sn, Device: nvme.New(env, sn.Name, params.SSD, false),
		})
	}
	rt, err := core.NewRuntime(env, world, fab, devices, core.Options{
		Mode: core.RemoteSPDK, Features: microfs.AllFeatures(),
		Background: true, SSDs: len(devices),
	})
	if err != nil {
		log.Fatal(err)
	}

	// Tier 2: a Lustre-like PFS on 4 RAID-limited servers.
	var lnodes []*topology.Node
	var ldevs []*nvme.Device
	for i, sn := range cluster.StorageNodes() {
		if i >= params.Lustre.Servers {
			break
		}
		lnodes = append(lnodes, sn)
		ldevs = append(ldevs, nvme.New(env, sn.Name+"-pfs", params.SSD, false))
	}
	lbackend, err := baseline.NewBackend(env, fab, lnodes, ldevs)
	if err != nil {
		log.Fatal(err)
	}
	lustre := baseline.NewLustre(lbackend, params)

	cfg := comd.WeakScaling()
	cfg.Checkpoints = 10
	cfg.MultiLevelEvery = 5 // every 5th checkpoint to the PFS
	cfg.CheckpointBytesPerRank = 64 * model.MB
	cfg.StepsPerInterval = 10

	clients := make([]vfs.Client, ranks)
	second := make([]vfs.Client, ranks)
	for i := 0; i < ranks; i++ {
		second[i] = lustre.NewClient(world.Node(i))
	}
	app, err := comd.New(world, clients, second, cfg)
	if err != nil {
		log.Fatal(err)
	}

	var pfsRecovery time.Duration
	errs := make([]error, ranks)
	world.Launch(func(r *mpi.Rank, p *sim.Proc) {
		me := r.ID()
		c, err := rt.InitRank(p, r)
		if err != nil {
			errs[me] = err
			return
		}
		clients[me] = c
		if err := app.RankBody(r, p); err != nil {
			errs[me] = err
			return
		}
		// Cascading failure: the NVMe tier's domain is gone. Restart
		// from the most recent PFS checkpoint (checkpoint 9, written
		// to Lustre by the 1-in-5 policy).
		world.Comm().Barrier(p, r)
		start := p.Now()
		path := fmt.Sprintf("/rank%05d.ckpt%04d.dat", me, 9)
		f, err := second[me].Open(p, path, vfs.O_RDONLY, 0)
		if err != nil {
			errs[me] = fmt.Errorf("PFS fallback open: %w", err)
			return
		}
		if _, err := vfs.ReadAllN(p, f, cfg.CheckpointBytesPerRank, comd.ChunkBytes); err != nil {
			errs[me] = err
			return
		}
		f.Close(p)
		world.Comm().Barrier(p, r)
		if me == 0 {
			pfsRecovery = p.Now() - start
		}
		errs[me] = rt.Finalize(p, r)
	})
	if _, err := env.Run(); err != nil {
		log.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			log.Fatalf("rank %d: %v", i, e)
		}
	}

	res := app.Result()
	total := cfg.CheckpointBytesPerRank * int64(ranks)
	fmt.Printf("multi-level C/R: %d ranks, %d checkpoints, every %dth to Lustre\n",
		ranks, cfg.Checkpoints, cfg.MultiLevelEvery)
	for i, d := range res.CheckpointTimes {
		tier := "nvme-cr"
		if (i+1)%cfg.MultiLevelEvery == 0 {
			tier = "lustre "
		}
		fmt.Printf("  ckpt %2d [%s]: %9v  %6.2f GB/s\n",
			i, tier, d.Round(time.Microsecond), metrics.Bandwidth(total, d)/1e9)
	}
	fmt.Printf("  progress rate: %.3f\n", res.ProgressRate())
	fmt.Printf("  cascading-failure fallback: read checkpoint 9 from Lustre in %v (%.2f GB/s)\n",
		pfsRecovery.Round(time.Millisecond), metrics.Bandwidth(total, pfsRecovery)/1e9)
	fmt.Println("  fast tier served 8/10 checkpoints; the PFS copy survived the domain failure")
}
