package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/balancer"
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

// testJob builds a full small-scale job: cluster, fabric, world, devices.
func testJob(t *testing.T, ranks int, capture bool) (*sim.Env, *mpi.World, *fabric.Fabric, []balancer.StorageDevice) {
	t.Helper()
	cl, err := topology.New(topology.PaperTestbed())
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	params := model.Default()
	params.SSD.CapacityGB = 4
	fab := fabric.New(env, cl, params.Net)
	world, err := mpi.NewWorld(env, cl, ranks)
	if err != nil {
		t.Fatal(err)
	}
	var devs []balancer.StorageDevice
	for _, sn := range cl.StorageNodes() {
		devs = append(devs, balancer.StorageDevice{
			Node:   sn,
			Device: nvme.New(env, sn.Name, params.SSD, capture),
		})
	}
	return env, world, fab, devs
}

func smallOpts() Options {
	return Options{
		BytesPerRank: 32 * model.MB,
		LogBytes:     256 * model.KB,
		SnapBytes:    1 * model.MB,
		Features:     microfs.AllFeatures(),
		Mode:         RemoteSPDK,
	}
}

func TestJobInitAndCheckpoint(t *testing.T) {
	env, world, fab, devs := testJob(t, 16, false)
	rt, err := NewRuntime(env, world, fab, devs, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	perRank := int64(4 * model.MB)
	world.Launch(func(r *mpi.Rank, p *sim.Proc) {
		c, err := rt.InitRank(p, r)
		if err != nil {
			t.Errorf("rank %d init: %v", r.ID(), err)
			return
		}
		path := fmt.Sprintf("/ckpt-rank%04d.dat", r.ID())
		f, err := c.Open(p, path, vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Errorf("rank %d create: %v", r.ID(), err)
			return
		}
		if _, err := vfs.WriteAllN(p, f, perRank, 1*model.MB); err != nil {
			t.Errorf("rank %d write: %v", r.ID(), err)
		}
		f.Fsync(p)
		f.Close(p)
		if err := rt.Finalize(p, r); err != nil {
			t.Errorf("rank %d finalize: %v", r.ID(), err)
		}
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	s := rt.Stats()
	if s.BytesWritten != int64(16)*perRank {
		t.Errorf("BytesWritten = %d, want %d", s.BytesWritten, int64(16)*perRank)
	}
	if s.Creates != 16 {
		t.Errorf("Creates = %d, want 16", s.Creates)
	}
}

func TestPartitionsAreDisjoint(t *testing.T) {
	env, world, fab, devs := testJob(t, 32, false)
	rt, err := NewRuntime(env, world, fab, devs, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	world.Launch(func(r *mpi.Rank, p *sim.Proc) {
		if _, err := rt.InitRank(p, r); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Group clients by namespace; partitions within one namespace must
	// not overlap.
	type span struct{ base, end int64 }
	byNS := map[*nvme.Namespace][]span{}
	for rank := 0; rank < 32; rank++ {
		c := rt.Client(rank)
		if c == nil {
			t.Fatalf("rank %d has no client", rank)
		}
		part := c.Partition
		byNS[part.Namespace] = append(byNS[part.Namespace], span{part.Base, part.Base + part.Size})
	}
	for ns, spans := range byNS {
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				if a.base < b.end && b.base < a.end {
					t.Errorf("overlapping partitions on %v: %+v %+v", ns, a, b)
				}
			}
		}
	}
}

func TestCommCRGroupsBySSD(t *testing.T) {
	env, world, fab, devs := testJob(t, 24, false)
	rt, err := NewRuntime(env, world, fab, devs, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	world.Launch(func(r *mpi.Rank, p *sim.Proc) {
		c, err := rt.InitRank(p, r)
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
			return
		}
		// Everyone in my MPI_COMM_CR shares my SSD.
		for _, wr := range c.CommCR.WorldRanks() {
			if rt.Allocation().RankSSD[wr] != rt.Allocation().RankSSD[r.ID()] {
				t.Errorf("rank %d: comm member %d on different SSD", r.ID(), wr)
			}
		}
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultIsolationEndToEnd(t *testing.T) {
	env, world, fab, devs := testJob(t, 16, false)
	rt, err := NewRuntime(env, world, fab, devs, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	world.Launch(func(r *mpi.Rank, p *sim.Proc) {
		c, err := rt.InitRank(p, r)
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
			return
		}
		if c.SSD.Node.FailureDomain() == r.Node().FailureDomain() {
			t.Errorf("rank %d checkpoint data in its own failure domain", r.ID())
		}
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteDataIntegrity(t *testing.T) {
	// Real payloads over the full NVMf stack: write on one runtime,
	// crash, recover a fresh instance, read back and compare.
	env, world, fab, devs := testJob(t, 4, true)
	rt, err := NewRuntime(env, world, fab, devs, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("exascale"), 8192) // 64 KB
	world.Launch(func(r *mpi.Rank, p *sim.Proc) {
		c, err := rt.InitRank(p, r)
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
			return
		}
		f, err := c.Open(p, "/state.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Error(err)
			return
		}
		vfs.WriteAll(p, f, payload, 32*model.KB)
		f.Close(p)
		// Simulate a process crash and runtime restart: recover a
		// fresh microfs over the same partition.
		inst2, err := microfs.New(env, microfs.Config{
			Plane:     mustPlane(t, rt, r, p),
			Host:      model.Default().Host,
			Features:  microfs.AllFeatures(),
			LogBytes:  rt.Options().LogBytes,
			SnapBytes: rt.Options().SnapBytes,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := inst2.Recover(p); err != nil {
			t.Errorf("rank %d recover: %v", r.ID(), err)
			return
		}
		g, err := inst2.Open(p, "/state.dat", vfs.O_RDONLY, 0)
		if err != nil {
			t.Errorf("rank %d reopen: %v", r.ID(), err)
			return
		}
		buf := make([]byte, len(payload))
		n, err := g.Read(p, buf)
		if err != nil || n != len(payload) || !bytes.Equal(buf, payload) {
			t.Errorf("rank %d readback mismatch (n=%d err=%v)", r.ID(), n, err)
		}
		g.Close(p)
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// mustPlane rebuilds the rank's data plane (as a restarted runtime
// instance would after re-running initialization).
func mustPlane(t *testing.T, rt *Runtime, r *mpi.Rank, p *sim.Proc) (out interface {
	Write(*sim.Proc, int64, int64, []byte, int64) error
	Read(*sim.Proc, int64, int64, int64) ([]byte, error)
	Flush(*sim.Proc) error
	Size() int64
}) {
	t.Helper()
	c := rt.Client(r.ID())
	acct := &vfs.Account{}
	pl, err := rt.buildPlane(c.Partition, r, acct)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestEfficiencyAtScaleIsHigh(t *testing.T) {
	// 64 ranks, 8 SSDs, 16 MB per rank per checkpoint: NVMe-CR should
	// deliver well over 80% of aggregate device bandwidth even at this
	// small scale (the paper reports 0.96 at 448 ranks).
	env, world, fab, devs := testJob(t, 64, false)
	opts := smallOpts()
	opts.SSDs = 8
	rt, err := NewRuntime(env, world, fab, devs, opts)
	if err != nil {
		t.Fatal(err)
	}
	perRank := int64(16 * model.MB)
	var start, finish time.Duration
	wg := world.Launch(func(r *mpi.Rank, p *sim.Proc) {
		c, err := rt.InitRank(p, r)
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
			return
		}
		world.Comm().Barrier(p, r)
		if r.ID() == 0 {
			start = p.Now()
		}
		f, err := c.Open(p, fmt.Sprintf("/ckpt%04d", r.ID()), vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Error(err)
			return
		}
		vfs.WriteAllN(p, f, perRank, 4*model.MB)
		f.Fsync(p)
		f.Close(p)
		world.Comm().Barrier(p, r)
		if r.ID() == 0 {
			finish = p.Now()
		}
	})
	_ = wg
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	total := int64(64) * perRank
	eff := metrics.Efficiency(metrics.Bandwidth(total, finish-start), rt.HardwarePeakWrite())
	if eff < 0.75 {
		t.Errorf("checkpoint efficiency = %.3f, want > 0.75", eff)
	}
}

func TestKernelModeChargesKernelTime(t *testing.T) {
	env, world, fab, devs := testJob(t, 4, false)
	opts := smallOpts()
	opts.Mode = RemoteKernel
	rt, err := NewRuntime(env, world, fab, devs, opts)
	if err != nil {
		t.Fatal(err)
	}
	world.Launch(func(r *mpi.Rank, p *sim.Proc) {
		c, err := rt.InitRank(p, r)
		if err != nil {
			t.Error(err)
			return
		}
		f, _ := c.Open(p, "/f", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		f.WriteN(p, 1*model.MB)
		f.Close(p)
		_, kernel, _ := c.Account().Totals()
		if kernel == 0 {
			t.Errorf("rank %d: no kernel time on kernel NVMf path", r.ID())
		}
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBadOptions(t *testing.T) {
	env, world, _, devs := testJob(t, 4, false)
	opts := smallOpts()
	// Remote mode without a fabric must fail at InitRank.
	rt, err := NewRuntime(env, world, nil, devs, opts)
	if err != nil {
		t.Fatal(err)
	}
	world.Launch(func(r *mpi.Rank, p *sim.Proc) {
		if _, err := rt.InitRank(p, r); err == nil {
			t.Error("remote plane built without a fabric")
		}
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultOptions pins the blessed default configuration.
func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if !o.IsDefaulted() {
		t.Fatal("DefaultOptions().IsDefaulted() = false")
	}
	if o.Mode != RemoteSPDK || !o.Background || !o.Features.Provenance || !o.Features.Hugeblocks {
		t.Fatalf("DefaultOptions() = %+v, want remote-spdk with all features and background thread", o)
	}
	if (Options{}).IsDefaulted() {
		t.Fatal("zero Options claims to be defaulted")
	}
}
