package core

import (
	"testing"

	"github.com/nvme-cr/nvmecr/internal/mpi"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// TestStorageNodeFailureSurfacesAsIOError injects a cascading failure:
// one SSD dies mid-run, and the ranks mapped to it see IO errors while
// ranks on other SSDs keep checkpointing (the scenario multi-level
// checkpointing exists for).
func TestStorageNodeFailureSurfacesAsIOError(t *testing.T) {
	env, world, fab, devs := testJob(t, 16, false)
	opts := smallOpts()
	opts.SSDs = 4
	rt, err := NewRuntime(env, world, fab, devs, opts)
	if err != nil {
		t.Fatal(err)
	}
	failedSSD := rt.Allocation().SSDs[0].Device
	failedRanks := map[int]bool{}
	for rank, idx := range rt.Allocation().RankSSD {
		if rt.Allocation().SSDs[idx].Device == failedSSD {
			failedRanks[rank] = true
		}
	}
	if len(failedRanks) == 0 {
		t.Fatal("no ranks mapped to the failing SSD")
	}
	world.Launch(func(r *mpi.Rank, p *sim.Proc) {
		me := r.ID()
		c, err := rt.InitRank(p, r)
		if err != nil {
			t.Errorf("rank %d init: %v", me, err)
			return
		}
		// First checkpoint succeeds everywhere.
		f, err := c.Open(p, "/ckpt0", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			t.Errorf("rank %d ckpt0: %v", me, err)
			return
		}
		f.WriteN(p, 1<<20)
		f.Close(p)
		world.Comm().Barrier(p, r)
		// The storage node dies.
		if me == 0 {
			failedSSD.Fail()
		}
		world.Comm().Barrier(p, r)
		// Second checkpoint: ranks on the failed SSD must error; the
		// rest must succeed.
		f, err = c.Open(p, "/ckpt1", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		var werr error
		if err == nil {
			_, werr = f.WriteN(p, 1<<20)
			f.Close(p)
		} else {
			werr = err
		}
		if failedRanks[me] && werr == nil {
			t.Errorf("rank %d on failed SSD checkpointed successfully", me)
		}
		if !failedRanks[me] && werr != nil {
			t.Errorf("rank %d on healthy SSD failed: %v", me, werr)
		}
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
