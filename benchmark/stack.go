package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/nvme-cr/nvmecr/internal/microfs"
	"github.com/nvme-cr/nvmecr/internal/nvmeof"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

const (
	hugeblock = 32 * kib // microfs default with AllFeatures
	logBytes  = 4 * mib  // microfs default
	snapBytes = 64 * mib // microfs default
	// quota is set on every mount so the namespace runs its quota
	// accounting, and is far above anything a workload holds.
	quotaBytes  = int64(1) << 40
	quotaInodes = int64(1) << 30
)

// stack is the whole system under test, in one process: targets on
// loopback, one shared HostPool per target, and per rank a plane, a
// microfs instance and a mount in one shared namespace.
type stack struct {
	targets []*nvmeof.Target
	spaces  []*nvmeof.MemNamespace
	pools   []*nvmeof.HostPool
	stripes *telemetry.Registry // StripedPlane counters, all ranks
	ns      *vfs.Namespace
	ranks   []*rankState
	ref     *refLoop
	refs    []float64 // every reference-loop measurement since the stack was built, seconds
}

// rankState is one rank's private part of the stack and its inputs.
type rankState struct {
	id    int
	w     workload
	in    *inputs
	mount string

	readBuf []byte         // restart reads land here, reused every epoch
	listing []vfs.FileInfo // last restart's ReadDir, checked after the timer
	sorted  []string       // in.names in ReadDir order

	rec    *recorder    // nil in the untraced pass
	front  *backendSeam // the benchmark's calls into the shared namespace
	back   *backendSeam // the mount's calls into this rank's instance
	walS   *seam
	plane  *planeSeam // what microfs sits on
	queues []*queueSeam
	inst   *microfs.Instance
	loaded int64 // records inst's log held when it was recovered

	// Totals harvested from each instance before it is dropped.
	walAppended, walCoalesced, walDevWrites, walDevBytes int64
	snapshots                                            int64
	// Per timed epoch.
	timed          bool
	fillAtCrash    []float64
	recoverRecords []float64
}

// newStack builds the stack. With traced set every seam records spans and
// the pools negotiate the capsule trace extension, which makes the
// targets report per-command queue and service time.
func newStack(w workload, seed uint64, traced bool) (_ *stack, err error) {
	st := &stack{stripes: telemetry.New(), ns: vfs.NewNamespace(nil)}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if st.ref, err = newRefLoop(ranks); err != nil {
		return nil, err
	}
	var tracer *telemetry.Tracer
	if traced {
		// The per-command spans the hosts emit are not used; the
		// benchmark reads the phase histograms they also fill.
		tracer = telemetry.NewTracer(io.Discard)
	}

	var genBlocks int64
	for r := 0; r < ranks; r++ {
		rs := &rankState{id: r, w: w, in: newInputs(w, seed, r), mount: fmt.Sprintf("/rank%d", r)}
		rs.readBuf = make([]byte, rs.in.userBytes())
		rs.sorted = sortedCopy(rs.in.names)
		if traced {
			rs.rec = &recorder{base: time.Now()}
		}
		st.ranks = append(st.ranks, rs)
		// One generation's blocks: the files plus the directory file,
		// which gains a 64-byte entry per create and per rename.
		blocks := int64(2*64*w.files)/hugeblock + 1
		for i := range rs.in.names {
			blocks += (int64(len(rs.in.file(i))) + hugeblock - 1) / hugeblock
		}
		if blocks > genBlocks {
			genBlocks = blocks
		}
	}
	// Two generations are live and a third is being written; the pool
	// hands out blocks round-robin, so a data region of four
	// generations is swept once by the four warm-up epochs and the
	// stored bytes are steady from the first timed epoch on.
	partition := logBytes + snapBytes + 4*genBlocks*hugeblock + 16*mib
	groups := int64(1)
	if w.plane == planeStriped {
		groups = int64(w.targets)
	}
	childSize := (partition/groups + stripeUnit - 1) / stripeUnit * stripeUnit

	for t := 0; t < w.targets; t++ {
		space := nvmeof.NewMemNamespaceWithModel(ranks*childSize, 0, w.devBPS)
		tgt := nvmeof.NewTarget()
		st.targets = append(st.targets, tgt)
		st.spaces = append(st.spaces, space)
		if err := tgt.AddNamespace(1, space); err != nil {
			return nil, err
		}
		addr, err := tgt.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		pool, err := nvmeof.DialPool(addr, 1, nvmeof.PoolConfig{
			QueuePairs:     w.queuePairs,
			CommandTimeout: 30 * time.Second,
			Batch:          nvmeof.BatchConfig{Enabled: true, MergeWrites: true},
			Tracer:         tracer,
		})
		if err != nil {
			return nil, err
		}
		st.pools = append(st.pools, pool)
	}

	for _, rs := range st.ranks {
		vfsS := newSeam(rs.rec, layerVFS, 0, nil)
		mfsS := newSeam(rs.rec, layerMicrofs, 0, vfsS)
		rs.walS = newSeam(rs.rec, layerWAL, 0, mfsS)
		rs.front = &backendSeam{inner: st.ns, s: vfsS}
		rs.back = &backendSeam{s: mfsS}
		above := rs.walS
		if w.plane != planePlain {
			above = newSeam(rs.rec, layerStripe, 0, rs.walS)
		}
		var children []plane.Plane
		var first *childSeam
		for t, pool := range st.pools {
			tcpS := newSeam(rs.rec, layerTCPPlane, t, above)
			q := &queueSeam{Queue: pool, vq: pool, s: newSeam(rs.rec, layerHostPool, t, tcpS)}
			rs.queues = append(rs.queues, q)
			tp, err := nvmeof.NewTCPPlane(q, int64(rs.id)*childSize, childSize)
			if err != nil {
				return nil, fmt.Errorf("rank %d target %d: %w", rs.id, t, err)
			}
			child := &childSeam{planeSeam: planeSeam{inner: tp, s: tcpS}, vw: tp}
			children = append(children, child)
			if first == nil {
				first = child
			}
		}
		if w.plane == planePlain {
			rs.plane = &first.planeSeam
			continue
		}
		replicas := 1
		if w.plane == planeMirrored {
			replicas = 2
		}
		sp, err := nvmeof.NewMirroredPlane(children, stripeUnit, replicas)
		if err != nil {
			return nil, err
		}
		sp.Instrument(st.stripes)
		rs.plane = &planeSeam{inner: sp, s: above}
	}
	return st, nil
}

// close tears the stack down and waits for its goroutines.
func (st *stack) close() {
	for _, p := range st.pools {
		p.Close()
	}
	for _, t := range st.targets {
		t.Close()
	}
	if st.ref != nil {
		st.ref.close()
	}
}

// newInstance builds a fresh microfs instance over the rank's plane, as a
// restarted process would.
func (rs *rankState) newInstance(p *sim.Proc) (*microfs.Instance, error) {
	return microfs.New(p.Env(), microfs.Config{
		Plane:        rs.plane,
		Features:     microfs.AllFeatures(),
		WrapLogWrite: walSeam(rs.walS),
		Rank:         rs.id,
	})
}

// harvest folds a dying instance's counters into the rank's totals.
func (rs *rankState) harvest() {
	appended, coalesced, devWrites, devBytes := rs.inst.Log().Stats()
	rs.walAppended += appended - rs.loaded
	rs.walCoalesced += coalesced
	rs.walDevWrites += devWrites
	rs.walDevBytes += devBytes
	rs.snapshots += rs.inst.Stats().Snapshots
}

// probe reads every cumulative counter the metrics are computed from.
// Metrics over the timed epochs are differences of two probes.
func (st *stack) probe() map[string]float64 {
	c := map[string]float64{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["alloc_b"] = float64(ms.TotalAlloc)
	c["mallocs"] = float64(ms.Mallocs)
	c["gc_cycles"] = float64(ms.NumGC)
	c["gc_pause_ns"] = float64(ms.PauseTotalNs)

	for i, t := range st.targets {
		snap := t.Snapshot()
		c["target_cmds"] += float64(snap.Commands)
		c["target_errs"] += float64(snap.Errors)
		c["target_in_b"] += float64(snap.BytesIn)
		c["target_out_b"] += float64(snap.BytesOut)
		c["stored_b"] += float64(st.spaces[i].StoredBytes())
	}
	var reg telemetry.RegistrySnapshot
	for _, p := range st.pools {
		for _, in := range p.Telemetry().Snapshot(&reg).Instruments {
			switch in.Kind {
			case telemetry.KindCounter:
				c[in.Name] += float64(in.U)
			case telemetry.KindHistogram:
				c[in.Name+":sum"] += in.Sum
				c[in.Name+":n"] += float64(in.U)
			}
		}
	}
	for _, in := range st.stripes.Snapshot(&reg).Instruments {
		c[in.Name] += float64(in.U)
	}
	for _, rs := range st.ranks {
		c["vfs_calls"] += float64(rs.front.calls)
		c["wal_appended"] += float64(rs.walAppended)
		c["wal_coalesced"] += float64(rs.walCoalesced)
		c["wal_dev_writes"] += float64(rs.walDevWrites)
		c["wal_dev_b"] += float64(rs.walDevBytes)
		c["snapshots"] += float64(rs.snapshots)
		c["plane_out_b"] += float64(rs.plane.wrote)
		for _, q := range rs.queues {
			c["queue_out_b"] += float64(q.bytesOut)
		}
	}
	return c
}

func delta(after, before map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
