package main

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

func sortedCopy(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}

func (rs *rankState) genDir(gen int) string { return fmt.Sprintf("%s/gen%06d", rs.mount, gen) }

// ckpt writes generation gen the way a checkpointing rank does: every
// file to a temporary name, made durable, then renamed into place; then
// it retires generation gen-2.
func (rs *rankState) ckpt(p *sim.Proc, gen int) error {
	dir := rs.genDir(gen)
	if err := rs.front.Mkdir(p, dir, 0o755); err != nil {
		return fmt.Errorf("mkdir %s: %w", dir, err)
	}
	for i, name := range rs.in.names {
		final := dir + "/" + name
		tmp := final + ".tmp"
		f, err := rs.front.Open(p, tmp, vfs.O_CREATE|vfs.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("create %s: %w", tmp, err)
		}
		data := rs.in.file(i)
		step := len(data)
		if rs.w.ioBytes > 0 {
			step = int(rs.w.ioBytes)
		}
		for off := 0; off < len(data); off += step {
			end := min(off+step, len(data))
			if n, err := f.Write(p, data[off:end]); err != nil || n != end-off {
				return fmt.Errorf("write %s at %d: %d bytes, %v", tmp, off, n, err)
			}
		}
		if rs.w.fsyncEach || i == len(rs.in.names)-1 {
			if err := f.Fsync(p); err != nil {
				return fmt.Errorf("fsync %s: %w", tmp, err)
			}
		}
		if err := f.Close(p); err != nil {
			return fmt.Errorf("close %s: %w", tmp, err)
		}
		if err := rs.front.Rename(p, tmp, final); err != nil {
			return fmt.Errorf("rename %s: %w", tmp, err)
		}
	}
	if gen >= 2 {
		old := rs.genDir(gen - 2)
		for _, name := range rs.in.names {
			if err := rs.front.Unlink(p, old+"/"+name); err != nil {
				return fmt.Errorf("unlink %s/%s: %w", old, name, err)
			}
		}
	}
	return nil
}

// snapshot does what microfs.StartBackground's thread would do in the
// application's compute phase. Running it as its own phase keeps the log
// below its threshold plus one epoch, so a log-full forced snapshot
// never happens (see README, "Known defect").
func (rs *rankState) snapshot(p *sim.Proc) error {
	if rs.inst.OpenFiles() != 0 || rs.inst.Log().FillFraction() < 0.7 {
		return nil
	}
	id := rs.back.s.begin(opSnapshot)
	err := rs.inst.SnapshotNow(p)
	rs.back.s.end(id)
	return err
}

// mountInstance builds a fresh instance over the rank's plane, recovers
// it when the plane holds an earlier life, and mounts it.
func (rs *rankState) mountInstance(p *sim.Proc, recover bool) error {
	id := rs.back.s.begin(opNew)
	inst, err := rs.newInstance(p)
	rs.back.s.end(id)
	if err != nil {
		return err
	}
	if recover {
		id = rs.back.s.begin(opRecover)
		err = inst.Recover(p)
		rs.back.s.end(id)
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		// A loaded log counts the records it found as appended.
		rs.loaded = inst.Log().Records()
		if rs.timed {
			rs.recoverRecords = append(rs.recoverRecords, float64(rs.loaded))
		}
	}
	rs.inst, rs.back.inner = inst, inst
	ns := rs.front.inner.(*vfs.Namespace)
	id = rs.front.s.begin(opMount)
	_, err = ns.Mount(vfs.MountConfig{
		Path: rs.mount, Backend: rs.back, QuotaBytes: quotaBytes, QuotaInodes: quotaInodes,
	})
	rs.front.s.end(id)
	return err
}

// restart is a process crash and restart: the instance and its mount are
// dropped with no clean shutdown, a fresh instance recovers from the
// plane alone, and generation gen is read back.
func (rs *rankState) restart(p *sim.Proc, gen int) error {
	if rs.timed {
		rs.fillAtCrash = append(rs.fillAtCrash, rs.inst.Log().FillFraction())
	}
	rs.harvest()
	rs.inst, rs.back.inner = nil, nil
	id := rs.front.s.begin(opMount)
	err := rs.front.inner.(*vfs.Namespace).Unmount(rs.mount)
	rs.front.s.end(id)
	if err != nil {
		return fmt.Errorf("unmount: %w", err)
	}
	if err := rs.mountInstance(p, true); err != nil {
		return err
	}

	dir := rs.genDir(gen)
	rs.listing, err = rs.front.ReadDir(p, dir)
	if err != nil {
		return fmt.Errorf("readdir %s: %w", dir, err)
	}
	for i, name := range rs.in.names {
		path := dir + "/" + name
		buf := rs.readBuf[rs.in.offs[i]:rs.in.offs[i+1]]
		if rs.w.statOnRestart {
			info, err := rs.front.Stat(p, path)
			if err != nil || info.Size != int64(len(buf)) {
				return fmt.Errorf("stat %s: size %d, %v", path, info.Size, err)
			}
		}
		f, err := rs.front.Open(p, path, vfs.O_RDONLY, 0)
		if err != nil {
			return fmt.Errorf("open %s: %w", path, err)
		}
		step := len(buf)
		if rs.w.ioBytes > 0 {
			step = int(rs.w.ioBytes)
		}
		for off := 0; off < len(buf); {
			n, err := f.Read(p, buf[off:min(off+step, len(buf))])
			if err != nil || n == 0 {
				return fmt.Errorf("read %s at %d: %d bytes, %v", path, off, n, err)
			}
			off += n
		}
		if err := f.Close(p); err != nil {
			return fmt.Errorf("close %s: %w", path, err)
		}
	}
	return nil
}

// verify checks, after the restart timer has stopped, that the recovered
// instance listed exactly generation gen's files and returned their
// bytes. It returns the number of checks made and the failures.
func (rs *rankState) verify(gen int) (checks int, errs []error) {
	dir := rs.genDir(gen)
	checks = 1 + len(rs.in.names)
	if len(rs.listing) != len(rs.sorted) {
		errs = append(errs, fmt.Errorf("readdir %s: %d entries, want %d", dir, len(rs.listing), len(rs.sorted)))
	} else {
		for i, e := range rs.listing {
			if want := dir + "/" + rs.sorted[i]; e.Path != want {
				errs = append(errs, fmt.Errorf("readdir %s: entry %d is %s, want %s", dir, i, e.Path, want))
				break
			}
		}
	}
	for i, name := range rs.in.names {
		got := crc32.ChecksumIEEE(rs.readBuf[rs.in.offs[i]:rs.in.offs[i+1]])
		if got != rs.in.crcs[i] {
			errs = append(errs, fmt.Errorf("%s/%s: crc %08x, want %08x", dir, name, got, rs.in.crcs[i]))
		}
	}
	return checks, errs
}

// phaseResult is one barrier-to-barrier phase: the wall time until the
// slowest rank finished, which rank that was, how far apart the ranks
// finished, and what the reference loop took beside it (the mean of one
// measurement before the phase and one after).
type phaseResult struct {
	wall, skew time.Duration
	slowest    int
	user, sys  time.Duration // process CPU time inside the phase
	ref        time.Duration
}

func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// runPhase runs fn on every rank at once, each as the only process of its
// own simulation environment: a sim.Env runs one process at a time, and
// the ranks must overlap on the real transport. The reference loop runs
// on either side of the timer.
func (st *stack) runPhase(epoch int, ph phase, fn func(rs *rankState, p *sim.Proc) error) (phaseResult, error) {
	for _, rs := range st.ranks {
		if rs.rec != nil {
			rs.rec.epoch, rs.rec.phase = int32(epoch), ph
		}
	}
	runtime.GC()
	refBefore, err := st.ref.measure()
	if err != nil {
		return phaseResult{}, err
	}
	ends := make([]time.Duration, len(st.ranks))
	errs := make([]error, len(st.ranks))
	var wg sync.WaitGroup
	u0, s0 := cpuTimes()
	start := time.Now()
	for i, rs := range st.ranks {
		wg.Add(1)
		go func(i int, rs *rankState) {
			defer wg.Done()
			env := sim.NewEnv()
			env.Go(rs.mount, func(p *sim.Proc) { errs[i] = fn(rs, p) })
			if _, err := env.Run(); err != nil && errs[i] == nil {
				errs[i] = err
			}
			ends[i] = time.Since(start)
		}(i, rs)
	}
	wg.Wait()
	u1, s1 := cpuTimes()
	refAfter, err := st.ref.measure()
	if err != nil {
		return phaseResult{}, err
	}
	res := phaseResult{user: u1 - u0, sys: s1 - s0, ref: (refBefore + refAfter) / 2}
	st.refs = append(st.refs, res.ref.Seconds())
	fastest := ends[0]
	for i, e := range ends {
		if e > res.wall {
			res.wall, res.slowest = e, i
		}
		if e < fastest {
			fastest = e
		}
	}
	res.skew = res.wall - fastest
	for i, err := range errs {
		if err != nil {
			return res, fmt.Errorf("rank %d %s epoch %d: %w", i, phaseNames[ph], epoch, err)
		}
	}
	return res, nil
}

// epochResult is one epoch's three phases.
type epochResult [nPhases]phaseResult

// runEpoch runs generation gen. Payload stamping before the phases and
// verification after them are outside every timer.
func (st *stack) runEpoch(epoch, gen int, tally *tally) (epochResult, error) {
	var res epochResult
	var err error
	for _, rs := range st.ranks {
		rs.in.stamp(gen)
	}
	before := st.vfsCalls()
	if res[phaseCkpt], err = st.runPhase(epoch, phaseCkpt, func(rs *rankState, p *sim.Proc) error {
		return rs.ckpt(p, gen)
	}); err != nil {
		return res, tally.fail(err)
	}
	if res[phaseSnapshot], err = st.runPhase(epoch, phaseSnapshot, (*rankState).snapshot); err != nil {
		return res, tally.fail(err)
	}
	if res[phaseRestart], err = st.runPhase(epoch, phaseRestart, func(rs *rankState, p *sim.Proc) error {
		return rs.restart(p, gen)
	}); err != nil {
		return res, tally.fail(err)
	}
	// Every vfs call returned without error, plus one recovery per rank.
	tally.attempted += st.vfsCalls() - before + int64(len(st.ranks))
	for _, rs := range st.ranks {
		checks, errs := rs.verify(gen)
		tally.attempted += int64(checks - len(errs))
		for _, err := range errs {
			_ = tally.fail(fmt.Errorf("rank %d epoch %d: %w", rs.id, epoch, err))
		}
	}
	return res, tally.first
}

func (st *stack) vfsCalls() int64 {
	var n int64
	for _, rs := range st.ranks {
		n += rs.front.calls
	}
	return n
}

// tally counts operations attempted and failed across a run. A failed
// call ends the run, so it counts once.
type tally struct {
	attempted, failed int64
	first             error
}

func (t *tally) fail(err error) error {
	t.attempted++
	t.failed++
	if t.first == nil {
		t.first = err
	}
	return err
}

// setUp builds the stack, mounts every rank and runs the warm-up epochs;
// after it the data region has been swept once and two generations are
// live, which is the state every timed epoch starts from.
func setUp(w workload, seed uint64, traced bool, tally *tally) (*stack, error) {
	st, err := newStack(w, seed, traced)
	if err != nil {
		return nil, err
	}
	if _, err := st.runPhase(0, phaseRestart, func(rs *rankState, p *sim.Proc) error {
		return rs.mountInstance(p, false)
	}); err != nil {
		st.close()
		return nil, err
	}
	for gen := 0; gen < warmupEpochs; gen++ {
		if _, err := st.runEpoch(0, gen, tally); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}
