package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"github.com/nvme-cr/nvmecr/internal/faults"
	"github.com/nvme-cr/nvmecr/internal/microfs"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/nvme"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/spdk"
	"github.com/nvme-cr/nvmecr/internal/vfs"
	"github.com/nvme-cr/nvmecr/internal/wal"
)

func init() { register("extfaults", extFaults) }

// faultScenario is one named fault schedule shape; rules draws its
// concrete rules for one seeded round.
type faultScenario struct {
	name  string
	rules func(rng *rand.Rand) []faults.Rule
}

// extFaults is the recovery regression net as an experiment: a seeded
// campaign of crash/recover rounds on a single micro filesystem, one
// row per fault scenario. Every round runs a checkpoint-style workload
// under a faults.Plan, kills the process at the injected point,
// recovers a fresh instance from the device, and verifies that every
// written file survives at no less than the size its last Fsync or Close
// covered, with exactly the written bytes below its recovered size. The
// table reports how many injections fired and how many rounds
// recovered clean; any durability violation fails the experiment with
// the reproducing seed.
func extFaults(opts Options) (*Table, error) {
	t := &Table{
		ID:        "extfaults",
		Title:     "EXTENSION — seeded fault injection: acked data survives crash+recovery",
		PaperNote: "beyond the paper: systematic failure schedules over the recovery paths the paper argues about (§III-C provenance replay)",
		Header:    []string{"scenario", "rounds", "injections", "recovered-ok"},
	}
	rounds := 20
	if opts.Quick {
		rounds = 5
	}
	scenarios := []faultScenario{
		{name: "fault-free", rules: func(rng *rand.Rand) []faults.Rule { return nil }},
		{name: "crash-mid-io", rules: func(rng *rand.Rand) []faults.Rule {
			return []faults.Rule{{
				Name: "crash-mid-io", Layer: faults.LayerProcess, Op: "write",
				Nth: int64(1 + rng.Intn(60)), Kind: faults.KindCrash,
			}}
		}},
		{name: "torn-plane-write", rules: func(rng *rand.Rand) []faults.Rule {
			return []faults.Rule{{
				Name: "torn-plane-write", Layer: faults.LayerProcess, Op: "write",
				Nth: int64(1 + rng.Intn(60)), Kind: faults.KindTornWrite,
				Arg: int64(rng.Intn(16 * 1024)),
			}}
		}},
		{name: "torn-wal-straddle", rules: func(rng *rand.Rand) []faults.Rule {
			return []faults.Rule{{
				Name: "torn-wal-straddle", Layer: faults.LayerWAL, Op: "append-straddle",
				Nth: int64(1 + rng.Intn(2)), Kind: faults.KindTornWrite,
				Arg: extFaultsLogPage, Count: 1,
			}}
		}},
		{name: "crash-at-epoch", rules: func(rng *rand.Rand) []faults.Rule {
			return []faults.Rule{{
				Name: "crash-at-epoch", Layer: faults.LayerProcess, Op: "epoch",
				Nth: int64(1 + rng.Intn(3)), Kind: faults.KindCrash,
			}}
		}},
	}
	for _, sc := range scenarios {
		injected, ok := 0, 0
		for round := 0; round < rounds; round++ {
			seed := int64(0xFA17 + round*7919)
			n, err := extFaultsRound(sc, seed)
			if err != nil {
				return nil, fmt.Errorf("extfaults %s seed %d: %w", sc.name, seed, err)
			}
			injected += n
			ok++
		}
		t.AddRow(sc.name, itoa(rounds), itoa(injected), itoa(ok))
	}
	return t, nil
}

// extFaultsLogPage is the WAL device page size the campaign runs with;
// 512 B pages make log records straddle page boundaries routinely, so
// the torn-append scenarios exercise the record CRC.
const extFaultsLogPage = 512

// extFaultsRound runs one seeded workload + crash + recovery round and
// returns how many injections fired.
func extFaultsRound(sc faultScenario, seed int64) (int, error) {
	rng := rand.New(rand.NewSource(seed))
	plan := faults.NewPlan(seed, sc.rules(rng)...)
	if tr := currentTracer(); tr != nil {
		plan.WithTracer(tr)
	}

	env := sim.NewEnv()
	params := model.Default()
	params.SSD.CapacityGB = 1
	dev := nvme.New(env, "ssd0", params.SSD, true)
	ns, err := dev.CreateNamespace(64 * model.MB)
	if err != nil {
		return 0, err
	}
	acct := &vfs.Account{}
	base, err := spdk.NewPlane(ns, 0, ns.Size(), params.Host, acct)
	if err != nil {
		return 0, err
	}
	cp := faults.NewCrashPlane(base, plan, 0)
	cfg := microfs.Config{
		Plane:        cp,
		Host:         params.Host,
		Features:     microfs.AllFeatures(),
		Account:      acct,
		LogBytes:     64 * model.KB,
		LogPageBytes: extFaultsLogPage,
		SnapBytes:    1 * model.MB,
		WrapLogWrite: func(w wal.WriteFunc) wal.WriteFunc {
			return faults.TornAppendFunc(plan, 0, extFaultsLogPage, nil, w)
		},
	}
	inst, err := microfs.New(env, cfg)
	if err != nil {
		return 0, err
	}

	pattern := func(idx int, off, n int64) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(int64(idx)*31 + (off+int64(i))*7)
		}
		return out
	}

	// written maps path -> bytes whose Write returned nil with the plane
	// still alive: their data is on the device. durable is written as of
	// the file's last Fsync + Close or the last snapshot, the least it may
	// recover at; a Write that extended the log's last record is durable
	// only from there on.
	written := map[string]int64{}
	durable := map[string]int64{}
	var verr error
	env.Go("round", func(p *sim.Proc) {
		type openFile struct {
			path string
			idx  int
			f    vfs.File
		}
		var open []openFile
		idxOf := map[string]int{}
		dead := false
		// The workload stops at the first injected error or crash — the
		// process is dead from that point — and goes straight to
		// recovery. Only a non-injected error before the crash point is
		// a real failure.
		oops := func(err error) bool {
			if err == nil {
				return false
			}
			dead = true
			if !faults.IsInjected(err) && !cp.Crashed() {
				verr = err
			}
			return true
		}
		if oops(inst.Mkdir(p, "/ckpt", 0o755)) {
			dead = true
		}
		nextIdx := 0
		for op := 0; op < 40 && !dead && !cp.Crashed(); op++ {
			switch k := rng.Intn(8); {
			case k < 2:
				// Variable-length names (as checkpoint segments have)
				// make log records straddle page boundaries.
				path := fmt.Sprintf("/ckpt/rank%03d-step%06d-%s.chk",
					nextIdx, nextIdx*100, strings.Repeat("x", rng.Intn(120)))
				f, err := inst.Open(p, path, vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
				if oops(err) {
					break
				}
				idxOf[path] = nextIdx
				open = append(open, openFile{path, nextIdx, f})
				nextIdx++
			case k < 6 && len(open) > 0:
				of := open[rng.Intn(len(open))]
				n := int64(1 + rng.Intn(8*1024))
				if _, err := of.f.Write(p, pattern(of.idx, written[of.path], n)); oops(err) {
					break
				}
				if !cp.Crashed() {
					written[of.path] += n
				}
			case k == 6 && len(open) > 0:
				i := rng.Intn(len(open))
				of := open[i]
				if oops(of.f.Fsync(p)) || oops(of.f.Close(p)) {
					break
				}
				if !cp.Crashed() {
					durable[of.path] = written[of.path]
				}
				open = append(open[:i], open[i+1:]...)
			case k == 7:
				if oops(inst.SnapshotNow(p)) {
					break
				}
				if !cp.Crashed() {
					// The snapshot holds every file's size.
					for path, n := range written {
						durable[path] = n
					}
				}
				if inj, ok := plan.Eval(faults.Point{
					Layer: faults.LayerProcess, Op: "epoch", Rank: 0, Now: p.Now(),
				}); ok && inj.Kind == faults.KindCrash {
					dead = true
				}
			}
		}
		if verr != nil {
			return
		}

		// Recover through a fresh fault-free plane and verify every
		// written file byte-for-byte below the size it recovered at.
		recPlane, err := spdk.NewPlane(ns, 0, ns.Size(), params.Host, acct)
		if err != nil {
			verr = err
			return
		}
		rcfg := cfg
		rcfg.Plane = recPlane
		rcfg.WrapLogWrite = nil
		rec, err := microfs.New(env, rcfg)
		if err != nil {
			verr = err
			return
		}
		if err := rec.Recover(p); err != nil {
			verr = fmt.Errorf("recovery: %w\n%s", err, plan.FormatTrace())
			return
		}
		for path, size := range written {
			fi, err := rec.Stat(p, path)
			if err != nil {
				verr = fmt.Errorf("acked file %s missing: %v\n%s", path, err, plan.FormatTrace())
				return
			}
			if fi.Size < durable[path] {
				verr = fmt.Errorf("%s recovered at %d bytes, %d durable (%d written)\n%s", path, fi.Size, durable[path], size, plan.FormatTrace())
				return
			}
			size = min(size, fi.Size)
			if size == 0 {
				continue
			}
			f, err := rec.Open(p, path, vfs.O_RDONLY, 0)
			if err != nil {
				verr = fmt.Errorf("open %s: %v\n%s", path, err, plan.FormatTrace())
				return
			}
			buf := make([]byte, size)
			n, err := f.Read(p, buf)
			f.Close(p)
			if err != nil || int64(n) != size {
				verr = fmt.Errorf("read %s: n=%d err=%v, want %d\n%s", path, n, err, size, plan.FormatTrace())
				return
			}
			if !bytes.Equal(buf, pattern(idxOf[path], 0, size)) {
				verr = fmt.Errorf("%s: recovered bytes differ from the written content below %d\n%s", path, size, plan.FormatTrace())
				return
			}
		}
	})
	if _, err := env.Run(); err != nil {
		return 0, err
	}
	return plan.Injections(), verr
}
