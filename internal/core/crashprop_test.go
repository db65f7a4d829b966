package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/faults"
	"github.com/nvme-cr/nvmecr/internal/microfs"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/nvme"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/spdk"
	"github.com/nvme-cr/nvmecr/internal/vfs"
	"github.com/nvme-cr/nvmecr/internal/wal"
)

// TestCrashProp is the crash-consistency property test (bbolt-style
// power-fail discipline): a randomized workload runs under a random
// fault plan, the process crashes, a fresh runtime recovers from the
// device, and the recovered namespace must hold every acknowledged
// namespace operation, every file at a size between its last durability
// point (Fsync, writable Close, snapshot) and its last Write, exactly the
// written bytes below that size, and nothing torn.
// Each iteration is driven entirely by one seed; a failure message
// carries the seed and the plan's injection trace, so
//
//	go test ./internal/core -run CrashProp -count=1
//
// with the seed pinned in rerunSeed reproduces it exactly.
//
// Break-demos of the write-path draws (full mode, each red at the seed
// named, then reverted):
//
//   - wal.Append keeps an earlier write record as the coalescing target
//     across a create, mkdir or rename record, as it did before every
//     record became a barrier: seed 12664268, "recovered bytes differ
//     from the written content" (the subdirectory draw).
//   - file.Fsync without log.Sync: seed 13875875, crash-at-fsynced,
//     "recovered at 512 bytes, 30427 were durable".
//   - file.Close without log.Sync: seed 12838486, crash-at-closed,
//     "recovered at 57885 bytes, 62342 were durable".
//   - Instance.logWrite without flushStage (a log page may then reach
//     the device ahead of the staged bytes its extension admits): seed
//     12711782, "recovered bytes differ from the written content below
//     87545"; and TestCrashPropLogFull at seed 12648430, "... below
//     25355 (recovered at 58123, 0 durable, 25355 written)".
//   - Rename logging its record after checking only that the source
//     exists, instead of running checkRename first: seed 12656349 (the
//     second), "recovery failed: microfs: replaying rename at 466:
//     microfs: parent of "/nodir/seg.chk": vfs: file does not exist" (the
//     refused-operation draws). Unlink without checkUnlink first: the
//     same seed, "replaying unlink at 161: vfs: is a directory". Both
//     also fail TestCrashPropLogFull at that seed.
//
// ~200 iterations run in the default mode, 25 under -short. A nightly
// sweep can raise crashPropIters via successive -count=1 runs.
func TestCrashProp(t *testing.T) {
	crashPropSuite(t, rerunSeed, crashPropShape{logBytes: 64 * model.KB})
}

// crashPropSuite runs the seeded iterations of one shape, or only the
// rerun seed when it is non-zero.
func crashPropSuite(t *testing.T, rerun int64, shape crashPropShape) {
	iters := crashPropIters
	if testing.Short() {
		iters = crashPropItersShort
	}
	if rerun != 0 {
		crashPropIteration(t, rerun, shape)
		return
	}
	for i := 0; i < iters; i++ {
		seed := crashPropBaseSeed + int64(i)*7919
		crashPropIteration(t, seed, shape)
		if t.Failed() {
			return // the first failing seed is the reproduction recipe
		}
	}
}

// TestCrashPropLogFull is the same property over a log of four pages and
// a workload that mostly creates: the log fills every dozen records, so
// creates, mkdirs and writes routinely find it full, force a snapshot
// from inside the operation and land their record at offset 0 of the next
// epoch — which the 64 KiB log of TestCrashProp never did in 200 seeds.
// Seeds and modes as there (pin a printed seed in rerunLogFullSeed).
//
// Break-demo: with Open(O_CREATE) and Mkdir applying the create before
// logging it, as they did, the forced snapshot already holds the inode
// the retried record creates: seed 12680106 (the fifth), "recovery
// failed: microfs: replaying create at 0: vfs: file already exists".
func TestCrashPropLogFull(t *testing.T) {
	crashPropSuite(t, rerunLogFullSeed, crashPropShape{logBytes: 4 * logPageBytes, createHeavy: true})
}

// crashPropShape is what the two suites vary: the size of the log region,
// and whether half of all draws create a file.
type crashPropShape struct {
	logBytes    int64
	createHeavy bool
}

const (
	crashPropIters      = 200
	crashPropItersShort = 25
	crashPropBaseSeed   = 0xC0FFEE

	// rerunSeed, when non-zero, replays exactly one iteration — set it
	// to the seed printed by a failure to reproduce locally.
	rerunSeed = 0
	// rerunLogFullSeed is rerunSeed for TestCrashPropLogFull.
	rerunLogFullSeed = 0

	// logPageBytes is the WAL device page size this suite runs with: the
	// atomic log write unit the torn-append rules are quantized to. 512
	// (a device sector) rather than the production 4096 so that log
	// records routinely straddle page boundaries — the tear shape the
	// record CRC exists to catch.
	logPageBytes = 512
)

// randomCrashPlan draws one fault schedule: fault-free baselines,
// crashes at an nth device write, torn writes (a command-aligned prefix
// lands, then power is gone), crashes at an epoch boundary, a
// low-probability crash anywhere, torn or dropped WAL appends (the
// log flush tears at a page boundary mid-record, the case the record
// CRC exists for), and a kill on either side of a durability point: on
// the way into an Fsync, with whatever write extension the log holds
// still in DRAM, or right after an Fsync or a Close that had to commit
// it.
func randomCrashPlan(seed int64, rng *rand.Rand) *faults.Plan {
	var rules []faults.Rule
	switch rng.Intn(8) {
	case 0:
		// Fault-free baseline: the workload plus recovery must hold
		// without any injection, or the property itself is broken.
	case 1:
		rules = append(rules, faults.Rule{
			Name: "crash-mid-io", Layer: faults.LayerProcess, Op: "write",
			Nth: int64(1 + rng.Intn(90)), Kind: faults.KindCrash,
		})
	case 2:
		rules = append(rules, faults.Rule{
			Name: "torn-then-crash", Layer: faults.LayerProcess, Op: "write",
			Nth: int64(1 + rng.Intn(90)), Kind: faults.KindTornWrite,
			Arg: int64(rng.Intn(16 * 1024)),
		})
	case 3:
		rules = append(rules, faults.Rule{
			Name: "crash-at-epoch", Layer: faults.LayerProcess, Op: "epoch",
			Nth: int64(1 + rng.Intn(3)), Kind: faults.KindCrash,
		})
	case 4:
		rules = append(rules, faults.Rule{
			Name: "random-crash", Layer: faults.LayerProcess, Op: "write",
			Probability: 0.03, Count: 1, Kind: faults.KindCrash,
		})
	case 5:
		// Tear a log flush whose record straddles a page boundary,
		// keeping only the first page: the record is cut mid-record and
		// only the CRC keeps replay from resurrecting its torn head.
		rules = append(rules, faults.Rule{
			Name: "torn-wal-straddle", Layer: faults.LayerWAL, Op: "append-straddle",
			Nth: int64(1 + rng.Intn(2)), Kind: faults.KindTornWrite,
			Arg: logPageBytes, Count: 1,
		})
	case 6:
		// A blind nth-flush fault: dropped entirely or torn after its
		// first page.
		kind, arg := faults.KindCrash, int64(0)
		if rng.Intn(2) == 0 {
			kind, arg = faults.KindTornWrite, logPageBytes
		}
		rules = append(rules, faults.Rule{
			Name: "wal-append-fault", Layer: faults.LayerWAL, Op: "append",
			Nth: int64(1 + rng.Intn(40)), Kind: kind, Arg: arg, Count: 1,
		})
	case 7:
		// Between a write that extended the log's last record and the
		// Fsync that would have committed the extension, or right after
		// the Fsync or the Close that did.
		op := []string{"fsync", "fsynced", "closed"}[rng.Intn(3)]
		rules = append(rules, faults.Rule{
			Name: "crash-at-" + op, Layer: faults.LayerProcess, Op: op,
			Nth: int64(1 + rng.Intn(4)), Kind: faults.KindCrash,
		})
	}
	return faults.NewPlan(seed, rules...)
}

// patternByte is the deterministic content model: the byte at offset
// off of file idx, regenerated at verification time.
func patternByte(idx int, off int64) byte {
	return byte(int64(idx)*31 + off*7 + off>>8)
}

func patternChunk(idx int, off, n int64) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = patternByte(idx, off+int64(i))
	}
	return out
}

// propFile is the model of one file: what was written to it and how much
// of that a crash may not take back.
type propFile struct {
	idx int // content key (stable across renames)
	// written counts the bytes whose Write returned before the crash:
	// their data is on the device, so whatever size the file recovers
	// at, the bytes below it and below written are exactly these.
	written int64
	// durable is written as of the last durability point — an Fsync on
	// any handle, this file's writable Close, a snapshot. It is a lower
	// bound on the recovered size and nothing more: records logged for
	// other files commit a pending extension too, and the model does
	// not follow that.
	durable int64
	// attempted is written plus the Write in flight at the crash, whose
	// record may have reached the log: the recovered size's upper bound.
	attempted int64
}

// crashPropIteration runs one seeded workload + crash + recovery round.
func crashPropIteration(t *testing.T, seed int64, shape crashPropShape) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	plan := randomCrashPlan(seed, rng)
	failf := func(format string, args ...any) {
		t.Helper()
		t.Errorf("crashprop seed %d: %s\n%s", seed, fmt.Sprintf(format, args...), plan.FormatTrace())
	}

	env := sim.NewEnv()
	params := model.Default()
	params.SSD.CapacityGB = 1
	dev := nvme.New(env, "ssd0", params.SSD, true)
	ns, err := dev.CreateNamespace(64 * model.MB)
	if err != nil {
		t.Fatal(err)
	}
	acct := &vfs.Account{}
	base, err := spdk.NewPlane(ns, 0, ns.Size(), params.Host, acct)
	if err != nil {
		t.Fatal(err)
	}
	cp := faults.NewCrashPlane(base, plan, 0)
	cfg := microfs.Config{
		Plane:    cp,
		Host:     params.Host,
		Features: microfs.AllFeatures(),
		Account:  acct,
		// A small log region forces snapshot churn mid-workload; small
		// log pages make records straddle page boundaries routinely.
		LogBytes:     shape.logBytes,
		LogPageBytes: logPageBytes,
		SnapBytes:    1 * model.MB,
		// Byte-offset torn appends at the WAL layer (plane-level tears
		// are command-aligned and cannot cut inside a log page).
		WrapLogWrite: func(w wal.WriteFunc) wal.WriteFunc {
			return faults.TornAppendFunc(plan, 0, logPageBytes, nil, w)
		},
	}
	inst, err := microfs.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// expect maps path -> acknowledged durable state; gone holds paths
	// whose absence was acknowledged (unlink, rename source). limbo is
	// the single namespace-mutating operation in flight when the crash
	// fired: its log record may or may not have reached the device, so
	// either outcome is legal and verification must accept both.
	// issued records every path the workload ever handed to mkdir,
	// create, or rename — acknowledged or not. Recovery may surface any
	// issued path (in-flight records legitimately replay) but nothing
	// else: a path outside this set is a torn record resurrected.
	expect := make(map[string]*propFile)
	gone := make(map[string]bool)
	issued := map[string]bool{"/ckpt": true}
	type limboOp struct {
		kind string // "unlink" or "rename"
		src  string
		dst  string
	}
	var limbo *limboOp

	env.Go("workload", func(p *sim.Proc) {
		type openFile struct {
			path string
			f    vfs.File
			pf   *propFile
		}
		var open []openFile
		crashed := func() bool { return cp.Crashed() }
		// dead: the process is gone (plane crash, torn WAL append, or
		// epoch kill) — stop issuing operations and go recover.
		// aborted: the iteration already failed; skip recovery.
		dead, aborted, walDead := false, false, false
		// oops classifies an operation error: an injected fault or any
		// error after the crash point means the process died mid-op;
		// anything else is a real failure of the property.
		oops := func(ctx string, err error) bool {
			if err == nil {
				return false
			}
			dead = true
			if faults.IsInjected(err) {
				walDead = true
				return true
			}
			if crashed() {
				return true
			}
			failf("%s: %v", ctx, err)
			aborted = true
			return true
		}
		nextIdx, nextDir := 0, 0
		var files []*propFile
		// Each helper reports whether the process is still alive.
		mkdir := func(path string) bool {
			issued[path] = true
			return !oops("mkdir "+path, inst.Mkdir(p, path, 0o755)) && !crashed()
		}
		create := func(path string) bool {
			issued[path] = true
			f, err := inst.Open(p, path, vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
			if oops("create "+path, err) {
				return false
			}
			pf := &propFile{idx: nextIdx}
			nextIdx++
			files = append(files, pf)
			open = append(open, openFile{path, f, pf})
			if crashed() {
				return false
			}
			expect[path] = pf
			return true
		}
		write := func(of openFile, n int64) bool {
			data := patternChunk(of.pf.idx, of.pf.written, n)
			of.pf.attempted = of.pf.written + n
			if _, err := of.f.Write(p, data); oops("write "+of.path, err) || crashed() {
				return false
			}
			of.pf.written += n
			return true
		}
		commit := func(pfs ...*propFile) {
			for _, pf := range pfs {
				pf.durable = pf.written
			}
		}
		// killedAt is a harness-level process-crash point: the kill lands
		// between two calls.
		killedAt := func(op string) bool {
			inj, ok := plan.Eval(faults.Point{Layer: faults.LayerProcess, Op: op, Rank: 0, Now: p.Now()})
			if ok && inj.Kind == faults.KindCrash {
				dead = true
			}
			return dead
		}
		fsync := func(of openFile) bool {
			if killedAt("fsync") || oops("fsync "+of.path, of.f.Fsync(p)) || crashed() {
				return false
			}
			commit(files...) // "makes all written data durable"
			return !killedAt("fsynced")
		}
		// closeFile closes open[i]; a writable Close is a durability
		// point for its own file.
		closeFile := func(i int) bool {
			of := open[i]
			open = append(open[:i], open[i+1:]...)
			if oops("close "+of.path, of.f.Close(p)) || crashed() {
				return false
			}
			commit(of.pf)
			return true
		}
		// refuse issues one namespace operation microfs must refuse with a
		// typed error before anything is logged: a rename onto an existing
		// name, into a missing directory or of a directory, or an unlink of
		// a directory. The model does not change. Its draws come from
		// their own stream, so the workload each seed draws below is the
		// one it drew without them.
		refuseRng := rand.New(rand.NewSource(^seed))
		refuse := func() bool {
			var paths []string
			for path := range expect {
				paths = append(paths, path)
			}
			sort.Strings(paths) // map order is random
			var ctx string
			var want, err error
			switch kind := refuseRng.Intn(4); {
			case kind == 0 && len(paths) >= 2:
				ctx, want = "rename "+paths[0]+" onto "+paths[1], vfs.ErrExist
				err = inst.Rename(p, paths[0], paths[1])
			case kind == 1 && len(paths) >= 1:
				ctx, want = "rename "+paths[0]+" into a missing directory", vfs.ErrNotExist
				err = inst.Rename(p, paths[0], "/nodir/seg.chk")
			case kind == 2 && nextIdx > 0:
				ctx, want = "rename of directory /ckpt", vfs.ErrIsDir
				err = inst.Rename(p, "/ckpt", "/ckpt.moved")
			case kind == 3 && nextIdx > 0:
				ctx, want = "unlink of directory /ckpt", vfs.ErrIsDir
				err = inst.Unlink(p, "/ckpt")
			default:
				return true
			}
			switch {
			case errors.Is(err, want):
				return !crashed()
			case err == nil:
				failf("%s accepted, want %v", ctx, want)
				dead, aborted = true, true
				return false
			default:
				return !oops(ctx, err)
			}
		}
		nOps := 30 + rng.Intn(60)
		for op := 0; op < nOps && !dead; op++ {
			if crashed() {
				break
			}
			if refuseRng.Intn(6) == 0 && !refuse() {
				break
			}
			k := rng.Intn(12)
			if shape.createHeavy && k >= 3 && k < 6 {
				k = 0 // three write draws in four become creates
			}
			switch {
			case k < 3: // create a fresh checkpoint segment
				if nextIdx == 0 && !mkdir("/ckpt") {
					break
				}
				// Long, variable-length names (as checkpoint segments
				// have) make log records straddle page boundaries.
				create(fmt.Sprintf("/ckpt/rank%03d-step%06d-%s.chk",
					nextIdx, nextIdx*100+7, strings.Repeat("x", rng.Intn(120))))
			case k < 7 && len(open) > 0: // append a deterministic chunk
				write(open[rng.Intn(len(open))], int64(1+rng.Intn(16*1024)))
			case k == 7 && len(open) > 0: // fsync + close one file
				i := rng.Intn(len(open))
				_ = fsync(open[i]) && closeFile(i)
			case k == 10 && len(open) > 0:
				// A run of contiguous writes, which the log folds into
				// one record and extends in DRAM; then nothing, or the
				// Fsync that commits the extension — through this handle
				// or another file's — or a Close without one.
				i := rng.Intn(len(open))
				alive := true
				for j, n := 0, 2+rng.Intn(4); j < n && alive; j++ {
					alive = write(open[i], int64(1+rng.Intn(16*1024)))
				}
				if !alive {
					break
				}
				switch rng.Intn(3) {
				case 1:
					fsync(open[rng.Intn(len(open))])
				case 2:
					_ = closeFile(i) && !killedAt("closed")
				}
			case k == 11 && len(open) > 0:
				// A create in a fresh subdirectory between two writes of
				// an open file: the subdirectory's first entry allocates
				// a block, and the second write (a hugeblock, so it
				// allocates too) must replay after it.
				of := open[rng.Intn(len(open))]
				dir := fmt.Sprintf("/ckpt/sub%03d", nextDir)
				nextDir++
				_ = write(of, int64(1+rng.Intn(16*1024))) &&
					mkdir(dir) && create(dir+"/seg.chk") &&
					write(of, 32*model.KB)
			case k == 8: // rename or unlink a closed file
				var closed []string
				for path := range expect {
					inUse := false
					for _, of := range open {
						if of.path == path {
							inUse = true
							break
						}
					}
					if !inUse {
						closed = append(closed, path)
					}
				}
				if len(closed) == 0 {
					continue
				}
				// Map iteration order is random; pick deterministically.
				path := closed[0]
				for _, c := range closed[1:] {
					if c < path {
						path = c
					}
				}
				if rng.Intn(2) == 0 {
					dst := path + ".final"
					issued[dst] = true
					err := inst.Rename(p, path, dst)
					if oops("rename "+path, err) {
						if walDead {
							limbo = &limboOp{kind: "rename", src: path, dst: dst}
						}
						break
					}
					if !crashed() {
						expect[dst] = expect[path]
						delete(expect, path)
						gone[path] = true
					} else {
						limbo = &limboOp{kind: "rename", src: path, dst: dst}
					}
				} else {
					err := inst.Unlink(p, path)
					if oops("unlink "+path, err) {
						if walDead {
							limbo = &limboOp{kind: "unlink", src: path}
						}
						break
					}
					if !crashed() {
						delete(expect, path)
						gone[path] = true
					} else {
						limbo = &limboOp{kind: "unlink", src: path}
					}
				}
			case k == 9: // checkpoint epoch boundary
				if oops("snapshot", inst.SnapshotNow(p)) {
					break
				}
				if crashed() {
					break
				}
				commit(files...)  // the snapshot holds every file's size
				killedAt("epoch") // exactly between epochs
			}
		}
		if aborted {
			return
		}

		// Crash happened (or the workload simply ended — clean shutdown
		// is the baseline case). A fresh runtime recovers from the
		// device through a fault-free plane.
		recPlane, err := spdk.NewPlane(ns, 0, ns.Size(), params.Host, acct)
		if err != nil {
			failf("recovery plane: %v", err)
			return
		}
		rcfg := cfg
		rcfg.Plane = recPlane
		rcfg.WrapLogWrite = nil
		rec, err := microfs.New(env, rcfg)
		if err != nil {
			failf("recovery instance: %v", err)
			return
		}
		if err := rec.Recover(p); err != nil {
			failf("recovery failed: %v", err)
			return
		}

		// Prefix durability: every acknowledged file exists, at a size
		// no smaller than what its last durability point covered and no
		// larger than what was ever handed to Write, and holds exactly
		// the written bytes below that size; acknowledged unlinks and
		// rename sources are absent. The one in-flight (limbo)
		// operation may have landed or not.
		check := func(path string, pf *propFile) error {
			fi, err := rec.Stat(p, path)
			if err != nil {
				return fmt.Errorf("stat: %w", err)
			}
			if fi.Size < pf.durable {
				return fmt.Errorf("recovered at %d bytes, %d were durable (%d written)", fi.Size, pf.durable, pf.written)
			}
			if fi.Size > pf.attempted {
				return fmt.Errorf("recovered at %d bytes, only %d were ever written", fi.Size, pf.attempted)
			}
			size := min(fi.Size, pf.written)
			if size == 0 {
				return nil
			}
			f, err := rec.Open(p, path, vfs.O_RDONLY, 0)
			if err != nil {
				return fmt.Errorf("open: %w", err)
			}
			defer f.Close(p)
			buf := make([]byte, size)
			n, err := f.Read(p, buf)
			if err != nil || int64(n) != size {
				return fmt.Errorf("read: n=%d err=%v, want %d bytes", n, err, size)
			}
			if want := patternChunk(pf.idx, 0, size); !bytes.Equal(buf, want) {
				return fmt.Errorf("recovered bytes differ from the written content below %d (recovered at %d, %d durable, %d written)",
					size, fi.Size, pf.durable, pf.written)
			}
			return nil
		}
		for path, pf := range expect {
			if _, err := rec.Stat(p, path); err != nil {
				// An unacknowledged unlink or rename whose log record
				// reached the device before the crash is legitimately
				// replayed; any other disappearance is a durability bug.
				if limbo != nil && limbo.src == path {
					if limbo.kind == "unlink" {
						continue
					}
					if err := check(limbo.dst, pf); err != nil {
						failf("in-flight rename %s -> %s landed, but %s: %v", path, limbo.dst, limbo.dst, err)
						return
					}
					continue
				}
				failf("acknowledged file %s missing after recovery: %v", path, err)
				return
			}
			if err := check(path, pf); err != nil {
				failf("file %s: %v", path, err)
				return
			}
		}
		for path := range gone {
			if _, err := rec.Stat(p, path); err == nil {
				failf("path %s resurfaced after its removal was acknowledged", path)
				return
			}
		}
		// Nothing torn surfaces: every recovered path must be one the
		// workload actually issued. A path outside the issued set means
		// replay resurrected a torn record (the record CRC's job to
		// prevent).
		var walk func(dir string) bool
		walk = func(dir string) bool {
			entries, err := rec.ReadDir(p, dir)
			if err != nil {
				failf("readdir %s after recovery: %v", dir, err)
				return false
			}
			for _, e := range entries {
				if !issued[e.Path] {
					failf("unattributable path %q surfaced after recovery (torn record resurrected?)", e.Path)
					return false
				}
				if e.IsDir && !walk(e.Path) {
					return false
				}
			}
			return true
		}
		walk("/")
	})
	if _, err := env.Run(); err != nil {
		t.Fatalf("crashprop seed %d: sim: %v\n%s", seed, err, plan.FormatTrace())
	}
}
