package nvmeof

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// stripeCmd is one command a StripedPlane child was handed.
type stripeCmd struct {
	child   int
	op      string // "write", "writev", "read"
	off, n  int64
	pieces  int
	cmdUnit int64
	goid    string
}

// key is the command without who ran it and at what granularity.
func (c stripeCmd) key() stripeCmd { c.cmdUnit, c.goid = 0, ""; return c }

// cmdLog is the one log every child of a plane under test appends to,
// so the order commands were issued in across children is observable.
type cmdLog struct {
	mu   sync.Mutex
	cmds []stripeCmd
}

func (l *cmdLog) add(c stripeCmd) {
	c.goid = goid()
	l.mu.Lock()
	l.cmds = append(l.cmds, c)
	l.mu.Unlock()
}

func (l *cmdLog) take() []stripeCmd {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.cmds
	l.cmds = nil
	return out
}

// goid names the calling goroutine ("goroutine 18 [running]:" → "18").
func goid() string {
	var b [64]byte
	return string(bytes.Fields(b[:runtime.Stack(b[:], false)])[1])
}

// recPlane is the stub-disk move: a memPlane that reports every command
// it sees before serving it.
type recPlane struct {
	*memPlane
	idx int
	log *cmdLog
}

func (r *recPlane) Write(p *sim.Proc, off, length int64, data []byte, cmdUnit int64) error {
	r.log.add(stripeCmd{child: r.idx, op: "write", off: off, n: length, pieces: 1, cmdUnit: cmdUnit})
	return r.memPlane.Write(p, off, length, data, cmdUnit)
}

func (r *recPlane) Read(p *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error) {
	r.log.add(stripeCmd{child: r.idx, op: "read", off: off, n: length, pieces: 1, cmdUnit: cmdUnit})
	return r.memPlane.Read(p, off, length, cmdUnit)
}

// recVecPlane is a recPlane that can gather.
type recVecPlane struct{ *recPlane }

func (r recVecPlane) WriteV(p *sim.Proc, off int64, bufs [][]byte) error {
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	r.log.add(stripeCmd{child: r.idx, op: "writev", off: off, n: n, pieces: len(bufs)})
	return r.memPlane.Write(p, off, n, bytes.Join(bufs, nil), 0)
}

func recordedPlane(t *testing.T, groups, replicas int, childSize, unit int64, vector bool) (*StripedPlane, *cmdLog) {
	t.Helper()
	log := &cmdLog{}
	children := make([]plane.Plane, groups*replicas)
	for i := range children {
		rec := &recPlane{memPlane: newMemPlane(childSize, true), idx: i, log: log}
		children[i] = rec
		if vector {
			children[i] = recVecPlane{rec}
		}
	}
	sp, err := NewMirroredPlane(children, unit, replicas)
	if err != nil {
		t.Fatal(err)
	}
	return sp, log
}

// groupRun is one group's share of a striped range: its member-local
// extent and the number of pieces of the caller's buffer it is made of.
type groupRun struct {
	group  int
	off, n int64
	pieces int
}

// groupRuns is the reference decomposition, one unit at a time: the
// groups a striped range touches, in the order it reaches them (one
// group holds its units back to back, so there the buffer is one piece).
func groupRuns(groups int, unit, off, length int64) []groupRun {
	var out []groupRun
	at := map[int]int{}
	for cur := off; cur < off+length; {
		k, in := cur/unit, cur%unit
		n := min(unit-in, off+length-cur)
		g := int(k % int64(groups))
		i, seen := at[g]
		if !seen {
			i = len(out)
			at[g] = i
			out = append(out, groupRun{group: g, off: k/int64(groups)*unit + in})
		}
		out[i].n += n
		if out[i].pieces == 0 || groups > 1 {
			out[i].pieces++
		}
		cur += n
	}
	return out
}

func sortCmds(cmds []stripeCmd) {
	sort.Slice(cmds, func(i, j int) bool {
		if cmds[i].child != cmds[j].child {
			return cmds[i].child < cmds[j].child
		}
		return cmds[i].off < cmds[j].off
	})
}

// TestStripedPlaneCommandShape pins the one shape every striped
// operation has, through children that see every command: a write is
// one command per attached member of each touched group (one WriteV
// where the child gathers, one Write per piece where it cannot), a read
// one command per touched group (one per live member where a mirrored
// extent of two units or more splits); under a simulated process the
// commands arrive in (group-touch, member-index) order on the caller's
// goroutine, concurrently otherwise; and in both modes the bytes are
// those of one flat buffer.
func TestStripedPlaneCommandShape(t *testing.T) {
	const unit = 64
	const childSize = 16 * unit
	reqs := []struct{ off, n int64 }{
		{70, 20},      // inside one unit
		{40, 50},      // straddles one unit boundary
		{64, 64},      // exactly one unit
		{0, 128},      // two whole units
		{10, 300},     // multi-row from mid-unit
		{131, 459},    // ragged at both ends
		{0, 1024},     // everything a one-group plane holds
		{960, 64},     // the last unit of it
		{3, 1021 - 3}, // all but the edges
	}
	for _, replicas := range []int{1, 2} {
		for _, groups := range []int{1, 2, 3} {
			for _, vector := range []bool{false, true} {
				for _, underProc := range []bool{false, true} {
					name := fmt.Sprintf("r=%d/g=%d/vector=%v/proc=%v", replicas, groups, vector, underProc)
					t.Run(name, func(t *testing.T) {
						sp, log := recordedPlane(t, groups, replicas, childSize, unit, vector)
						ref := make([]byte, sp.Size())
						rng := rand.New(rand.NewSource(int64(replicas*100 + groups*10)))
						// body runs on the simulated process's goroutine in one
						// mode, so it reports instead of calling t.Fatal.
						body := func(p *sim.Proc) error {
							caller := goid()
							for _, rq := range reqs {
								runs := groupRuns(groups, unit, rq.off, rq.n)
								payload := make([]byte, rq.n)
								rng.Read(payload)
								copy(ref[rq.off:], payload)
								if err := sp.Write(p, rq.off, rq.n, payload, 0); err != nil {
									return fmt.Errorf("write [%d,+%d): %w", rq.off, rq.n, err)
								}
								if err := checkWriteShape(log.take(), runs, replicas, unit, vector, p != nil, caller); err != nil {
									return fmt.Errorf("write [%d,+%d): %w", rq.off, rq.n, err)
								}
								got, err := sp.Read(p, rq.off, rq.n, 0)
								if err != nil || !bytes.Equal(got, ref[rq.off:rq.off+rq.n]) {
									return fmt.Errorf("read [%d,+%d) differs from the flat buffer (err=%v)", rq.off, rq.n, err)
								}
								if err := checkReadShape(log.take(), runs, replicas, unit, p != nil, caller); err != nil {
									return fmt.Errorf("read [%d,+%d): %w", rq.off, rq.n, err)
								}
							}
							got, err := sp.Read(p, 0, sp.Size(), 0)
							if err != nil || !bytes.Equal(got, ref) {
								return fmt.Errorf("full read-back differs from the flat buffer (err=%v)", err)
							}
							return nil
						}
						var err error
						if underProc {
							env := sim.NewEnv()
							env.Go("rank", func(p *sim.Proc) { err = body(p) })
							if _, runErr := env.Run(); runErr != nil {
								t.Fatal(runErr)
							}
						} else {
							err = body(nil)
						}
						if err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

func checkWriteShape(got []stripeCmd, runs []groupRun, replicas int, unit int64, vector, ordered bool, caller string) error {
	var want []stripeCmd
	for _, run := range runs {
		for r := 0; r < replicas; r++ {
			child := run.group*replicas + r
			switch {
			case run.pieces == 1:
				want = append(want, stripeCmd{child: child, op: "write", off: run.off, n: run.n, pieces: 1})
			case vector:
				want = append(want, stripeCmd{child: child, op: "writev", off: run.off, n: run.n, pieces: run.pieces})
			default:
				// The pieces of an interleaved extent: a ragged head, whole
				// units, a ragged tail.
				for at := run.off; at < run.off+run.n; {
					n := min(unit-at%unit, run.off+run.n-at)
					want = append(want, stripeCmd{child: child, op: "write", off: at, n: n, pieces: 1})
					at += n
				}
			}
		}
	}
	return compareCmds(got, want, ordered, caller)
}

func checkReadShape(got []stripeCmd, runs []groupRun, replicas int, unit int64, ordered bool, caller string) error {
	if ordered {
		// First-live member of each touched group, whole extent.
		var want []stripeCmd
		for _, run := range runs {
			want = append(want, stripeCmd{child: run.group * replicas, op: "read", off: run.off, n: run.n, pieces: 1})
		}
		return compareCmds(got, want, true, caller)
	}
	total := 0
	for _, run := range runs {
		var mine []stripeCmd
		for _, c := range got {
			if c.child/replicas == run.group {
				mine = append(mine, c)
			}
		}
		want := 1
		if len(runs) > 1 && replicas > 1 && run.n >= 2*unit {
			want = replicas // split: one part per live member
		}
		if len(mine) != want {
			return fmt.Errorf("group %d saw %d commands, want %d: %+v", run.group, len(mine), want, mine)
		}
		sort.Slice(mine, func(i, j int) bool { return mine[i].off < mine[j].off })
		at := run.off
		for i, c := range mine {
			if c.op != "read" || c.off != at || (i > 0 && c.child == mine[i-1].child) {
				return fmt.Errorf("group %d parts do not tile [%d,+%d) across distinct members: %+v", run.group, run.off, run.n, mine)
			}
			at += c.n
		}
		if at != run.off+run.n {
			return fmt.Errorf("group %d parts cover to %d, want %d: %+v", run.group, at, run.off+run.n, mine)
		}
		total += want
	}
	if len(got) != total {
		return fmt.Errorf("%d commands, %d of them on touched groups: %+v", len(got), total, got)
	}
	return nil
}

// compareCmds holds got against want: exactly, in order and all on the
// caller's goroutine when ordered; as a set with each child's own
// commands in address order otherwise.
func compareCmds(got, want []stripeCmd, ordered bool, caller string) error {
	if !ordered {
		sortCmds(got)
		sortCmds(want)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d commands, want %d:\n got %+v\nwant %+v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].key() != want[i] {
			return fmt.Errorf("command %d = %+v, want %+v", i, got[i].key(), want[i])
		}
		if ordered && got[i].goid != caller {
			return fmt.Errorf("command %d ran on goroutine %s, caller is %s", i, got[i].goid, caller)
		}
	}
	return nil
}

// TestStripedPlaneReadPassesCmdUnit: the command granularity the caller
// names reaches every child command of a multi-unit read — whole
// extents and split parts alike — as it does for writes. Children that
// charge per command (spdk.Plane, RemotePlane) depend on it.
func TestStripedPlaneReadPassesCmdUnit(t *testing.T) {
	const unit, cmdUnit = 64, 32
	for _, replicas := range []int{1, 2} {
		sp, log := recordedPlane(t, 2, replicas, 16*unit, unit, false)
		if err := sp.Write(nil, 0, 6*unit, make([]byte, 6*unit), cmdUnit); err != nil {
			t.Fatal(err)
		}
		log.take()
		if _, err := sp.Read(nil, 0, 6*unit, cmdUnit); err != nil {
			t.Fatal(err)
		}
		cmds := log.take()
		// Two groups of three units each; a mirrored group splits its own.
		if len(cmds) != 2*replicas {
			t.Fatalf("r=%d: %d read commands, want %d: %+v", replicas, len(cmds), 2*replicas, cmds)
		}
		for _, c := range cmds {
			if c.cmdUnit != cmdUnit {
				t.Errorf("r=%d: child %d read [%d,+%d) handed cmdUnit %d, want %d", replicas, c.child, c.off, c.n, c.cmdUnit, cmdUnit)
			}
		}
	}
}

// TestStripedPlaneDegradedWriteCount pins what
// nvmecr_stripe_degraded_writes_total counts: writes ACKNOWLEDGED with
// a member skipped — once per write however many groups it touches, and
// never for a write that failed.
func TestStripedPlaneDegradedWriteCount(t *testing.T) {
	const unit = 64
	sp, mems := mirroredOverMem(t, 2, 2, 16*unit, unit)
	reg := telemetry.New()
	sp.Instrument(reg)
	degraded := reg.Counter(MetricStripeDegradedWrites, nil)
	for g := 0; g < 2; g++ {
		if err := sp.SetChildDown(sp.Geometry().Member(g, 1)); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, 4*unit)
	if err := sp.Write(nil, 0, 4*unit, payload, 0); err != nil {
		t.Fatal(err)
	}
	if v := degraded.Value(); v != 1 {
		t.Fatalf("one acknowledged write over two groups, each a member down: counter %d, want 1", v)
	}
	bang := errors.New("sibling refused")
	mems[sp.Geometry().Member(1, 0)].writeErr = bang
	if err := sp.Write(nil, 0, 4*unit, payload, 0); !errors.Is(err, bang) {
		t.Fatalf("Write = %v, want the sibling's failure", err)
	}
	if v := degraded.Value(); v != 1 {
		t.Fatalf("a refused write moved the degraded counter to %d", v)
	}
}
