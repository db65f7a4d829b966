package nvmeof

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// flakyPlane wraps a memPlane with injectable read/write failures and
// close tracking, for degraded-mode and failover tests.
type flakyPlane struct {
	*memPlane
	mu        sync.Mutex
	readErr   error
	writeErr  error
	reads     int
	writes    int
	closed    int
	closeErr  error
	readNil   bool
	failReads int // fail this many reads, then serve
}

func (f *flakyPlane) Read(p *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error) {
	f.mu.Lock()
	f.reads++
	if f.failReads > 0 {
		f.failReads--
		f.mu.Unlock()
		return nil, errors.New("flaky: injected read failure")
	}
	err := f.readErr
	rnil := f.readNil
	f.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if rnil {
		return nil, nil
	}
	return f.memPlane.Read(p, off, length, cmdUnit)
}

func (f *flakyPlane) Write(p *sim.Proc, off, length int64, data []byte, cmdUnit int64) error {
	f.mu.Lock()
	f.writes++
	err := f.writeErr
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.memPlane.Write(p, off, length, data, cmdUnit)
}

func (f *flakyPlane) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed++
	return f.closeErr
}

func mirroredOverMem(t *testing.T, groups, replicas int, childSize, unit int64) (*StripedPlane, []*flakyPlane) {
	t.Helper()
	n := groups * replicas
	children := make([]plane.Plane, n)
	mems := make([]*flakyPlane, n)
	for i := range children {
		mems[i] = &flakyPlane{memPlane: newMemPlane(childSize, true)}
		children[i] = mems[i]
	}
	sp, err := NewMirroredPlane(children, unit, replicas)
	if err != nil {
		t.Fatal(err)
	}
	return sp, mems
}

// TestMirroredPlaneMatchesSingle: the in-memory equivalence core for
// mirrored widths — random IO through an R-way mirrored plane behaves
// exactly like one flat buffer, and both replicas of every group hold
// identical bytes afterwards.
func TestMirroredPlaneMatchesSingle(t *testing.T) {
	for _, cfg := range []struct{ groups, replicas int }{{1, 2}, {2, 2}, {1, 3}, {2, 3}} {
		cfg := cfg
		t.Run(fmt.Sprintf("groups=%d/r=%d", cfg.groups, cfg.replicas), func(t *testing.T) {
			const unit = 512
			const childSize = 16 * 1024
			sp, mems := mirroredOverMem(t, cfg.groups, cfg.replicas, childSize, unit)
			if want := int64(cfg.groups) * childSize; sp.Size() != want {
				t.Fatalf("Size = %d, want %d (mirrors contribute capacity once)", sp.Size(), want)
			}
			ref := make([]byte, sp.Size())
			rng := rand.New(rand.NewSource(int64(2000 + cfg.groups*10 + cfg.replicas)))
			for op := 0; op < 300; op++ {
				off := rng.Int63n(sp.Size())
				length := 1 + rng.Int63n(4*unit)
				if off+length > sp.Size() {
					length = sp.Size() - off
				}
				if rng.Intn(3) < 2 {
					payload := make([]byte, length)
					rng.Read(payload)
					if err := sp.Write(nil, off, length, payload, 0); err != nil {
						t.Fatalf("op %d: write: %v", op, err)
					}
					copy(ref[off:off+length], payload)
				} else {
					got, err := sp.Read(nil, off, length, 0)
					if err != nil {
						t.Fatalf("op %d: read: %v", op, err)
					}
					if !bytes.Equal(got, ref[off:off+length]) {
						t.Fatalf("op %d: read [%d,+%d) diverged from flat buffer", op, off, length)
					}
				}
			}
			full, err := sp.Read(nil, 0, sp.Size(), 0)
			if err != nil || !bytes.Equal(full, ref) {
				t.Fatalf("full mirrored read-back diverged (err=%v)", err)
			}
			// Replicas are byte-identical: every acked write fanned out.
			for g := 0; g < cfg.groups; g++ {
				first := mems[sp.Geometry().Member(g, 0)]
				for r := 1; r < cfg.replicas; r++ {
					m := mems[sp.Geometry().Member(g, r)]
					if !bytes.Equal(first.data, m.data) {
						t.Fatalf("group %d replica %d diverges from replica 0", g, r)
					}
				}
			}
		})
	}
}

// TestMirroredPlaneDegradedMatrix is the satellite matrix: every op
// (Read / Write / Flush / Close) against an R-way mirror with 0, 1,
// and R-1 members of one group down — pinning which succeed degraded —
// and with ALL members down, pinning the typed ErrNoReplica error
// instead of a hang.
func TestMirroredPlaneDegradedMatrix(t *testing.T) {
	const unit = 512
	const childSize = 8 * 1024
	for _, replicas := range []int{2, 3} {
		replicas := replicas
		for down := 0; down < replicas; down++ {
			down := down
			t.Run(fmt.Sprintf("r=%d/down=%d", replicas, down), func(t *testing.T) {
				sp, mems := mirroredOverMem(t, 2, replicas, childSize, unit)
				payload := bytes.Repeat([]byte{0xAB}, 4*unit)
				if err := sp.Write(nil, 0, int64(len(payload)), payload, 0); err != nil {
					t.Fatal(err)
				}
				// Take `down` members of group 0 down, noting how often
				// each was reached before.
				type touches struct{ reads, writes, flushes int }
				before := make([]touches, down)
				for d := 0; d < down; d++ {
					if err := sp.SetChildDown(sp.Geometry().Member(0, d)); err != nil {
						t.Fatal(err)
					}
					m := mems[sp.Geometry().Member(0, d)]
					before[d] = touches{m.reads, m.writes, m.flushes}
				}
				// Write succeeds degraded, acked on the survivors.
				payload2 := bytes.Repeat([]byte{0xCD}, 4*unit)
				if err := sp.Write(nil, 0, int64(len(payload2)), payload2, 0); err != nil {
					t.Fatalf("degraded write (%d/%d down): %v", down, replicas, err)
				}
				// Read succeeds, from any live member.
				got, err := sp.Read(nil, 0, int64(len(payload2)), 0)
				if err != nil || !bytes.Equal(got, payload2) {
					t.Fatalf("degraded read (%d/%d down): err=%v", down, replicas, err)
				}
				// Flush barrier succeeds across the attached survivors.
				if err := sp.Flush(nil); err != nil {
					t.Fatalf("degraded flush (%d/%d down): %v", down, replicas, err)
				}
				// The degraded write, read and flush never reached a
				// down member.
				for d := 0; d < down; d++ {
					m := mems[sp.Geometry().Member(0, d)]
					if now := (touches{m.reads, m.writes, m.flushes}); now != before[d] {
						t.Errorf("down member %d was reached: %+v after going down, %+v before", d, now, before[d])
					}
				}
				// Close visits everyone, down members included.
				if err := sp.Close(); err != nil {
					t.Fatalf("degraded close: %v", err)
				}
				for i, m := range mems {
					if m.closed != 1 {
						t.Errorf("member %d closed %d times, want 1", i, m.closed)
					}
				}
			})
		}
	}
}

// TestMirroredPlaneAllReplicasDown pins the typed-error contract: with
// every member of a group down, each op touching that group fails fast
// with ErrNoReplica — no hang, no zero-filled success — while a range
// confined to a healthy group still works.
func TestMirroredPlaneAllReplicasDown(t *testing.T) {
	const unit = 512
	sp, _ := mirroredOverMem(t, 2, 2, 8*1024, unit)
	seed := bytes.Repeat([]byte{0x11}, int(sp.Size()))
	if err := sp.Write(nil, 0, sp.Size(), seed, 0); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if err := sp.SetChildDown(sp.Geometry().Member(0, r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Write(nil, 0, unit, bytes.Repeat([]byte{0x22}, unit), 0); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("write to all-down group = %v, want ErrNoReplica", err)
	}
	if _, err := sp.Read(nil, 0, unit, 0); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("read from all-down group = %v, want ErrNoReplica", err)
	}
	if err := sp.Flush(nil); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("flush with all-down group = %v, want ErrNoReplica", err)
	}
	// Group 1 (striped address space: the second unit of every pair)
	// still serves both ops.
	if err := sp.Write(nil, unit, unit, bytes.Repeat([]byte{0x33}, unit), 0); err != nil {
		t.Fatalf("write to healthy group: %v", err)
	}
	if got, err := sp.Read(nil, unit, unit, 0); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0x33}, unit)) {
		t.Fatalf("read from healthy group: err=%v", err)
	}
}

// TestMirroredPlaneReadFailover: a live member failing a read does not
// fail the plane read — a sibling serves it, and the failover counter
// ticks.
func TestMirroredPlaneReadFailover(t *testing.T) {
	const unit = 512
	sp, mems := mirroredOverMem(t, 1, 2, 8*1024, unit)
	reg := telemetry.New()
	sp.Instrument(reg)
	payload := bytes.Repeat([]byte{0x5A}, 2*unit)
	if err := sp.Write(nil, 0, int64(len(payload)), payload, 0); err != nil {
		t.Fatal(err)
	}
	// Member 1 fails every read: the rotation will pick it first on
	// some of these reads, and each such read must fail over to member
	// 0 and still serve the right bytes.
	mems[1].mu.Lock()
	mems[1].readErr = errors.New("member 1 unreachable")
	mems[1].mu.Unlock()
	for i := 0; i < 4; i++ {
		got, err := sp.Read(nil, 0, int64(len(payload)), 0)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("failover read %d: err=%v", i, err)
		}
	}
	mems[1].mu.Lock()
	mems[1].readErr = nil
	mems[1].mu.Unlock()
	if v := reg.Counter(MetricStripeReadFailovers, nil).Value(); v == 0 {
		t.Error("read failover not counted")
	}
	// Both members persistently failing fails the read with the last
	// member error, not a hang.
	mems[0].mu.Lock()
	mems[0].readErr = errors.New("member 0 gone")
	mems[0].mu.Unlock()
	mems[1].mu.Lock()
	mems[1].readErr = errors.New("member 1 gone")
	mems[1].mu.Unlock()
	if _, err := sp.Read(nil, 0, unit, 0); err == nil {
		t.Fatal("read with every live member failing succeeded")
	}
}

// TestMirroredPlaneReadRepair: ReadResync detects a replica
// diverged behind the plane's back and rewrites it from the
// lowest-index live member before returning.
func TestMirroredPlaneReadRepair(t *testing.T) {
	const unit = 512
	sp, mems := mirroredOverMem(t, 1, 2, 8*1024, unit)
	reg := telemetry.New()
	sp.Instrument(reg)
	payload := bytes.Repeat([]byte{0x77}, 2*unit)
	if err := sp.Write(nil, 0, int64(len(payload)), payload, 0); err != nil {
		t.Fatal(err)
	}
	// Corrupt replica 1 behind the plane's back (bit rot).
	mems[1].memPlane.mu.Lock()
	for i := 0; i < int(unit); i++ {
		mems[1].memPlane.data[i] ^= 0xFF
	}
	mems[1].memPlane.mu.Unlock()

	// Read is served by SOME replica — possibly the corrupt one; no
	// verification promise. Just must not error.
	if _, err := sp.Read(nil, 0, int64(len(payload)), 0); err != nil {
		t.Fatal(err)
	}

	got, err := sp.ReadResync(nil, 0, int64(len(payload)), 0)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("verify read: err=%v (authority is replica 0)", err)
	}
	if v := reg.Counter(MetricStripeReadRepairs, nil).Value(); v == 0 {
		t.Error("read repair not counted")
	}
	// The divergent replica was rewritten: replicas identical again.
	if !bytes.Equal(mems[0].memPlane.data, mems[1].memPlane.data) {
		t.Error("replica 1 still diverges after read-repair")
	}
}

// TestMirroredPlaneRebuildNoLostByte drives the full member-loss dance
// inline — down, attach a FRESH (empty) replacement, chunk-sweep while
// concurrent writes flow, cut over — then kills the original member
// and proves every acknowledged byte is served by the rebuilt one.
func TestMirroredPlaneRebuildNoLostByte(t *testing.T) {
	const unit = 512
	const childSize = 32 * 1024
	sp, _ := mirroredOverMem(t, 2, 2, childSize, unit)
	expect := make([]byte, sp.Size())
	var expectMu sync.Mutex
	rng := rand.New(rand.NewSource(4242))
	write := func(rng *rand.Rand) error {
		length := 1 + rng.Int63n(3*unit)
		off := rng.Int63n(sp.Size() - length)
		payload := make([]byte, length)
		rng.Read(payload)
		if err := sp.Write(nil, off, length, payload, 0); err != nil {
			return err
		}
		expectMu.Lock()
		copy(expect[off:off+length], payload)
		expectMu.Unlock()
		return nil
	}
	for i := 0; i < 50; i++ {
		if err := write(rng); err != nil {
			t.Fatal(err)
		}
	}

	// Member 1 of group 0 dies; replace with an empty spare.
	victim := sp.Geometry().Member(0, 1)
	if err := sp.SetChildDown(victim); err != nil {
		t.Fatal(err)
	}
	spare := &flakyPlane{memPlane: newMemPlane(childSize, true)}
	if err := sp.BeginRebuild(victim, spare); err != nil {
		t.Fatal(err)
	}

	// Sweep chunks while a writer hammers concurrently.
	done := make(chan error, 1)
	go func() {
		wrng := rand.New(rand.NewSource(777))
		for i := 0; i < 80; i++ {
			if err := write(wrng); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	const chunk = 4 * 1024
	for off := int64(0); off < sp.ChildSize(); off += chunk {
		if _, err := sp.SyncChunk(victim, off, chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Post-sweep writes before cutover still fan out to the spare.
	if err := write(rng); err != nil {
		t.Fatal(err)
	}
	if err := sp.SetChildLive(victim); err != nil {
		t.Fatal(err)
	}

	// Now kill the ORIGINAL member: the rebuilt spare is the only
	// source for group 0. Every acked byte must still be served.
	if err := sp.SetChildDown(sp.Geometry().Member(0, 0)); err != nil {
		t.Fatal(err)
	}
	got, err := sp.Read(nil, 0, sp.Size(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, expect) {
		for i := range got {
			if got[i] != expect[i] {
				t.Fatalf("acked byte lost at offset %d after rebuild+cutover (first divergence)", i)
			}
		}
	}
}

// TestMirroredPlaneRebuildGuards pins the rebuild preconditions: a
// live member cannot begin rebuilding, a group with no live sibling
// cannot rebuild (ErrNoReplica), an undersized replacement is
// rejected, and SyncChunk demands the rebuilding state.
func TestMirroredPlaneRebuildGuards(t *testing.T) {
	const unit = 512
	sp, _ := mirroredOverMem(t, 1, 2, 8*1024, unit)
	if err := sp.BeginRebuild(1, nil); err == nil {
		t.Error("rebuild of a live member accepted")
	}
	if _, err := sp.SyncChunk(1, 0, 1024); err == nil {
		t.Error("sync of a live member accepted")
	}
	if err := sp.SetChildDown(0); err != nil {
		t.Fatal(err)
	}
	if err := sp.SetChildDown(1); err != nil {
		t.Fatal(err)
	}
	if err := sp.BeginRebuild(1, nil); !errors.Is(err, ErrNoReplica) {
		t.Errorf("rebuild with no live sibling = %v, want ErrNoReplica", err)
	}
	if err := sp.SetChildLive(0); err != nil {
		t.Fatal(err)
	}
	small := &flakyPlane{memPlane: newMemPlane(1024, true)}
	if err := sp.BeginRebuild(1, small); err == nil {
		t.Error("undersized replacement accepted")
	}
	if err := sp.BeginRebuild(1, nil); err != nil {
		t.Fatalf("in-place rebuild: %v", err)
	}
	if _, err := sp.SyncChunk(1, -1, 10); err == nil {
		t.Error("negative sync offset accepted")
	}
	if n, err := sp.SyncChunk(1, sp.ChildSize()+10, 1024); err != nil || n != 0 {
		t.Errorf("sync past member end = (%d, %v), want (0, nil)", n, err)
	}
}

// TestMirroredPlaneIndexStability is the satellite regression for the
// latent assumption that the child set never changes after dial:
// member swaps (down → rebuild onto a replacement → live) run
// concurrently with striped IO, and the plane must keep Children()
// constant, keep every group addressing its own slots, and never
// corrupt data. Run under -race, this also proves the membership
// snapshot discipline (ops never index the mutable slice directly).
func TestMirroredPlaneIndexStability(t *testing.T) {
	const unit = 512
	const childSize = 16 * 1024
	sp, _ := mirroredOverMem(t, 2, 2, childSize, unit)
	wantChildren := sp.Children()
	expect := make([]byte, sp.Size())
	var expectMu sync.Mutex
	seed := make([]byte, sp.Size())
	rand.New(rand.NewSource(9)).Read(seed)
	if err := sp.Write(nil, 0, sp.Size(), seed, 0); err != nil {
		t.Fatal(err)
	}
	copy(expect, seed)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	ioErrs := make([]error, 2)
	for wkr := 0; wkr < 2; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + wkr)))
			region := sp.Size() / 2
			base := int64(wkr) * region
			for {
				select {
				case <-stop:
					return
				default:
				}
				length := 1 + rng.Int63n(2*unit)
				off := base + rng.Int63n(region-length)
				payload := make([]byte, length)
				rng.Read(payload)
				if err := sp.Write(nil, off, length, payload, 0); err != nil {
					ioErrs[wkr] = err
					return
				}
				expectMu.Lock()
				copy(expect[off:off+length], payload)
				expectMu.Unlock()
				if _, err := sp.Read(nil, off, length, 0); err != nil {
					ioErrs[wkr] = err
					return
				}
			}
		}(wkr)
	}

	// Swap every member once, round-robin, while IO flows.
	for round := 0; round < 4; round++ {
		victim := round % sp.Children()
		if err := sp.SetChildDown(victim); err != nil {
			t.Fatal(err)
		}
		if got := sp.Children(); got != wantChildren {
			t.Fatalf("Children() changed to %d after SetChildDown", got)
		}
		spare := &flakyPlane{memPlane: newMemPlane(childSize, true)}
		if err := sp.BeginRebuild(victim, spare); err != nil {
			t.Fatal(err)
		}
		for off := int64(0); off < sp.ChildSize(); off += 4096 {
			if _, err := sp.SyncChunk(victim, off, 4096); err != nil {
				t.Fatal(err)
			}
		}
		if err := sp.SetChildLive(victim); err != nil {
			t.Fatal(err)
		}
		if got := sp.Children(); got != wantChildren {
			t.Fatalf("Children() changed to %d after swap", got)
		}
		if sp.Child(victim) != spare {
			t.Fatalf("slot %d does not hold its replacement after swap", victim)
		}
	}
	close(stop)
	wg.Wait()
	for wkr, err := range ioErrs {
		if err != nil {
			t.Fatalf("worker %d under live swaps: %v", wkr, err)
		}
	}
	got, err := sp.Read(nil, 0, sp.Size(), 0)
	if err != nil {
		t.Fatal(err)
	}
	expectMu.Lock()
	defer expectMu.Unlock()
	if !bytes.Equal(got, expect) {
		t.Fatal("data corrupted across live member swaps")
	}
}

// TestMirroredPlaneFlushVisitsRebuilding pins that the barrier covers
// rebuilding members too — their copied stripes deserve durability —
// while down members are skipped.
func TestMirroredPlaneFlushVisitsRebuilding(t *testing.T) {
	const unit = 512
	sp, mems := mirroredOverMem(t, 1, 3, 8*1024, unit)
	if err := sp.SetChildDown(1); err != nil {
		t.Fatal(err)
	}
	if err := sp.SetChildDown(2); err != nil {
		t.Fatal(err)
	}
	if err := sp.BeginRebuild(2, nil); err != nil {
		t.Fatal(err)
	}
	if err := sp.Flush(nil); err != nil {
		t.Fatal(err)
	}
	if mems[0].flushes != 1 || mems[2].flushes != 1 {
		t.Errorf("live/rebuilding flushes = %d/%d, want 1/1", mems[0].flushes, mems[2].flushes)
	}
	if mems[1].flushes != 0 {
		t.Errorf("down member flushed %d times, want 0", mems[1].flushes)
	}
}
