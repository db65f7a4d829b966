package campaign

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/nvmeof"
	"github.com/nvme-cr/nvmecr/internal/qos"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
	"github.com/nvme-cr/nvmecr/internal/workload"
)

// gateSeeds is the seeded iteration count: 100 by default, 25 in -short.
func gateSeeds() int {
	if testing.Short() {
		return 25
	}
	return 100
}

// queued returns the gate's backlog.
func (g *gate) queued() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.waiters)
}

// waitQueued waits until the gate's backlog is n.
func waitQueued(g *gate, n int) {
	for g.queued() != n {
		time.Sleep(50 * time.Microsecond)
	}
}

// far is a deadline no test waits out.
func far() time.Time { return time.Now().Add(time.Minute) }

// The ordering property: with the gate saturated, waiters are granted
// in the order they queued, whatever their tenants. Capacity 1
// serializes the holders, so the order in which waiters observe their
// grant is the order the gate chose. Break-demo: make grantOldest pop
// the newest waiter (LIFO) and every seed goes red.
func TestGateArrivalOrderProperty(t *testing.T) {
	for iter := 0; iter < gateSeeds(); iter++ {
		seed := int64(0xf1f0 + iter)
		rng := rand.New(rand.NewSource(seed))
		g := newGate(1, 64, 64)
		if err := g.acquire("holder", far()); err != nil {
			t.Fatalf("seed %d: holder refused: %v", seed, err)
		}

		waiters := 2 + rng.Intn(15)
		tenants := []string{"a", "b", "c"}
		var mu sync.Mutex
		var got []int
		var wg sync.WaitGroup
		for i := 0; i < waiters; i++ {
			i := i
			tenant := tenants[rng.Intn(len(tenants))]
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := g.acquire(tenant, far()); err != nil {
					t.Errorf("seed %d: waiter %d: %v", seed, i, err)
					return
				}
				mu.Lock()
				got = append(got, i)
				mu.Unlock()
				g.release()
			}()
			// Queue the waiters one at a time so arrival order is known.
			waitQueued(g, i+1)
		}
		g.release()
		wg.Wait()

		if len(got) != waiters || !sort.IntsAreSorted(got) {
			t.Fatalf("seed %d: grants not in arrival order: %v", seed, got)
		}
		if g.inflight != 0 || g.queued() != 0 {
			t.Fatalf("seed %d: gate not drained: %d in flight, %d queued", seed, g.inflight, g.queued())
		}
	}
}

// The starvation property: a low-rate tenant's occasional operations
// complete while an aggressor keeps the gate saturated, because the
// aggressor's backlog is bounded by its share of the queue and every
// queued waiter drains in order. None of the victim's acquires may be
// shed or expire.
func TestGateNoStarvationProperty(t *testing.T) {
	for iter := 0; iter < gateSeeds(); iter++ {
		seed := int64(0x5eed + iter)
		rng := rand.New(rand.NewSource(seed))
		g := newGate(2, 64, 8)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		// The aggressor loops flat out with tight deadlines. Its shed
		// and late outcomes are expected; the point is that they never
		// turn into victim starvation.
		for a := 0; a < 4; a++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if g.acquire("aggressor", time.Now().Add(20*time.Millisecond)) != nil {
						continue
					}
					time.Sleep(50 * time.Microsecond) // modelled service time
					g.release()
				}
			}()
		}

		victimOps := 3 + rng.Intn(3)
		for v := 0; v < victimOps; v++ {
			if err := g.acquire("victim", time.Now().Add(5*time.Second)); err != nil {
				close(stop)
				wg.Wait()
				t.Fatalf("seed %d: victim op %d starved: %v", seed, v, err)
			}
			g.release()
		}
		close(stop)
		wg.Wait()
	}
}

// Shedding is immediate and typed: when the backlog, or a tenant's
// share of it, is full, acquire returns errShed without waiting.
func TestGateShedTypedAndImmediate(t *testing.T) {
	g := newGate(1, 4, 2)
	if err := g.acquire("x", far()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	queue := func(tenant string, n int) {
		go func() {
			err := g.acquire(tenant, far())
			if err == nil {
				g.release()
			}
			done <- err
		}()
		waitQueued(g, n)
	}
	queue("a", 1)
	queue("a", 2)
	start := time.Now()
	if err := g.acquire("a", far()); !errors.Is(err, errShed) {
		t.Fatalf("tenant share overflow: %v, want errShed", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("shed took %v; it must be immediate", d)
	}
	// Other tenants still have room, up to the global bound of 4.
	queue("b", 3)
	queue("c", 4)
	if err := g.acquire("d", far()); !errors.Is(err, errShed) {
		t.Fatalf("backlog overflow: %v, want errShed", err)
	}
	g.release()
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatalf("queued waiter failed after release: %v", err)
		}
	}
}

// A queued waiter whose deadline passes gets errLate, and its place in
// the backlog is reclaimed.
func TestGateLateTyped(t *testing.T) {
	g := newGate(1, 8, 8)
	if err := g.acquire("x", far()); err != nil {
		t.Fatal(err)
	}
	defer g.release()
	if err := g.acquire("a", time.Now().Add(5*time.Millisecond)); !errors.Is(err, errLate) {
		t.Fatalf("got %v, want errLate", err)
	}
	if n := g.queued(); n != 0 || g.perTenant["a"] != 0 {
		t.Fatalf("late waiter not reclaimed: %d queued, tenant share %d", n, g.perTenant["a"])
	}
}

// A grant that lands after the waiter's timer fired, but before the
// waiter took the lock, is used: the waiter holds a slot and must not
// report errLate, or that slot would leak.
func TestGateGrantRacingTimerIsUsed(t *testing.T) {
	g := newGate(1, 8, 8)
	if err := g.acquire("x", far()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.acquire("a", time.Now().Add(5*time.Millisecond)) }()
	waitQueued(g, 1)
	// Hand the slot over while holding the lock past the deadline, the
	// way release does: the waiter's timer fires and its late path
	// waits for the lock.
	g.mu.Lock()
	time.Sleep(30 * time.Millisecond)
	g.grantOldest()
	g.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatalf("granted waiter reported %v", err)
	}
	g.release()
	if g.inflight != 0 || g.queued() != 0 {
		t.Fatalf("gate not drained: %d in flight, %d queued", g.inflight, g.queued())
	}
}

// oneOpRank builds a one-rank tenant whose single operation is a write,
// and the region it writes; the pool is nil because the tests below
// never get past the gate.
func oneOpRank() (*tenantRun, *rankRegion) {
	spec := TenantSpec{
		Name:  "t",
		Shape: workload.Shape{Kind: workload.ShapeVictim, OpBytes: 512, OpsPerRank: 1},
	}
	reg := telemetry.New()
	tr := newTenantRun(spec, qos.NewController(reg), reg)
	tr.pools = []*nvmeof.HostPool{nil}
	return tr, &rankRegion{}
}

// A rank's operation shed by the full gate is tallied as shed, at once,
// and leaves its region's content known: it never reached the wire.
func TestRankShedCountedAsShed(t *testing.T) {
	g := newGate(1, 1, 1)
	if err := g.acquire("other", far()); err != nil {
		t.Fatal(err)
	}
	parked := make(chan struct{})
	go func() {
		if g.acquire("other", far()) == nil {
			g.release()
		}
		close(parked)
	}()
	waitQueued(g, 1)

	tr, region := oneOpRank()
	start := time.Now()
	runRank(Config{Seed: 1, TargetLatency: time.Millisecond}, g, tr, region, 0, 0, false, nil)
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("shed took %v; backpressure must be immediate", d)
	}
	if tr.admitted != 1 || tr.shed != 1 || tr.late+tr.failed+tr.completed != 0 {
		t.Fatalf("tallies: admitted %d shed %d late %d failed %d completed %d, want one shed",
			tr.admitted, tr.shed, tr.late, tr.failed, tr.completed)
	}
	if v := tr.shedC.Value(); v != 1 {
		t.Fatalf("%s = %d, want 1", qos.MetricShed, v)
	}
	if region.indeterminate {
		t.Fatal("a shed write marked its region indeterminate")
	}
	g.release()
	<-parked
}

// A rank's operation that waits out commandTimeout in the gate is
// tallied as late: the rank never hangs past its own deadline.
func TestRankLateCountedAsLate(t *testing.T) {
	g := newGate(1, 8, 8)
	if err := g.acquire("hog", far()); err != nil {
		t.Fatal(err)
	}
	defer g.release()

	tr, region := oneOpRank()
	runRank(Config{Seed: 1, TargetLatency: time.Millisecond}, g, tr, region, 0, 0, false, nil)
	if tr.admitted != 1 || tr.late != 1 || tr.shed+tr.failed+tr.completed != 0 {
		t.Fatalf("tallies: admitted %d shed %d late %d failed %d completed %d, want one late",
			tr.admitted, tr.shed, tr.late, tr.failed, tr.completed)
	}
	if v := tr.shedC.Value(); v != 1 {
		t.Fatalf("%s = %d, want 1", qos.MetricShed, v)
	}
	if region.indeterminate {
		t.Fatal("a late write marked its region indeterminate")
	}
}
