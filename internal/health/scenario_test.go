package health

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/faults"
	"github.com/nvme-cr/nvmecr/internal/nvmeof"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// TestFaultPlanDrivesSuspectAndRecovery is the end-to-end acceptance
// scenario: a seeded fault plan stalls one queue pair of a pool, the
// engine walks it healthy → degraded → suspect (capturing an incident
// bundle), HostPool bias shifts traffic off the sick pair, and after
// the plan window closes the pair probes clean and walks back to
// healthy — with /health JSON and nvmecr_health_state agreeing at both
// ends.
func TestFaultPlanDrivesSuspectAndRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock scenario")
	}
	const (
		stallWindow = 3 * time.Second
		stallDelay  = 4 * time.Millisecond // per read and write syscall
	)

	tgt := nvmeof.NewTarget()
	if err := tgt.AddNamespace(1, nvmeof.NewMemNamespace(16<<20)); err != nil {
		t.Fatal(err)
	}
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()

	// Stall only queue pair 1: DialPool dials slots in order, so the
	// second connection is slot 1.
	plan := faults.NewPlan(42, faults.Rule{
		Name:  "stall-qp1",
		Layer: faults.LayerTCP,
		Kind:  faults.KindDelay,
		Arg:   int64(stallDelay),
		Until: stallWindow,
	})
	var dials atomic.Int32
	dial := func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		if dials.Add(1) == 2 {
			return nvmeof.NewFaultConn(c, plan), nil
		}
		return c, nil
	}

	reg := telemetry.New()
	pool, err := nvmeof.DialPool(addr, 1, nvmeof.PoolConfig{
		QueuePairs:     2,
		CommandTimeout: 5 * time.Second,
		Dial:           dial,
		Telemetry:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	incidentDir := t.TempDir()
	e := New(Config{
		Interval: 15 * time.Millisecond,
		Registry: reg,
		Capture:  CaptureConfig{Dir: incidentDir, Cooldown: 200 * time.Millisecond},
	})

	type hop struct{ from, to State }
	var transMu sync.Mutex
	var qp1Hops []hop
	snapshotHops := func() []hop {
		transMu.Lock()
		defer transMu.Unlock()
		return append([]hop(nil), qp1Hops...)
	}
	_, err = BindHostPool(e, pool, PoolBindConfig{
		Target: "t0",
		Objectives: []Objective{{
			Name:             "p99-write",
			Budget:           0.05,
			FastTicks:        2,
			SlowTicks:        4,
			LatencyThreshold: 2.5e-3,
		}},
		ProbeBudget: 3 * time.Millisecond,
		OnTransition: func(qp int, old, new State) {
			if qp == 1 {
				transMu.Lock()
				qp1Hops = append(qp1Hops, hop{old, new})
				transMu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Close()

	srv := httptest.NewServer(Handler(e))
	defer srv.Close()

	// Steady workload: enough concurrency that a soft-biased pair
	// still sees a trickle, so the signal survives the first demotion.
	// Two of the eight writers move bulk (64 KiB) payloads, which the
	// pool places on an idle queue pair: the bias must hold for them
	// too, however idle the sick pair is.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := make([]byte, 2048)
			if g%4 == 0 {
				payload = make([]byte, 64<<10)
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = pool.WriteAt(int64((g*97+i)%2048)*4096, payload)
			}
		}(g)
	}
	defer func() { close(stop); wg.Wait() }()

	sub := e.Subject("qp", "t0/qp1")
	if sub == nil {
		t.Fatal("qp subject not registered")
	}
	waitState := func(want State, deadline time.Duration) {
		t.Helper()
		limit := time.Now().Add(deadline)
		for time.Now().Before(limit) {
			if sub.State() == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("qp1 never reached %v (state %v, hops %v)", want, sub.State(), snapshotHops())
	}

	// 1. The stalled pair is demoted to suspect inside the plan window.
	waitState(Suspect, 1500*time.Millisecond)

	// 2. The demotion path walked healthy → degraded → suspect, one
	// step at a time, and never reached dead (the transport stayed up).
	transMu.Lock()
	sawDegraded, sawSuspect := false, false
	for _, h := range qp1Hops {
		if h.to == Dead {
			transMu.Unlock()
			t.Fatalf("qp1 demoted to dead with a live transport: %v", qp1Hops)
		}
		if h.from == Healthy && h.to == Degraded {
			sawDegraded = true
		}
		if h.from == Degraded && h.to == Suspect && sawDegraded {
			sawSuspect = true
		}
	}
	transMu.Unlock()
	if !sawDegraded || !sawSuspect {
		t.Fatalf("demotion path incomplete: %v", snapshotHops())
	}

	// 3. An incident bundle landed on disk.
	bundles, err := os.ReadDir(incidentDir)
	if err != nil || len(bundles) == 0 {
		t.Fatalf("no incident bundle (err %v)", err)
	}
	bundle := filepath.Join(incidentDir, bundles[len(bundles)-1].Name())
	for _, f := range []string{"meta.json", "blackbox.json", "metrics.prom", "goroutine.pprof"} {
		if _, err := os.Stat(filepath.Join(bundle, f)); err != nil {
			t.Errorf("bundle missing %s: %v", f, err)
		}
	}

	// 4. Placement bias measurably shifts traffic off the sick pair.
	if b := pool.QPBias(1); b != nvmeof.BiasAvoid {
		t.Fatalf("qp1 bias = %v at suspect, want avoid", b)
	}
	time.Sleep(100 * time.Millisecond) // drain pre-bias in-flights
	before := perQPCommands(pool)
	time.Sleep(400 * time.Millisecond)
	after := perQPCommands(pool)
	qp1Delta := after[1] - before[1]
	total := (after[0] - before[0]) + qp1Delta
	if total == 0 {
		t.Fatal("workload produced no traffic during the bias check")
	}
	// Probes may still touch qp1; the workload must not. Allow 10%.
	if qp1Delta*10 > total {
		t.Errorf("suspect qp1 still took %d of %d commands", qp1Delta, total)
	}

	// 5. /health JSON and the nvmecr_health_state series agree.
	if sub.State() == Suspect { // still inside the window
		checkAgreement(t, srv, reg, "t0/qp1", http.StatusServiceUnavailable)
	}

	// 6. After the plan window closes, probes pass and the pair walks
	// back to healthy; bias clears.
	waitState(Healthy, 10*time.Second)
	if b := pool.QPBias(1); b != nvmeof.BiasNone {
		t.Fatalf("qp1 bias = %v after recovery, want none", b)
	}
	checkAgreement(t, srv, reg, "t0/qp1", http.StatusOK)
}

func perQPCommands(p *nvmeof.HostPool) []uint64 {
	snaps := p.Snapshot()
	out := make([]uint64, len(snaps))
	for i, s := range snaps {
		out[i] = s.Commands
	}
	return out
}

// checkAgreement asserts the /health JSON document and the
// nvmecr_health_state gauge report the same state for one subject, and
// that the endpoint's HTTP status matches the overall verdict.
func checkAgreement(t *testing.T, srv *httptest.Server, reg *telemetry.Registry, name string, wantCode int) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Status   State     `json:"status"`
		Subjects []Verdict `json:"subjects"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Errorf("/health HTTP %d, want %d (overall %v)", resp.StatusCode, wantCode, doc.Status)
	}
	var jsonState State = -1
	for _, v := range doc.Subjects {
		if v.Kind == "qp" && v.Name == name {
			jsonState = v.State
		}
	}
	if jsonState == -1 {
		t.Fatalf("subject %s missing from /health", name)
	}
	var snap telemetry.RegistrySnapshot
	reg.Snapshot(&snap)
	g := snap.Find(MetricHealthState, telemetry.Labels{"kind": "qp", "name": name})
	if g == nil {
		t.Fatalf("no %s series for %s", MetricHealthState, name)
	}
	if State(g.Value) != jsonState {
		t.Errorf("nvmecr_health_state = %v, /health says %v", State(g.Value), jsonState)
	}
}
