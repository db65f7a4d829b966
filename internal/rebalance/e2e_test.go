package rebalance

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/health"
	"github.com/nvme-cr/nvmecr/internal/nvmeof"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// TestMigratorWatch pins the health wiring in isolation: a subject
// demoted to Dead (via the engine's own hysteresis, driven by manual
// ticks) triggers exactly one migration of the watched member.
func TestMigratorWatch(t *testing.T) {
	w := newWorld(t, 1, 2)
	w.fill(11)

	alive := true
	var aliveMu sync.Mutex
	eng := health.New(health.Config{Registry: w.reg})
	subj, err := eng.Register(health.SubjectConfig{
		Kind: "target", Name: "member-1",
		Collect: func() health.Sample {
			aliveMu.Lock()
			defer aliveMu.Unlock()
			return health.Sample{Live: alive}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Status, 1)
	w.mig.Watch(subj, 1, health.Dead, func(st Status, err error) {
		if err != nil {
			t.Errorf("watched migration: %v", err)
		}
		done <- st
	})

	// Healthy ticks move nothing.
	for i := 0; i < 4; i++ {
		eng.Tick()
	}
	select {
	case <-done:
		t.Fatal("migration triggered while subject healthy")
	default:
	}

	// Kill: hysteresis walks healthy→degraded→suspect→dead, then the
	// transition listener fires the migration.
	aliveMu.Lock()
	alive = false
	aliveMu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for subj.State() != health.Dead {
		if time.Now().After(deadline) {
			t.Fatalf("subject never reached dead (state %s)", subj.State())
		}
		eng.Tick()
	}
	select {
	case st := <-done:
		if st.State != StateDone {
			t.Fatalf("watched migration ended %s, want done", st.State)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watched migration never completed")
	}
	if w.sp.State(1) != nvmeof.ChildLive {
		t.Fatalf("member state %s after watched migration", w.sp.State(1))
	}
	// Further dead↔dead flapping cannot double-fire: the listener only
	// reacts to transitions crossing the trigger.
	eng.Tick()
	select {
	case <-done:
		t.Fatal("second migration fired without a new transition")
	default:
	}
}

// TestEndToEndHealthDrivenMigration is the acceptance scenario over
// real NVMe-oF TCP targets: live mirrored traffic, one target of an
// R=2 group killed for good, the health engine's hysteresis + probes
// marking it dead, the migration plane re-replicating onto a freshly
// dialed spare target while writes continue — and afterwards zero
// acknowledged-byte loss against the oracle image, with the migration
// visible in /metrics and in the trace timeline nvmecr-trace renders.
func TestEndToEndHealthDrivenMigration(t *testing.T) {
	const (
		groups    = 2
		replicas  = 2
		unit      = int64(4 * 1024)
		childSize = int64(128 * 1024)
	)
	reg := telemetry.New()
	var traceBuf bytes.Buffer
	var traceMu sync.Mutex
	tracer := telemetry.NewTracer(lockedWriter{&traceMu, &traceBuf})

	// Dial one member target: returns the plane, the target handle (to
	// kill), and its address (the health probe's endpoint).
	dialMember := func() (plane.Plane, *nvmeof.Target, string, error) {
		ns := nvmeof.NewMemNamespace(childSize)
		tgt := nvmeof.NewTarget()
		if err := tgt.AddNamespace(1, ns); err != nil {
			return nil, nil, "", err
		}
		addr, err := tgt.Listen("127.0.0.1:0")
		if err != nil {
			return nil, nil, "", err
		}
		pool, err := nvmeof.DialPool(addr, 1, nvmeof.PoolConfig{
			QueuePairs:       2,
			CommandTimeout:   time.Second,
			MaxRetries:       2,
			RetryBackoff:     time.Millisecond,
			ReconnectBackoff: time.Millisecond,
			Batch:            nvmeof.BatchConfig{Enabled: true, MergeWrites: true},
		})
		if err != nil {
			tgt.Close()
			return nil, nil, "", err
		}
		t.Cleanup(func() { pool.Close(); tgt.Close() })
		tp, err := nvmeof.NewTCPPlane(pool, 0, childSize)
		if err != nil {
			return nil, nil, "", err
		}
		return tp, tgt, addr, nil
	}

	n := groups * replicas
	children := make([]plane.Plane, n)
	targets := make([]*nvmeof.Target, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		tp, tgt, addr, err := dialMember()
		if err != nil {
			t.Fatal(err)
		}
		children[i], targets[i], addrs[i] = tp, tgt, addr
	}
	sp, err := nvmeof.NewMirroredPlane(children, unit, replicas)
	if err != nil {
		t.Fatal(err)
	}
	sp.Instrument(reg)

	// Health: one subject per member, liveness from a real TCP probe
	// of the target's address.
	probe := func(addr string) bool {
		c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err != nil {
			return false
		}
		c.Close()
		return true
	}
	eng := health.New(health.Config{Registry: reg, Tracer: tracer})
	subjects := make([]*health.Subject, n)
	for i := 0; i < n; i++ {
		addr := addrs[i]
		s, err := eng.Register(health.SubjectConfig{
			Kind: "target", Name: fmt.Sprintf("member-%d", i),
			Collect: func() health.Sample {
				return health.Sample{Live: probe(addr)}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		subjects[i] = s
	}

	journal, err := OpenJournal(t.TempDir() + "/rebalance.journal")
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	mig, err := New(Config{
		Plane:     sp,
		Journal:   journal,
		ChunkSize: 16 * 1024,
		Registry:  reg,
		Tracer:    tracer,
		Spare: func(child int) (plane.Plane, string, error) {
			tp, _, addr, err := dialMember()
			return tp, addr, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	migrated := make(chan Status, n)
	for i := 0; i < n; i++ {
		mig.Watch(subjects[i], i, health.Dead, func(st Status, err error) {
			if err != nil {
				t.Errorf("health-driven migration: %v", err)
			}
			migrated <- st
		})
	}

	// Live traffic: one writer per region, every write retried until
	// acknowledged (the oracle records acked writes only).
	expect := make([]byte, sp.Size())
	var expectMu sync.Mutex
	mustWrite := func(off int64, data []byte) error {
		deadline := time.Now().Add(30 * time.Second)
		for {
			if err := sp.Write(nil, off, int64(len(data)), data, 0); err == nil {
				expectMu.Lock()
				copy(expect[off:], data)
				expectMu.Unlock()
				return nil
			} else if time.Now().After(deadline) {
				return fmt.Errorf("write [%d,+%d) never acked: %w", off, len(data), err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	const workers = 2
	stop := make(chan struct{})
	writerErrs := make([]error, workers)
	var wg sync.WaitGroup
	region := sp.Size() / workers
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(31 + wkr)))
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
				if err := mustWrite(off, payload); err != nil {
					writerErrs[wkr] = err
					return
				}
			}
		}(wkr)
	}

	// Let traffic flow, then kill member 1's target FOR GOOD — the
	// disk is gone with it; only its mirror sibling has the data.
	time.Sleep(50 * time.Millisecond)
	const victim = 1
	targets[victim].Close()

	// The health engine ticks; hysteresis demotes the victim to dead
	// (confirmed by the failing probe), the watcher migrates.
	var st Status
	deadline := time.Now().Add(30 * time.Second)
waitMigration:
	for {
		select {
		case st = <-migrated:
			break waitMigration
		default:
			if time.Now().After(deadline) {
				t.Fatalf("migration never triggered (victim state %s)", subjects[victim].State())
			}
			eng.Tick()
			time.Sleep(5 * time.Millisecond)
		}
	}
	if st.Child != victim || st.State != StateDone {
		t.Fatalf("migration = %+v, want done for member %d", st, victim)
	}

	close(stop)
	wg.Wait()
	for wkr, err := range writerErrs {
		if err != nil {
			t.Fatalf("writer %d: %v", wkr, err)
		}
	}
	if err := sp.Flush(nil); err != nil {
		t.Fatalf("flush after migration: %v", err)
	}

	// Zero acknowledged-byte loss, from the replicated pair…
	got, err := sp.Read(nil, 0, sp.Size(), 0)
	if err != nil {
		t.Fatal(err)
	}
	expectMu.Lock()
	oracle := append([]byte(nil), expect...)
	expectMu.Unlock()
	if !bytes.Equal(got, oracle) {
		t.Fatal("acked bytes lost after health-driven migration")
	}
	// …and from the migrated-onto spare ALONE (the surviving original
	// member of the victim's group goes down).
	if err := sp.SetChildDown(0); err != nil {
		t.Fatal(err)
	}
	got, err = sp.Read(nil, 0, sp.Size(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, oracle) {
		t.Fatal("spare serves stale bytes: migration copy incomplete")
	}

	// The move is visible in /metrics…
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`nvmecr_rebalance_migrations_total{state="done"} 1`,
		`nvmecr_rebalance_copied_bytes_total`,
		`nvmecr_health_state{kind="target",name="member-1"} 3`,
	} {
		if !strings.Contains(prom.String(), series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	// …and in the trace timeline: the health demotion chain and the
	// full migration state chain, the events nvmecr-trace renders.
	traceMu.Lock()
	trace := traceBuf.String()
	traceMu.Unlock()
	for _, frag := range []string{
		`"name":"health.transition"`, `"to":"dead"`,
		`"name":"rebalance.transition"`,
		`"to":"draining"`, `"to":"copying"`, `"to":"cutover"`, `"to":"done"`,
	} {
		if !strings.Contains(trace, frag) {
			t.Errorf("trace timeline missing %s", frag)
		}
	}
}

// lockedWriter serializes tracer writes with the test's reads.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
