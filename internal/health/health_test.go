package health

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// counterSubject registers a subject whose sample is driven directly
// by the test through the returned function.
func counterSubject(t *testing.T, e *Engine, name string, objs []Objective) (sub *Subject, feed func(Sample)) {
	t.Helper()
	var mu sync.Mutex
	cur := Sample{Live: true}
	s, err := e.Register(SubjectConfig{
		Kind:       "test",
		Name:       name,
		Objectives: objs,
		Collect: func() Sample {
			mu.Lock()
			defer mu.Unlock()
			return cur
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, func(smp Sample) {
		mu.Lock()
		cur = smp
		mu.Unlock()
	}
}

// TestBurnRateMath pins the multi-window burn computation against
// hand-computed windows: budget 0.1, fast window 2 ticks, slow 4.
func TestBurnRateMath(t *testing.T) {
	e := New(Config{})
	obj := Objective{Name: "o", Budget: 0.1, FastTicks: 2, SlowTicks: 4}
	sub, feed := counterSubject(t, e, "burn", []Objective{obj})

	// Cumulative (total, bad): baseline, then deltas 100/0, 100/10,
	// 100/30. Fast window (last 2 ticks) = 200 total 40 bad;
	// slow (last 4, incl. baseline tick's zero delta) = 300 total 40.
	for _, pt := range []SeriesPoint{{0, 0}, {100, 0}, {200, 10}, {300, 40}} {
		feed(Sample{Series: []SeriesPoint{pt}, Live: true})
		e.Tick()
	}
	v := sub.Verdict()
	if len(v.Objectives) != 1 {
		t.Fatalf("objectives = %d, want 1", len(v.Objectives))
	}
	o := v.Objectives[0]
	wantFast := ((30.0 + 10.0) / 200.0) / 0.1 // 2.0
	wantSlow := ((30.0 + 10.0) / 300.0) / 0.1 // 1.333…
	if math.Abs(o.FastBurn-wantFast) > 1e-9 {
		t.Errorf("fast burn = %v, want %v", o.FastBurn, wantFast)
	}
	if math.Abs(o.SlowBurn-wantSlow) > 1e-9 {
		t.Errorf("slow burn = %v, want %v", o.SlowBurn, wantSlow)
	}
	// Both windows at/above BreachBurn=2? fast yes, slow no → no breach.
	if o.Breached {
		t.Error("breached with slow window under BreachBurn")
	}
	// Score: pressure = min(2, 1.333)/10 = 0.1333 → score 0.8667.
	if want := 1 - wantSlow/10; math.Abs(v.Score-want) > 1e-9 {
		t.Errorf("score = %v, want %v", v.Score, want)
	}

	// The burn-rate gauges must agree with the verdict.
	fastG := e.Registry().FloatGauge(MetricSLOBurnRate, telemetry.Labels{
		"kind": "test", "name": "burn", "objective": "o", "window": "fast",
	})
	if got := fastG.Value(); math.Abs(got-wantFast) > 1e-9 {
		t.Errorf("fast burn gauge = %v, want %v", got, wantFast)
	}
}

// TestCounterResetRebaselines: a counter that moves backward (restart)
// must re-baseline, not record a huge negative delta.
func TestCounterResetRebaselines(t *testing.T) {
	e := New(Config{})
	obj := Objective{Name: "o", Budget: 0.1, FastTicks: 2, SlowTicks: 2}
	sub, feed := counterSubject(t, e, "reset", []Objective{obj})
	feed(Sample{Series: []SeriesPoint{{1000, 500}}, Live: true})
	e.Tick()
	feed(Sample{Series: []SeriesPoint{{10, 0}}, Live: true}) // reset
	e.Tick()
	feed(Sample{Series: []SeriesPoint{{110, 0}}, Live: true})
	e.Tick()
	if v := sub.Verdict(); v.Objectives[0].FastBurn != 0 {
		t.Errorf("burn after reset = %v, want 0", v.Objectives[0].FastBurn)
	}
}

// TestHysteresisNoFlapping: a score oscillating inside the
// enter/exit band must not move the state.
func TestHysteresisNoFlapping(t *testing.T) {
	e := New(Config{})
	// Budget 0.01, windows of 1 tick: burn = ratio/0.01, pressure =
	// burn/10. ratio 0.028 → score 0.72 (< DegradedEnter 0.75);
	// ratio 0.012 → score 0.88 (< DegradedExit 0.90): inside the band.
	obj := Objective{Name: "o", Budget: 0.01, FastTicks: 1, SlowTicks: 1}
	sub, feed := counterSubject(t, e, "flap", []Objective{obj})

	var total, bad uint64
	push := func(ratio float64) {
		total += 1000
		bad += uint64(ratio * 1000)
		feed(Sample{Series: []SeriesPoint{{total, bad}}, Live: true})
		e.Tick()
	}
	push(0) // baseline
	// Two bad ticks in a row: demote to degraded (enterTicks=2).
	push(0.028)
	push(0.028)
	if got := sub.State(); got != Degraded {
		t.Fatalf("state = %v, want degraded", got)
	}
	transitionsAfterDemote := sub.Verdict().Transitions
	// Oscillate across the band for 20 ticks: no further transitions —
	// 0.72 is below the degraded band but enterTicks never accumulates
	// 2 in a row, 0.88 is above entry but below exit.
	for i := 0; i < 10; i++ {
		push(0.012)
		push(0.028)
	}
	if got := sub.State(); got != Degraded {
		t.Fatalf("state flapped to %v", got)
	}
	if tr := sub.Verdict().Transitions; tr != transitionsAfterDemote {
		t.Fatalf("transitions went %d → %d during oscillation", transitionsAfterDemote, tr)
	}
	// Sustained recovery (score 1 > exit 0.90 for exitTicks=3) promotes.
	for i := 0; i < 3; i++ {
		push(0)
	}
	if got := sub.State(); got != Healthy {
		t.Fatalf("state = %v after recovery, want healthy", got)
	}
}

// TestStepwiseDemotionAndProbeVeto: a dead transport walks down one
// state per qualifying run of ticks, reaching dead only because it is
// not live, and a live transport walks back up the same way.
func TestStepwiseDemotionAndProbeVeto(t *testing.T) {
	e := New(Config{})
	obj := Objective{Name: "o", Budget: 0.01, FastTicks: 1, SlowTicks: 1}
	sub, feed := counterSubject(t, e, "step", []Objective{obj})

	// Dead transport: score 0. Each state lasts enterTicks (2) ticks.
	feed(Sample{Live: false})
	for _, want := range []State{Healthy, Degraded, Degraded, Suspect, Suspect, Dead} {
		e.Tick()
		if got := sub.State(); got != want {
			t.Fatalf("demotion: state = %v, want %v", got, want)
		}
	}
	// Live again: score 1, one step up per exitTicks (3) ticks.
	feed(Sample{Live: true})
	for _, want := range []State{Dead, Dead, Suspect, Suspect, Suspect, Degraded, Degraded, Degraded, Healthy} {
		e.Tick()
		if got := sub.State(); got != want {
			t.Fatalf("recovery: state = %v, want %v", got, want)
		}
	}
}

// TestStalledButLiveBottomsOutAtSuspect: score 0 with a live transport
// must stop at suspect — dead is reserved for a down transport.
func TestStalledButLiveBottomsOutAtSuspect(t *testing.T) {
	e := New(Config{})
	obj := Objective{Name: "o", Budget: 0.001, FastTicks: 1, SlowTicks: 1}
	sub, feed := counterSubject(t, e, "stall", []Objective{obj})
	var total, bad uint64
	for i := 0; i < 12; i++ {
		total += 100
		bad += 100 // every command bad: burn 1000x budget
		feed(Sample{Series: []SeriesPoint{{total, bad}}, Live: true})
		e.Tick()
	}
	if got := sub.State(); got != Suspect {
		t.Fatalf("state = %v, want suspect (live transport cannot be dead)", got)
	}
}

// TestTransitionEventAndIncidentCapture: demotion to suspect emits a
// health.transition event and writes a bounded incident bundle.
func TestTransitionEventAndIncidentCapture(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(t.TempDir(), "trace.jsonl")
	tf, err := os.Create(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.NewTracer(tf)

	e := New(Config{
		Tracer:  tracer,
		Capture: CaptureConfig{Dir: dir, MaxIncidents: 2, Cooldown: time.Nanosecond},
	})
	obj := Objective{Name: "o", Budget: 0.01, FastTicks: 1, SlowTicks: 1}
	sub, feed := counterSubject(t, e, "capture", []Objective{obj})
	_ = sub

	var total, bad uint64
	for i := 0; i < 6; i++ {
		total += 100
		bad += 100
		feed(Sample{Series: []SeriesPoint{{total, bad}}, Live: true})
		e.Tick()
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no incident bundle written")
	}
	if len(entries) > 2 {
		t.Fatalf("%d bundles kept, MaxIncidents=2", len(entries))
	}
	bundle := filepath.Join(dir, entries[len(entries)-1].Name())
	for _, f := range []string{"meta.json", "metrics.prom", "goroutine.pprof", "heap.pprof"} {
		if _, err := os.Stat(filepath.Join(bundle, f)); err != nil {
			t.Errorf("bundle missing %s: %v", f, err)
		}
	}
	var meta incidentMeta
	b, err := os.ReadFile(filepath.Join(bundle, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Verdict.Name != "capture" {
		t.Errorf("meta verdict name = %q", meta.Verdict.Name)
	}

	// The trace must carry health.transition events with from/to.
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var sawSuspect bool
	for _, line := range splitLines(raw) {
		var ev struct {
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			continue
		}
		if ev.Name == "health.transition" && ev.Attrs["to"] == "suspect" {
			sawSuspect = true
		}
	}
	if !sawSuspect {
		t.Error("no health.transition event with to=suspect in trace")
	}
}

func splitLines(b []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, c := range b {
		if c == '\n' {
			if i > start {
				out = append(out, b[start:i])
			}
			start = i + 1
		}
	}
	if start < len(b) {
		out = append(out, b[start:])
	}
	return out
}

// TestConcurrentEngine drives Register/Deregister/Verdicts/HTTP reads
// against a running engine; -race is the assertion.
func TestConcurrentEngine(t *testing.T) {
	e := New(Config{Interval: time.Millisecond})
	srv := httptest.NewServer(Handler(e))
	defer srv.Close()
	for i := 0; i < 4; i++ {
		_, feed := counterSubject(t, e, "base"+string(rune('a'+i)), []Objective{
			{Name: "o", Budget: 0.01},
		})
		feed(Sample{Series: []SeriesPoint{{100, 1}}, Live: true})
	}
	e.Start()
	defer e.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(3)
	go func() { // churn registrations
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := "churn"
			_, err := e.Register(SubjectConfig{
				Kind: "test", Name: name,
				Collect: func() Sample { return Sample{Live: true} },
			})
			if err != nil {
				t.Error(err)
				return
			}
			e.Deregister("test", name)
		}
	}()
	go func() { // read verdicts and rollups
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = e.Verdicts()
			_ = e.Rollup()
			_ = e.Overall()
		}
	}()
	go func() { // HTTP reads
		defer wg.Done()
		client := srv.Client()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := client.Get(srv.URL)
			if err != nil {
				t.Error(err)
				return
			}
			var doc struct {
				Status   State     `json:"status"`
				Subjects []Verdict `json:"subjects"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				t.Error(err)
			}
			resp.Body.Close()
		}
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestRollup checks the per-kind aggregation /healthz serves.
func TestRollup(t *testing.T) {
	e := New(Config{})
	obj := Objective{Name: "o", Budget: 0.01, FastTicks: 1, SlowTicks: 1}
	_, feedA := counterSubject(t, e, "a", []Objective{obj})
	_, feedB := counterSubject(t, e, "b", []Objective{obj})
	feedA(Sample{Series: []SeriesPoint{{0, 0}}, Live: true})
	feedB(Sample{Live: false})
	for i := 0; i < 3; i++ {
		e.Tick()
	}
	r := e.Rollup()
	l := r.Layers["test"]
	if l.Subjects != 2 || l.Degraded != 1 {
		t.Fatalf("rollup = %+v, want 2 subjects 1 degraded", l)
	}
	if r.Status != Degraded {
		t.Fatalf("status = %v, want degraded", r.Status)
	}
}
