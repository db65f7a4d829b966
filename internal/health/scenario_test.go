package health

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/faults"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// TestFaultPlanDrivesSuspectAndRecovery is the end-to-end acceptance
// scenario over the subjects nvmecrd binds for its tenants: a per-mount
// fault plan fails every operation on one mount for a window, the engine
// walks that mount healthy → degraded → suspect (capturing an incident
// bundle) while its neighbour stays healthy, and after the window closes
// the mount walks back to healthy — with /health JSON and
// nvmecr_health_state agreeing at both ends. Ticks are driven by hand,
// one per round of traffic, so every transition lands on a known tick.
func TestFaultPlanDrivesSuspectAndRecovery(t *testing.T) {
	const window = 500 * time.Millisecond

	reg := telemetry.New()
	ns := vfs.NewNamespace(reg)
	plan := faults.NewPlan(42, faults.Rule{
		Name:  "fail-sick",
		Layer: faults.LayerVFS,
		Kind:  faults.KindMediaError,
		Until: window,
	})
	for _, name := range []string{"sick", "well"} {
		be := vfs.NewMemBackend()
		f, err := be.Open(nil, "/f", vfs.O_WRONLY|vfs.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.Close(nil)
		cfg := vfs.MountConfig{Path: "/" + name, Backend: be, Name: name}
		if name == "sick" {
			cfg.Faults = plan
		}
		if _, err := ns.Mount(cfg); err != nil {
			t.Fatal(err)
		}
	}

	incidentDir := t.TempDir()
	e := New(Config{
		Registry: reg,
		Capture:  CaptureConfig{Dir: incidentDir, Cooldown: time.Nanosecond},
	})
	obj := Objective{Name: "mount-errors", Budget: 0.05, FastTicks: 2, SlowTicks: 4}
	if _, err := BindNamespace(e, ns, nil, []Objective{obj}); err != nil {
		t.Fatal(err)
	}
	sick, well := e.Subject("mount", "sick"), e.Subject("mount", "well")
	if sick == nil || well == nil {
		t.Fatal("mount subjects not registered")
	}
	var hops []State // Tick runs on this goroutine, and so does the listener
	sick.Subscribe(func(_, new State, _ Verdict) { hops = append(hops, new) })

	srv := httptest.NewServer(Handler(e))
	defer srv.Close()

	step := func() {
		for i := 0; i < 20; i++ {
			for _, p := range []string{"/sick/f", "/well/f"} {
				_, _ = ns.Stat(nil, p)
			}
		}
		e.Tick()
	}

	// 1. Inside the window the failing mount is demoted one step at a
	// time and stops at suspect: its transport never went down.
	for i := 0; i < 8 && sick.State() != Suspect; i++ {
		step()
	}
	if plan.Elapsed() >= window {
		t.Fatalf("fault window closed during the demotion (%v elapsed)", plan.Elapsed())
	}
	if want := []State{Degraded, Suspect}; !slices.Equal(hops, want) {
		t.Fatalf("sick hops %v, want %v", hops, want)
	}
	if got := well.State(); got != Healthy {
		t.Fatalf("neighbour mount is %v, want healthy", got)
	}

	// 2. The demotion to suspect left an incident bundle on disk.
	bundles, err := os.ReadDir(incidentDir)
	if err != nil || len(bundles) == 0 {
		t.Fatalf("no incident bundle (err %v)", err)
	}
	bundle := filepath.Join(incidentDir, bundles[len(bundles)-1].Name())
	for _, f := range []string{"meta.json", "metrics.prom", "goroutine.pprof"} {
		if _, err := os.Stat(filepath.Join(bundle, f)); err != nil {
			t.Errorf("bundle missing %s: %v", f, err)
		}
	}
	var meta incidentMeta
	if b, err := os.ReadFile(filepath.Join(bundle, "meta.json")); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(b, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Reason != "demoted-suspect" || meta.Verdict.Name != "sick" {
		t.Errorf("last bundle is %q for %q, want demoted-suspect for sick", meta.Reason, meta.Verdict.Name)
	}

	// 3. /health JSON and the nvmecr_health_state series agree.
	checkAgreement(t, srv, reg, "sick", Suspect, http.StatusServiceUnavailable)

	// 4. After the window closes the mount walks back to healthy.
	time.Sleep(window - plan.Elapsed())
	for i := 0; i < 20 && sick.State() != Healthy; i++ {
		step()
	}
	if want := []State{Degraded, Suspect, Degraded, Healthy}; !slices.Equal(hops, want) {
		t.Fatalf("sick hops %v, want %v", hops, want)
	}
	checkAgreement(t, srv, reg, "sick", Healthy, http.StatusOK)
}

// checkAgreement asserts the /health JSON document and the
// nvmecr_health_state gauge both report want for one mount, and that the
// endpoint's HTTP status matches the overall verdict.
func checkAgreement(t *testing.T, srv *httptest.Server, reg *telemetry.Registry, name string, want State, wantCode int) {
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
		if v.Kind == "mount" && v.Name == name {
			jsonState = v.State
		}
	}
	if jsonState != want {
		t.Errorf("/health says mount %s is %v, want %v", name, jsonState, want)
	}
	g := reg.Gauge(MetricHealthState, telemetry.Labels{"kind": "mount", "name": name})
	if State(g.Value()) != jsonState {
		t.Errorf("nvmecr_health_state = %v, /health says %v", State(g.Value()), jsonState)
	}
}
