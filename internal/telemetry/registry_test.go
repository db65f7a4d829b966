package telemetry

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/metrics"
)

// TestConcurrentAddAndSnapshot hammers one registry from many
// goroutines while others snapshot it; run under -race this is the
// concurrency-safety contract of the package.
func TestConcurrentAddAndSnapshot(t *testing.T) {
	reg := New()
	const workers = 8
	const perWorker = 5000
	stop := make(chan struct{})
	// Scrapers run concurrently with writers.
	var scrapers sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sb strings.Builder
				if err := reg.WritePrometheus(&sb); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				reg.Histogram("latency_seconds", nil, nil).Quantile(0.95)
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			c := reg.Counter("commands_total", Labels{"qp": "0"})
			g := reg.Gauge("inflight", nil)
			h := reg.Histogram("latency_seconds", nil, nil)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i%100) * 1e-6)
			}
		}()
	}
	writers.Wait()
	close(stop)
	scrapers.Wait()
	if got := reg.Counter("commands_total", Labels{"qp": "0"}).Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Gauge("inflight", nil).Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := reg.Histogram("latency_seconds", nil, nil).Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestHistogramQuantileAgainstMetricsPercentile checks the live
// bucketed estimate against the exact offline percentile from
// internal/metrics on the same samples: the two must agree to within
// one bucket width.
func TestHistogramQuantileAgainstMetricsPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := newHistogram(DefLatencyBuckets)
	samples := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over [2µs, 50ms): the shape of a mixed
		// local/remote latency distribution.
		v := math.Exp(math.Log(2e-6) + rng.Float64()*(math.Log(5e-2)-math.Log(2e-6)))
		samples = append(samples, v)
		h.Observe(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := metrics.Percentile(samples, q*100)
		est := h.Quantile(q)
		// Tolerance: the estimate must land within the bucket holding
		// the exact value (bounds are 2.5x apart at the widest).
		lo, hi := exact/2.5, exact*2.5
		if est < lo || est > hi {
			t.Errorf("q=%.2f: estimate %.3g outside [%.3g, %.3g] around exact %.3g", q, est, lo, hi, exact)
		}
	}
}

// TestHistogramQuantileExactOnBounds places all samples exactly on
// bucket upper bounds; the interpolated quantile of a single-valued
// distribution must return (nearly) that value.
func TestHistogramQuantileExactOnBounds(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 1000; i++ {
		h.Observe(2)
	}
	if got := h.Quantile(0.99); got < 1 || got > 2 {
		t.Fatalf("Quantile(0.99) = %g, want within (1, 2]", got)
	}
	if got := h.Latency(); got.Count != 1000 {
		t.Fatalf("Latency().Count = %d", got.Count)
	}
}

// TestHistogramSumMean checks the CAS-accumulated float sum.
func TestHistogramSumMean(t *testing.T) {
	h := newHistogram(DefLatencyBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.ObserveDuration(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got, want := h.Sum(), 4000*0.001; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Sum = %g, want %g", got, want)
	}
	lat := h.Latency()
	if d := lat.Mean - time.Millisecond; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("Mean = %v, want ~1ms", lat.Mean)
	}
}

// TestWritePrometheusFormat spot-checks the exposition text.
func TestWritePrometheusFormat(t *testing.T) {
	reg := New()
	reg.Counter("nvmecr_qp_commands_total", Labels{"qp": "2"}).Add(7)
	reg.Gauge("nvmecr_pool_queue_pairs", nil).Set(4)
	reg.Histogram("nvmecr_qp_latency_seconds", []float64{0.001, 0.01}, Labels{"qp": "2"}).Observe(0.002)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE nvmecr_qp_commands_total counter",
		`nvmecr_qp_commands_total{qp="2"} 7`,
		"# TYPE nvmecr_pool_queue_pairs gauge",
		"nvmecr_pool_queue_pairs 4",
		"# TYPE nvmecr_qp_latency_seconds histogram",
		`nvmecr_qp_latency_seconds_bucket{qp="2",le="0.001"} 0`,
		`nvmecr_qp_latency_seconds_bucket{qp="2",le="0.01"} 1`,
		`nvmecr_qp_latency_seconds_bucket{qp="2",le="+Inf"} 1`,
		`nvmecr_qp_latency_seconds_count{qp="2"} 1`,
		`nvmecr_qp_latency_seconds_quantile{qp="2",quantile="0.5"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestSameInstrumentReturned verifies get-or-create idempotence: the
// reconnect path depends on the new Host landing on the old series.
func TestSameInstrumentReturned(t *testing.T) {
	reg := New()
	a := reg.Counter("x_total", Labels{"qp": "1"})
	b := reg.Counter("x_total", Labels{"qp": "1"})
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := reg.Counter("x_total", Labels{"qp": "2"})
	if a == c {
		t.Fatal("distinct labels returned the same counter")
	}
}

// TestNilInstrumentsAreNoOps: nil-safety is what lets uninstrumented
// hot paths skip telemetry without branching.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(-1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if (h.Latency() != LatencySnapshot{}) {
		t.Fatal("nil histogram Latency must be zero")
	}
}

func TestFloatGauge(t *testing.T) {
	r := New()
	fg := r.FloatGauge("nvmecr_health_score", Labels{"kind": "qp"})
	fg.Set(0.875)
	if got := fg.Value(); got != 0.875 {
		t.Fatalf("Value = %v, want 0.875", got)
	}
	if again := r.FloatGauge("nvmecr_health_score", Labels{"kind": "qp"}); again != fg {
		t.Fatal("same name+labels returned a different FloatGauge")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# TYPE nvmecr_health_score gauge") {
		t.Fatalf("missing TYPE line:\n%s", out)
	}
	if !strings.Contains(out, `nvmecr_health_score{kind="qp"} 0.875`) {
		t.Fatalf("missing sample line:\n%s", out)
	}
	var nilFG *FloatGauge
	nilFG.Set(3)
	if nilFG.Value() != 0 {
		t.Fatal("nil FloatGauge not a no-op")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := New()
	c := r.Counter("cmds_total", Labels{"qp": "0"})
	c.Add(42)
	g := r.Gauge("depth", nil)
	g.Set(-3)
	fg := r.FloatGauge("score", nil)
	fg.Set(0.5)
	h := r.Histogram("lat_seconds", []float64{0.001, 0.01, 0.1}, nil)
	h.Observe(0.0005) // bucket 0
	h.Observe(0.005)  // bucket 1
	h.Observe(0.005)  // bucket 1
	h.Observe(5)      // +Inf bucket

	var snap RegistrySnapshot
	r.Snapshot(&snap)

	// Instruments come back in registration order.
	if len(snap.Instruments) != 4 {
		t.Fatalf("got %d instruments, want 4", len(snap.Instruments))
	}
	if in := snap.Instruments[0]; in.Name != "cmds_total" || in.Labels["qp"] != "0" || in.Kind != KindCounter || in.U != 42 {
		t.Fatalf("counter snapshot wrong: %+v", in)
	}
	if in := snap.Instruments[1]; in.Name != "depth" || in.Kind != KindGauge || in.Value != -3 {
		t.Fatalf("gauge snapshot wrong: %+v", in)
	}
	if in := snap.Instruments[2]; in.Name != "score" || in.Kind != KindFloatGauge || in.Value != 0.5 {
		t.Fatalf("floatgauge snapshot wrong: %+v", in)
	}
	hs := snap.Instruments[3]
	if hs.Name != "lat_seconds" || hs.Kind != KindHistogram {
		t.Fatalf("histogram snapshot wrong: %+v", hs)
	}
	if hs.U != 4 {
		t.Fatalf("histogram count = %d, want 4", hs.U)
	}
	if want := []uint64{1, 2, 0, 1}; !slices.Equal(hs.Counts, want) {
		t.Fatalf("histogram buckets = %v, want %v", hs.Counts, want)
	}
	// Mutate after snapshot: the snapshot must not move.
	c.Add(100)
	if got := snap.Instruments[0].U; got != 42 {
		t.Fatalf("snapshot moved with live counter: %d", got)
	}
}

// TestSnapshotSteadyStateAllocs is the regression gate for a poller on a
// fixed cadence: once the snapshot has seen the registry's full
// instrument set, re-capturing into the same buffer must not allocate.
func TestSnapshotSteadyStateAllocs(t *testing.T) {
	r := New()
	for i := 0; i < 8; i++ {
		qp := Labels{"qp": strconv.Itoa(i)}
		r.Counter("cmds_total", qp).Add(uint64(i))
		r.Gauge("depth", qp).Set(int64(i))
		r.Histogram("lat_seconds", DefLatencyBuckets, qp).Observe(0.001)
	}
	snap := r.Snapshot(nil) // warm-up sizes every buffer
	allocs := testing.AllocsPerRun(100, func() {
		r.Snapshot(snap)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Snapshot allocates %v per run, want 0", allocs)
	}
}
