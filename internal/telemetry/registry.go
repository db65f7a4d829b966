// Package telemetry is the live observability layer of the runtime: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// latency histograms) with Prometheus text exposition, plus a
// lightweight event tracer that records simulation virtual-time and
// wall-time spans to JSONL.
//
// It is distinct from internal/metrics, which computes offline
// statistics (mean, CoV, percentiles over complete sample sets) for the
// paper's tables after a run finishes. Telemetry instruments are live:
// they are updated on hot paths while the system serves traffic and can
// be scraped at any instant. Every instrument method is safe for
// concurrent use and nil-safe — a nil *Counter, *Gauge, *Histogram, or
// *Tracer is a no-op, so instrumented code never branches on whether
// observability is enabled.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels attach dimensions to an instrument (e.g. {"qp": "3"}). The
// same name+labels always yields the same instrument within a Registry.
type Labels map[string]string

// labelKey serializes labels deterministically for map keying and
// exposition ordering.
func labelKey(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return b.String()
}

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down (queue depth, pool width).
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add shifts the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is a gauge holding a float64 — health scores, SLO burn
// rates, ratios. Like the other instruments it is concurrency- and
// nil-safe.
type FloatGauge struct{ v atomic.Uint64 }

// Set replaces the gauge value.
func (g *FloatGauge) Set(v float64) {
	if g != nil {
		g.v.Store(math.Float64bits(v))
	}
}

// Value returns the current gauge value.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// DefLatencyBuckets covers one microsecond to ~10 seconds, the span
// from an in-memory namespace access to a badly stalled fabric round
// trip. Values are seconds, Prometheus-style.
var DefLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}

// Histogram counts observations into fixed buckets. Observations and
// snapshots are lock-free; a snapshot taken concurrently with
// observations is internally consistent to within the racing updates.
type Histogram struct {
	bounds []float64 // sorted upper bounds; implicit +Inf bucket follows
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a latency sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-th quantile (0..1) by linear interpolation
// within the owning bucket, the same estimate Prometheus's
// histogram_quantile computes. The highest finite bound caps the
// estimate (samples in the +Inf bucket report that bound).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			if i == len(h.bounds) {
				// +Inf bucket: cap at the highest finite bound.
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// Latency summarizes the histogram as durations, treating observations
// as seconds.
func (h *Histogram) Latency() LatencySnapshot {
	if h == nil || h.Count() == 0 {
		return LatencySnapshot{}
	}
	n := h.Count()
	return LatencySnapshot{
		Count: n,
		Mean:  time.Duration(h.Sum() / float64(n) * float64(time.Second)),
		P50:   time.Duration(h.Quantile(0.50) * float64(time.Second)),
		P95:   time.Duration(h.Quantile(0.95) * float64(time.Second)),
		P99:   time.Duration(h.Quantile(0.99) * float64(time.Second)),
		P999:  time.Duration(h.Quantile(0.999) * float64(time.Second)),
	}
}

// instrument is one registered metric series.
type instrument struct {
	name   string
	labels Labels
	c      *Counter
	g      *Gauge
	fg     *FloatGauge
	h      *Histogram
}

// Registry holds named instruments. Get-or-create calls are idempotent:
// the same (name, labels) returns the same instrument, so components
// re-created across reconnects keep accumulating into one series.
// Lookup takes a lock; callers cache the returned pointer and update it
// lock-free on hot paths.
type Registry struct {
	mu    sync.RWMutex
	byKey map[string]*instrument
	order []*instrument
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byKey: make(map[string]*instrument)}
}

func (r *Registry) lookup(kind, name string, labels Labels) *instrument {
	key := name + "{" + labelKey(labels) + "}"
	r.mu.RLock()
	in := r.byKey[key]
	r.mu.RUnlock()
	if in != nil {
		return in
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if in := r.byKey[key]; in != nil {
		return in
	}
	in = &instrument{name: name, labels: labels}
	r.byKey[key] = in
	r.order = append(r.order, in)
	return in
}

// Counter returns the counter registered under name+labels, creating it
// on first use.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	in := r.lookup("counter", name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in.c == nil {
		in.c = &Counter{}
	}
	return in.c
}

// Gauge returns the gauge registered under name+labels.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	in := r.lookup("gauge", name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in.g == nil {
		in.g = &Gauge{}
	}
	return in.g
}

// FloatGauge returns the float gauge registered under name+labels.
func (r *Registry) FloatGauge(name string, labels Labels) *FloatGauge {
	in := r.lookup("floatgauge", name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in.fg == nil {
		in.fg = &FloatGauge{}
	}
	return in.fg
}

// Histogram returns the histogram registered under name+labels with the
// given bucket upper bounds (DefLatencyBuckets when nil). Buckets are
// fixed at first registration.
func (r *Registry) Histogram(name string, buckets []float64, labels Labels) *Histogram {
	in := r.lookup("histogram", name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in.h == nil {
		if buckets == nil {
			buckets = DefLatencyBuckets
		}
		in.h = newHistogram(buckets)
	}
	return in.h
}

// promLabels renders {a="x",b="y"} (or "") plus an extra label pair.
func promLabels(labels Labels, extraK, extraV string) string {
	base := labelKey(labels)
	if extraK != "" {
		kv := fmt.Sprintf("%s=%q", extraK, extraV)
		if base == "" {
			base = kv
		} else {
			base += "," + kv
		}
	}
	if base == "" {
		return ""
	}
	return "{" + base + "}"
}

// formatBound renders a bucket upper bound the way Prometheus clients
// do (shortest float representation).
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format (text/plain; version 0.0.4). Histograms emit the
// standard _bucket/_sum/_count series plus live p50/p95/p99 estimates
// as a companion <name>_quantile gauge, so a plain curl shows latency
// quantiles without a PromQL evaluator.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	snapshot := append([]*instrument(nil), r.order...)
	r.mu.RUnlock()
	typed := map[string]bool{}
	emitType := func(name, kind string) {
		if !typed[name] {
			fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
			typed[name] = true
		}
	}
	var err error
	print := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, in := range snapshot {
		switch {
		case in.c != nil:
			emitType(in.name, "counter")
			print("%s%s %d\n", in.name, promLabels(in.labels, "", ""), in.c.Value())
		case in.g != nil:
			emitType(in.name, "gauge")
			print("%s%s %d\n", in.name, promLabels(in.labels, "", ""), in.g.Value())
		case in.fg != nil:
			emitType(in.name, "gauge")
			print("%s%s %g\n", in.name, promLabels(in.labels, "", ""), in.fg.Value())
		case in.h != nil:
			emitType(in.name, "histogram")
			var cum uint64
			for i, bound := range in.h.bounds {
				cum += in.h.counts[i].Load()
				print("%s_bucket%s %d\n", in.name, promLabels(in.labels, "le", formatBound(bound)), cum)
			}
			cum += in.h.counts[len(in.h.bounds)].Load()
			print("%s_bucket%s %d\n", in.name, promLabels(in.labels, "le", "+Inf"), cum)
			print("%s_sum%s %g\n", in.name, promLabels(in.labels, "", ""), in.h.Sum())
			print("%s_count%s %d\n", in.name, promLabels(in.labels, "", ""), in.h.Count())
			emitType(in.name+"_quantile", "gauge")
			for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
				print("%s_quantile%s %g\n", in.name,
					promLabels(in.labels, "quantile", strconv.FormatFloat(q, 'g', -1, 64)), in.h.Quantile(q))
			}
		}
	}
	return err
}

// InstrumentKind discriminates RegistrySnapshot entries.
type InstrumentKind uint8

const (
	KindCounter InstrumentKind = iota + 1
	KindGauge
	KindFloatGauge
	KindHistogram
)

// InstrumentSnapshot is one series at one instant, as captured by
// Registry.Snapshot. Labels and Bounds alias the live instrument's
// (immutable) maps and slices; Counts is owned by the snapshot and
// reused across captures.
type InstrumentSnapshot struct {
	Name   string
	Labels Labels
	Kind   InstrumentKind

	// Value is the instrument's scalar: the counter or (float) gauge
	// value, or the histogram's observation count.
	Value float64
	// U is the exact unsigned value for counters and histogram counts
	// (Value rounds above 2^53).
	U uint64

	// Histogram-only: per-bucket observation counts (not cumulative),
	// with one trailing +Inf bucket beyond the last bound.
	Bounds []float64
	Counts []uint64
	Sum    float64
}

// RegistrySnapshot is a point-in-time copy of every instrument in a
// Registry, captured with reusable buffers so a poller on a fixed
// cadence adds no per-sample garbage. Pass the same
// *RegistrySnapshot back to Registry.Snapshot to reuse it.
type RegistrySnapshot struct {
	Instruments []InstrumentSnapshot
}

// Snapshot captures every registered instrument into dst (allocated
// when nil) and returns it. Instrument order is registration order and
// stable across captures, so dst's per-entry bucket buffers are reused;
// steady-state captures allocate nothing.
func (r *Registry) Snapshot(dst *RegistrySnapshot) *RegistrySnapshot {
	if dst == nil {
		dst = new(RegistrySnapshot)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.order)
	if cap(dst.Instruments) < n {
		grown := make([]InstrumentSnapshot, n)
		// Carry over the old entries: registration order is append-only,
		// so index i keeps its instrument and its Counts buffer stays
		// the right size.
		copy(grown, dst.Instruments)
		dst.Instruments = grown
	}
	dst.Instruments = dst.Instruments[:n]
	for i, in := range r.order {
		out := &dst.Instruments[i]
		out.Name, out.Labels = in.name, in.labels
		out.Bounds = nil
		out.Sum = 0
		switch {
		case in.c != nil:
			out.Kind = KindCounter
			out.U = in.c.Value()
			out.Value = float64(out.U)
		case in.g != nil:
			out.Kind = KindGauge
			out.U = 0
			out.Value = float64(in.g.Value())
		case in.fg != nil:
			out.Kind = KindFloatGauge
			out.U = 0
			out.Value = in.fg.Value()
		case in.h != nil:
			out.Kind = KindHistogram
			out.Bounds = in.h.bounds
			nb := len(in.h.counts)
			if cap(out.Counts) < nb {
				out.Counts = make([]uint64, nb)
			}
			out.Counts = out.Counts[:nb]
			for j := range in.h.counts {
				out.Counts[j] = in.h.counts[j].Load()
			}
			out.U = in.h.count.Load()
			out.Value = float64(out.U)
			out.Sum = in.h.Sum()
		}
	}
	return dst
}
