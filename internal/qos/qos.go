// Package qos is the multi-tenant quality-of-service layer: per-tenant
// token-bucket admission control in front of the storage stack. A
// Controller holds one Tenant per named job; each Tenant carries an
// ops-per-second and a bytes-per-second bucket, and Admit either
// consumes tokens and admits the operation or rejects it immediately
// with the typed ErrAdmission — admission never blocks and never hangs
// a caller.
//
// Tenants plug into vfs.Namespace mounts through MountConfig.Admission
// (a *Tenant satisfies the vfs.Admission interface), and the mount
// dispatch consults quotas before admission, so a tenant that is both
// at its byte quota and out of admission tokens gets the quota error
// (vfs.ErrNoSpace), never a misclassified ErrAdmission. Deadline
// scheduling for admitted commands lives in sched.EDF, wired into
// nvmeof.HostPool via PoolConfig.Gate; the campaign runner in
// internal/qos/campaign drives all three against real TCP targets.
//
// Telemetry: nvmecr_qos_admitted_total{tenant},
// nvmecr_qos_rejected_total{tenant,reason}, and — written by the
// campaign runner and the pool gate path —
// nvmecr_qos_completed_total{tenant}, nvmecr_qos_failed_total{tenant},
// nvmecr_qos_shed_total{tenant}, nvmecr_qos_latency_seconds{tenant}.
package qos

import (
	"errors"
	"sync"
	"time"

	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// ErrAdmission is the typed rejection admission control returns when a
// tenant is over its rate limits. It is always synchronous — an
// over-limit tenant is told "no" immediately, never parked.
var ErrAdmission = errors.New("qos: admission limit exceeded")

// Metric names for the nvmecr_qos_* series.
const (
	MetricAdmitted  = "nvmecr_qos_admitted_total"
	MetricRejected  = "nvmecr_qos_rejected_total"
	MetricCompleted = "nvmecr_qos_completed_total"
	MetricFailed    = "nvmecr_qos_failed_total"
	MetricShed      = "nvmecr_qos_shed_total"
	MetricLatency   = "nvmecr_qos_latency_seconds"
)

// TenantLimits configures one tenant's admission budget. Zero rates
// mean "unlimited" for that dimension.
type TenantLimits struct {
	// OpsPerSec caps operation admissions per second; OpsBurst is the
	// bucket depth (defaults to OpsPerSec, minimum 1).
	OpsPerSec float64
	OpsBurst  float64
	// BytesPerSec caps admitted payload bytes per second; BytesBurst is
	// the bucket depth (defaults to one second of rate).
	BytesPerSec float64
	BytesBurst  float64
}

// bucket is a lazily refilled token bucket. Safe for concurrent use.
type bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newBucket(rate, burst float64, now time.Time) *bucket {
	if burst <= 0 {
		burst = rate
	}
	if burst < 1 {
		burst = 1
	}
	return &bucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// refill advances the bucket to now. Caller holds mu.
func (b *bucket) refill(now time.Time) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

// take consumes n tokens when available, reporting success.
func (b *bucket) take(now time.Time, n float64) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill(now)
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// put refunds n tokens (an admission reversed by a later check).
func (b *bucket) put(n float64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += n
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// available reports the token level at now.
func (b *bucket) available(now time.Time) float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill(now)
	return b.tokens
}

// Tenant is one job's admission state. A *Tenant satisfies the
// vfs.Admission interface, so it plugs straight into a mount.
type Tenant struct {
	name   string
	limits TenantLimits
	c      *Controller
	ops    *bucket // nil = unlimited
	bytes  *bucket // nil = unlimited

	admitted      *telemetry.Counter
	rejectedOps   *telemetry.Counter
	rejectedBytes *telemetry.Counter
}

// Admit charges one operation of `bytes` payload against the tenant's
// buckets: nil means the operation is admitted, ErrAdmission (wrapped)
// means it is rejected right now. Admission is instantaneous either
// way. A nil *Tenant admits everything uncounted, so unlimited tenants
// cost nothing.
func (t *Tenant) Admit(op string, bytes int64) error {
	if t == nil {
		return nil
	}
	if !t.c.enforcing() {
		t.admitted.Inc()
		return nil
	}
	now := t.c.now()
	if !t.ops.take(now, 1) {
		t.rejectedOps.Inc()
		return &AdmissionError{Tenant: t.name, Op: op, Reason: "ops"}
	}
	if bytes > 0 && !t.bytes.take(now, float64(bytes)) {
		t.ops.put(1) // the op token must not leak when bytes reject
		t.rejectedBytes.Inc()
		return &AdmissionError{Tenant: t.name, Op: op, Reason: "bytes"}
	}
	t.admitted.Inc()
	return nil
}

// Stats returns the tenant's live admission counters and token levels.
func (t *Tenant) Stats() TenantStats {
	now := t.c.now()
	return TenantStats{
		Name:          t.name,
		Limits:        t.limits,
		Admitted:      t.admitted.Value(),
		RejectedOps:   t.rejectedOps.Value(),
		RejectedBytes: t.rejectedBytes.Value(),
		OpsTokens:     t.ops.available(now),
		ByteTokens:    t.bytes.available(now),
	}
}

// TenantStats is one tenant's /qos row.
type TenantStats struct {
	Name          string       `json:"name"`
	Limits        TenantLimits `json:"limits"`
	Admitted      uint64       `json:"admitted"`
	RejectedOps   uint64       `json:"rejected_ops"`
	RejectedBytes uint64       `json:"rejected_bytes"`
	OpsTokens     float64      `json:"ops_tokens"`
	ByteTokens    float64      `json:"byte_tokens"`
}

// Rejected sums both rejection reasons.
func (s TenantStats) Rejected() uint64 { return s.RejectedOps + s.RejectedBytes }

// AdmissionError is the concrete rejection: errors.Is(err, ErrAdmission)
// holds, and the error says which tenant, op, and bucket rejected.
type AdmissionError struct {
	Tenant string
	Op     string
	Reason string // "ops" or "bytes"
}

func (e *AdmissionError) Error() string {
	return "qos: tenant " + e.Tenant + ": " + e.Op + ": " + e.Reason + " admission limit exceeded"
}

// Unwrap makes errors.Is(err, ErrAdmission) true.
func (e *AdmissionError) Unwrap() error { return ErrAdmission }

// Controller owns the tenant set. Safe for concurrent use; lookups on
// hot paths should cache the *Tenant.
type Controller struct {
	reg *telemetry.Registry
	now func() time.Time

	mu       sync.RWMutex
	tenants  map[string]*Tenant
	disabled bool
}

// Option tweaks a Controller at construction.
type Option func(*Controller)

// WithClock injects a time source (deterministic tests).
func WithClock(now func() time.Time) Option {
	return func(c *Controller) { c.now = now }
}

// NewController builds an empty controller. reg may be nil; admission
// counters then live on standalone instruments only.
func NewController(reg *telemetry.Registry, opts ...Option) *Controller {
	c := &Controller{reg: reg, now: time.Now, tenants: map[string]*Tenant{}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// SetEnforcement flips admission on or off. Off, every Admit succeeds
// (still counted as admitted) — the campaign suite's break-demo knob,
// and an operational escape hatch.
func (c *Controller) SetEnforcement(on bool) {
	c.mu.Lock()
	c.disabled = !on
	c.mu.Unlock()
}

func (c *Controller) enforcing() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return !c.disabled
}

// Tenant registers (or replaces) a tenant with the given limits and
// returns its admission handle. Replacing resets the buckets but keeps
// accumulating into the same telemetry series.
func (c *Controller) Tenant(name string, lim TenantLimits) *Tenant {
	t := &Tenant{name: name, limits: lim, c: c}
	now := c.now()
	if lim.OpsPerSec > 0 {
		t.ops = newBucket(lim.OpsPerSec, lim.OpsBurst, now)
	}
	if lim.BytesPerSec > 0 {
		t.bytes = newBucket(lim.BytesPerSec, lim.BytesBurst, now)
	}
	if c.reg != nil {
		t.admitted = c.reg.Counter(MetricAdmitted, telemetry.Labels{"tenant": name})
		t.rejectedOps = c.reg.Counter(MetricRejected, telemetry.Labels{"tenant": name, "reason": "ops"})
		t.rejectedBytes = c.reg.Counter(MetricRejected, telemetry.Labels{"tenant": name, "reason": "bytes"})
	} else {
		t.admitted = &telemetry.Counter{}
		t.rejectedOps = &telemetry.Counter{}
		t.rejectedBytes = &telemetry.Counter{}
	}
	c.mu.Lock()
	c.tenants[name] = t
	c.mu.Unlock()
	return t
}

// Lookup returns the named tenant, or nil.
func (c *Controller) Lookup(name string) *Tenant {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tenants[name]
}

// Snapshot returns every tenant's stats, sorted by name.
func (c *Controller) Snapshot() []TenantStats {
	c.mu.RLock()
	ts := make([]*Tenant, 0, len(c.tenants))
	for _, t := range c.tenants {
		ts = append(ts, t)
	}
	c.mu.RUnlock()
	out := make([]TenantStats, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.Stats())
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Jain computes Jain's fairness index over the samples: 1.0 is perfect
// equality, 1/n is maximal unfairness. Zero-length input reports 1.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
