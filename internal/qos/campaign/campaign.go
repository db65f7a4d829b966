// Package campaign is the multi-tenant QoS campaign runner: it stands
// up real NVMe-oF TCP targets, wires per-tenant admission control
// (qos.Controller), a shared FIFO gate that stands in for one shared
// device (see gate), and per-tenant host pools, then drives
// seeded tenant workloads — victim, aggressor, bursty, restart-storm
// shapes from internal/workload — with optional fault injection
// mid-campaign. Everything is derived from one seed, so a failure
// reproduces from its printed seed.
//
// Run returns a Result carrying per-tenant tallies, exact latency
// quantiles from wall-clock samples (p99.9 included — the histogram
// buckets are too coarse for tail assertions), Jain's fairness index
// over per-tenant goodput, and any invariant violations detected
// during the run: admission accounting conservation, telemetry
// agreement with the in-memory tallies, and read-back verification
// that no admission-accepted acked write was lost. Latency-bound and
// fairness assertions live in Result.Check so tests and bench gates
// share one rulebook.
package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/nvme-cr/nvmecr/internal/faults"
	"github.com/nvme-cr/nvmecr/internal/nvmeof"
	"github.com/nvme-cr/nvmecr/internal/qos"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
	"github.com/nvme-cr/nvmecr/internal/workload"
)

// TenantSpec is one tenant's slice of the campaign: a traffic shape, a
// rank count, and the admission budget it is held to.
type TenantSpec struct {
	Name   string
	Shape  workload.Shape
	Ranks  int
	Limits qos.TenantLimits
}

// Config describes one campaign. The zero value of most fields gets a
// default; Tenants is required.
type Config struct {
	// Seed drives every random choice: workload interleaving, think
	// times, payload patterns, and the fault plan.
	Seed int64
	// Targets is how many independent TCP targets serve the campaign
	// (default 2). Ranks stripe across them.
	Targets int
	// TargetLatency is the modeled device latency per command at each
	// target (default 1ms) — it sets the service-time scale every
	// other knob is calibrated against.
	TargetLatency time.Duration
	// GateCapacity is the shared gate's concurrency budget
	// (default 4).
	GateCapacity int
	// Tenants is the tenant roster. Required.
	Tenants []TenantSpec
	// Faults are injected into every tenant pool's connections,
	// evaluated against one seeded plan (LayerTCP rules; wall-clock
	// windows are measured from campaign start).
	Faults []faults.Rule
	// DisableAdmission turns tenant admission off (every op admitted)
	// — the break-demo knob: aggressors then flood the gate and the
	// victim tail explodes.
	DisableAdmission bool
	// SoloBaseline, when true (the default via RunWithBaseline),
	// first runs the victim tenant alone in a clean world and records
	// its p99.9 as the reference for Check's latency bound.
	SoloBaseline bool
	// Registry receives the nvmecr_qos_* series (default: a private
	// registry).
	Registry *telemetry.Registry
}

// The campaign's fixed pool and gate shape: queue pairs per (tenant,
// target) pool, the gate's total and per-tenant backlog, and the
// per-command timeout (which also bounds each operation's wait in the
// gate).
const (
	queuePairs     = 2
	gateQueue      = 1024
	tenantQueue    = 512
	commandTimeout = 2 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Targets <= 0 {
		c.Targets = 2
	}
	if c.TargetLatency <= 0 {
		c.TargetLatency = time.Millisecond
	}
	if c.GateCapacity <= 0 {
		c.GateCapacity = 4
	}
	return c
}

// TenantResult is one tenant's campaign outcome.
type TenantResult struct {
	Name  string
	Shape string
	Ranks int

	// Admission outcomes (local tallies, cross-checked against the
	// controller's counters).
	Admitted uint64
	Rejected uint64

	// Outcomes of admitted operations. Admitted == Completed + Shed +
	// Late + Failed always holds — every admitted op has exactly one
	// outcome (the zero-lost-commands conservation law).
	Completed uint64
	Shed      uint64
	Late      uint64
	Failed    uint64

	// GoodputBytes is payload moved by completed operations.
	GoodputBytes int64

	// Exact quantiles over completed-op wall latencies.
	P50, P99, P999 time.Duration
}

// Result is one campaign's full outcome.
type Result struct {
	Seed     int64
	Duration time.Duration
	Tenants  []TenantResult
	// SoloVictimP999 is the victim's p99.9 from the solo baseline
	// pass (zero when no baseline ran or no victim exists).
	SoloVictimP999 time.Duration
	// Jain is Jain's fairness index over per-tenant goodput.
	Jain float64
	// FaultTrace reproduces the fault plan's firings.
	FaultTrace string
	// Violations are invariants the run itself detected broken:
	// accounting conservation, telemetry disagreement, lost acked
	// writes. Empty on a healthy run.
	Violations []string
}

// Tenant returns the named tenant's result, or nil.
func (r *Result) Tenant(name string) *TenantResult {
	for i := range r.Tenants {
		if r.Tenants[i].Name == name {
			return &r.Tenants[i]
		}
	}
	return nil
}

// Bounds parameterizes Check's latency and fairness assertions.
type Bounds struct {
	// VictimP999Ratio bounds victim p99.9 at Ratio*solo; Slack is the
	// absolute floor added so microsecond-scale baselines don't turn
	// scheduler jitter into failures: the bound is
	// max(Ratio*solo, solo+Slack). Zero Ratio skips the check.
	VictimP999Ratio float64
	VictimP999Slack time.Duration
	// MinJain fails the check when the goodput fairness index over
	// EqualTenants (all tenants when empty) is below it. Zero skips.
	MinJain      float64
	EqualTenants []string
}

// Check evaluates the latency and fairness bounds against the result,
// returning violations (empty = pass). Run-detected violations are
// included too, so a single Check call covers every invariant.
func (r *Result) Check(b Bounds) []string {
	out := append([]string{}, r.Violations...)
	if b.VictimP999Ratio > 0 && r.SoloVictimP999 > 0 {
		for _, tr := range r.Tenants {
			if tr.Shape != workload.ShapeVictim.String() {
				continue
			}
			bound := time.Duration(b.VictimP999Ratio * float64(r.SoloVictimP999))
			if floor := r.SoloVictimP999 + b.VictimP999Slack; bound < floor {
				bound = floor
			}
			if tr.P999 > bound {
				out = append(out, fmt.Sprintf(
					"tenant %s: p99.9 %v exceeds bound %v (solo %v, ratio %.1f, slack %v)",
					tr.Name, tr.P999, bound, r.SoloVictimP999, b.VictimP999Ratio, b.VictimP999Slack))
			}
		}
	}
	if b.MinJain > 0 {
		var goodput []float64
		for _, tr := range r.Tenants {
			if len(b.EqualTenants) > 0 {
				found := false
				for _, n := range b.EqualTenants {
					if n == tr.Name {
						found = true
					}
				}
				if !found {
					continue
				}
			}
			goodput = append(goodput, float64(tr.GoodputBytes))
		}
		if j := qos.Jain(goodput); j < b.MinJain {
			out = append(out, fmt.Sprintf("jain index %.3f below %.3f (goodput %v)", j, b.MinJain, goodput))
		}
	}
	return out
}

// tenantRun is one tenant's live campaign state.
type tenantRun struct {
	spec   TenantSpec
	tenant *qos.Tenant
	pools  []*nvmeof.HostPool

	completedC *telemetry.Counter
	failedC    *telemetry.Counter
	shedC      *telemetry.Counter
	latencyH   *telemetry.Histogram

	mu        sync.Mutex
	admitted  uint64
	rejected  uint64
	completed uint64
	shed      uint64
	late      uint64
	failed    uint64
	goodput   int64
	samples   []time.Duration
}

// newTenantRun registers spec's tenant with the admission controller
// and its instruments in reg.
func newTenantRun(spec TenantSpec, ctrl *qos.Controller, reg *telemetry.Registry) *tenantRun {
	l := telemetry.Labels{"tenant": spec.Name}
	return &tenantRun{
		spec:       spec,
		tenant:     ctrl.Tenant(spec.Name, spec.Limits),
		completedC: reg.Counter(qos.MetricCompleted, l),
		failedC:    reg.Counter(qos.MetricFailed, l),
		shedC:      reg.Counter(qos.MetricShed, l),
		latencyH:   reg.Histogram(qos.MetricLatency, nil, l),
	}
}

// rankRegion is one rank's private byte range on one target, plus what
// the campaign knows about its content: the last acked write pattern,
// and whether a later failed or timed-out WRITE may or may not have
// landed. Only acked regions are verified; clearing indeterminate on the
// next ack relies on the target dropping what a dead connection left
// queued (Target.serve, qpConn.lost): the failed WRITE cannot land late.
type rankRegion struct {
	target        int
	base          int64
	lastAcked     []byte
	indeterminate bool
}

// Run executes the campaign and returns its result. With
// cfg.SoloBaseline set and a victim-shaped tenant present, a clean
// solo pass runs first to establish the latency reference.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("campaign: no tenants")
	}

	res := &Result{Seed: cfg.Seed}
	if cfg.SoloBaseline {
		for _, spec := range cfg.Tenants {
			if spec.Shape.Kind != workload.ShapeVictim {
				continue
			}
			solo := cfg
			solo.Tenants = []TenantSpec{spec}
			solo.Faults = nil
			solo.SoloBaseline = false
			solo.Registry = nil
			soloRes, err := Run(solo)
			if err != nil {
				return nil, fmt.Errorf("campaign: solo baseline: %w", err)
			}
			res.SoloVictimP999 = soloRes.Tenants[0].P999
			break
		}
	}

	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.New()
	}

	// Region sizing: every rank owns a private range wide enough for
	// the largest op in the roster.
	var regionBytes int64 = 4096
	totalRanks := 0
	for _, spec := range cfg.Tenants {
		if spec.Shape.OpBytes > regionBytes {
			regionBytes = spec.Shape.OpBytes
		}
		totalRanks += spec.Ranks
	}
	slotsPerTarget := (totalRanks + cfg.Targets - 1) / cfg.Targets
	nsBytes := int64(slotsPerTarget+1) * regionBytes
	if nsBytes < 1<<20 {
		nsBytes = 1 << 20
	}

	// Real TCP targets.
	targets := make([]*nvmeof.Target, cfg.Targets)
	addrs := make([]string, cfg.Targets)
	for i := range targets {
		tgt := nvmeof.NewTarget()
		if err := tgt.AddNamespace(1, nvmeof.NewMemNamespaceWithLatency(nsBytes, cfg.TargetLatency)); err != nil {
			return nil, err
		}
		addr, err := tgt.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		targets[i], addrs[i] = tgt, addr
		defer tgt.Close()
	}

	// Shared gate and admission controller.
	g := newGate(cfg.GateCapacity, gateQueue, tenantQueue)
	ctrl := qos.NewController(reg)
	if cfg.DisableAdmission {
		ctrl.SetEnforcement(false)
	}

	var plan *faults.Plan
	if len(cfg.Faults) > 0 {
		plan = faults.NewPlan(cfg.Seed, cfg.Faults...)
		plan.Instrument(reg)
	}

	// Per-tenant pools (one per target) and instruments.
	runs := make([]*tenantRun, len(cfg.Tenants))
	for ti, spec := range cfg.Tenants {
		tr := newTenantRun(spec, ctrl, reg)
		for i := 0; i < cfg.Targets; i++ {
			pc := nvmeof.PoolConfig{
				QueuePairs:     queuePairs,
				CommandTimeout: commandTimeout,
				RetryBackoff:   time.Millisecond,
			}
			if plan != nil {
				pc.Dial = nvmeof.FaultDialer(plan)
			}
			pool, err := nvmeof.DialPool(addrs[i], 1, pc)
			if err != nil {
				return nil, fmt.Errorf("campaign: tenant %s target %d: %w", spec.Name, i, err)
			}
			tr.pools = append(tr.pools, pool)
			defer pool.Close()
		}
		runs[ti] = tr
	}

	// Rank layout: global rank g lands on target g%Targets at slot
	// g/Targets — each rank's region is private to it.
	regions := make([][]*rankRegion, len(runs))
	global := 0
	for ti, tr := range runs {
		regions[ti] = make([]*rankRegion, tr.spec.Ranks)
		for r := 0; r < tr.spec.Ranks; r++ {
			regions[ti][r] = &rankRegion{
				target: global % cfg.Targets,
				base:   int64(global/cfg.Targets) * regionBytes,
			}
			global++
		}
	}

	// Drive the ranks. Aggressor-shaped tenants loop until every
	// finite tenant finishes, so the pressure lasts the whole
	// campaign; everyone else runs its shape's op count.
	start := time.Now()
	stop := make(chan struct{})
	var finite sync.WaitGroup
	var all sync.WaitGroup
	for ti, tr := range runs {
		for r := 0; r < tr.spec.Ranks; r++ {
			ti, tr, r := ti, tr, r
			sustained := tr.spec.Shape.Kind == workload.ShapeAggressor
			if !sustained {
				finite.Add(1)
			}
			all.Add(1)
			go func() {
				defer all.Done()
				if !sustained {
					defer finite.Done()
				}
				runRank(cfg, g, tr, regions[ti][r], ti, r, sustained, stop)
			}()
		}
	}
	finite.Wait()
	close(stop)
	all.Wait()
	res.Duration = time.Since(start)

	// Quiesce the data plane before verification reads.
	for _, tr := range runs {
		for _, p := range tr.pools {
			p.Close()
		}
	}

	// Invariant: zero admission-accepted commands lost. Every region
	// whose last wire-touching write was acked must read back as the
	// acked pattern — via clean pools, no gate, no faults.
	verifyPools := make([]*nvmeof.HostPool, cfg.Targets)
	for i := range verifyPools {
		p, err := nvmeof.DialPool(addrs[i], 1, nvmeof.PoolConfig{QueuePairs: 1, CommandTimeout: commandTimeout})
		if err != nil {
			return nil, fmt.Errorf("campaign: verify pool: %w", err)
		}
		verifyPools[i] = p
		defer p.Close()
	}
	for ti, tr := range runs {
		for r, rr := range regions[ti] {
			if rr.indeterminate || rr.lastAcked == nil {
				continue
			}
			got, err := verifyPools[rr.target].ReadAt(rr.base, int64(len(rr.lastAcked)))
			if err != nil {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"tenant %s rank %d: verify read failed: %v", tr.spec.Name, r, err))
				continue
			}
			if !bytes.Equal(got, rr.lastAcked) {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"tenant %s rank %d: acked write lost at target %d offset %d",
					tr.spec.Name, r, rr.target, rr.base))
			}
		}
	}

	// Tally, conservation, and telemetry agreement.
	var goodput []float64
	for _, tr := range runs {
		tr.mu.Lock()
		sort.Slice(tr.samples, func(i, j int) bool { return tr.samples[i] < tr.samples[j] })
		out := TenantResult{
			Name:         tr.spec.Name,
			Shape:        tr.spec.Shape.Kind.String(),
			Ranks:        tr.spec.Ranks,
			Admitted:     tr.admitted,
			Rejected:     tr.rejected,
			Completed:    tr.completed,
			Shed:         tr.shed,
			Late:         tr.late,
			Failed:       tr.failed,
			GoodputBytes: tr.goodput,
			P50:          quantileDur(tr.samples, 0.50),
			P99:          quantileDur(tr.samples, 0.99),
			P999:         quantileDur(tr.samples, 0.999),
		}
		tr.mu.Unlock()

		if out.Admitted != out.Completed+out.Shed+out.Late+out.Failed {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"tenant %s: admission accounting broken: admitted %d != completed %d + shed %d + late %d + failed %d",
				out.Name, out.Admitted, out.Completed, out.Shed, out.Late, out.Failed))
		}
		st := ctrl.Lookup(tr.spec.Name).Stats()
		if st.Admitted != out.Admitted || st.Rejected() != out.Rejected {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"tenant %s: controller counters disagree: admitted %d/%d rejected %d/%d",
				out.Name, st.Admitted, out.Admitted, st.Rejected(), out.Rejected))
		}
		if v := tr.completedC.Value(); v != out.Completed {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"tenant %s: %s=%d, campaign tallied %d", out.Name, qos.MetricCompleted, v, out.Completed))
		}
		if v := tr.shedC.Value(); v != out.Shed+out.Late {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"tenant %s: %s=%d, campaign tallied %d", out.Name, qos.MetricShed, v, out.Shed+out.Late))
		}
		if v := tr.failedC.Value(); v != out.Failed {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"tenant %s: %s=%d, campaign tallied %d", out.Name, qos.MetricFailed, v, out.Failed))
		}
		if n := tr.latencyH.Count(); n != out.Completed {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"tenant %s: %s count=%d, campaign completed %d", out.Name, qos.MetricLatency, n, out.Completed))
		}

		res.Tenants = append(res.Tenants, out)
		goodput = append(goodput, float64(out.GoodputBytes))
	}
	res.Jain = qos.Jain(goodput)
	if plan != nil {
		res.FaultTrace = plan.FormatTrace()
	}
	return res, nil
}

// runRank drives one rank's op stream until its shape's op count is
// done (or, for sustained aggressors, until stop closes).
func runRank(cfg Config, g *gate, tr *tenantRun, reg *rankRegion, tenantIdx, rank int, sustained bool, stop chan struct{}) {
	shape := tr.spec.Shape
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(tenantIdx)<<40 ^ int64(rank)<<16))
	pool := tr.pools[reg.target]
	buf := make([]byte, shape.OpBytes)

	for op := 0; ; op++ {
		if sustained {
			select {
			case <-stop:
				return
			default:
			}
			if op >= 1<<20 {
				return // backstop: the campaign is wedged, don't spin forever
			}
		} else if op >= shape.OpsPerRank {
			return
		}

		if f := shape.ThinkFactor(rng, op); f > 0 {
			time.Sleep(time.Duration(f * float64(cfg.TargetLatency)))
		}

		isRead := shape.IsRead(rng)
		opName := "write"
		if isRead {
			opName = "read"
		}
		if err := tr.tenant.Admit(opName, shape.OpBytes); err != nil {
			tr.mu.Lock()
			tr.rejected++
			tr.mu.Unlock()
			// The op was never accepted; it is abandoned, not queued.
			// The pause keeps a flat-out rejected tenant from turning
			// the admission bucket into a spin lock.
			time.Sleep(cfg.TargetLatency)
			continue
		}
		tr.mu.Lock()
		tr.admitted++
		tr.mu.Unlock()

		if !isRead {
			fillPattern(buf, cfg.Seed, tenantIdx, rank, op)
		}
		// The latency covers the wait in the gate.
		t0 := time.Now()
		err := g.acquire(tr.spec.Name, t0.Add(commandTimeout))
		if err == nil {
			if isRead {
				_, err = pool.ReadAt(reg.base, shape.OpBytes)
			} else {
				err = pool.WriteAt(reg.base, buf)
			}
			g.release()
		}
		lat := time.Since(t0)

		tr.mu.Lock()
		switch {
		case err == nil:
			tr.completed++
			tr.goodput += shape.OpBytes
			tr.samples = append(tr.samples, lat)
			tr.completedC.Inc()
			tr.latencyH.ObserveDuration(lat)
			if !isRead {
				reg.lastAcked = append(reg.lastAcked[:0], buf...)
				reg.indeterminate = false
			}
		case errors.Is(err, errShed):
			// Refused before touching the wire: a definite outcome.
			tr.shed++
			tr.shedC.Inc()
		case errors.Is(err, errLate):
			tr.late++
			tr.shedC.Inc()
		default:
			tr.failed++
			tr.failedC.Inc()
			if !isRead {
				// The write may or may not have landed.
				reg.indeterminate = true
			}
		}
		tr.mu.Unlock()
	}
}

// fillPattern fills buf with bytes deterministically derived from
// (seed, tenant, rank, op) — the read-back verifier recomputes nothing,
// it compares against the retained acked copy, but distinct patterns
// per op make any cross-region or stale-data bug visible.
func fillPattern(buf []byte, seed int64, tenant, rank, op int) {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(tenant)<<48 ^ uint64(rank)<<24 ^ uint64(op)
	for i := range buf {
		x = x*6364136223846793005 + 1442695040888963407
		buf[i] = byte(x >> 56)
	}
}

// quantileDur returns the exact q-quantile of the sorted samples
// (nearest-rank); zero when empty.
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
