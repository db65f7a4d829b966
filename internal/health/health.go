// Package health is the judgment layer over the runtime's raw
// telemetry: a streaming evaluator that samples each subject (a
// target, a tenant mount, a mirror member) on a fixed cadence and
// maintains EWMA latency and error-rate trackers, multi-window SLO burn
// rates, and a hysteresis state machine healthy → degraded → suspect →
// dead. Verdicts — not scrapes — are what the rebalancing control
// plane and operators consume. On an SLO breach or a demotion to
// suspect the engine performs black-box capture: flight-recorder
// rings, the full metric set, and pprof snapshots land in a bounded
// on-disk incident directory so post-hoc forensics work even when
// nobody was scraping.
//
// See docs/health.md for objective semantics and the state machine.
package health

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// State is a subject's health verdict. Order matters: higher is worse,
// and transitions move one step at a time.
type State int32

const (
	// Healthy: every objective inside budget.
	Healthy State = iota
	// Degraded: burn rates eating into the error budget; still serving.
	Degraded
	// Suspect: budget exhaustion imminent or transport flapping.
	Suspect
	// Dead: transport down and objectives pinned at exhaustion.
	Dead
)

// String names the state as it appears in JSON, metrics docs and logs.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// MarshalJSON writes the state name, not the integer.
func (s State) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON accepts a state name.
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "healthy":
		*s = Healthy
	case "degraded":
		*s = Degraded
	case "suspect":
		*s = Suspect
	case "dead":
		*s = Dead
	default:
		return fmt.Errorf("health: unknown state %q", name)
	}
	return nil
}

// Prometheus series the engine maintains per subject.
const (
	// MetricHealthState is the numeric state (0 healthy … 3 dead),
	// labeled {kind,name}.
	MetricHealthState = "nvmecr_health_state"
	// MetricHealthScore is the 0..1 health score (1 = perfectly
	// healthy), labeled {kind,name}.
	MetricHealthScore = "nvmecr_health_score"
	// MetricSLOBurnRate is the per-objective burn rate, labeled
	// {kind,name,objective,window} with window "fast" or "slow".
	MetricSLOBurnRate = "nvmecr_slo_burn_rate"
)

// bands are the hysteresis bands of the state machine. Scores are 0..1
// (1 healthy). State s is entered when the score stays below enter[s]
// for enterTicks consecutive ticks, and left (toward healthy) when the
// score stays above exit[s] for exitTicks. exit > enter for every state
// is what makes the band: a score oscillating between the two moves
// nothing. Promotions are slower than demotions: flapping back early is
// worse than lingering.
var bands = struct {
	enter, exit           [Dead + 1]float64
	enterTicks, exitTicks int
}{
	enter:      [Dead + 1]float64{Degraded: 0.75, Suspect: 0.45, Dead: 0.10},
	exit:       [Dead + 1]float64{Degraded: 0.90, Suspect: 0.65, Dead: 0.30},
	enterTicks: 2,
	exitTicks:  3,
}

// alpha is the EWMA smoothing factor for the per-subject error rate and
// latency trackers.
const alpha = 0.3

// Config tunes an Engine. The zero value gets sensible defaults.
type Config struct {
	// Interval is the evaluation cadence for Start (default 1s).
	// Tick can always be driven manually regardless.
	Interval time.Duration
	// Registry holds the engine's own series (health state, score, burn
	// rates); incident bundles write it whole. Nil gets a private
	// registry.
	Registry *telemetry.Registry
	// Tracer, when non-nil, receives a "health.transition" event for
	// every state change.
	Tracer *telemetry.Tracer
	// Capture configures black-box incident capture; the zero value
	// (empty Dir) disables it.
	Capture CaptureConfig
	// Now overrides the clock (tests); default time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Registry == nil {
		c.Registry = telemetry.New()
	}
	c.Capture = c.Capture.withDefaults()
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Sample is one tick's raw signal for a subject, produced by its
// collector.
type Sample struct {
	// Series holds one cumulative (total, bad) pair per objective, in
	// the subject's objective order. The engine differences successive
	// samples itself.
	Series []SeriesPoint
	// Commands and Errors are cumulative counts feeding the EWMA
	// error-rate tracker (informational; objectives are what score).
	Commands uint64
	Errors   uint64
	// Latency is the current latency signal in seconds (e.g. the p99
	// over the lifetime histogram), feeding the EWMA latency tracker.
	Latency float64
	// Live reports whether the subject's transport is up at all. A
	// dead transport pins the score to 0, and a subject can only be
	// demoted all the way to Dead while not live.
	Live bool
}

// SeriesPoint is a cumulative event count pair for one objective.
type SeriesPoint struct {
	Total uint64
	Bad   uint64
}

// SubjectConfig registers one scored entity with the engine.
type SubjectConfig struct {
	// Kind groups subjects for rollups: "target", "mount",
	// "mirror-member".
	Kind string
	// Name identifies the subject within its kind.
	Name string
	// Objectives are the SLOs scored every tick (nil = transport
	// liveness only).
	Objectives []Objective
	// Collect produces the tick's sample. Required. Called outside the
	// engine's locks.
	Collect func() Sample
	// Blackbox, when non-nil, supplies the subject-specific payload
	// (flight-recorder rings) written into incident bundles.
	Blackbox func() any
}

// Subject is one registered, scored entity.
type Subject struct {
	cfg SubjectConfig
	eng *Engine

	stateG *telemetry.Gauge
	scoreG *telemetry.FloatGauge
	burnG  [][2]*telemetry.FloatGauge // per objective: fast, slow

	mu          sync.Mutex
	listeners   []func(old, new State, v Verdict)
	state       State
	score       float64
	live        bool
	objs        []objectiveState
	errEWMA     ewma
	latEWMA     ewma
	enterRun    int
	exitRun     int
	since       time.Time
	transitions uint64
	lastCapture time.Time
	lastIncid   string
	statuses    []ObjectiveStatus // reused verdict buffer
}

// Verdict is a subject's externally visible judgment.
type Verdict struct {
	Kind        string            `json:"kind"`
	Name        string            `json:"name"`
	State       State             `json:"state"`
	Score       float64           `json:"score"`
	Live        bool              `json:"live"`
	SinceUnixNS int64             `json:"since_unix_ns"`
	Transitions uint64            `json:"transitions"`
	ErrorRate   float64           `json:"error_rate_ewma"`
	LatencyS    float64           `json:"latency_ewma_seconds"`
	Incident    string            `json:"last_incident,omitempty"`
	Objectives  []ObjectiveStatus `json:"objectives,omitempty"`
}

// ObjectiveStatus is one objective's burn state inside a Verdict.
type ObjectiveStatus struct {
	Name     string  `json:"name"`
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	Breached bool    `json:"breached"`
}

// Engine evaluates every registered subject on a cadence.
type Engine struct {
	cfg Config

	mu       sync.Mutex
	subjects map[string]*Subject
	order    []*Subject

	tickMu sync.Mutex
	ticks  uint64

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New creates an engine. Call Register for each subject, then Start
// (or drive Tick manually).
func New(cfg Config) *Engine {
	return &Engine{
		cfg:      cfg.withDefaults(),
		subjects: make(map[string]*Subject),
		stop:     make(chan struct{}),
	}
}

// Registry returns the registry the engine records into.
func (e *Engine) Registry() *telemetry.Registry { return e.cfg.Registry }

func subjectKey(kind, name string) string { return kind + "\x00" + name }

// Register adds a subject in state Healthy. Kind+name must be unique.
func (e *Engine) Register(cfg SubjectConfig) (*Subject, error) {
	if cfg.Collect == nil {
		return nil, fmt.Errorf("health: subject %s/%s: Collect is required", cfg.Kind, cfg.Name)
	}
	if cfg.Kind == "" || cfg.Name == "" {
		return nil, fmt.Errorf("health: subject needs Kind and Name")
	}
	for i := range cfg.Objectives {
		cfg.Objectives[i] = cfg.Objectives[i].withDefaults()
	}
	labels := telemetry.Labels{"kind": cfg.Kind, "name": cfg.Name}
	s := &Subject{
		cfg:    cfg,
		eng:    e,
		stateG: e.cfg.Registry.Gauge(MetricHealthState, labels),
		scoreG: e.cfg.Registry.FloatGauge(MetricHealthScore, labels),
		state:  Healthy,
		score:  1,
		live:   true,
		since:  e.cfg.Now(),
		objs:   make([]objectiveState, len(cfg.Objectives)),
	}
	for i := range cfg.Objectives {
		o := &cfg.Objectives[i]
		s.objs[i].init(o)
		s.burnG = append(s.burnG, [2]*telemetry.FloatGauge{
			e.cfg.Registry.FloatGauge(MetricSLOBurnRate, telemetry.Labels{
				"kind": cfg.Kind, "name": cfg.Name, "objective": o.Name, "window": "fast",
			}),
			e.cfg.Registry.FloatGauge(MetricSLOBurnRate, telemetry.Labels{
				"kind": cfg.Kind, "name": cfg.Name, "objective": o.Name, "window": "slow",
			}),
		})
	}
	s.stateG.Set(int64(Healthy))
	s.scoreG.Set(1)
	e.mu.Lock()
	defer e.mu.Unlock()
	key := subjectKey(cfg.Kind, cfg.Name)
	if _, dup := e.subjects[key]; dup {
		return nil, fmt.Errorf("health: subject %s/%s already registered", cfg.Kind, cfg.Name)
	}
	e.subjects[key] = s
	e.order = append(e.order, s)
	return s, nil
}

// Deregister removes a subject; its series stop updating.
func (e *Engine) Deregister(kind, name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := subjectKey(kind, name)
	s := e.subjects[key]
	if s == nil {
		return
	}
	delete(e.subjects, key)
	for i, o := range e.order {
		if o == s {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
}

// Subject returns a registered subject, or nil.
func (e *Engine) Subject(kind, name string) *Subject {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.subjects[subjectKey(kind, name)]
}

// Start launches the evaluation loop at the configured interval.
func (e *Engine) Start() {
	e.startOnce.Do(func() {
		done := make(chan struct{})
		e.mu.Lock()
		e.done = done
		e.mu.Unlock()
		go func() {
			defer close(done)
			t := time.NewTicker(e.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-e.stop:
					return
				case <-t.C:
					e.Tick()
				}
			}
		}()
	})
}

// Close stops the evaluation loop. Subjects and series stay readable.
func (e *Engine) Close() {
	e.mu.Lock()
	select {
	case <-e.stop:
	default:
		close(e.stop)
	}
	done := e.done
	e.mu.Unlock()
	if done != nil {
		<-done
	}
}

// Ticks returns how many evaluations have run.
func (e *Engine) Ticks() uint64 {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	return e.ticks
}

// Tick runs one evaluation pass over every subject: collect, score,
// and advance each state machine. Safe to call concurrently with
// Register/Deregister and the Start loop.
func (e *Engine) Tick() {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	e.ticks++
	tick := e.ticks

	e.mu.Lock()
	subs := make([]*Subject, len(e.order))
	copy(subs, e.order)
	e.mu.Unlock()

	for _, s := range subs {
		s.evaluate(tick)
	}
}

// evaluate runs one subject's tick: sample, score, hysteresis, and
// transition side effects.
func (s *Subject) evaluate(tick uint64) {
	sample := s.cfg.Collect()

	s.mu.Lock()
	s.live = sample.Live
	if sample.Commands > 0 {
		// EWMA over the cumulative ratio is cheap and monotonic-safe;
		// the objectives carry the windowed judgment.
		s.errEWMA.observe(alpha, float64(sample.Errors)/float64(sample.Commands))
	}
	if sample.Latency > 0 {
		s.latEWMA.observe(alpha, sample.Latency)
	}

	// Score: the worst objective's budget pressure, 0 (calm) to 1
	// (exhaustion-rate burn or dead transport).
	pressure := 0.0
	newBreach := false
	s.statuses = s.statuses[:0]
	for i := range s.objs {
		o := &s.objs[i]
		var pt SeriesPoint
		if i < len(sample.Series) {
			pt = sample.Series[i]
		}
		o.update(pt)
		fast, slow := o.burns()
		s.burnG[i][0].Set(fast)
		s.burnG[i][1].Set(slow)
		// min(fast, slow): both windows must burn for the objective to
		// press — a single bad tick moves fast only, a stale backlog
		// moves slow only. This is the standard multi-window guard
		// against paging on blips.
		burn := fast
		if slow < burn {
			burn = slow
		}
		breached := fast >= o.obj.BreachBurn && slow >= o.obj.BreachBurn
		if breached && !o.breached {
			newBreach = true
		}
		o.breached = breached
		p := burn / o.obj.ExhaustBurn
		if p > pressure {
			pressure = p
		}
		s.statuses = append(s.statuses, ObjectiveStatus{
			Name: o.obj.Name, FastBurn: fast, SlowBurn: slow, Breached: breached,
		})
	}
	if !sample.Live {
		pressure = 1
	}
	if pressure > 1 {
		pressure = 1
	}
	s.score = 1 - pressure
	s.scoreG.Set(s.score)

	// Hysteresis: count consecutive ticks qualifying for the adjacent
	// state, one step at a time.
	old := s.state
	var tentative State = old
	switch {
	case old < Dead && s.score < bands.enter[old+1] && (old+1 != Dead || !sample.Live):
		s.enterRun++
		s.exitRun = 0
		if s.enterRun >= bands.enterTicks {
			tentative = old + 1
		}
	case old > Healthy && s.score > bands.exit[old]:
		s.exitRun++
		s.enterRun = 0
		if s.exitRun >= bands.exitTicks {
			tentative = old - 1
		}
	default:
		s.enterRun, s.exitRun = 0, 0
	}
	var v Verdict
	transitioned := tentative != old
	if transitioned {
		s.state = tentative
		s.enterRun, s.exitRun = 0, 0
		s.since = s.eng.cfg.Now()
		s.transitions++
		s.stateG.Set(int64(tentative))
	}
	captureReason := ""
	if transitioned && tentative > old && tentative >= Suspect {
		captureReason = "demoted-" + tentative.String()
	} else if newBreach {
		captureReason = "slo-breach"
	}
	if transitioned || captureReason != "" {
		v = s.verdictLocked()
	}
	s.mu.Unlock()

	if captureReason != "" {
		if dir, err := s.eng.capture(s, captureReason, v); err == nil && dir != "" {
			s.mu.Lock()
			s.lastIncid = dir
			v.Incident = dir
			s.mu.Unlock()
		}
	}
	if transitioned {
		s.eng.emitTransition(old, tentative, v, tick)
		s.mu.Lock()
		var listeners []func(old, new State, v Verdict)
		listeners = append(listeners, s.listeners...)
		s.mu.Unlock()
		for _, fn := range listeners {
			fn(old, tentative, v)
		}
	}
}

// Subscribe adds a transition listener that runs (outside the
// subject's locks, on the evaluation goroutine) after every state
// change. It lets consumers — the rebalancing control plane chief among
// them — react to verdicts instead of re-deriving judgment from raw
// series. Listeners cannot be removed; subjects live as long as their
// engine.
func (s *Subject) Subscribe(fn func(old, new State, v Verdict)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.listeners = append(s.listeners, fn)
}

// emitTransition records a health.transition tracer event.
func (e *Engine) emitTransition(old, new State, v Verdict, tick uint64) {
	if e.cfg.Tracer == nil {
		return
	}
	e.cfg.Tracer.Emit(telemetry.Event{
		Name: "health.transition",
		Rank: -1,
		Attrs: map[string]any{
			"kind": v.Kind, "name": v.Name,
			"from": old.String(), "to": new.String(),
			"score": v.Score, "tick": tick, "incident": v.Incident,
		},
	})
}

// verdictLocked builds the subject's verdict; s.mu must be held.
func (s *Subject) verdictLocked() Verdict {
	objs := make([]ObjectiveStatus, len(s.statuses))
	copy(objs, s.statuses)
	return Verdict{
		Kind:        s.cfg.Kind,
		Name:        s.cfg.Name,
		State:       s.state,
		Score:       s.score,
		Live:        s.live,
		SinceUnixNS: s.since.UnixNano(),
		Transitions: s.transitions,
		ErrorRate:   s.errEWMA.value,
		LatencyS:    s.latEWMA.value,
		Incident:    s.lastIncid,
		Objectives:  objs,
	}
}

// Verdict returns the subject's current judgment.
func (s *Subject) Verdict() Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.verdictLocked()
}

// State returns the subject's current state.
func (s *Subject) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Verdicts returns every subject's judgment, ordered by kind then name.
func (e *Engine) Verdicts() []Verdict {
	e.mu.Lock()
	subs := make([]*Subject, len(e.order))
	copy(subs, e.order)
	e.mu.Unlock()
	out := make([]Verdict, 0, len(subs))
	for _, s := range subs {
		out = append(out, s.Verdict())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Overall returns the worst state across all subjects (Healthy when
// none are registered).
func (e *Engine) Overall() State {
	worst := Healthy
	for _, v := range e.Verdicts() {
		if v.State > worst {
			worst = v.State
		}
	}
	return worst
}

// LayerHealth is one kind's rollup inside a Rollup.
type LayerHealth struct {
	Status   State `json:"status"`
	Subjects int   `json:"subjects"`
	Degraded int   `json:"degraded"`
	Suspect  int   `json:"suspect"`
	Dead     int   `json:"dead"`
}

// Rollup is the per-layer summary served by /healthz.
type Rollup struct {
	Status State                  `json:"status"`
	Layers map[string]LayerHealth `json:"layers"`
}

// Rollup aggregates verdicts per kind.
func (e *Engine) Rollup() Rollup {
	r := Rollup{Status: Healthy, Layers: map[string]LayerHealth{}}
	for _, v := range e.Verdicts() {
		l := r.Layers[v.Kind]
		l.Subjects++
		switch v.State {
		case Degraded:
			l.Degraded++
		case Suspect:
			l.Suspect++
		case Dead:
			l.Dead++
		}
		if v.State > l.Status {
			l.Status = v.State
		}
		if v.State > r.Status {
			r.Status = v.State
		}
		r.Layers[v.Kind] = l
	}
	return r
}

// ewma is an exponentially weighted moving average.
type ewma struct {
	value float64
	seen  bool
}

func (e *ewma) observe(alpha, v float64) {
	if !e.seen {
		e.value, e.seen = v, true
		return
	}
	e.value = alpha*v + (1-alpha)*e.value
}
