package health

// Objective is one rolling-window SLO: a budget on the fraction of bad
// events, judged by multi-window burn rate. Burn rate is the observed
// bad fraction divided by the budget — burn 1 means the budget is
// being consumed exactly as provisioned, burn 2 means twice as fast.
// An objective presses on the subject's score only when BOTH the fast
// and the slow window burn (the standard multi-window guard: a single
// bad tick moves only the fast window, stale history only the slow
// one).
type Objective struct {
	// Name labels the objective in verdicts and metric series.
	Name string
	// Budget is the allowed bad-event fraction (e.g. 0.001 = 99.9%).
	Budget float64
	// FastTicks and SlowTicks are the two window lengths, in engine
	// ticks (defaults 5 and 30).
	FastTicks int
	SlowTicks int
	// BreachBurn is the burn rate at which the objective is breached
	// and black-box capture triggers (default 2).
	BreachBurn float64
	// ExhaustBurn is the burn rate mapping to score 0 (default 10);
	// between 0 and ExhaustBurn the score degrades linearly.
	ExhaustBurn float64
}

func (o Objective) withDefaults() Objective {
	if o.Budget <= 0 {
		o.Budget = 0.01
	}
	if o.FastTicks <= 0 {
		o.FastTicks = 5
	}
	if o.SlowTicks <= 0 {
		o.SlowTicks = 30
	}
	if o.SlowTicks < o.FastTicks {
		o.SlowTicks = o.FastTicks
	}
	if o.BreachBurn <= 0 {
		o.BreachBurn = 2
	}
	if o.ExhaustBurn <= 0 {
		o.ExhaustBurn = 10
	}
	return o
}

// ErrorRatioObjective builds an SLO over a cumulative (total, bad)
// counter pair: at most budget of events may fail.
func ErrorRatioObjective(name string, budget float64) Objective {
	return Objective{Name: name, Budget: budget}.withDefaults()
}

// objectiveState tracks one objective's per-tick deltas in a ring
// sized to the slow window.
type objectiveState struct {
	obj      Objective
	deltas   []SeriesPoint // per-tick (total, bad) deltas, ring
	next     int           // ring write position
	filled   int           // entries populated (≤ len)
	last     SeriesPoint   // previous cumulative sample
	seen     bool          // first sample only baselines
	breached bool          // edge detection for capture
}

func (s *objectiveState) init(o *Objective) {
	s.obj = *o
	s.deltas = make([]SeriesPoint, o.SlowTicks)
}

// update differences the cumulative sample into the ring. Counter
// resets (total moving backward, e.g. a reconnected registry) re-
// baseline instead of recording a giant negative delta.
func (s *objectiveState) update(pt SeriesPoint) {
	if !s.seen || pt.Total < s.last.Total || pt.Bad < s.last.Bad {
		s.last, s.seen = pt, true
		s.deltas[s.next] = SeriesPoint{}
		s.advance()
		return
	}
	s.deltas[s.next] = SeriesPoint{Total: pt.Total - s.last.Total, Bad: pt.Bad - s.last.Bad}
	s.last = pt
	s.advance()
}

func (s *objectiveState) advance() {
	s.next = (s.next + 1) % len(s.deltas)
	if s.filled < len(s.deltas) {
		s.filled++
	}
}

// window sums the most recent n deltas.
func (s *objectiveState) window(n int) (total, bad uint64) {
	if n > s.filled {
		n = s.filled
	}
	for i := 1; i <= n; i++ {
		d := s.deltas[(s.next-i+len(s.deltas))%len(s.deltas)]
		total += d.Total
		bad += d.Bad
	}
	return total, bad
}

// burns returns the fast- and slow-window burn rates. An empty window
// (no traffic) burns 0: silence is not failure — liveness is judged by
// Sample.Live, not by the objectives.
func (s *objectiveState) burns() (fast, slow float64) {
	return s.burn(s.obj.FastTicks), s.burn(s.obj.SlowTicks)
}

func (s *objectiveState) burn(n int) float64 {
	total, bad := s.window(n)
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / s.obj.Budget
}
