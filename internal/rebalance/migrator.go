package rebalance

import (
	"errors"
	"fmt"
	"sync"

	"github.com/nvme-cr/nvmecr/internal/faults"
	"github.com/nvme-cr/nvmecr/internal/nvmeof"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// Migration-plane metric names (registered when Config.Registry is
// set).
const (
	// MetricMigrations counts migration state transitions, labeled by
	// the state entered — {state="done"} is completed moves,
	// {state="rolledback"} abandoned ones.
	MetricMigrations = "nvmecr_rebalance_migrations_total"
	// MetricCopiedBytes counts bytes swept onto spares.
	MetricCopiedBytes = "nvmecr_rebalance_copied_bytes_total"
	// MetricActive is the number of in-flight migrations.
	MetricActive = "nvmecr_rebalance_active"
	// MetricProgress is the in-flight sweep progress (0..1), labeled
	// by child index.
	MetricProgress = "nvmecr_rebalance_progress"
)

// ErrCrashed reports that a seeded fault plan fired a crash point
// inside the migrator: the caller (a crash test) abandons this process
// image and recovers from the journal.
var ErrCrashed = errors.New("rebalance: injected crash")

// ErrMigrationActive reports a second migration requested for a child
// whose move is still in flight.
var ErrMigrationActive = errors.New("rebalance: migration already active for child")

// Config wires a Migrator to its plane and environment.
type Config struct {
	// Plane is the mirrored striped plane whose members migrate.
	Plane *nvmeof.StripedPlane
	// Journal is the durable migration log (required).
	Journal *Journal
	// Spare allocates a replacement plane for a member and returns it
	// with a durable label recovery can re-attach by. Returning an
	// empty label with a nil plane rebuilds the existing member in
	// place (a restarted target re-admitted with possibly stale data).
	// Required for Migrate; Recover uses Restore instead.
	Spare func(child int) (plane.Plane, string, error)
	// Restore re-attaches a spare by its journaled label during
	// Recover. Required when Recover may see copying/cutover records
	// with labels; a Restore error rolls the migration back.
	Restore func(label string) (plane.Plane, error)
	// ChunkSize is the sweep granularity in bytes (default 1 MiB).
	// Smaller chunks hold the plane's sweep lock shorter; larger ones
	// amortize per-chunk round trips.
	ChunkSize int64
	// Registry, when non-nil, receives the rebalance series.
	Registry *telemetry.Registry
	// Tracer, when non-nil, receives a "rebalance.transition" event
	// per state change — the nvmecr-trace migration timeline.
	Tracer *telemetry.Tracer
	// Faults, when non-nil, is consulted at every migration step
	// (Layer process, ops "rebalance-drain", "rebalance-copy",
	// "rebalance-cutover"); a crash injection aborts the migrator with
	// ErrCrashed. Seeded crash tests ride here.
	Faults *faults.Plan
}

// Status is one migration's externally visible progress, served by the
// /rebalance admin endpoint.
type Status struct {
	ID     int64  `json:"migration"`
	Child  int    `json:"child"`
	Group  int    `json:"group"`
	State  State  `json:"state"`
	Spare  string `json:"spare,omitempty"`
	Copied int64  `json:"copied_bytes"`
	Total  int64  `json:"total_bytes"`
	Reason string `json:"reason,omitempty"`
	Err    string `json:"error,omitempty"`
}

// Migrator drives member migrations on one striped plane: marking the
// member down, attaching a spare, sweeping its address space from a
// live sibling while writes continue, and cutting over — journaling
// each step. One Migrator serves one plane; its methods are safe for
// concurrent use, and concurrent migrations of distinct members
// proceed in parallel (the plane's sweep lock serializes chunk copies
// against writes, not migrations against each other).
type Migrator struct {
	cfg Config

	mu     sync.Mutex
	active map[int]*Status // by child
	recent []Status        // terminal statuses, this process

	migrations *countersByState
	copied     *telemetry.Counter
	activeG    *telemetry.Gauge
}

// countersByState lazily binds the per-state transition counters.
type countersByState struct {
	reg *telemetry.Registry
	mu  sync.Mutex
	m   map[State]*telemetry.Counter
}

func (c *countersByState) inc(s State) {
	if c == nil || c.reg == nil {
		return
	}
	c.mu.Lock()
	ctr := c.m[s]
	if ctr == nil {
		ctr = c.reg.Counter(MetricMigrations, telemetry.Labels{"state": string(s)})
		c.m[s] = ctr
	}
	c.mu.Unlock()
	ctr.Inc()
}

// New creates a Migrator. Plane and Journal are required.
func New(cfg Config) (*Migrator, error) {
	if cfg.Plane == nil {
		return nil, fmt.Errorf("rebalance: Config.Plane is required")
	}
	if cfg.Journal == nil {
		return nil, fmt.Errorf("rebalance: Config.Journal is required")
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 1 << 20
	}
	m := &Migrator{cfg: cfg, active: make(map[int]*Status)}
	if cfg.Registry != nil {
		m.migrations = &countersByState{reg: cfg.Registry, m: make(map[State]*telemetry.Counter)}
		m.copied = cfg.Registry.Counter(MetricCopiedBytes, nil)
		m.activeG = cfg.Registry.Gauge(MetricActive, nil)
	}
	return m, nil
}

// Migrate moves one member's data onto a freshly allocated spare:
// drain → copy → cutover → done, journaling each transition before its
// effects count. It blocks until the migration reaches a terminal
// state or aborts (crash injection, plane error). Writes to the plane
// continue throughout; acknowledged bytes are never lost (the sweep
// ordering argument lives on StripedPlane.SyncChunk).
func (m *Migrator) Migrate(child int, reason string) (Status, error) {
	if m.cfg.Spare == nil {
		return Status{}, fmt.Errorf("rebalance: Config.Spare is required for Migrate")
	}
	st, err := m.begin(child, reason)
	if err != nil {
		return Status{}, err
	}

	// Drain: stop routing to the member. Journal first — a crash after
	// the journal write but before SetChildDown recovers to the same
	// place (recovery marks the child down again; marking a down child
	// down is idempotent).
	if err := m.transition(st, StateDraining, nil); err != nil {
		return m.finish(st, err)
	}
	if err := m.crashPoint("rebalance-drain"); err != nil {
		return m.finish(st, err)
	}
	if err := m.cfg.Plane.SetChildDown(child); err != nil {
		return m.finish(st, err)
	}

	// Attach the spare and journal its label before the first chunk:
	// from here recovery knows what to re-attach.
	spare, label, err := m.cfg.Spare(child)
	if err != nil {
		m.transition(st, StateRolledBack, nil)
		return m.finish(st, fmt.Errorf("rebalance: allocate spare for child %d: %w", child, err))
	}
	st.Spare = label
	if err := m.transition(st, StateCopying, nil); err != nil {
		return m.finish(st, err)
	}
	if err := m.cfg.Plane.BeginRebuild(child, spare); err != nil {
		m.transition(st, StateRolledBack, nil)
		return m.finish(st, err)
	}

	if err := m.sweep(st); err != nil {
		return m.finish(st, err)
	}

	if err := m.transition(st, StateCutover, nil); err != nil {
		return m.finish(st, err)
	}
	if err := m.crashPoint("rebalance-cutover"); err != nil {
		return m.finish(st, err)
	}
	if err := m.cfg.Plane.SetChildLive(child); err != nil {
		return m.finish(st, err)
	}
	if err := m.transition(st, StateDone, nil); err != nil {
		return m.finish(st, err)
	}
	return m.finish(st, nil)
}

// Recover finishes or rolls back every non-terminal journaled
// migration, in ID order. Call it on a fresh process before serving
// traffic. Semantics per journaled state:
//
//   - draining: no spare was attached; the member stays down and the
//     migration rolls back (a fresh Migrate can move it later).
//   - copying / cutover: the spare is re-attached via Restore and the
//     sweep re-runs from offset zero — chunks are idempotent copies,
//     so re-sweeping already-copied ranges is safe, and a cutover that
//     never journaled "done" is not trusted to have swept everything.
//     If Restore fails (or no Restore is wired), the migration rolls
//     back: the member stays down, its group serving degraded from
//     live siblings. Either way no stale member is ever promoted.
//
// Exactly one terminal record is appended per recovered migration (the
// journal rejects seconds), so a move is never double-charged.
func (m *Migrator) Recover() ([]Status, error) {
	open := m.cfg.Journal.Open()
	out := make([]Status, 0, len(open))
	var firstErr error
	for _, r := range open {
		st, err := m.recoverOne(r)
		out = append(out, st)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return out, firstErr
}

func (m *Migrator) recoverOne(r Record) (Status, error) {
	st := &Status{ID: r.Migration, Child: r.Child, Group: r.Group, State: r.State, Spare: r.Spare, Reason: r.Reason, Total: m.cfg.Plane.ChildSize()}
	m.mu.Lock()
	if _, busy := m.active[r.Child]; busy {
		m.mu.Unlock()
		return *st, fmt.Errorf("rebalance: recover migration %d: %w %d", r.Migration, ErrMigrationActive, r.Child)
	}
	m.active[r.Child] = st
	m.mu.Unlock()
	if m.activeG != nil {
		m.activeG.Add(1)
	}

	// The journaled drain happened (or was about to); make it so on
	// this process's plane either way. Idempotent.
	if err := m.cfg.Plane.SetChildDown(r.Child); err != nil {
		return m.finish(st, err)
	}

	rollback := func(cause error) (Status, error) {
		if err := m.transition(st, StateRolledBack, nil); err != nil {
			return m.finish(st, err)
		}
		fin, _ := m.finish(st, nil)
		return fin, cause
	}

	switch r.State {
	case StateDraining:
		// No spare attached pre-crash: nothing to resume onto.
		return rollback(nil)
	case StateCopying, StateCutover:
		var spare plane.Plane
		if r.Spare != "" {
			if m.cfg.Restore == nil {
				return rollback(fmt.Errorf("rebalance: migration %d needs spare %q but no Restore is wired", r.Migration, r.Spare))
			}
			sp, err := m.cfg.Restore(r.Spare)
			if err != nil {
				return rollback(fmt.Errorf("rebalance: restore spare %q: %w", r.Spare, err))
			}
			spare = sp
		}
		if err := m.cfg.Plane.BeginRebuild(r.Child, spare); err != nil {
			return rollback(err)
		}
		st.Copied = 0
		if err := m.sweep(st); err != nil {
			return m.finish(st, err)
		}
		if err := m.transition(st, StateCutover, nil); err != nil {
			return m.finish(st, err)
		}
		if err := m.crashPoint("rebalance-cutover"); err != nil {
			return m.finish(st, err)
		}
		if err := m.cfg.Plane.SetChildLive(r.Child); err != nil {
			return m.finish(st, err)
		}
		if err := m.transition(st, StateDone, nil); err != nil {
			return m.finish(st, err)
		}
		return m.finish(st, nil)
	default:
		return m.finish(st, fmt.Errorf("rebalance: migration %d in unexpected journaled state %q", r.Migration, r.State))
	}
}

// begin registers an in-flight migration for a child, allocating its
// ID.
func (m *Migrator) begin(child int, reason string) (*Status, error) {
	p := m.cfg.Plane
	if child < 0 || child >= p.Children() {
		return nil, fmt.Errorf("rebalance: child %d of %d", child, p.Children())
	}
	st := &Status{
		ID:     m.cfg.Journal.NextID(),
		Child:  child,
		Group:  p.GroupOf(child),
		Reason: reason,
		Total:  p.ChildSize(),
	}
	m.mu.Lock()
	if _, busy := m.active[child]; busy {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w %d", ErrMigrationActive, child)
	}
	m.active[child] = st
	m.mu.Unlock()
	if m.activeG != nil {
		m.activeG.Add(1)
	}
	return st, nil
}

// sweep copies the member's full address space in chunks, consulting
// the fault plan before each chunk.
func (m *Migrator) sweep(st *Status) error {
	p := m.cfg.Plane
	total := p.ChildSize()
	var progress *telemetry.FloatGauge
	if m.cfg.Registry != nil {
		progress = m.cfg.Registry.FloatGauge(MetricProgress, telemetry.Labels{"child": fmt.Sprint(st.Child)})
		defer progress.Set(0)
	}
	for off := int64(0); off < total; off += m.cfg.ChunkSize {
		if err := m.crashPoint("rebalance-copy"); err != nil {
			return err
		}
		n, err := p.SyncChunk(st.Child, off, m.cfg.ChunkSize)
		if err != nil {
			return err
		}
		m.mu.Lock()
		st.Copied += n
		copied := st.Copied
		m.mu.Unlock()
		if m.copied != nil {
			m.copied.Add(uint64(n))
		}
		if progress != nil && total > 0 {
			progress.Set(float64(copied) / float64(total))
		}
	}
	return nil
}

// crashPoint consults the fault plan at a process-layer step; a crash
// injection aborts the migrator.
func (m *Migrator) crashPoint(op string) error {
	if m.cfg.Faults == nil {
		return nil
	}
	inj, ok := m.cfg.Faults.Eval(faults.Point{Layer: faults.LayerProcess, Op: op, Rank: -1})
	if !ok {
		return nil
	}
	if inj.Kind == faults.KindCrash {
		return fmt.Errorf("%w at %s (%s)", ErrCrashed, op, inj)
	}
	return nil
}

// transition journals a state change, updates metrics, and emits the
// trace event. The journal write happens FIRST: a state is entered
// only once it is durable.
func (m *Migrator) transition(st *Status, to State, _ error) error {
	m.mu.Lock()
	from := st.State
	m.mu.Unlock()
	err := m.cfg.Journal.Append(Record{
		Migration: st.ID, Child: st.Child, Group: st.Group,
		State: to, Spare: st.Spare, Copied: st.Copied, Reason: st.Reason,
	})
	if err != nil {
		return err
	}
	m.mu.Lock()
	st.State = to
	m.mu.Unlock()
	m.migrations.inc(to)
	m.cfg.Tracer.Emit(telemetry.Event{
		Name: "rebalance.transition",
		Rank: -1,
		Attrs: map[string]any{
			"migration": st.ID, "child": st.Child, "group": st.Group,
			"from": string(from), "to": string(to),
			"spare": st.Spare, "copied": st.Copied, "reason": st.Reason,
		},
	})
	return nil
}

// finish retires an in-flight migration, recording its error (if any)
// and returning the final status.
func (m *Migrator) finish(st *Status, err error) (Status, error) {
	m.mu.Lock()
	if err != nil {
		st.Err = err.Error()
	}
	delete(m.active, st.Child)
	m.recent = append(m.recent, *st)
	if len(m.recent) > 64 {
		m.recent = m.recent[len(m.recent)-64:]
	}
	fin := *st
	m.mu.Unlock()
	if m.activeG != nil {
		m.activeG.Add(-1)
	}
	return fin, err
}

// Migrations returns the in-flight migrations followed by recently
// finished ones (most recent last), the /rebalance endpoint's payload.
func (m *Migrator) Migrations() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.active)+len(m.recent))
	for _, st := range m.active {
		out = append(out, *st)
	}
	sortStatuses(out)
	out = append(out, m.recent...)
	return out
}

func sortStatuses(sts []Status) {
	for i := 1; i < len(sts); i++ {
		for k := i; k > 0 && sts[k].ID < sts[k-1].ID; k-- {
			sts[k], sts[k-1] = sts[k-1], sts[k]
		}
	}
}
