// Package faults is NVMe-CR's deterministic fault-injection subsystem:
// one schedule format, consumed by every layer that can fail. A Plan is
// a seeded RNG plus declarative rules — probability, nth-operation,
// virtual-time window, scoped by layer/op/rank — and the same seed
// always produces the same injection sequence, so any failure a plan
// provokes reproduces from the printed seed alone.
//
// Layers consult the plan at their injection points:
//
//   - internal/nvme    Device.InjectFaults: media errors, stalled
//     channels, power loss (RAM-buffer loss honoring the capacitance
//     model)
//   - internal/fabric  Fabric.InjectFaults: delay spikes, partitions
//   - internal/nvmeof  FaultConn: connection resets, truncated and
//     duplicated frames, blackholed capsules on the real TCP plane
//   - internal/wal     TornAppendFunc: torn log appends at a chosen
//     byte offset
//   - CrashPlane       process crashes: every write after the crash
//     point is silently lost, exactly what a power cut does to
//     in-flight IO
//
// Every injection is appended to the plan's trace (for test failure
// messages) and emitted as a "fault.injected" event when WithTracer has
// been called.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// Layer identifies the subsystem an injection point belongs to.
type Layer uint8

const (
	// AnyLayer on a rule matches every injection point.
	AnyLayer Layer = iota
	// LayerNVMe is the simulated device model (internal/nvme).
	LayerNVMe
	// LayerFabric is the simulated interconnect (internal/fabric).
	LayerFabric
	// LayerTCP is the real NVMe-oF TCP plane (nvmeof.FaultConn).
	LayerTCP
	// LayerWAL is the provenance log append path (internal/wal).
	LayerWAL
	// LayerProcess is a whole-process crash point (CrashPlane writes,
	// harness epoch boundaries).
	LayerProcess
)

func (l Layer) String() string {
	switch l {
	case AnyLayer:
		return "any"
	case LayerNVMe:
		return "nvme"
	case LayerFabric:
		return "fabric"
	case LayerTCP:
		return "tcp"
	case LayerWAL:
		return "wal"
	case LayerProcess:
		return "process"
	default:
		return fmt.Sprintf("Layer(%d)", uint8(l))
	}
}

// Kind is the failure mode a rule injects. Layers ignore kinds they do
// not implement, so a plan can carry rules for several layers at once.
type Kind uint8

const (
	// KindNone is the zero value; rules must set a real kind.
	KindNone Kind = iota
	// KindCrash kills the process at this point: a CrashPlane drops
	// this write and everything after it; a workload loop stops.
	KindCrash
	// KindTornWrite persists only the first Arg bytes of this write
	// (clamped to the write size; Arg < 0 keeps half), then crashes.
	KindTornWrite
	// KindMediaError makes the device fail this command with an error.
	KindMediaError
	// KindStall adds Arg nanoseconds of extra service time (a stalled
	// flash channel).
	KindStall
	// KindPowerLoss cuts device power at this command: extents still
	// draining from device RAM are lost unless Arg != 0 (capacitors
	// hold, the paper's enhanced power-loss data protection).
	KindPowerLoss
	// KindDelay adds Arg nanoseconds to a fabric transfer or sleeps a
	// real Arg nanoseconds on the TCP plane (a congestion spike).
	KindDelay
	// KindPartition fails a fabric transfer (a lost link).
	KindPartition
	// KindConnReset closes the TCP connection after this capsule is
	// written: the command reaches the target but its completion never
	// comes back.
	KindConnReset
	// KindTruncate forwards only the first Arg bytes of this frame,
	// then closes the connection (a capsule cut mid-flight).
	KindTruncate
	// KindDuplicate writes this frame twice (a retransmit bug; the
	// receiver sees the same capsule, same CID, twice).
	KindDuplicate
	// KindBlackhole silently discards this frame: the capsule is
	// acknowledged locally but never reaches the peer, so the command
	// can only end in a deadline.
	KindBlackhole
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindCrash:
		return "crash"
	case KindTornWrite:
		return "torn-write"
	case KindMediaError:
		return "media-error"
	case KindStall:
		return "stall"
	case KindPowerLoss:
		return "power-loss"
	case KindDelay:
		return "delay"
	case KindPartition:
		return "partition"
	case KindConnReset:
		return "conn-reset"
	case KindTruncate:
		return "truncate"
	case KindDuplicate:
		return "duplicate"
	case KindBlackhole:
		return "blackhole"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Rule is one declarative injection: scope (layer, op, ranks, time
// window), trigger (nth matching operation, probability, or every
// match), and effect (kind + argument).
type Rule struct {
	// Name labels the rule in traces (optional).
	Name string

	// Layer scopes the rule to one subsystem; AnyLayer matches all.
	Layer Layer
	// Op scopes the rule to one operation name ("write", "read",
	// "transfer", "append", "epoch", a capsule opcode …); empty
	// matches every op.
	Op string
	// Ranks scopes the rule to the given MPI ranks; nil matches every
	// rank (including points that carry no rank).
	Ranks []int
	// After and Until bound the rule to a time window: the rule is
	// eligible when After <= now, and (when Until > 0) now < Until.
	// Sim layers measure virtual time; the TCP layer measures wall
	// time since the plan was created.
	After, Until time.Duration

	// Nth fires on exactly the nth in-scope operation (1-based,
	// counted per rule). When zero, Probability applies; when both are
	// zero the rule fires on every in-scope operation (bound it with
	// Count or a time window).
	Nth int64
	// Probability fires each in-scope operation with this chance,
	// drawn from the plan's seeded RNG.
	Probability float64
	// Count caps the total number of firings (0 = unlimited).
	Count int64

	// Kind is the injected failure mode.
	Kind Kind
	// Arg parameterizes the kind (bytes kept, nanoseconds, …).
	Arg int64
}

// Point is one injection-point consultation: a layer asks the plan
// whether anything fails here.
type Point struct {
	Layer Layer
	// Op is the operation name at this point.
	Op string
	// Rank is the MPI rank on whose behalf the operation runs, or -1
	// when the layer does not know.
	Rank int
	// Now is the current time: virtual time for sim layers, wall time
	// since plan creation for the TCP layer.
	Now time.Duration
}

// Injection records one fired rule, in order, for reproduction traces.
type Injection struct {
	// Seq is the injection's global sequence number within the plan.
	Seq int64
	// Rule is the index of the fired rule in the plan's rule list.
	Rule int
	// Name is the fired rule's label.
	Name string
	// Kind and Arg are the injected effect.
	Kind Kind
	Arg  int64
	// Point is where the injection happened.
	Point Point
}

func (inj Injection) String() string {
	name := inj.Name
	if name == "" {
		name = fmt.Sprintf("rule[%d]", inj.Rule)
	}
	return fmt.Sprintf("#%d %s: %s(arg=%d) at %s/%s rank=%d t=%s",
		inj.Seq, name, inj.Kind, inj.Arg,
		inj.Point.Layer, inj.Point.Op, inj.Point.Rank, inj.Point.Now)
}

// Error is the error layers return for an injected failure, so tests
// can tell injected faults from genuine bugs with IsInjected.
type Error struct {
	Inj Injection
}

func (e *Error) Error() string {
	return fmt.Sprintf("faults: injected %s (%s/%s)", e.Inj.Kind, e.Inj.Point.Layer, e.Inj.Point.Op)
}

// IsInjected reports whether err is (or wraps) an injected fault.
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// ruleState pairs a rule with its per-plan trigger counters.
type ruleState struct {
	Rule
	seen  int64 // in-scope operations observed
	fired int64 // injections delivered
}

// Plan is a deterministic fault schedule. The zero value is unusable;
// build plans with NewPlan. A nil *Plan is a valid no-op schedule, so
// layers hold a plain field and call Eval unconditionally.
//
// Plan is safe for concurrent use (the TCP plane consults it from
// several goroutines); under the deterministic simulator exactly one
// process runs at a time, so sim-layer evaluation order — and therefore
// the RNG draw sequence — is reproducible for a given seed.
type Plan struct {
	seed  int64
	start time.Time

	mu    sync.Mutex
	rng   *rand.Rand
	rules []*ruleState
	trace []Injection
	seq   int64

	tracer *telemetry.Tracer
}

// NewPlan builds a plan from a seed and its rules. Rules are evaluated
// in order; the first eligible rule at a point wins.
func NewPlan(seed int64, rules ...Rule) *Plan {
	p := &Plan{
		seed:  seed,
		start: time.Now(),
		rng:   rand.New(rand.NewSource(seed)),
	}
	for _, r := range rules {
		rs := &ruleState{Rule: r}
		p.rules = append(p.rules, rs)
	}
	return p
}

// Seed returns the plan's RNG seed (print it in failure messages).
func (p *Plan) Seed() int64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// Elapsed returns the wall time since the plan was created — the clock
// TCP-layer points use for time windows.
func (p *Plan) Elapsed() time.Duration {
	if p == nil {
		return 0
	}
	return time.Since(p.start)
}

// WithTracer emits one "fault.injected" event per injection into tr.
func (p *Plan) WithTracer(tr *telemetry.Tracer) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.tracer = tr
	p.mu.Unlock()
}

// matches reports whether the rule's scope covers the point.
func (r *ruleState) matches(pt Point) bool {
	if r.Layer != AnyLayer && r.Layer != pt.Layer {
		return false
	}
	if r.Op != "" && r.Op != pt.Op {
		return false
	}
	if len(r.Ranks) > 0 {
		found := false
		for _, rank := range r.Ranks {
			if rank == pt.Rank {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if pt.Now < r.After {
		return false
	}
	if r.Until > 0 && pt.Now >= r.Until {
		return false
	}
	return true
}

// Eval asks the plan whether a fault fires at this point. At most one
// rule fires per point (first eligible in rule order); every matching
// rule's operation counter advances either way, so Nth triggers count
// real operations, not evaluation attempts.
func (p *Plan) Eval(pt Point) (Injection, bool) {
	if p == nil {
		return Injection{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var hit *ruleState
	hitIdx := -1
	for i, r := range p.rules {
		if !r.matches(pt) {
			continue
		}
		r.seen++
		if hit != nil {
			continue // a rule already fired; later counters still advance
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		switch {
		case r.Nth > 0:
			if r.seen != r.Nth {
				continue
			}
		case r.Probability > 0:
			if p.rng.Float64() >= r.Probability {
				continue
			}
		}
		hit, hitIdx = r, i
	}
	if hit == nil {
		return Injection{}, false
	}
	hit.fired++
	p.seq++
	inj := Injection{
		Seq:   p.seq,
		Rule:  hitIdx,
		Name:  hit.Name,
		Kind:  hit.Kind,
		Arg:   hit.Arg,
		Point: pt,
	}
	p.trace = append(p.trace, inj)
	if p.tracer != nil {
		p.tracer.Emit(telemetry.Event{
			Name: "fault.injected", Rank: pt.Rank,
			Attrs: map[string]any{
				"seq":    inj.Seq,
				"rule":   inj.Name,
				"kind":   inj.Kind.String(),
				"arg":    inj.Arg,
				"layer":  pt.Layer.String(),
				"op":     pt.Op,
				"now_ns": int64(pt.Now),
			},
		})
	}
	return inj, true
}

// Injections returns how many faults the plan has delivered.
func (p *Plan) Injections() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.trace)
}

// Trace returns a copy of the delivered injections, in order.
func (p *Plan) Trace() []Injection {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Injection(nil), p.trace...)
}

// FormatTrace renders the injection trace for a test failure message:
// seed first, then one line per injection, so the failing schedule can
// be replayed from the message alone.
func (p *Plan) FormatTrace() string {
	if p == nil {
		return "faults: no plan"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fault plan seed=%d, %d injection(s)", p.Seed(), p.Injections())
	for _, inj := range p.Trace() {
		b.WriteString("\n  ")
		b.WriteString(inj.String())
	}
	return b.String()
}
