package nvmeof

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/nvme-cr/nvmecr/internal/balancer"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// StripedPlane is a plane.Plane that shards a rank's partition across
// several NVMe-oF targets, using the balancer's stripe geometry:
// unit-sized blocks rotate round-robin over mirror GROUPS of child
// planes, and a request touching several groups issues its per-group
// spans concurrently through each target's own queue. This is the wide
// data path the paper's aggregate-bandwidth claim rests on (§IV,
// Fig. 7): one rank drives N devices at once instead of queueing behind
// one. With Replicas R > 1 (NewMirroredPlane) every group keeps R
// identical copies, so any R-1 members of a group can die without
// losing an acknowledged byte — the availability layer RAID-0 lacked.
//
// Semantics relative to a single-target plane:
//
//   - Write/Read are byte-identical to the same operations against one
//     target of Groups() times the capacity (the equivalence property
//     tests pin this, mirrored widths included).
//   - A write is acknowledged only when EVERY attached (live or
//     rebuilding) member of every touched group has it. Members marked
//     Down are skipped — that is the degraded mode a dead replica
//     leaves behind — and a group with every member down fails with
//     ErrNoReplica instead of hanging.
//   - A read is served by any one LIVE member of each touched group
//     (rebuilding members hold incomplete copies and never serve
//     reads). Large spans split across live members for aggregate
//     bandwidth; a failing member fails over to its siblings, and only
//     when every live member has failed does the read error.
//   - Flush is a barrier across ALL attached children: it succeeds only
//     when every live and rebuilding child's flush succeeds, because a
//     striped write's units land on every member and durability of
//     some copies is not durability of the data.
//   - Read propagates the plane.Plane nil contract consistently: if
//     ANY child consulted by the request does not capture payloads
//     (returns nil), the striped read is nil — never a partially
//     populated buffer masquerading as data.
//
// Children can be replaced and re-admitted while traffic flows
// (SetChildDown / BeginRebuild / SyncChunk / SetChildLive) — the
// migration control plane in internal/rebalance drives that dance off
// health.Engine verdicts. Child indices are stable for the plane's
// lifetime: replacement swaps the plane at an index, never reshuffles
// the slice, so span grouping computed against one snapshot can never
// address the wrong member.
type StripedPlane struct {
	geo       balancer.StripeGeometry
	logical   balancer.StripeGeometry // group-level RAID-0 layout for span math
	size      int64
	childSize int64 // usable bytes on every member

	// mu guards children and states. Ops snapshot both under RLock and
	// run against the snapshot; control-plane transitions take Lock.
	mu       sync.RWMutex
	children []plane.Plane
	states   []ChildState

	// sweepMu orders writes against rebuild chunk syncs: every write
	// holds it shared for the write's whole lifetime (membership
	// snapshot included), SyncChunk holds it exclusive per chunk. A
	// write therefore either sees the rebuilding member and copies to
	// it directly, or completes on the live members before the chunk
	// covering its range is swept from one of them.
	sweepMu sync.RWMutex

	readRR atomic.Uint64 // round-robin cursor for mirror read balance

	verifyReads atomic.Bool

	repairs   atomic.Pointer[telemetry.Counter]
	failovers atomic.Pointer[telemetry.Counter]
	degraded  atomic.Pointer[telemetry.Counter]
}

// ChildState is one member's availability within its mirror group.
type ChildState int32

const (
	// ChildLive serves reads and receives writes.
	ChildLive ChildState = iota
	// ChildDown is excluded from reads and writes: dead or draining.
	// Its data is stale the moment a sibling accepts a write; it must
	// be rebuilt (or replaced) before going live again.
	ChildDown
	// ChildRebuilding receives writes but never serves reads: a
	// replacement being populated by SyncChunk sweeps while traffic
	// flows.
	ChildRebuilding
)

func (c ChildState) String() string {
	switch c {
	case ChildLive:
		return "live"
	case ChildDown:
		return "down"
	case ChildRebuilding:
		return "rebuilding"
	default:
		return fmt.Sprintf("ChildState(%d)", int32(c))
	}
}

// ErrNoReplica is returned when every member of a touched mirror group
// is down: the request cannot be served, degraded or otherwise. Typed
// so callers can tell total group loss from a transient member error.
var ErrNoReplica = errors.New("nvmeof: no replica available")

// Mirror-plane metric names (registered by Instrument).
const (
	// MetricStripeReadFailovers counts reads re-served by a sibling
	// after a live member failed.
	MetricStripeReadFailovers = "nvmecr_stripe_read_failovers_total"
	// MetricStripeReadRepairs counts divergent replicas rewritten by
	// verify-reads read-repair.
	MetricStripeReadRepairs = "nvmecr_stripe_read_repairs_total"
	// MetricStripeDegradedWrites counts writes acknowledged with at
	// least one group member down (skipped).
	MetricStripeDegradedWrites = "nvmecr_stripe_degraded_writes_total"
)

// NewStripedPlane stripes RAID-0 across children in order with the
// given unit size, no redundancy. Children are typically *TCPPlane
// partitions on distinct targets, but any plane.Plane works (the
// simulator's planes included). The striped capacity is
// geometry-limited by the smallest child: every child contributes the
// same whole number of units.
func NewStripedPlane(children []plane.Plane, unit int64) (*StripedPlane, error) {
	return NewMirroredPlane(children, unit, 1)
}

// NewMirroredPlane stripes across len(children)/replicas mirror groups
// of `replicas` members each: members of group g are
// children[g*replicas : (g+1)*replicas], every one carrying an
// identical copy of the group's units. replicas <= 1 degenerates to
// plain RAID-0.
func NewMirroredPlane(children []plane.Plane, unit int64, replicas int) (*StripedPlane, error) {
	geo := balancer.StripeGeometry{Targets: len(children), Unit: unit, Replicas: replicas}
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	minSize := children[0].Size()
	for _, c := range children[1:] {
		if s := c.Size(); s < minSize {
			minSize = s
		}
	}
	size := geo.UsableSize(minSize)
	if size <= 0 {
		return nil, fmt.Errorf("nvmeof: stripe unit %d exceeds smallest child of %d bytes", unit, minSize)
	}
	s := &StripedPlane{
		geo:       geo,
		logical:   geo.Logical(),
		size:      size,
		childSize: size / int64(geo.Groups()),
		children:  append([]plane.Plane(nil), children...),
		states:    make([]ChildState, len(children)),
	}
	return s, nil
}

// Geometry returns the stripe layout, replica width included.
func (s *StripedPlane) Geometry() balancer.StripeGeometry { return s.geo }

// Size implements plane.Plane.
func (s *StripedPlane) Size() int64 { return s.size }

// ChildSize returns the usable bytes every member carries (the range
// SyncChunk sweeps when rebuilding one).
func (s *StripedPlane) ChildSize() int64 { return s.childSize }

// Children returns the member count. It never changes after creation:
// replacement swaps a member in place.
func (s *StripedPlane) Children() int { return len(s.states) }

// Replicas returns the mirror width R.
func (s *StripedPlane) Replicas() int {
	if s.geo.Replicas < 1 {
		return 1
	}
	return s.geo.Replicas
}

// GroupOf returns the mirror group a child index belongs to.
func (s *StripedPlane) GroupOf(child int) int { return s.geo.GroupOf(child) }

// ChildState returns a member's current availability.
func (s *StripedPlane) State(child int) ChildState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.states[child]
}

// Child returns the plane currently occupying a member slot.
func (s *StripedPlane) Child(child int) plane.Plane {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.children[child]
}

// SetVerifyReads toggles read-repair mode: every mirrored read fetches
// ALL live members, compares, and rewrites divergent copies from the
// lowest-index live member before returning. Costly (R wire reads per
// span) — a scrub/forensics mode, not the default.
func (s *StripedPlane) SetVerifyReads(on bool) { s.verifyReads.Store(on) }

// Instrument publishes the mirror plane's failover/repair/degraded
// counters into reg.
func (s *StripedPlane) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.failovers.Store(reg.Counter(MetricStripeReadFailovers, nil))
	s.repairs.Store(reg.Counter(MetricStripeReadRepairs, nil))
	s.degraded.Store(reg.Counter(MetricStripeDegradedWrites, nil))
}

func inc(c *atomic.Pointer[telemetry.Counter]) {
	if ctr := c.Load(); ctr != nil {
		ctr.Inc()
	}
}

func (s *StripedPlane) checkChild(child int) error {
	if child < 0 || child >= len(s.states) {
		return fmt.Errorf("nvmeof: child %d of %d", child, len(s.states))
	}
	return nil
}

// SetChildDown marks a member down: reads and writes skip it from the
// next membership snapshot on. In-flight requests that already
// snapshotted it may still touch it and surface its errors — callers
// retry, exactly as they do for any transient member failure.
func (s *StripedPlane) SetChildDown(child int) error {
	if err := s.checkChild(child); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.states[child] = ChildDown
	return nil
}

// BeginRebuild swaps a replacement plane into a down member's slot and
// marks it rebuilding: it starts receiving writes immediately but
// serves no reads until SetChildLive. replacement may be nil to
// rebuild the existing plane in place (a restarted target whose data
// may be stale). The member must be down first (drain before rebuild),
// its group must still have a live sibling to copy from, and the
// replacement must carry at least the member's usable size.
func (s *StripedPlane) BeginRebuild(child int, replacement plane.Plane) error {
	if err := s.checkChild(child); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.states[child]; st != ChildDown {
		return fmt.Errorf("nvmeof: rebuild child %d in state %s, want down", child, st)
	}
	group := s.geo.GroupOf(child)
	hasLive := false
	for r := 0; r < s.Replicas(); r++ {
		if m := s.geo.Member(group, r); m != child && s.states[m] == ChildLive {
			hasLive = true
			break
		}
	}
	if !hasLive {
		return fmt.Errorf("nvmeof: rebuild child %d: group %d has no live member to copy from: %w", child, group, ErrNoReplica)
	}
	if replacement != nil {
		if replacement.Size() < s.childSize {
			return fmt.Errorf("nvmeof: replacement for child %d is %d bytes, need %d", child, replacement.Size(), s.childSize)
		}
		s.children[child] = replacement
	}
	s.states[child] = ChildRebuilding
	return nil
}

// SetChildLive promotes a member to live — the rebuild cutover. The
// caller (the migration plane) is responsible for having synced the
// member's full range first; promoting an unsynced member serves stale
// reads.
func (s *StripedPlane) SetChildLive(child int) error {
	if err := s.checkChild(child); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.states[child] = ChildLive
	return nil
}

// SyncChunk copies [off, off+length) of a rebuilding member's address
// space from a live sibling, serialized against concurrent writes (see
// sweepMu): any write racing this chunk either lands on the sibling
// before the copy reads it or lands on the rebuilding member directly.
// It returns the bytes copied (length clamped to the member's usable
// size). The sibling must capture payloads — a timing-only plane
// cannot seed a rebuild.
func (s *StripedPlane) SyncChunk(child int, off, length int64) (int64, error) {
	if err := s.checkChild(child); err != nil {
		return 0, err
	}
	if off < 0 || length <= 0 {
		return 0, fmt.Errorf("nvmeof: sync chunk [%d,+%d)", off, length)
	}
	if off >= s.childSize {
		return 0, nil
	}
	if off+length > s.childSize {
		length = s.childSize - off
	}
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	s.mu.RLock()
	if st := s.states[child]; st != ChildRebuilding {
		s.mu.RUnlock()
		return 0, fmt.Errorf("nvmeof: sync child %d in state %s, want rebuilding", child, st)
	}
	dst := s.children[child]
	group := s.geo.GroupOf(child)
	var src plane.Plane
	for r := 0; r < s.Replicas(); r++ {
		if m := s.geo.Member(group, r); m != child && s.states[m] == ChildLive {
			src = s.children[m]
			break
		}
	}
	s.mu.RUnlock()
	if src == nil {
		return 0, fmt.Errorf("nvmeof: sync child %d: group %d has no live member: %w", child, group, ErrNoReplica)
	}
	data, err := src.Read(nil, off, length, 0)
	if err != nil {
		return 0, fmt.Errorf("nvmeof: sync child %d: read sibling: %w", child, err)
	}
	if data == nil {
		return 0, fmt.Errorf("nvmeof: sync child %d: sibling does not capture payloads", child)
	}
	if err := dst.Write(nil, off, length, data, 0); err != nil {
		return 0, fmt.Errorf("nvmeof: sync child %d: write: %w", child, err)
	}
	return length, nil
}

// memberView is one op's immutable view of a group member.
type memberView struct {
	child plane.Plane
	idx   int
	state ChildState
}

// inlineChildren sizes stack backing for membership snapshots; wider
// planes spill to the heap, they don't fail.
const inlineChildren = 16

// snapshot copies the membership under RLock into buf (or the heap).
func (s *StripedPlane) snapshot(buf []memberView) []memberView {
	s.mu.RLock()
	if cap(buf) < len(s.children) {
		buf = make([]memberView, 0, len(s.children))
	}
	buf = buf[:0]
	for i, c := range s.children {
		buf = append(buf, memberView{child: c, idx: i, state: s.states[i]})
	}
	s.mu.RUnlock()
	return buf
}

// groupMembers returns the snapshot slice covering one group.
func (s *StripedPlane) groupMembers(snap []memberView, group int) []memberView {
	r := s.Replicas()
	return snap[group*r : (group+1)*r]
}

func (s *StripedPlane) check(off, length int64) error {
	if off < 0 || length < 0 || off+length > s.size {
		return fmt.Errorf("nvmeof: access [%d,+%d) outside striped partition of %d bytes", off, length, s.size)
	}
	return nil
}

// forEachSpan runs fn over the request's per-group spans: concurrently
// when no simulated process is attached (the real TCP path, where
// concurrency is the point), sequentially under the simulator (where
// determinism is the point and the children charge virtual time).
// The first error wins; all spans are always attempted, so a striped
// write failing on one group still lands its other units — the same
// partial-write exposure a failed chunked TCPPlane write has, and why
// callers treat any write error as "durability unknown until re-proven".
func (s *StripedPlane) forEachSpan(p *sim.Proc, spans []balancer.StripeSpan, fn func(sp balancer.StripeSpan) error) error {
	if p != nil || len(spans) == 1 {
		var firstErr error
		for _, sp := range spans {
			if err := fn(sp); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	for i, sp := range spans {
		wg.Add(1)
		go func(i int, sp balancer.StripeSpan) {
			defer wg.Done()
			errs[i] = fn(sp)
		}(i, sp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// stripeGroup is one mirror group's share of a striped request. A
// contiguous striped range touches each group in a contiguous run of
// that group's own address space (partial units can only occur at the
// two request ends), so the member spans coalesce into a single
// [targetOff, targetOff+length) extent per group and the whole request
// becomes one command per MEMBER instead of one command per stripe
// unit. That per-unit fan-out was the striped-plane scaling regression:
// a 1 MiB write over two targets at a 64 KiB unit issued 16 goroutines
// and 16 capsules, each paying full per-command device latency, so two
// targets ran slower than one.
type stripeGroup struct {
	target    int // GROUP index (field name kept for span symmetry)
	targetOff int64
	length    int64
	count     int // member spans, in striped-address order
	vecOff    int // first slot of this group's gather vector in the shared backing
}

// inlineStripeGroups sizes the stack backing for per-group groups;
// wider stripes spill to the heap, they don't fail.
const inlineStripeGroups = 8

// groupSpans coalesces spans per group into buf. It returns ok=false
// if any group's spans are not contiguous on that group — geometry
// guarantees they are for the balancer's round-robin striping, but the
// caller falls back to the span-at-a-time path rather than trusting
// that invariant with data placement.
func groupSpans(spans []balancer.StripeSpan, buf []stripeGroup) ([]stripeGroup, bool) {
	groups := buf[:0]
	for _, sp := range spans {
		found := false
		for gi := range groups {
			if groups[gi].target != sp.Target {
				continue
			}
			if groups[gi].targetOff+groups[gi].length != sp.TargetOff {
				return nil, false
			}
			groups[gi].length += sp.Length
			groups[gi].count++
			found = true
			break
		}
		if !found {
			groups = append(groups, stripeGroup{
				target:    sp.Target,
				targetOff: sp.TargetOff,
				length:    sp.Length,
				count:     1,
			})
		}
	}
	return groups, true
}

// writeTargets picks the members of a group a write must land on: every
// attached (live or rebuilding) member. An empty result means the
// whole group is down. skipped reports whether any member was down.
func writeTargets(members []memberView, buf []memberView) (attempt []memberView, skipped bool) {
	attempt = buf[:0]
	for _, m := range members {
		if m.state == ChildDown {
			skipped = true
			continue
		}
		attempt = append(attempt, m)
	}
	return attempt, skipped
}

// liveMembers filters a group's snapshot to read-eligible members.
func liveMembers(members []memberView, buf []memberView) []memberView {
	out := buf[:0]
	for _, m := range members {
		if m.state == ChildLive {
			out = append(out, m)
		}
	}
	return out
}

// Write implements plane.Plane. Synthetic (nil-data) writes stay
// synthetic per span: each member sees nil data for its unit, exactly
// as a single-target plane would for the whole transfer. The write is
// acknowledged only when every attached member of every touched group
// accepted it; down members are skipped (counted as degraded), and a
// fully-down group fails with ErrNoReplica.
func (s *StripedPlane) Write(p *sim.Proc, off, length int64, data []byte, cmdUnit int64) error {
	if err := s.check(off, length); err != nil {
		return err
	}
	if data != nil && int64(len(data)) != length {
		return fmt.Errorf("nvmeof: striped write of %d bytes with %d-byte buffer", length, len(data))
	}
	if length == 0 {
		return nil
	}
	s.sweepMu.RLock()
	defer s.sweepMu.RUnlock()
	var snapBuf [inlineChildren]memberView
	snap := s.snapshot(snapBuf[:0])
	spans := s.logical.Spans(off, length)
	if p == nil && len(spans) > 1 {
		var buf [inlineStripeGroups]stripeGroup
		if groups, ok := groupSpans(spans, buf[:]); ok {
			return s.writeGrouped(snap, spans, groups, off, data, cmdUnit)
		}
	}
	return s.forEachSpan(p, spans, func(sp balancer.StripeSpan) error {
		var chunk []byte
		if data != nil {
			rel := sp.Off - off
			chunk = data[rel : rel+sp.Length]
		}
		// Per-call buffer: forEachSpan runs this callback concurrently
		// on the real TCP path, so the attempt snapshot must not share
		// backing across spans.
		var memberBuf [inlineChildren]memberView
		attempt, skipped := writeTargets(s.groupMembers(snap, sp.Target), memberBuf[:0])
		if len(attempt) == 0 {
			return fmt.Errorf("nvmeof: write group %d: %w", sp.Target, ErrNoReplica)
		}
		if skipped {
			inc(&s.degraded)
		}
		if p != nil || len(attempt) == 1 {
			var firstErr error
			for _, m := range attempt {
				if err := m.child.Write(p, sp.TargetOff, sp.Length, chunk, cmdUnit); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			return firstErr
		}
		errs := make([]error, len(attempt))
		var wg sync.WaitGroup
		for i, m := range attempt {
			wg.Add(1)
			go func(i int, m memberView) {
				defer wg.Done()
				errs[i] = m.child.Write(nil, sp.TargetOff, sp.Length, chunk, cmdUnit)
			}(i, m)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// writeGrouped issues the striped write as one request per group
// MEMBER: a gather-list WriteV when the member can take one (TCPPlane
// over a VectorQueue initiator — fully zero-copy), per-piece Writes
// otherwise. Like forEachSpan, every member is attempted and the first
// error wins; a partial failure leaves the other members' stripes
// landed, the same exposure a failed chunked single-target write has.
func (s *StripedPlane) writeGrouped(snap []memberView, spans []balancer.StripeSpan, groups []stripeGroup, off int64, data []byte, cmdUnit int64) error {
	var vecs [][]byte
	if data != nil {
		// One shared backing for every group's gather vector: group g
		// owns vecs[g.vecOff : g.vecOff+g.count], filled in
		// striped-address order (which is member-offset order within a
		// group, since the group is contiguous on its members).
		vecs = make([][]byte, len(spans))
		pos := 0
		for gi := range groups {
			groups[gi].vecOff = pos
			pos += groups[gi].count
			vec := vecs[groups[gi].vecOff:groups[gi].vecOff]
			for _, sp := range spans {
				if sp.Target != groups[gi].target {
					continue
				}
				rel := sp.Off - off
				vec = append(vec, data[rel:rel+sp.Length])
			}
		}
	}
	// One error slot and one goroutine per (group, attached member).
	type unit struct {
		g *stripeGroup
		m memberView
	}
	var unitsBuf [inlineChildren]unit
	units := unitsBuf[:0]
	var memberBuf [inlineChildren]memberView
	for gi := range groups {
		g := &groups[gi]
		attempt, skipped := writeTargets(s.groupMembers(snap, g.target), memberBuf[:0])
		if len(attempt) == 0 {
			return fmt.Errorf("nvmeof: write group %d: %w", g.target, ErrNoReplica)
		}
		if skipped {
			inc(&s.degraded)
		}
		for _, m := range attempt {
			units = append(units, unit{g: g, m: m})
		}
	}
	errs := make([]error, len(units))
	var wg sync.WaitGroup
	for i := range units {
		u := units[i]
		wg.Add(1)
		go func(i int, u unit) {
			defer wg.Done()
			child := u.m.child
			if data == nil {
				errs[i] = child.Write(nil, u.g.targetOff, u.g.length, nil, cmdUnit)
				return
			}
			vec := vecs[u.g.vecOff : u.g.vecOff+u.g.count]
			if len(vec) == 1 {
				errs[i] = child.Write(nil, u.g.targetOff, u.g.length, vec[0], cmdUnit)
				return
			}
			if vw, ok := child.(plane.VectorWriter); ok {
				errs[i] = vw.WriteV(nil, u.g.targetOff, vec)
				return
			}
			toff := u.g.targetOff
			for _, b := range vec {
				if err := child.Write(nil, toff, int64(len(b)), b, cmdUnit); err != nil {
					errs[i] = err
					return
				}
				toff += int64(len(b))
			}
		}(i, u)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// errNilRead is an internal sentinel carrying the nil contract through
// the member-read helpers: the member answered, but captures nothing.
var errNilRead = errors.New("nvmeof: member read returned nil")

// checkChunk holds a member's answer to the read contract: nil means it
// captures nothing (errNilRead), any other length than asked is an error.
func checkChunk(m memberView, chunk []byte, length int64) error {
	if chunk == nil {
		return errNilRead
	}
	if int64(len(chunk)) != length {
		return fmt.Errorf("nvmeof: stripe member %d returned %d bytes, want %d", m.idx, len(chunk), length)
	}
	return nil
}

// scatter places chunk, read from member-local address a of a group's
// members, at its striped addresses in out, whose first byte is striped
// address off: a maps to ((a/unit)*groups + group)*unit + a%unit.
func (s *StripedPlane) scatter(out []byte, off int64, group int, a int64, chunk []byte) {
	unit, groups := s.logical.Unit, int64(s.logical.Targets)
	for len(chunk) > 0 {
		in := a % unit
		n := min(unit-in, int64(len(chunk)))
		at := (a/unit*groups+int64(group))*unit + in - off
		copy(out[at:at+n], chunk[:n])
		a, chunk = a+n, chunk[n:]
	}
}

// readSpan serves one group-span from the snapshot's live members:
// verify-reads mode reads every live member and repairs divergence;
// otherwise one member is picked round-robin (first-live under the
// simulator, for determinism) and siblings are tried on failure. The
// result is the serving member's own buffer, in member-local order.
// errNilRead reports a non-capturing member.
func (s *StripedPlane) readSpan(p *sim.Proc, snap []memberView, group int, targetOff, length int64, cmdUnit int64) ([]byte, error) {
	var liveBuf [inlineChildren]memberView
	live := liveMembers(s.groupMembers(snap, group), liveBuf[:0])
	if len(live) == 0 {
		return nil, fmt.Errorf("nvmeof: read group %d: %w", group, ErrNoReplica)
	}
	if s.verifyReads.Load() && len(live) > 1 {
		return s.readVerify(p, live, group, targetOff, length, cmdUnit)
	}
	start := 0
	if p == nil && len(live) > 1 {
		start = int(s.readRR.Add(1) % uint64(len(live)))
	}
	var lastErr error
	for i := 0; i < len(live); i++ {
		m := live[(start+i)%len(live)]
		chunk, err := m.child.Read(p, targetOff, length, cmdUnit)
		if err != nil {
			lastErr = err
			if i+1 < len(live) {
				inc(&s.failovers)
			}
			continue
		}
		if err := checkChunk(m, chunk, length); err != nil {
			return nil, err
		}
		return chunk, nil
	}
	return nil, lastErr
}

// readVerify reads every live member of a group, compares, and repairs
// divergent copies from the lowest-index live member (the authority),
// whose buffer it returns. Divergence can only exist on bytes whose
// write was never acknowledged — an acked write landed on every
// attached member — so any of the copies is a legal result; picking
// the lowest index makes repair deterministic.
func (s *StripedPlane) readVerify(p *sim.Proc, live []memberView, group int, targetOff, length int64, cmdUnit int64) ([]byte, error) {
	copies := make([][]byte, len(live))
	for i, m := range live {
		chunk, err := m.child.Read(p, targetOff, length, cmdUnit)
		if err != nil {
			return nil, fmt.Errorf("nvmeof: verify read group %d member %d: %w", group, m.idx, err)
		}
		if err := checkChunk(m, chunk, length); err != nil {
			return nil, err
		}
		copies[i] = chunk
	}
	authority := copies[0]
	for i := 1; i < len(live); i++ {
		if !bytes.Equal(copies[i], authority) {
			inc(&s.repairs)
			if err := live[i].child.Write(p, targetOff, length, authority, cmdUnit); err != nil {
				return nil, fmt.Errorf("nvmeof: read-repair group %d member %d: %w", group, live[i].idx, err)
			}
		}
	}
	return authority, nil
}

// Read implements plane.Plane. The nil contract is all-or-nothing: a
// single non-capturing member consulted by the request makes the whole
// read nil (see the type comment), so callers never see a buffer with
// silent zero holes.
func (s *StripedPlane) Read(p *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error) {
	if err := s.check(off, length); err != nil {
		return nil, err
	}
	if length == 0 {
		return nil, nil
	}
	var snapBuf [inlineChildren]memberView
	snap := s.snapshot(snapBuf[:0])
	spans := s.logical.Spans(off, length)
	if len(spans) == 1 {
		// One group holds the whole range in order: nothing to
		// interleave, so the member's buffer is the result.
		sp := spans[0]
		out, err := s.readSpan(p, snap, sp.Target, sp.TargetOff, sp.Length, cmdUnit)
		if errors.Is(err, errNilRead) {
			return nil, nil
		}
		return out, err
	}
	out := make([]byte, length)
	var errs []error
	var buf [inlineStripeGroups]stripeGroup
	if groups, ok := groupSpans(spans, buf[:]); ok && p == nil {
		errs = s.readGrouped(snap, groups, off, out)
	} else {
		// Span at a time and in order: under the simulator determinism
		// is the point and the children charge virtual time. Every span
		// is attempted, as forEachSpan does for writes.
		errs = make([]error, len(spans))
		for i, sp := range spans {
			chunk, err := s.readSpan(p, snap, sp.Target, sp.TargetOff, sp.Length, cmdUnit)
			if err == nil {
				copy(out[sp.Off-off:], chunk)
			}
			errs[i] = err
		}
	}
	sawNil := false
	for _, err := range errs {
		if errors.Is(err, errNilRead) {
			sawNil = true
		} else if err != nil {
			return nil, err
		}
	}
	if sawNil {
		return nil, nil
	}
	return out, nil
}

// readGrouped issues the read as contiguous per-group extents, each
// served by the group's live members and scattered into stripe order
// in out as it arrives; the result is one error slot per group. A
// mirrored group with several live members splits its extent across
// them — the mirror reads at RAID-0 aggregate bandwidth.
func (s *StripedPlane) readGrouped(snap []memberView, groups []stripeGroup, off int64, out []byte) []error {
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for gi := range groups {
		wg.Add(1)
		go func(gi int, g stripeGroup) {
			defer wg.Done()
			errs[gi] = s.readGroupExtent(snap, g.target, g.targetOff, g.length, out, off)
		}(gi, groups[gi])
	}
	wg.Wait()
	return errs
}

// readGroupExtent serves one group's contiguous extent into its striped
// places in out (whose first byte is striped address off): split across
// the live members when there are several and the extent is large
// enough to amortize the extra commands, one member otherwise. Any
// split-part failure falls back to whole-extent failover.
func (s *StripedPlane) readGroupExtent(snap []memberView, group int, targetOff, length int64, out []byte, off int64) error {
	var liveBuf [inlineChildren]memberView
	live := liveMembers(s.groupMembers(snap, group), liveBuf[:0])
	if len(live) == 0 {
		return fmt.Errorf("nvmeof: read group %d: %w", group, ErrNoReplica)
	}
	whole := func() error {
		chunk, err := s.readSpan(nil, snap, group, targetOff, length, 0)
		if err == nil {
			s.scatter(out, off, group, targetOff, chunk)
		}
		return err
	}
	if s.verifyReads.Load() || len(live) == 1 || length < 2*s.logical.Unit {
		return whole()
	}
	// Split the extent into one contiguous part per live member.
	part := length / int64(len(live))
	var wg sync.WaitGroup
	errs := make([]error, len(live))
	for i, m := range live {
		start := int64(i) * part
		end := start + part
		if i == len(live)-1 {
			end = length
		}
		wg.Add(1)
		go func(i int, m memberView, start, end int64) {
			defer wg.Done()
			chunk, err := m.child.Read(nil, targetOff+start, end-start, 0)
			if err == nil {
				err = checkChunk(m, chunk, end-start)
			}
			if err == nil {
				s.scatter(out, off, group, targetOff+start, chunk)
			}
			errs[i] = err
		}(i, m, start, end)
	}
	wg.Wait()
	for _, err := range errs {
		if errors.Is(err, errNilRead) {
			return errNilRead
		}
	}
	for _, err := range errs {
		if err != nil {
			// A member failed its part: retry the whole extent with
			// member failover rather than reasoning about which parts
			// survived.
			inc(&s.failovers)
			return whole()
		}
	}
	return nil
}

// Flush implements plane.Plane: a durability barrier across every
// attached (live or rebuilding) child. All of them are flushed even
// after a failure (their stripes deserve durability regardless); the
// first error is returned. Down members are skipped — they hold no
// acknowledged bytes their group's live members don't — and a group
// with nothing attached fails the barrier with ErrNoReplica.
func (s *StripedPlane) Flush(p *sim.Proc) error {
	var snapBuf [inlineChildren]memberView
	snap := s.snapshot(snapBuf[:0])
	var memberBuf [inlineChildren]memberView
	for g := 0; g < s.logical.Targets; g++ {
		if attempt, _ := writeTargets(s.groupMembers(snap, g), memberBuf[:0]); len(attempt) == 0 {
			return fmt.Errorf("nvmeof: flush group %d: %w", g, ErrNoReplica)
		}
	}
	if p != nil {
		var firstErr error
		for _, m := range snap {
			if m.state == ChildDown {
				continue
			}
			if err := m.child.Flush(p); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	errs := make([]error, len(snap))
	var wg sync.WaitGroup
	for i, m := range snap {
		if m.state == ChildDown {
			continue
		}
		wg.Add(1)
		go func(i int, m memberView) {
			defer wg.Done()
			errs[i] = m.child.Flush(nil)
		}(i, m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close closes every attached child that implements io.Closer (down
// members included — their transports deserve cleanup too). The first
// error wins; every child is visited.
func (s *StripedPlane) Close() error {
	var snapBuf [inlineChildren]memberView
	snap := s.snapshot(snapBuf[:0])
	var firstErr error
	for _, m := range snap {
		if c, ok := m.child.(io.Closer); ok {
			if err := c.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

var _ plane.Plane = (*StripedPlane)(nil)
