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
// planes, and a request reaches each group it touches as one contiguous
// member-local extent: a write is one command per attached member of
// every touched group, a read one per touched group. Every operation
// has that one shape; fanOut issues the commands in (group-touch,
// member-index) order under a simulated process and concurrently,
// through each target's own queue, otherwise. This is the wide data
// path the paper's aggregate-bandwidth claim rests on (§IV, Fig. 7):
// one rank drives N devices at once instead of queueing behind one.
// With Replicas R > 1 (NewMirroredPlane) every group keeps R identical
// copies, so any R-1 members of a group can die without losing an
// acknowledged byte — the availability layer RAID-0 lacked.
//
// Semantics relative to a single-target plane:
//
//   - Write/Read are byte-identical to the same operations against one
//     target of Groups() times the capacity (the equivalence property
//     tests pin this, mirrored widths included).
//   - A write is acknowledged only when EVERY attached (live or
//     rebuilding) member of every touched group has it. Members marked
//     Down are skipped — that is the degraded mode a dead replica
//     leaves behind, counted once per write acknowledged that way —
//     and a group with every member down fails with ErrNoReplica
//     instead of hanging.
//   - A read is served by any one LIVE member of each touched group
//     (rebuilding members hold incomplete copies and never serve
//     reads). Large extents split across live members for aggregate
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
// migration control plane in internal/rebalance drives that dance.
// Child indices are stable for the plane's lifetime: replacement swaps
// the plane at an index, never reshuffles the slice, so extents
// resolved against one snapshot can never address the wrong member. A
// new life of the head mounts through ReadResync, which makes the live
// copies of what it replays agree (docs/replication.md).
type StripedPlane struct {
	geo       balancer.StripeGeometry
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
	// least one group member down (skipped): once per write, never for
	// a write that failed.
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

// members appends to buf one group's members of the snapshot that are
// live — the ones that serve reads — and, for a write, the rebuilding
// ones as well: every attached member. Nothing appended means a read
// has nobody to ask, or the whole group is down.
func (s *StripedPlane) members(snap []memberView, group int, forWrite bool, buf []memberView) []memberView {
	r := s.Replicas()
	for _, m := range snap[group*r : (group+1)*r] {
		if m.state == ChildLive || forWrite && m.state == ChildRebuilding {
			buf = append(buf, m)
		}
	}
	return buf
}

func (s *StripedPlane) check(off, length int64) error {
	if off < 0 || length < 0 || off+length > s.size {
		return fmt.Errorf("nvmeof: access [%d,+%d) outside striped partition of %d bytes", off, length, s.size)
	}
	return nil
}

// fanOut makes the n calls fn(0) … fn(n-1) and returns the
// lowest-index error: in index order on the calling goroutine under a
// simulated process (determinism is the point there, and the children
// charge virtual time) or when there is only one, one goroutine per
// call otherwise (the real TCP path, where concurrency is the point).
// Every call is always made — a striped write failing on one member
// still lands its other units, the same partial-write exposure a failed
// chunked TCPPlane write has, and why callers treat any write error as
// "durability unknown until re-proven".
func fanOut(p *sim.Proc, n int, fn func(i int) error) error {
	if p != nil || n == 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range errs {
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// groupExtent is one mirror group's share of a striped request. A
// contiguous striped range touches each group in one contiguous run of
// that group's own address space (balancer.StripeGeometry.Extent), so
// the whole request is one command per MEMBER instead of one command
// per stripe unit. That per-unit fan-out was the striped-plane scaling
// regression: a 1 MiB write over two targets at a 64 KiB unit issued 16
// goroutines and 16 capsules, each paying full per-command device
// latency, so two targets ran slower than one.
type groupExtent struct {
	group int
	off   int64 // member-local, the same on every member of the group
	n     int64
	// A write's payload for this extent: data when it is one piece of
	// the caller's buffer (nil for a synthetic write), vec when the
	// stripe interleaves it with other groups' units — the pieces in
	// member-local order.
	data []byte
	vec  [][]byte
}

// extent returns the share of the i-th group the request touches, in
// group-touch order: the group holding off first, then round the
// stripe. A request that touches one group is held by each of its
// members whole and in order (a single group, or a range inside one
// unit).
func (s *StripedPlane) extent(off, length int64, i int) groupExtent {
	g := (s.geo.GroupAt(off) + i) % s.geo.Groups()
	lo, hi := s.geo.Extent(g, off, length)
	return groupExtent{group: g, off: lo, n: hi - lo}
}

// gather points e at its pieces of data, whose first byte is striped
// address off, appending them to vecs — the one backing every extent of
// a request shares, sized by the units it straddles — and returns vecs.
func (s *StripedPlane) gather(e *groupExtent, off int64, data []byte, vecs [][]byte) [][]byte {
	mine := len(vecs)
	for a := e.off; a < e.off+e.n; {
		addr, n := s.geo.Piece(e.group, a)
		n = min(n, e.off+e.n-a)
		vecs = append(vecs, data[addr-off:addr-off+n])
		a += n
	}
	if v := vecs[mine:]; len(v) == 1 {
		e.data = v[0]
	} else {
		e.vec = v
	}
	return vecs
}

// scatter places chunk, read from member-local address a of a group's
// members, at its striped addresses in out, whose first byte is striped
// address off.
func (s *StripedPlane) scatter(out []byte, off int64, group int, a int64, chunk []byte) {
	for len(chunk) > 0 {
		addr, n := s.geo.Piece(group, a)
		n = min(n, int64(len(chunk)))
		copy(out[addr-off:], chunk[:n])
		a, chunk = a+n, chunk[n:]
	}
}

// memberWrite is one unit of a striped write: one group's extent on one
// attached member of that group.
type memberWrite struct {
	groupExtent
	child plane.Plane
}

// issue lands the extent on the member in one command where the child
// allows it: a plain Write for a synthetic or one-piece payload, a
// gather-list WriteV when the member can take one (TCPPlane over a
// VectorQueue initiator — fully zero-copy), per-piece Writes otherwise.
func (w *memberWrite) issue(p *sim.Proc, cmdUnit int64) error {
	if w.vec == nil {
		return w.child.Write(p, w.off, w.n, w.data, cmdUnit)
	}
	if vw, ok := w.child.(plane.VectorWriter); ok {
		return vw.WriteV(p, w.off, w.vec)
	}
	at := w.off
	for _, b := range w.vec {
		if err := w.child.Write(p, at, int64(len(b)), b, cmdUnit); err != nil {
			return err
		}
		at += int64(len(b))
	}
	return nil
}

// Write implements plane.Plane. Synthetic (nil-data) writes stay
// synthetic per extent: each member sees nil data for its share, exactly
// as a single-target plane would for the whole transfer. The write is
// one command per attached member of every touched group, and is
// acknowledged only when every one of them accepted it; down members
// are skipped (an acknowledged write that skipped one counts as
// degraded), and a fully-down group fails with ErrNoReplica before any
// command is sent. The first error by (group-touch order, member index)
// wins.
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
	touched := s.geo.Touched(off, length)
	var vecs [][]byte
	if data != nil && touched > 1 {
		vecs = make([][]byte, 0, s.geo.Units(off, length))
	}
	writes := make([]memberWrite, 0, touched*s.Replicas())
	degraded := false
	var memberBuf [inlineChildren]memberView
	for i := 0; i < touched; i++ {
		e := s.extent(off, length, i)
		attempt := s.members(snap, e.group, true, memberBuf[:0])
		if len(attempt) == 0 {
			return fmt.Errorf("nvmeof: write group %d: %w", e.group, ErrNoReplica)
		}
		degraded = degraded || len(attempt) < s.Replicas()
		if touched == 1 {
			e.data = data
		} else if data != nil {
			vecs = s.gather(&e, off, data, vecs)
		}
		for _, m := range attempt {
			writes = append(writes, memberWrite{groupExtent: e, child: m.child})
		}
	}
	err := fanOut(p, len(writes), func(i int) error { return writes[i].issue(p, cmdUnit) })
	if err == nil && degraded {
		inc(&s.degraded)
	}
	return err
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

// nilReads is where a read's concurrent parts record a non-capturing
// member: errNilRead is set aside rather than returned, so that it
// never hides a sibling's real error behind fanOut's first-error rule.
type nilReads struct{ seen atomic.Bool }

func (n *nilReads) filter(err error) error {
	if errors.Is(err, errNilRead) {
		n.seen.Store(true)
		return nil
	}
	return err
}

// readWhole serves one group extent from a single live member: a
// verifying read reads every live member and repairs divergence;
// otherwise one member is picked round-robin (first-live under the
// simulator, for determinism) and siblings are tried on failure. The
// result is the serving member's own buffer, in member-local order.
// errNilRead reports a non-capturing member.
func (s *StripedPlane) readWhole(p *sim.Proc, live []memberView, e groupExtent, cmdUnit int64, verify bool) ([]byte, error) {
	if len(live) == 0 {
		return nil, fmt.Errorf("nvmeof: read group %d: %w", e.group, ErrNoReplica)
	}
	if verify && len(live) > 1 {
		return s.readVerify(p, live, e, cmdUnit)
	}
	start := 0
	if p == nil && len(live) > 1 {
		start = int(s.readRR.Add(1) % uint64(len(live)))
	}
	var lastErr error
	for i := 0; i < len(live); i++ {
		m := live[(start+i)%len(live)]
		chunk, err := m.child.Read(p, e.off, e.n, cmdUnit)
		if err != nil {
			lastErr = err
			if i+1 < len(live) {
				inc(&s.failovers)
			}
			continue
		}
		if err := checkChunk(m, chunk, e.n); err != nil {
			return nil, err
		}
		return chunk, nil
	}
	return nil, lastErr
}

// readVerify reads every live member of a group, compares, and repairs
// divergent copies from the lowest-index live member (the authority),
// whose buffer it returns; the other copies go back to the free list.
// Divergence can only exist on bytes whose write was never
// acknowledged — an acked write landed on every attached member; a head
// that crashed mid-write leaves one such write — so any of the copies is
// a legal result; picking the lowest index makes repair
// deterministic.
func (s *StripedPlane) readVerify(p *sim.Proc, live []memberView, e groupExtent, cmdUnit int64) ([]byte, error) {
	copies := make([][]byte, len(live))
	for i, m := range live {
		chunk, err := m.child.Read(p, e.off, e.n, cmdUnit)
		if err != nil {
			return nil, fmt.Errorf("nvmeof: verify read group %d member %d: %w", e.group, m.idx, err)
		}
		if err := checkChunk(m, chunk, e.n); err != nil {
			return nil, err
		}
		copies[i] = chunk
	}
	authority := copies[0]
	for i := 1; i < len(live); i++ {
		if !bytes.Equal(copies[i], authority) {
			inc(&s.repairs)
			if err := live[i].child.Write(p, e.off, e.n, authority, cmdUnit); err != nil {
				return nil, fmt.Errorf("nvmeof: read-repair group %d member %d: %w", e.group, live[i].idx, err)
			}
		}
	}
	for _, c := range copies[1:] {
		plane.Recycle(c)
	}
	return authority, nil
}

// readSplit serves one group extent as one contiguous part per live
// member, each scattered into place as it arrives and then given back to
// the free list — the mirror reads at RAID-0 aggregate bandwidth.
// Any part's failure fails the split.
func (s *StripedPlane) readSplit(live []memberView, e groupExtent, out []byte, off, cmdUnit int64) error {
	members := append([]memberView(nil), live...) // the parts outlive the caller's stack backing
	part := e.n / int64(len(members))
	var nils nilReads
	err := fanOut(nil, len(members), func(i int) error {
		m, at, n := members[i], e.off+int64(i)*part, part
		if i == len(members)-1 {
			n = e.off + e.n - at
		}
		chunk, err := m.child.Read(nil, at, n, cmdUnit)
		if err == nil {
			err = checkChunk(m, chunk, n)
		}
		if err == nil {
			s.scatter(out, off, e.group, at, chunk)
			plane.Recycle(chunk)
		}
		return nils.filter(err)
	})
	if nils.seen.Load() {
		return errNilRead
	}
	return err
}

// splits reports whether a group extent is read as one part per live
// member rather than whole from one: when there are several live
// members, nothing orders them (no simulated process, no verify) and the
// extent is large enough to amortize the extra commands. It is the one
// rule, whether the request touches one group or several.
func (s *StripedPlane) splits(p *sim.Proc, live []memberView, e groupExtent, verify bool) bool {
	return p == nil && len(live) > 1 && e.n >= 2*s.geo.Unit && !verify
}

// readExtent serves one group's extent into its striped places in out
// (whose first byte is striped address off): split across the live
// members where splits says so; one member with failover otherwise, and
// whenever a split part failed — rather than reasoning about which parts
// survived. A member's buffer dies here once scattered: it goes back to
// the free list (plane.Recycle) for the next READ to land in.
func (s *StripedPlane) readExtent(p *sim.Proc, snap []memberView, e groupExtent, out []byte, off, cmdUnit int64, verify bool) error {
	var liveBuf [inlineChildren]memberView
	live := s.members(snap, e.group, false, liveBuf[:0])
	if s.splits(p, live, e, verify) {
		err := s.readSplit(live, e, out, off, cmdUnit)
		if err == nil || errors.Is(err, errNilRead) {
			return err
		}
		inc(&s.failovers)
	}
	chunk, err := s.readWhole(p, live, e, cmdUnit, verify)
	if err == nil {
		s.scatter(out, off, e.group, e.off, chunk)
		plane.Recycle(chunk)
	}
	return err
}

// Read implements plane.Plane: one command per touched group, or one
// per live member where readExtent splits. The nil contract is
// all-or-nothing: a single non-capturing member consulted by the
// request makes the whole read nil (see the type comment), so callers
// never see a buffer with silent zero holes.
func (s *StripedPlane) Read(p *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error) {
	return s.read(p, off, length, cmdUnit, false)
}

// ReadResync implements plane.Resyncer: it fetches every live member of
// each touched group, compares, and rewrites divergent copies, so every
// live member is left holding the bytes of the group's lowest-index live
// member (the authority), which it returns. Costly (R wire reads per
// span): recovery's repair path, never Read's. With one replica it is
// Read.
func (s *StripedPlane) ReadResync(p *sim.Proc, off, length, cmdUnit int64) ([]byte, error) {
	return s.read(p, off, length, cmdUnit, true)
}

// Resync implements plane.Resyncer: ReadResync without the result. With
// one replica there is no other copy, and it sends nothing.
func (s *StripedPlane) Resync(p *sim.Proc, off, length, cmdUnit int64) error {
	if s.Replicas() < 2 {
		return nil
	}
	out, err := s.read(p, off, length, cmdUnit, true)
	plane.Recycle(out)
	return err
}

func (s *StripedPlane) read(p *sim.Proc, off, length, cmdUnit int64, verify bool) ([]byte, error) {
	if err := s.check(off, length); err != nil {
		return nil, err
	}
	if length == 0 {
		return nil, nil
	}
	var snapBuf [inlineChildren]memberView
	snap := s.snapshot(snapBuf[:0])
	touched := s.geo.Touched(off, length)
	if touched == 1 {
		var liveBuf [inlineChildren]memberView
		e := s.extent(off, length, 0)
		if live := s.members(snap, e.group, false, liveBuf[:0]); !s.splits(p, live, e, verify) {
			// One member holds the whole range in order and serves it
			// whole: nothing to interleave, so its buffer is the result,
			// the caller's now.
			out, err := s.readWhole(p, live, e, cmdUnit, verify)
			if errors.Is(err, errNilRead) {
				return nil, nil
			}
			return out, err
		}
	}
	// Every byte of out is scattered into, so it comes from the free
	// list unzeroed; it goes back when the read returns none of it.
	out := plane.TakeBuffer(int(length))
	var nils nilReads
	err := fanOut(p, touched, func(i int) error {
		return nils.filter(s.readExtent(p, snap, s.extent(off, length, i), out, off, cmdUnit, verify))
	})
	if err != nil || nils.seen.Load() {
		plane.Recycle(out)
		return nil, err
	}
	return out, nil
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
	attached := make([]memberView, 0, len(snap))
	for g := 0; g < s.geo.Groups(); g++ {
		before := len(attached)
		if attached = s.members(snap, g, true, attached); len(attached) == before {
			return fmt.Errorf("nvmeof: flush group %d: %w", g, ErrNoReplica)
		}
	}
	return fanOut(p, len(attached), func(i int) error { return attached[i].child.Flush(p) })
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

var (
	_ plane.Plane    = (*StripedPlane)(nil)
	_ plane.Resyncer = (*StripedPlane)(nil)
)
