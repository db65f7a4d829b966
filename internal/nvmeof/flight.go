package nvmeof

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// DefaultFlightDepth is how many completed commands each queue pair's
// flight ring retains when no explicit depth is configured.
const DefaultFlightDepth = 64

// FlightRecord is one completed command as seen by a flight recorder —
// the black-box row that survives after the command itself is gone.
// Hosts record their side (round-trip latency plus the target-reported
// phases of traced commands); targets record theirs (measured phases).
type FlightRecord struct {
	// TraceID correlates the two ends of the fabric; zero when the
	// command was not traced.
	TraceID uint64 `json:"trace_id,omitempty"`
	// QP is the queue pair the command ran on (initiator slot index on
	// hosts, accepted queue-pair ID on targets).
	QP     int    `json:"qp"`
	Op     string `json:"op"`
	Opcode Opcode `json:"opcode"`
	CID    uint16 `json:"cid"`
	Status uint16 `json:"status"`
	// Err is the transport-level error, if the command never completed
	// (timeout, connection failure, malformed response).
	Err string `json:"err,omitempty"`
	// Bytes is the payload moved in both directions.
	Bytes int `json:"bytes,omitempty"`
	// WallNS is when the command started (submission on hosts, first
	// capsule byte on targets), UnixNano.
	WallNS int64 `json:"wall_ns"`
	// ElapsedNS is the host-observed round trip on hosts, and the
	// total target residency (wire-read + queue + service + wire-write)
	// on targets.
	ElapsedNS int64 `json:"elapsed_ns"`
	// Batch is how many capsules shared this command's vectored flush
	// (0 on the direct, unbatched path).
	Batch int `json:"batch,omitempty"`
	// Phases is the per-phase breakdown when HasPhases is set: always
	// on targets, and on hosts for traced commands (echoed by the
	// target). Held by value so recording never allocates — the ring
	// slot owns its own copy and the recorder's source struct can be
	// reused for the next command. The JSON shape is unchanged: a
	// "phases" object when present, omitted when not (see MarshalJSON).
	Phases    PhaseTimings `json:"-"`
	HasPhases bool         `json:"-"`
}

// flightRecordJSON keeps the wire shape FlightRecord always had: the
// embedded alias carries every plain field, and Phases reappears as an
// optional pointer exactly where the old pointer field marshaled.
type flightRecordJSON struct {
	flightRecordAlias
	Phases *PhaseTimings `json:"phases,omitempty"`
}

// flightRecordAlias drops FlightRecord's methods so marshaling the
// embedded value cannot recurse into MarshalJSON.
type flightRecordAlias FlightRecord

// MarshalJSON renders the record with its optional "phases" object.
func (r FlightRecord) MarshalJSON() ([]byte, error) {
	aux := flightRecordJSON{flightRecordAlias: flightRecordAlias(r)}
	if r.HasPhases {
		aux.Phases = &r.Phases
	}
	return json.Marshal(aux)
}

// UnmarshalJSON accepts the same shape back (trace tooling re-reads
// flight dumps from trace streams).
func (r *FlightRecord) UnmarshalJSON(data []byte) error {
	var aux flightRecordJSON
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	*r = FlightRecord(aux.flightRecordAlias)
	if aux.Phases != nil {
		r.Phases = *aux.Phases
		r.HasPhases = true
	}
	return nil
}

// String renders one record for logs and dumps.
func (r FlightRecord) String() string {
	s := fmt.Sprintf("%s cid=%d qp=%d status=%d elapsed=%v",
		r.Op, r.CID, r.QP, r.Status, time.Duration(r.ElapsedNS))
	if r.TraceID != 0 {
		s = fmt.Sprintf("%016x %s", r.TraceID, s)
	}
	if r.Err != "" {
		s += " err=" + r.Err
	}
	return s
}

// FlightRecorder keeps the last N completed commands per queue pair in
// lock-striped ring buffers: each queue pair has its own ring and its
// own mutex, so concurrent queue pairs never contend recording, and
// dumping one queue pair's ring never stalls the others. A nil
// *FlightRecorder is a valid no-op, matching the telemetry idiom.
type FlightRecorder struct {
	depth int
	mu    sync.RWMutex
	rings map[int]*flightRing
}

// flightRing is one queue pair's ring.
type flightRing struct {
	mu   sync.Mutex
	buf  []FlightRecord
	next uint64 // total records ever written; buf[next%depth] is overwritten next
}

// NewFlightRecorder creates a recorder retaining depth records per
// queue pair (DefaultFlightDepth when depth <= 0).
func NewFlightRecorder(depth int) *FlightRecorder {
	if depth <= 0 {
		depth = DefaultFlightDepth
	}
	return &FlightRecorder{depth: depth, rings: make(map[int]*flightRing)}
}

// Depth returns the per-queue-pair ring capacity.
func (f *FlightRecorder) Depth() int {
	if f == nil {
		return 0
	}
	return f.depth
}

// ring returns the queue pair's ring, creating it on first use.
func (f *FlightRecorder) ring(qp int) *flightRing {
	f.mu.RLock()
	r := f.rings[qp]
	f.mu.RUnlock()
	if r != nil {
		return r
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if r = f.rings[qp]; r == nil {
		r = &flightRing{buf: make([]FlightRecord, f.depth)}
		f.rings[qp] = r
	}
	return r
}

// Record appends one completed command to its queue pair's ring,
// overwriting the oldest record once the ring is full.
func (f *FlightRecorder) Record(qp int, rec FlightRecord) {
	if f == nil {
		return
	}
	r := f.ring(qp)
	r.mu.Lock()
	r.buf[r.next%uint64(len(r.buf))] = rec
	r.next++
	r.mu.Unlock()
}

// QueuePair returns the queue pair's retained records, oldest first.
func (f *FlightRecorder) QueuePair(qp int) []FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.RLock()
	r := f.rings[qp]
	f.mu.RUnlock()
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	depth := uint64(len(r.buf))
	count := n
	if count > depth {
		count = depth
	}
	out := make([]FlightRecord, 0, count)
	for i := n - count; i < n; i++ {
		out = append(out, r.buf[i%depth])
	}
	return out
}

// QueuePairs lists the queue pairs that have recorded, ascending.
func (f *FlightRecorder) QueuePairs() []int {
	if f == nil {
		return nil
	}
	f.mu.RLock()
	out := make([]int, 0, len(f.rings))
	for qp := range f.rings {
		out = append(out, qp)
	}
	f.mu.RUnlock()
	sort.Ints(out)
	return out
}

// Snapshot returns every queue pair's retained records, oldest first
// within each queue pair.
func (f *FlightRecorder) Snapshot() map[int][]FlightRecord {
	if f == nil {
		return nil
	}
	out := make(map[int][]FlightRecord)
	for _, qp := range f.QueuePairs() {
		out[qp] = f.QueuePair(qp)
	}
	return out
}

// dumpFlight emits one queue pair's flight ring into the trace stream:
// the automatic postmortem on timeout, retry exhaustion, and protocol
// violations. Only that queue pair's ring is dumped: the failure is
// queue-pair-local and the siblings' rings keep rolling.
func dumpFlight(tr *telemetry.Tracer, f *FlightRecorder, qp int, reason string) {
	if tr == nil {
		return
	}
	recs := f.QueuePair(qp)
	if len(recs) == 0 {
		return
	}
	tr.Emit(telemetry.Event{
		Name: "nvmeof.flight", Rank: -1,
		Attrs: map[string]any{"qp": qp, "reason": reason, "records": recs},
	})
}
