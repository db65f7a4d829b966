package nvmeof

import (
	"bytes"
	"sort"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// TestTracedCommandPhases is the tentpole acceptance test: over real
// TCP, every traced command's span must carry a wire, queue, and
// service phase that are each positive and together never exceed the
// host-observed round trip.
func TestTracedCommandPhases(t *testing.T) {
	tgt, addr := startTarget(t, map[uint32]int64{1: 8 * model.MB})
	var traceBuf bytes.Buffer
	tr := telemetry.NewTracer(&traceBuf)
	h := dialOne(t, addr, 1, PoolConfig{Tracer: tr})

	if got := h.slots[0].host.CapsuleVersion(); got != VersionTrace {
		t.Fatalf("negotiated version %d, want %d", got, VersionTrace)
	}
	const writes = 16
	for i := 0; i < writes; i++ {
		if err := h.WriteAt(int64(i)*4096, bytes.Repeat([]byte{byte(i)}, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.ReadAt(0, 4096); err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}

	var cmds []telemetry.Event
	seen := map[string]bool{}
	for _, ev := range decodeTrace(t, &traceBuf) {
		if ev.Name != "nvmeof.cmd" {
			continue
		}
		cmds = append(cmds, ev)
		seen[ev.Attrs["op"].(string)] = true
	}
	// CONNECT predates negotiation (it performs it), so it is never
	// traced; everything after must be.
	if want := writes + 2; len(cmds) != want {
		t.Fatalf("traced %d commands, want %d", len(cmds), want)
	}
	for _, op := range []string{"WRITE", "READ", "FLUSH"} {
		if !seen[op] {
			t.Errorf("no traced %s command", op)
		}
	}
	for _, ev := range cmds {
		id, _ := ev.Attrs["trace_id"].(string)
		if len(id) != 16 || id == "0000000000000000" {
			t.Errorf("bad trace_id %q", id)
		}
		wire, _ := ev.Attrs["wire_ns"].(float64)
		queue, _ := ev.Attrs["queue_ns"].(float64)
		service, _ := ev.Attrs["service_ns"].(float64)
		if wire <= 0 || queue <= 0 || service <= 0 {
			t.Errorf("%s: non-positive phase: wire=%v queue=%v service=%v",
				ev.Attrs["op"], wire, queue, service)
		}
		if sum := int64(wire + queue + service); sum > ev.WallDurNS {
			t.Errorf("%s: phase sum %d exceeds round trip %d",
				ev.Attrs["op"], sum, ev.WallDurNS)
		}
	}

	// The target's flight recorder saw the same commands, with its own
	// measured phases (including each response's actual write time).
	tsnap := tgt.Flight().Snapshot()
	if len(tsnap) != 1 {
		t.Fatalf("target recorded %d queue pairs, want 1", len(tsnap))
	}
	for _, recs := range tsnap {
		for _, rec := range recs {
			// CONNECT predates negotiation, so it is never traced and
			// carries no phase decomposition; every traced command must.
			if rec.Opcode == OpConnect {
				continue
			}
			if !rec.HasPhases {
				t.Fatalf("target record without phases: %+v", rec)
			}
			if rec.TraceID == 0 {
				t.Errorf("%s record lost its trace ID", rec.Op)
			}
		}
	}
}

// latencyBucket returns which DefLatencyBuckets bucket v (seconds)
// falls in, len(buckets) for the +Inf overflow.
func latencyBucket(v float64) int {
	for i, b := range telemetry.DefLatencyBuckets {
		if v <= b {
			return i
		}
	}
	return len(telemetry.DefLatencyBuckets)
}

// TestPhaseQuantilesMatchPrometheus pins the acceptance criterion that
// the exact per-phase quantiles a trace consumer (nvmecr-trace)
// computes from span attributes agree with the host registry's
// Prometheus phase histograms to within one latency bucket — same
// commands, two export paths.
func TestPhaseQuantilesMatchPrometheus(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: 8 * model.MB})
	var traceBuf bytes.Buffer
	reg := telemetry.New()
	h := dialOne(t, addr, 1, PoolConfig{
		Tracer:    telemetry.NewTracer(&traceBuf),
		Telemetry: reg,
	})
	for i := 0; i < 200; i++ {
		if err := h.WriteAt(int64(i%16)*4096, bytes.Repeat([]byte{byte(i)}, 1024)); err != nil {
			t.Fatal(err)
		}
	}

	exact := map[string][]float64{}
	for _, ev := range decodeTrace(t, &traceBuf) {
		if ev.Name != "nvmeof.cmd" {
			continue
		}
		for _, key := range []string{"wire_ns", "queue_ns", "service_ns"} {
			ns, _ := ev.Attrs[key].(float64)
			exact[key] = append(exact[key], ns/1e9)
		}
	}
	if len(exact["wire_ns"]) == 0 {
		t.Fatal("no traced commands")
	}
	hists := map[string]*telemetry.Histogram{
		"wire_ns":    reg.Histogram(MetricQPPhaseWire, nil, telemetry.Labels{"qp": "0"}),
		"queue_ns":   reg.Histogram(MetricQPPhaseQueue, nil, telemetry.Labels{"qp": "0"}),
		"service_ns": reg.Histogram(MetricQPPhaseService, nil, telemetry.Labels{"qp": "0"}),
	}
	for key, vals := range exact {
		sort.Float64s(vals)
		exactP99 := vals[int(0.99*float64(len(vals)-1))]
		histP99 := hists[key].Quantile(0.99)
		if hists[key].Count() != uint64(len(vals)) {
			t.Errorf("%s: histogram has %d observations, trace has %d",
				key, hists[key].Count(), len(vals))
		}
		eb, hb := latencyBucket(exactP99), latencyBucket(histP99)
		if eb-hb > 1 || hb-eb > 1 {
			t.Errorf("%s: exact p99 %.3gs (bucket %d) vs histogram p99 %.3gs (bucket %d): more than one bucket apart",
				key, exactP99, eb, histP99, hb)
		}
	}
}

// TestLegacyClientInterop pins backward compatibility: an initiator
// that never proposes a capsule version (tracing off — the wire format
// is byte-identical to the pre-versioning protocol) must complete every
// operation against a version-aware target.
func TestLegacyClientInterop(t *testing.T) {
	_, addr := startTarget(t, map[uint32]int64{1: model.MB})
	h := dialOne(t, addr, 1, PoolConfig{})
	if got := h.slots[0].host.CapsuleVersion(); got != VersionLegacy {
		t.Fatalf("legacy dial negotiated version %d, want %d", got, VersionLegacy)
	}
	if err := h.WriteAt(0, []byte("legacy")); err != nil {
		t.Fatal(err)
	}
	got, err := h.ReadAt(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "legacy" {
		t.Fatalf("read back %q", got)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Identify(); err != nil {
		t.Fatal(err)
	}

	// Admin plane stays legacy-compatible too.
	adm := dialOne(t, addr, 0, PoolConfig{})
	nsid, err := adm.CreateNamespace(64 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	nss, err := adm.ListNamespaces()
	if err != nil {
		t.Fatal(err)
	}
	if len(nss) != 2 {
		t.Fatalf("ListNamespaces = %v, want 2 entries", nss)
	}
	if err := adm.DeleteNamespace(nsid); err != nil {
		t.Fatal(err)
	}
}

// TestVersionNegotiationCapsAtTarget: a host proposing more than the
// target supports gets the target's maximum, never a version it did
// not offer.
func TestVersionNegotiation(t *testing.T) {
	if got := NegotiateVersion(0); got != VersionLegacy {
		t.Errorf("NegotiateVersion(0) = %d", got)
	}
	if got := NegotiateVersion(VersionTrace); got != VersionTrace {
		t.Errorf("NegotiateVersion(%d) = %d", VersionTrace, got)
	}
	if got := NegotiateVersion(MaxVersion + 5); got != MaxVersion {
		t.Errorf("NegotiateVersion(%d) = %d, want cap at %d", MaxVersion+5, got, MaxVersion)
	}
	if got := DecodeNegotiatedVersion(nil); got != VersionLegacy {
		t.Errorf("DecodeNegotiatedVersion(nil) = %d", got)
	}
	if got := DecodeNegotiatedVersion([]byte{1}); got != VersionLegacy {
		t.Errorf("DecodeNegotiatedVersion(short) = %d", got)
	}
}
