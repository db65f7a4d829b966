package nvmeof

import (
	"strconv"
	"time"

	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// Metric names exported by this package. Initiator-side series are
// labeled by queue-pair slot ("qp"); target-side totals are unlabeled
// and per-connection series are labeled by the accepted queue pair id.
const (
	MetricQPCommands   = "nvmecr_qp_commands_total"
	MetricQPErrors     = "nvmecr_qp_errors_total"
	MetricQPRetries    = "nvmecr_qp_retries_total"
	MetricQPReconnects = "nvmecr_qp_reconnects_total"
	MetricQPBytesOut   = "nvmecr_qp_bytes_out_total"
	MetricQPBytesIn    = "nvmecr_qp_bytes_in_total"
	MetricQPLatency    = "nvmecr_qp_command_latency_seconds"

	// Per-phase latency histograms, recorded only for traced commands
	// (the phases come back in the response capsule's extension).
	MetricQPPhaseWire    = "nvmecr_qp_phase_wire_seconds"
	MetricQPPhaseQueue   = "nvmecr_qp_phase_queue_seconds"
	MetricQPPhaseService = "nvmecr_qp_phase_service_seconds"

	// Batcher series (only populated on queue pairs with batching
	// enabled): flushes are vectored wire writes, merged counts WRITEs
	// absorbed into a predecessor's capsule, and the commands/bytes
	// histograms record each flush's shape (count buckets, not seconds).
	MetricQPBatchFlushes  = "nvmecr_qp_batch_flushes_total"
	MetricQPBatchMerged   = "nvmecr_qp_batch_merged_total"
	MetricQPBatchCommands = "nvmecr_qp_batch_commands"
	MetricQPBatchBytes    = "nvmecr_qp_batch_bytes"
	MetricQPBatchLatency  = "nvmecr_qp_batch_flush_seconds"

	// Ring occupancy is the queue pair's in-flight slot count (a gauge
	// updated at register/complete).
	MetricQPRingOccupancy = "nvmecr_qp_ring_occupancy"

	MetricPoolQueuePairs = "nvmecr_pool_queue_pairs"
	metricPoolOffHome    = "nvmecr_pool_off_home_total" // commands placed off HostPool.home

	MetricTargetCommands = "nvmecr_target_commands_total"
	MetricTargetErrors   = "nvmecr_target_errors_total"
	MetricTargetBytesIn  = "nvmecr_target_bytes_in_total"
	MetricTargetBytesOut = "nvmecr_target_bytes_out_total"
	MetricTargetLatency  = "nvmecr_target_command_latency_seconds"

	MetricTargetQPCommands = "nvmecr_target_qp_commands_total"
	MetricTargetQPErrors   = "nvmecr_target_qp_errors_total"
	MetricTargetQPBytesIn  = "nvmecr_target_qp_bytes_in_total"
	MetricTargetQPBytesOut = "nvmecr_target_qp_bytes_out_total"
)

// qpTelemetry caches one queue pair's registry instruments so the
// per-command path never takes the registry lock. The zero value is a
// valid no-op set (every instrument nil).
type qpTelemetry struct {
	commands   *telemetry.Counter
	errors     *telemetry.Counter
	retries    *telemetry.Counter
	reconnects *telemetry.Counter
	offHome    *telemetry.Counter
	bytesOut   *telemetry.Counter
	bytesIn    *telemetry.Counter
	latency    *telemetry.Histogram

	phaseWire    *telemetry.Histogram
	phaseQueue   *telemetry.Histogram
	phaseService *telemetry.Histogram

	batchFlushes  *telemetry.Counter
	batchMerged   *telemetry.Counter
	batchCmds     *telemetry.Histogram
	batchBytes    *telemetry.Histogram
	batchFlushLat *telemetry.Histogram

	ringOcc *telemetry.Gauge
}

// Batch-shape histogram buckets: capsules per flush tops out at
// batchMaxCommands (64), bytes per flush at batchMaxBytes
// (256 KiB). Explicit because the registry default buckets are
// latency-oriented.
var (
	batchCmdBuckets  = []float64{1, 2, 4, 8, 16, 32, 64, 128}
	batchByteBuckets = []float64{512, 4096, 16384, 65536, 262144, 1048576, 8388608}
)

// newQPTelemetry binds (or re-binds, after a reconnect) the instruments
// for initiator queue-pair slot qp. Get-or-create semantics mean a
// replacement Host dialed into the same slot continues the same series.
func newQPTelemetry(reg *telemetry.Registry, qp int) qpTelemetry {
	l := telemetry.Labels{"qp": strconv.Itoa(qp)}
	return qpTelemetry{
		commands:   reg.Counter(MetricQPCommands, l),
		errors:     reg.Counter(MetricQPErrors, l),
		retries:    reg.Counter(MetricQPRetries, l),
		reconnects: reg.Counter(MetricQPReconnects, l),
		offHome:    reg.Counter(metricPoolOffHome, l),
		bytesOut:   reg.Counter(MetricQPBytesOut, l),
		bytesIn:    reg.Counter(MetricQPBytesIn, l),
		latency:    reg.Histogram(MetricQPLatency, nil, l),

		phaseWire:    reg.Histogram(MetricQPPhaseWire, nil, l),
		phaseQueue:   reg.Histogram(MetricQPPhaseQueue, nil, l),
		phaseService: reg.Histogram(MetricQPPhaseService, nil, l),

		batchFlushes:  reg.Counter(MetricQPBatchFlushes, l),
		batchMerged:   reg.Counter(MetricQPBatchMerged, l),
		batchCmds:     reg.Histogram(MetricQPBatchCommands, batchCmdBuckets, l),
		batchBytes:    reg.Histogram(MetricQPBatchBytes, batchByteBuckets, l),
		batchFlushLat: reg.Histogram(MetricQPBatchLatency, nil, l),

		ringOcc: reg.Gauge(MetricQPRingOccupancy, l),
	}
}

// observeBatch records one vectored flush: n capsules, wire bytes on
// the wire, dur spent in the write syscall(s).
func (q *qpTelemetry) observeBatch(n, wire int, dur time.Duration) {
	q.batchFlushes.Inc()
	q.batchCmds.Observe(float64(n))
	q.batchBytes.Observe(float64(wire))
	q.batchFlushLat.ObserveDuration(dur)
}

// hostWirePhase is the fabric wire time of one traced round trip: what
// the target cannot see — the host-observed round trip minus the
// target's queueing and service. It folds in both wire directions plus
// the capsule (de)serialization on both ends, clamped to >= 1ns so the
// three phases are each positive and sum to at most the round trip.
func hostWirePhase(rtt time.Duration, p *PhaseTimings) time.Duration {
	wire := rtt - time.Duration(p.QueueNS) - time.Duration(p.ServiceNS)
	if wire < 1 {
		wire = 1
	}
	return wire
}

// observe records one completed round trip. It takes the payload size
// and the response by value so the hot path's stack-allocated state
// never escapes into the heap just to be counted.
func (q *qpTelemetry) observe(payload int, resp Response, err error, elapsed time.Duration) {
	q.commands.Inc()
	if err != nil {
		q.errors.Inc()
		return
	}
	q.latency.ObserveDuration(elapsed)
	if payload > 0 {
		q.bytesOut.Add(uint64(payload))
	}
	if resp.Data != nil {
		q.bytesIn.Add(uint64(len(resp.Data)))
	}
	if resp.Phases != nil {
		// Same decomposition the nvmeof.cmd span carries: the target's
		// queue and service phases, and wire as the remainder of the
		// host-observed round trip.
		q.phaseQueue.ObserveDuration(time.Duration(resp.Phases.QueueNS))
		q.phaseService.ObserveDuration(time.Duration(resp.Phases.ServiceNS))
		q.phaseWire.ObserveDuration(hostWirePhase(elapsed, resp.Phases))
	}
}

// snapshot renders the instruments as the unified snapshot type.
func (q *qpTelemetry) snapshot(id int, healthy bool, inflight int) telemetry.HostQPSnapshot {
	return telemetry.HostQPSnapshot{
		ID:         id,
		Healthy:    healthy,
		InFlight:   inflight,
		Commands:   q.commands.Value(),
		Errors:     q.errors.Value(),
		Retries:    q.retries.Value(),
		Reconnects: q.reconnects.Value(),
		BytesOut:   q.bytesOut.Value(),
		BytesIn:    q.bytesIn.Value(),
		Latency:    q.latency.Latency(),
	}
}
