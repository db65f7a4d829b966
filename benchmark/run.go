package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"github.com/nvme-cr/nvmecr/internal/nvmeof"
)

// processStart is when the program started; the first set-up is timed
// from here.
var processStart = time.Now()

// passResult is everything one pass over a workload measured.
type passResult struct {
	w          workload
	epochs     int
	setups     []float64          // seconds per set-up, at the reference machine's speed
	ep         []epochResult      // per timed epoch
	d          map[string]float64 // counter differences over the timed epochs
	end        map[string]float64 // counters after the last timed epoch
	heapPeak   float64            // highest HeapInuse seen at an epoch's end
	userBytes  float64            // written (and read back) per epoch, all ranks
	usedBlocks float64            // block-pool blocks in use at the end, all ranks
	ranks      []*rankState
	tally      tally
}

// runPass sets the stack up `setups` times, keeps the last, and runs the
// timed epochs on it.
func runPass(w workload, seed uint64, epochs, setups int, traced bool) (*passResult, error) {
	res := &passResult{w: w, epochs: epochs}
	var st *stack
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if i == 0 && !traced {
			t0 = processStart
		}
		if st != nil {
			st.close()
		}
		var err error
		if st, err = setUp(w, seed, traced, &res.tally); err != nil {
			return res, err
		}
		// The set-up's own phases say how fast the machine was during it.
		res.setups = append(res.setups, time.Since(t0).Seconds()*w.scale(median(st.refs)))
	}
	defer st.close()
	res.ranks = st.ranks
	for _, rs := range st.ranks {
		res.userBytes += float64(rs.in.userBytes())
		rs.timed = true
		if rs.rec != nil {
			rs.rec.on = true
		}
	}
	before := st.probe()
	for e := 0; e < epochs; e++ {
		ep, err := st.runEpoch(e, warmupEpochs+e, &res.tally)
		if err != nil {
			return res, err
		}
		res.ep = append(res.ep, ep)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.heapPeak = math.Max(res.heapPeak, float64(ms.HeapInuse))
	}
	res.end = st.probe()
	res.d = delta(res.end, before)
	for _, rs := range st.ranks {
		res.usedBlocks += float64(rs.inst.Pool().Used())
	}
	return res, nil
}

// quantile returns the q-quantile of values by linear interpolation; 0
// for no values.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return quantile(values, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// walls returns one phase's wall per timed epoch as timed, in seconds.
func (r *passResult) walls(ph phase) []float64 {
	out := make([]float64, len(r.ep))
	for i, ep := range r.ep {
		out[i] = ep[ph].wall.Seconds()
	}
	return out
}

// scale is the factor that takes a time measured while the reference
// loop took ref seconds to the reference machine's speed. A workload on
// modelled devices is not scaled: device time sets its phases, and a
// modelled device is no slower when the host is.
func (w workload) scale(ref float64) float64 {
	if w.devBPS > 0 {
		return 1
	}
	return refNominal.Seconds() / ref
}

// scaled returns one phase's wall per timed epoch at the reference
// machine's speed, in seconds.
func (r *passResult) scaled(ph phase) []float64 {
	out := make([]float64, len(r.ep))
	for i, ep := range r.ep {
		out[i] = ep[ph].wall.Seconds() * r.w.scale(ep[ph].ref.Seconds())
	}
	return out
}

// refs returns the reference loop's time beside every timed phase, in
// seconds.
func (r *passResult) refs() []float64 {
	var out []float64
	for _, ep := range r.ep {
		for _, ph := range ep {
			out = append(out, ph.ref.Seconds())
		}
	}
	return out
}

// epochWalls returns the three phases' summed wall per timed epoch.
func (r *passResult) epochWalls() []float64 {
	out := make([]float64, len(r.ep))
	for i, ep := range r.ep {
		for _, ph := range ep {
			out[i] += ph.wall.Seconds()
		}
	}
	return out
}

// endToEnd computes the end-to-end metrics from an untraced pass.
func endToEnd(u *passResult) map[string]float64 {
	n := float64(u.epochs)
	ckpt, restart := median(u.scaled(phaseCkpt)), median(u.scaled(phaseRestart))
	return map[string]float64{
		"setup_s":            median(u.setups),
		"ckpt_mbps":          u.userBytes / 1e6 / ckpt,
		"restart_mbps":       u.userBytes / 1e6 / restart,
		"vfs_ops_per_s":      u.d["vfs_calls"] / n / (ckpt + restart),
		"alloc_b_per_user_b": u.d["alloc_b"] / (2 * n * u.userBytes),
		"write_amp":          u.d["target_in_b"] / (n * u.userBytes),
		"space_amp":          u.end["stored_b"] / (2 * u.userBytes),
	}
}

// spanStats is what the per-layer metrics need from a traced pass's spans.
type spanStats struct {
	durs  [nLayers][nOps][]float64 // span durations, microseconds
	busy  map[uint8]float64        // tcpplane span time per stripe child, microseconds
	spans int
	// self is layer self time on the slowest rank of each timed phase,
	// summed over the pass, in seconds; selfAll sums every rank.
	self, selfAll [nLayers]float64
}

func (r *passResult) spanStats() *spanStats {
	s := &spanStats{busy: map[uint8]float64{}}
	perRank := make([][][nPhases][nLayers]float64, len(r.ranks))
	for i, rs := range r.ranks {
		spans := rs.rec.spans
		s.spans += len(spans)
		for _, sp := range spans {
			us := float64(sp.end-sp.start) / 1e3
			s.durs[sp.layer][sp.op] = append(s.durs[sp.layer][sp.op], us)
			if sp.layer == layerTCPPlane {
				s.busy[sp.child] += us
			}
		}
		perRank[i] = selfTimes(spans, r.epochs)
	}
	for e, ep := range r.ep {
		for ph := range ep {
			for i := range r.ranks {
				for l, ns := range perRank[i][e][ph] {
					s.selfAll[l] += ns / 1e9
					if i == ep[ph].slowest {
						s.self[l] += ns / 1e9
					}
				}
			}
		}
	}
	return s
}

// all returns the durations of every op of a layer except those listed.
func (s *spanStats) all(l layer, except ...op) []float64 {
	var out []float64
next:
	for o := op(0); o < nOps; o++ {
		for _, x := range except {
			if o == x {
				continue next
			}
		}
		out = append(out, s.durs[l][o]...)
	}
	return out
}

func sum(values []float64) float64 {
	var t float64
	for _, v := range values {
		t += v
	}
	return t
}

// budget is the traced pass's epoch wall split over the layers, as
// shares that sum to one with the unattributed rest. The hostpool seam
// is the lowest the benchmark can wrap; its time is split into the
// pool's own part, the wire and the target in the proportions of the
// per-command phases the targets report.
type budget struct {
	names  []string
	shares []float64
}

func (r *passResult) budget(s *spanStats) budget {
	wall := sum(r.epochWalls())
	var b budget
	add := func(name string, seconds float64) {
		b.names = append(b.names, name)
		b.shares = append(b.shares, ratio(seconds, wall))
	}
	for l := layerVFS; l < layerHostPool; l++ {
		add(layerNames[l], s.self[l])
	}
	inQueue := sum(s.all(layerHostPool)) / 1e6
	wire := r.d[nvmeof.MetricQPPhaseWire+":sum"]
	target := r.d[nvmeof.MetricQPPhaseQueue+":sum"] + r.d[nvmeof.MetricQPPhaseService+":sum"]
	hp := s.self[layerHostPool]
	add("hostpool", hp*ratio(inQueue-wire-target, inQueue))
	add("wire", hp*ratio(wire, inQueue))
	add("target", hp*ratio(target, inQueue))
	rest := 1.0
	for _, sh := range b.shares {
		rest -= sh
	}
	b.names = append(b.names, "unattributed")
	b.shares = append(b.shares, rest)
	return b
}

// perLayer computes the per-layer metrics: the epoch and runtime groups
// from the untraced pass u, the others from the traced pass t.
func perLayer(u, t *passResult) (map[string]float64, budget) {
	m := map[string]float64{}
	s := t.spanStats()
	bud := t.budget(s)
	n := float64(t.epochs)
	userW := n * t.userBytes // user bytes written, and read, in the traced pass
	count := func(l layer, ops ...op) float64 {
		var c int
		for _, o := range ops {
			c += len(s.durs[l][o])
		}
		return float64(c)
	}
	perUs := func(seconds, calls float64) float64 { return ratio(seconds*1e6, calls) }

	ckpt, restart := u.walls(phaseCkpt), u.walls(phaseRestart)
	skew := make([]float64, len(u.ep))
	for i, ep := range u.ep {
		skew[i] = (ep[phaseCkpt].skew + ep[phaseRestart].skew).Seconds() * 1e3
	}
	m["epoch.ckpt_p50_ms"] = quantile(ckpt, 0.5) * 1e3
	m["epoch.ckpt_p90_ms"] = quantile(ckpt, 0.9) * 1e3
	m["epoch.restart_p50_ms"] = quantile(restart, 0.5) * 1e3
	m["epoch.restart_p90_ms"] = quantile(restart, 0.9) * 1e3
	m["epoch.snapshot_ms_total"] = sum(u.walls(phaseSnapshot)) * 1e3
	m["epoch.rank_skew_p50_ms"] = median(skew)

	vfsCalls := t.d["vfs_calls"]
	m["vfs.calls_per_epoch"] = vfsCalls / n
	m["vfs.self_us_per_call"] = perUs(s.selfAll[layerVFS], vfsCalls)
	m["vfs.write_p50_us"] = quantile(s.durs[layerVFS][opWrite], 0.5)
	m["vfs.write_p99_us"] = quantile(s.durs[layerVFS][opWrite], 0.99)
	m["vfs.read_p50_us"] = quantile(s.durs[layerVFS][opRead], 0.5)
	m["vfs.read_p99_us"] = quantile(s.durs[layerVFS][opRead], 0.99)
	meta := s.all(layerVFS, opWrite, opRead, opMount)
	m["vfs.meta_p50_us"] = quantile(meta, 0.5)
	m["vfs.meta_p99_us"] = quantile(meta, 0.99)
	m["vfs.errors"] = float64(t.tally.failed)

	below := layerTCPPlane // the layer microfs calls into
	if t.w.plane != planePlain {
		below = layerStripe
	}
	m["microfs.self_ms_per_epoch"] = s.self[layerMicrofs] * 1e3 / n
	m["microfs.plane_writes_per_epoch"] = count(below, opWrite) / n
	m["microfs.plane_reads_per_epoch"] = count(below, opRead) / n
	m["microfs.plane_b_per_user_b"] = ratio(t.d["plane_out_b"], userW)
	m["microfs.snapshots"] = t.d["snapshots"]
	m["microfs.snapshot_p50_ms"] = median(s.durs[layerMicrofs][opSnapshot]) / 1e3
	m["microfs.recover_p50_ms"] = median(s.durs[layerMicrofs][opRecover]) / 1e3
	var records, fill []float64
	for _, rs := range t.ranks {
		records = append(records, rs.recoverRecords...)
		fill = append(fill, rs.fillAtCrash...)
	}
	m["microfs.recover_records_p50"] = median(records)

	appends := t.d["wal_appended"] + t.d["wal_coalesced"]
	m["wal.appends_per_epoch"] = appends / n
	m["wal.coalesced_share"] = ratio(t.d["wal_coalesced"], appends)
	m["wal.dev_writes_per_epoch"] = t.d["wal_dev_writes"] / n
	m["wal.dev_b_per_user_b"] = ratio(t.d["wal_dev_b"], userW)
	m["wal.flush_p50_us"] = quantile(s.durs[layerWAL][opFlush], 0.5)
	m["wal.flush_p99_us"] = quantile(s.durs[layerWAL][opFlush], 0.99)
	m["wal.fill_at_crash_p50"] = median(fill)

	m["blockpool.used_blocks_end"] = t.usedBlocks
	m["blockpool.blocks_per_user_mb"] = t.usedBlocks / (2 * t.userBytes / 1e6)

	// The stripe group stays zero on workloads with no striped plane.
	stripeCalls := float64(len(s.all(layerStripe)))
	tcpCalls := float64(len(s.all(layerTCPPlane)))
	var busyMax, busySum float64
	busyMin := math.Inf(1)
	for _, b := range s.busy {
		busyMax, busyMin, busySum = math.Max(busyMax, b), math.Min(busyMin, b), busySum+b
	}
	for _, name := range []string{"calls_per_epoch", "self_us_per_call", "child_cmds_per_call", "child_imbalance",
		"write_p50_us", "read_p50_us", "degraded_writes", "read_failovers"} {
		m["stripe."+name] = 0
	}
	if stripeCalls > 0 {
		m["stripe.calls_per_epoch"] = stripeCalls / n
		m["stripe.self_us_per_call"] = perUs(s.selfAll[layerStripe], stripeCalls)
		m["stripe.child_cmds_per_call"] = tcpCalls / stripeCalls
		m["stripe.child_imbalance"] = ratio(busyMax-busyMin, busySum/float64(len(s.busy)))
		m["stripe.write_p50_us"] = median(s.durs[layerStripe][opWrite])
		m["stripe.read_p50_us"] = median(s.durs[layerStripe][opRead])
		m["stripe.degraded_writes"] = t.d[nvmeof.MetricStripeDegradedWrites]
		m["stripe.read_failovers"] = t.d[nvmeof.MetricStripeReadFailovers]
	}

	queueCalls := s.all(layerHostPool)
	cmds := float64(len(queueCalls))
	inQueue := sum(queueCalls) // microseconds
	m["tcpplane.calls_per_epoch"] = tcpCalls / n
	m["tcpplane.self_us_per_call"] = perUs(s.selfAll[layerTCPPlane], tcpCalls)
	m["tcpplane.queue_cmds_per_call"] = ratio(cmds, tcpCalls)

	m["hostpool.cmds_per_epoch"] = cmds / n
	m["hostpool.cmd_p50_us"] = quantile(queueCalls, 0.5)
	m["hostpool.cmd_p99_us"] = quantile(queueCalls, 0.99)
	m["hostpool.submit_wait_us_per_cmd"] = ratio(inQueue-t.d[nvmeof.MetricQPLatency+":sum"]*1e6, cmds)
	m["hostpool.inflight_mean"] = ratio(inQueue/1e6, sum(t.epochWalls()))
	m["hostpool.batch_cmds_per_flush"] = ratio(t.d[nvmeof.MetricQPBatchCommands+":sum"], t.d[nvmeof.MetricQPBatchFlushes])
	m["hostpool.batch_merged_share"] = ratio(t.d[nvmeof.MetricQPBatchMerged], t.d[nvmeof.MetricQPCommands])
	m["hostpool.retries"] = t.d[nvmeof.MetricQPRetries]
	m["hostpool.errors"] = t.d[nvmeof.MetricQPErrors]

	phaseN := t.d[nvmeof.MetricQPPhaseWire+":n"]
	m["wire.us_per_cmd"] = perUs(t.d[nvmeof.MetricQPPhaseWire+":sum"], phaseN)
	m["wire.b_out_per_user_b"] = ratio(t.d["target_in_b"], userW)
	m["wire.b_in_per_user_b"] = ratio(t.d["target_out_b"], userW)

	m["target.cmds_per_epoch"] = t.d["target_cmds"] / n
	m["target.read_cmds_per_epoch"] = count(layerHostPool, opRead) / n
	m["target.write_cmds_per_epoch"] = count(layerHostPool, opWrite, opWriteV) / n
	m["target.queue_us_per_cmd"] = perUs(t.d[nvmeof.MetricQPPhaseQueue+":sum"], phaseN)
	m["target.service_us_per_cmd"] = perUs(t.d[nvmeof.MetricQPPhaseService+":sum"], phaseN)
	m["target.b_per_cmd"] = ratio(t.d["target_in_b"]+t.d["target_out_b"], t.d["target_cmds"])
	m["target.errors"] = t.d["target_errs"]

	m["memns.stored_b_end"] = t.end["stored_b"]
	m["memns.device_time_share"] = 0
	if t.w.devBPS > 0 {
		// Computed from the bytes moved and the device model, not timed.
		device := (t.d["target_in_b"] + t.d["target_out_b"]) / float64(t.w.devBPS)
		m["memns.device_time_share"] = ratio(device, t.d[nvmeof.MetricQPPhaseService+":sum"])
	}

	var user, sys, timed float64
	for _, ep := range u.ep {
		for _, ph := range ep {
			user, sys, timed = user+ph.user.Seconds(), sys+ph.sys.Seconds(), timed+ph.wall.Seconds()
		}
	}
	cpu := user + sys
	un := float64(u.epochs)
	m["runtime.cpu_s_per_gb"] = cpu / (2 * un * u.userBytes / 1e9)
	m["runtime.cpu_user_s"] = user
	m["runtime.cpu_sys_s"] = sys
	m["runtime.cpu_util"] = cpu / (timed * float64(runtime.GOMAXPROCS(0)))
	m["runtime.gc_cycles_per_epoch"] = u.d["gc_cycles"] / un
	m["runtime.gc_pause_ms_total"] = u.d["gc_pause_ns"] / 1e6
	m["runtime.mallocs_per_vfs_call"] = ratio(u.d["mallocs"], u.d["vfs_calls"])
	m["runtime.heap_peak_mb"] = u.heapPeak / 1e6

	ref := median(u.refs())
	m["machine.ref_p50_us"] = ref * 1e6
	m["machine.speed"] = refNominal.Seconds() / ref

	m["trace.spans"] = float64(s.spans)
	m["trace.overhead_share"] = median(t.epochWalls())/median(u.epochWalls()) - 1
	m["trace.unattributed_share"] = bud.shares[len(bud.shares)-1]
	return m, bud
}

// checkTraced asserts what only the traced pass can: every payload byte
// the queue seams sent arrived at a target, and nothing else did.
func checkTraced(t *passResult) error {
	if sent, got := t.d["queue_out_b"], t.d["target_in_b"]; sent != got {
		return fmt.Errorf("queue seams sent %.0f payload bytes, targets received %.0f", sent, got)
	}
	return nil
}
