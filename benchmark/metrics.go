package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; the smoke test keeps the two in step.
type metricDef struct {
	name, unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ckpt_mbps", "MB/s"},
	{"restart_mbps", "MB/s"},
	{"vfs_ops_per_s", "1/s"},
	{"alloc_b_per_user_b", "B/B"},
	{"write_amp", "B/B"},
	{"space_amp", "B/B"},
}

var perLayerMetrics = []metricDef{
	{"epoch.ckpt_p50_ms", "ms"},
	{"epoch.ckpt_p90_ms", "ms"},
	{"epoch.restart_p50_ms", "ms"},
	{"epoch.restart_p90_ms", "ms"},
	{"epoch.snapshot_ms_total", "ms"},
	{"epoch.rank_skew_p50_ms", "ms"},

	{"vfs.calls_per_epoch", "count"},
	{"vfs.self_us_per_call", "us"},
	{"vfs.write_p50_us", "us"},
	{"vfs.write_p99_us", "us"},
	{"vfs.read_p50_us", "us"},
	{"vfs.read_p99_us", "us"},
	{"vfs.meta_p50_us", "us"},
	{"vfs.meta_p99_us", "us"},
	{"vfs.errors", "count"},

	{"microfs.self_ms_per_epoch", "ms"},
	{"microfs.plane_writes_per_epoch", "count"},
	{"microfs.plane_reads_per_epoch", "count"},
	{"microfs.plane_b_per_user_b", "B/B"},
	{"microfs.snapshots", "count"},
	{"microfs.snapshot_p50_ms", "ms"},
	{"microfs.recover_p50_ms", "ms"},
	{"microfs.recover_records_p50", "count"},

	{"wal.appends_per_epoch", "count"},
	{"wal.coalesced_share", "ratio"},
	{"wal.dev_writes_per_epoch", "count"},
	{"wal.dev_b_per_user_b", "B/B"},
	{"wal.flush_p50_us", "us"},
	{"wal.flush_p99_us", "us"},
	{"wal.fill_at_crash_p50", "ratio"},

	{"blockpool.used_blocks_end", "count"},
	{"blockpool.blocks_per_user_mb", "1/MB"},

	{"stripe.calls_per_epoch", "count"},
	{"stripe.self_us_per_call", "us"},
	{"stripe.child_cmds_per_call", "count"},
	{"stripe.child_imbalance", "ratio"},
	{"stripe.write_p50_us", "us"},
	{"stripe.read_p50_us", "us"},
	{"stripe.degraded_writes", "count"},
	{"stripe.read_failovers", "count"},

	{"tcpplane.calls_per_epoch", "count"},
	{"tcpplane.self_us_per_call", "us"},
	{"tcpplane.queue_cmds_per_call", "count"},

	{"hostpool.cmds_per_epoch", "count"},
	{"hostpool.cmd_p50_us", "us"},
	{"hostpool.cmd_p99_us", "us"},
	{"hostpool.submit_wait_us_per_cmd", "us"},
	{"hostpool.inflight_mean", "count"},
	{"hostpool.batch_cmds_per_flush", "count"},
	{"hostpool.batch_merged_share", "ratio"},
	{"hostpool.retries", "count"},
	{"hostpool.errors", "count"},

	{"wire.us_per_cmd", "us"},
	{"wire.b_out_per_user_b", "B/B"},
	{"wire.b_in_per_user_b", "B/B"},

	{"target.cmds_per_epoch", "count"},
	{"target.read_cmds_per_epoch", "count"},
	{"target.write_cmds_per_epoch", "count"},
	{"target.queue_us_per_cmd", "us"},
	{"target.service_us_per_cmd", "us"},
	{"target.b_per_cmd", "B"},
	{"target.errors", "count"},

	{"memns.stored_b_end", "B"},
	{"memns.device_time_share", "ratio"},

	{"runtime.cpu_s_per_gb", "s/GB"},
	{"runtime.cpu_user_s", "s"},
	{"runtime.cpu_sys_s", "s"},
	{"runtime.cpu_util", "ratio"},
	{"runtime.gc_cycles_per_epoch", "count"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"runtime.mallocs_per_vfs_call", "count"},
	{"runtime.heap_peak_mb", "MB"},

	{"machine.ref_p50_us", "us"},
	{"machine.speed", "ratio"},

	{"trace.spans", "count"},
	{"trace.overhead_share", "ratio"},
	{"trace.unattributed_share", "ratio"},
}
