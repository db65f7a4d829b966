#!/bin/sh
# NVMe-oF data-plane benchmark regression harness. Run from anywhere:
#
#     scripts/bench.sh          # full run (2s per benchmark)
#     scripts/bench.sh -q       # quick mode (200ms per benchmark) for
#                               # a fast local smoke of the same gates
#
# Runs the transport hot-path benchmarks — BenchmarkHostPool (batched
# vs unbatched small commands across queue-pair counts),
# BenchmarkHostPoolDeviceBound (the device-limited regime where
# batching must be neutral), BenchmarkHostPoolBulk (one synchronous
# 1 MiB reader per queue pair), BenchmarkHostPoolTwoPartitions (one
# synchronous small-command caller per partition),
# BenchmarkStripedPlane (striped vs single-target large transfers),
# BenchmarkMirroredPlane (RAID-10 mirror vs RAID-0 over the same
# members), and BenchmarkIndexRing (the raw slot-ring cycle) — and
# emits BENCH_nvmeof.json with ns/op, MB/s, and allocs/op per case.
#
# Regression gates (full runs only; quick mode prints the values but
# does not fail on them — 200ms samples are too noisy to gate on):
#   - batched throughput >= 1.5x unbatched for small (<=4KB) commands
#     at qp>=4
#   - striped throughput at targets=2 >= 1.1x targets=1 (aggregate
#     device bandwidth must actually scale)
#   - batched steady state at qp=4 runs at 0 allocs/op (the polled
#     zero-copy submission path's contract; counted process-wide,
#     in-process target included)
#   - mirrored R=2 writes >= 0.45x RAID-0 (ideal 0.5x: every byte hits
#     two devices) and mirrored reads >= 0.9x RAID-0 (replica-split
#     reads keep RAID-0 read bandwidth)
#   - multi-tenant QoS (BENCH_qos.json via nvmecr-bench -campaign):
#     victim p99.9 with one admission-limited aggressor <= 3x its solo
#     p99.9, and Jain's fairness index >= 0.8 across 4 equal tenants
#   - bulk placement: two synchronous 1 MiB readers on a batching pool
#     of two queue pairs >= 1.2x one reader on one (each bulk transfer
#     gets a connection of its own; fill-first for them measured 1.0x).
#     Printed next to it and not gated: batching on/off at qp=4 in the
#     device-bound regime, an open item (docs/batching.md), and
#     BenchmarkHostPoolTwoPartitions (two synchronous callers, one per
#     half of the namespace: us per command per caller)
set -eu

cd "$(dirname "$0")/.."

benchtime="${BENCH_TIME:-2s}"
gate=1
if [ "${1:-}" = "-q" ]; then
	benchtime=200ms
	gate=0
fi
out="${BENCH_OUT:-BENCH_nvmeof.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "== go test -bench (nvmeof hot paths, benchtime=$benchtime)"
go test ./internal/nvmeof -run '^$' \
	-bench 'BenchmarkHostPool|BenchmarkStripedPlane|BenchmarkMirroredPlane|BenchmarkIndexRing' \
	-benchmem -benchtime "$benchtime" -count=1 | tee "$raw"

# Benchmark lines look like:
#   BenchmarkHostPool/qp=4/batch=true-4  333538  7630 ns/op  536.83 MB/s  1234 B/op  25 allocs/op
awk -v benchtime="$benchtime" '
BEGIN { n = 0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""; mbs = ""; allocs = ""; bop = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op") ns = $(i - 1)
		if ($i == "MB/s") mbs = $(i - 1)
		if ($i == "B/op") bop = $(i - 1)
		if ($i == "allocs/op") allocs = $(i - 1)
	}
	if (ns == "") next
	names[n] = name; nss[n] = ns; mbss[n] = mbs; bops[n] = bop; allocss[n] = allocs
	n++
}
END {
	printf "{\n  \"benchtime\": \"%s\",\n  \"results\": [\n", benchtime
	for (i = 0; i < n; i++) {
		printf "    {\"name\": \"%s\", \"ns_per_op\": %s", names[i], nss[i]
		if (mbss[i] != "") printf ", \"mb_per_s\": %s", mbss[i]
		if (bops[i] != "") printf ", \"bytes_per_op\": %s", bops[i]
		if (allocss[i] != "") printf ", \"allocs_per_op\": %s", allocss[i]
		printf "}%s\n", (i < n - 1 ? "," : "")
	}
	printf "  ]\n}\n"
}' "$raw" > "$out"
echo "== wrote $out"

# Gate 1: batched vs unbatched small-command throughput at qp=4.
ratio="$(awk '
$1 ~ /^BenchmarkHostPool\/qp=4\/batch=false(-[0-9]+)?$/ { for (i=2;i<=NF;i++) if ($i=="MB/s") base=$(i-1) }
$1 ~ /^BenchmarkHostPool\/qp=4\/batch=true(-[0-9]+)?$/  { for (i=2;i<=NF;i++) if ($i=="MB/s") got=$(i-1) }
END { if (base > 0) printf "%.2f", got / base; else print "0" }' "$raw")"
echo "== batched/unbatched small-command throughput at qp=4: ${ratio}x (gate: >= 1.5x)"
if [ "$gate" = 1 ]; then
	awk -v r="$ratio" 'BEGIN { exit (r >= 1.5 ? 0 : 1) }' || {
		echo "FAIL: batching regression — ratio ${ratio}x below 1.5x gate" >&2
		exit 1
	}
fi

# Gate 2: striped aggregate bandwidth must scale — two targets beat one.
stripe="$(awk '
$1 ~ /^BenchmarkStripedPlane\/targets=1(-[0-9]+)?$/ { for (i=2;i<=NF;i++) if ($i=="MB/s") base=$(i-1) }
$1 ~ /^BenchmarkStripedPlane\/targets=2(-[0-9]+)?$/ { for (i=2;i<=NF;i++) if ($i=="MB/s") got=$(i-1) }
END { if (base > 0) printf "%.2f", got / base; else print "0" }' "$raw")"
echo "== striped targets=2 / targets=1 throughput: ${stripe}x (gate: >= 1.1x)"
if [ "$gate" = 1 ]; then
	awk -v r="$stripe" 'BEGIN { exit (r >= 1.1 ? 0 : 1) }' || {
		echo "FAIL: striping regression — targets=2 at ${stripe}x of a single target, below 1.1x gate" >&2
		exit 1
	}
fi

# Gate 3: the batched steady state allocates nothing per op.
allocs="$(awk '
$1 ~ /^BenchmarkHostPool\/qp=4\/batch=true(-[0-9]+)?$/ { for (i=2;i<=NF;i++) if ($i=="allocs/op") a=$(i-1) }
END { print (a == "" ? "-1" : a) }' "$raw")"
echo "== batched steady-state allocations at qp=4: ${allocs} allocs/op (gate: 0)"
if [ "$gate" = 1 ] && [ "$allocs" != 0 ]; then
	echo "FAIL: zero-copy regression — batched steady state at ${allocs} allocs/op, want 0" >&2
	exit 1
fi

# Gate 5: mirroring costs its fundamental write tax and no more —
# R=2 writes hold >= 0.45x RAID-0 over the same four members (every
# byte hits two devices, so the ideal is 0.5x), and replica-split reads
# stay within 0.9x of RAID-0 read bandwidth.
mw="$(awk '
$1 ~ /^BenchmarkMirroredPlane\/mode=raid0\/op=write(-[0-9]+)?$/   { for (i=2;i<=NF;i++) if ($i=="MB/s") base=$(i-1) }
$1 ~ /^BenchmarkMirroredPlane\/mode=mirror2\/op=write(-[0-9]+)?$/ { for (i=2;i<=NF;i++) if ($i=="MB/s") got=$(i-1) }
END { if (base > 0) printf "%.2f", got / base; else print "0" }' "$raw")"
mr="$(awk '
$1 ~ /^BenchmarkMirroredPlane\/mode=raid0\/op=read(-[0-9]+)?$/   { for (i=2;i<=NF;i++) if ($i=="MB/s") base=$(i-1) }
$1 ~ /^BenchmarkMirroredPlane\/mode=mirror2\/op=read(-[0-9]+)?$/ { for (i=2;i<=NF;i++) if ($i=="MB/s") got=$(i-1) }
END { if (base > 0) printf "%.2f", got / base; else print "0" }' "$raw")"
echo "== mirrored R=2 / RAID-0 throughput: writes ${mw}x (gate: >= 0.45x), reads ${mr}x (gate: >= 0.9x)"
if [ "$gate" = 1 ]; then
	awk -v r="$mw" 'BEGIN { exit (r >= 0.45 ? 0 : 1) }' || {
		echo "FAIL: mirror write regression — R=2 at ${mw}x RAID-0, below 0.45x gate" >&2
		exit 1
	}
	awk -v r="$mr" 'BEGIN { exit (r >= 0.9 ? 0 : 1) }' || {
		echo "FAIL: mirror read regression — R=2 at ${mr}x RAID-0, below 0.9x gate (replica read-split broken?)" >&2
		exit 1
	}
fi

# Gate 6: multi-tenant QoS holds the victim's tail and stays fair.
# nvmecr-bench -campaign runs the duel scenario (victim vs an
# admission-limited aggressor over real TCP targets) and the equal-4
# fairness scenario, and itself fails on any campaign invariant
# violation (lost commands, telemetry drift). Full runs only: the quick
# mode's 200ms samples are fine for throughput but the campaign's tail
# quantiles need the real run.
if [ "$gate" = 1 ]; then
	qout="${BENCH_QOS_OUT:-BENCH_qos.json}"
	echo "== nvmecr-bench -campaign (multi-tenant QoS)"
	go run ./cmd/nvmecr-bench -campaign "$qout"
	echo "== wrote $qout"
	vratio="$(sed -n 's/.*"victim_p999_ratio": \([0-9.eE+-]*\).*/\1/p' "$qout" | head -1)"
	jain="$(sed -n 's/.*"jain_equal4": \([0-9.eE+-]*\).*/\1/p' "$qout" | head -1)"
	echo "== qos victim p99.9 under aggressor: ${vratio}x solo (gate: <= 3x), jain(4 equal tenants): ${jain} (gate: >= 0.8)"
	awk -v r="$vratio" 'BEGIN { exit (r > 0 && r <= 3.0 ? 0 : 1) }' || {
		echo "FAIL: qos isolation regression — victim p99.9 at ${vratio}x solo, above the 3x gate" >&2
		exit 1
	}
	awk -v j="$jain" 'BEGIN { exit (j >= 0.8 ? 0 : 1) }' || {
		echo "FAIL: qos fairness regression — Jain index ${jain} below the 0.8 gate" >&2
		exit 1
	}
fi

# Gate 7: bulk transfers do not share a connection while another idles —
# one synchronous 1 MiB reader per queue pair on a batching pool scales
# from one pair to two.
bulk="$(awk '
$1 ~ /^BenchmarkHostPoolBulk\/qp=1(-[0-9]+)?$/ { for (i=2;i<=NF;i++) if ($i=="MB/s") base=$(i-1) }
$1 ~ /^BenchmarkHostPoolBulk\/qp=2(-[0-9]+)?$/ { for (i=2;i<=NF;i++) if ($i=="MB/s") got=$(i-1) }
END { if (base > 0) printf "%.2f", got / base; else print "0" }' "$raw")"
echo "== bulk readers qp=2 / qp=1 throughput: ${bulk}x (gate: >= 1.2x)"
# Not gated, kept in sight: fill-first piles device-bound 16 KiB commands
# on one serve loop, so batching on runs well under batching off at qp=4.
# The fix is a service-time-aware spill (ROADMAP), not this gate.
dev="$(awk '
$1 ~ /^BenchmarkHostPoolDeviceBound\/qp=4\/batch=false(-[0-9]+)?$/ { for (i=2;i<=NF;i++) if ($i=="MB/s") base=$(i-1) }
$1 ~ /^BenchmarkHostPoolDeviceBound\/qp=4\/batch=true(-[0-9]+)?$/  { for (i=2;i<=NF;i++) if ($i=="MB/s") got=$(i-1) }
END { if (base > 0) printf "%.2f", got / base; else print "0" }' "$raw")"
echo "== device-bound batched/unbatched throughput at qp=4: ${dev}x (open item, not gated)"
# Not gated either: the shape home placement is for — two synchronous
# callers, one per half of the namespace, on two queue pairs.
awk '
$1 ~ /^BenchmarkHostPoolTwoPartitions\// { name=$1; sub(/^[^\/]*\//, "", name); sub(/-[0-9]+$/, "", name)
	for (i=2;i<=NF;i++) if ($i=="ns/op") printf "== two partitions, %s: %.1f us per command per caller (not gated)\n", name, $(i-1)/1000 }' "$raw"
if [ "$gate" = 1 ]; then
	awk -v r="$bulk" 'BEGIN { exit (r >= 1.2 ? 0 : 1) }' || {
		echo "FAIL: bulk placement regression — qp=2 at ${bulk}x of qp=1, below the 1.2x gate (bulk transfers sharing a connection?)" >&2
		exit 1
	}
fi
