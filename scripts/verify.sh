#!/bin/sh
# Tier-1 verification gate. Run from the repo root.
#
# The shadow-variable check needs the standalone analyzer binary
# (golang.org/x/tools/go/analysis/passes/shadow/cmd/shadow); it is
# skipped with a note when the binary is not installed, so this script
# never requires network access or new dependencies.
#
# The crash-consistency property suite runs here in short mode (25
# seeded iterations). The nightly-style full sweep (200 iterations) is:
#
#     go test ./internal/core -run CrashProp -count=1
#
# A failure prints the reproducing seed and the fault trace; pin the
# seed in rerunSeed (internal/core/crashprop_test.go) to replay that
# one iteration locally. See docs/faults.md.
set -eu

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== orphan packages"
# Every internal package must be reached by a command, an example, the
# benchmark or the module root; an importer in a _test.go file does not
# count (ROADMAP standard 2: no package without a caller).
mod="$(go list -m)"
go list ./internal/... | sort >"$tmp/internal"
go list -deps ./cmd/... ./benchmark ./examples/... . | sort >"$tmp/reached"
comm -23 "$tmp/internal" "$tmp/reached" | sed "s|^$mod/||" >"$tmp/orphans"
if [ -s "$tmp/orphans" ]; then
	echo "internal packages nothing but tests reaches:"
	cat "$tmp/orphans"
	exit 1
fi

echo "== packages off the measured path"
# Every subsystem sits on a measured path or earns its place by name
# (ROADMAP item 11). The measured roots are the end-to-end benchmark and
# the paper-figure harness. An internal package neither reaches is named
# below with the reason it stays; any other fails the gate.
go list -deps ./benchmark ./cmd/nvmecr-bench | sort >"$tmp/measured"
comm -23 "$tmp/internal" "$tmp/measured" | sed "s|^$mod/||" >"$tmp/unmeasured"
while read -r pkg; do
	case "$pkg" in
	internal/health) why="nvmecrd's /health, /healthz, incident capture and mirror-member verdicts" ;;
	internal/rebalance) why="nvmecrd -mirror's online member migration" ;;
	*)
		echo "$pkg: reached by no measured root (./benchmark, ./cmd/nvmecr-bench) and not named in this gate"
		exit 1
		;;
	esac
	echo "$pkg: kept for $why"
done <"$tmp/unmeasured"

echo "== gofmt"
gofmt -l . >"$tmp/gofmt"
if [ -s "$tmp/gofmt" ]; then
	echo "gofmt would reformat:"
	cat "$tmp/gofmt"
	exit 1
fi

if command -v shadow >/dev/null 2>&1; then
	echo "== go vet -vettool=shadow"
	go vet -vettool="$(command -v shadow)" ./...
else
	echo "== shadow analyzer not installed; skipping shadow check"
fi

echo "== go test (shuffled)"
# -shuffle=on randomizes test and subtest order per run so that
# order-dependent tests (shared package state, leaked globals) fail
# here instead of in some future refactor. A failure prints the shuffle
# seed; replay with: go test -shuffle=<seed> <package>
go test -shuffle=on ./...

echo "== go test -race (concurrent transport + telemetry)"
# ./internal/nvmeof includes the batching and striping concurrency
# suites: concurrent stripe submission, batch flusher vs reconnect,
# flight-recorder dump during a batched timeout, and the striped/single
# equivalence property test.
go test -race ./internal/nvmeof ./internal/telemetry ./internal/balancer

echo "== go test -race (slot ring + registered buffer lifetime)"
# The polled submission path's lock-free spine and the zero-copy buffer
# contract, named explicitly so a test rename cannot silently drop
# them: the MPMC index ring under concurrent push/pop across the
# ticket-wraparound boundary, and buffer mutate-after-completion safety
# under batching and merge (a transport goroutine still touching a
# completed buffer's bytes is a -race failure here). -count=1 defeats
# the cache so the race detector actually re-executes them.
go test -race -count=1 -run 'TestIndexRing|TestBuffer' ./internal/nvmeof

echo "== go test -race (mount table / multi-tenant namespace)"
# The vfs.Namespace is used from live goroutines (nvmecrd -tenants), not
# just the serialized simulation: mount resolution, quota counters, and
# per-mount telemetry must be race-clean.
go test -race ./internal/vfs

echo "== go test -race (qos admission + the campaign's gate)"
# Token buckets are hit from every rank goroutine and the campaign's
# gate hands slots directly between goroutines under its lock; both
# must be race-clean.
go test -race ./internal/qos/...

echo "== multi-tenant QoS campaign (short mode)"
# 10 seeded iterations of the mixed campaign — victim + 32-rank
# aggressor + bursty + restart-storm tenants over real TCP targets with
# mid-campaign fault injection — asserting victim tail bounds, Jain
# fairness, command conservation, and telemetry agreement. The
# nightly-style 100-seed sweep (128-rank aggressors) is:
#
#     go test -count=1 ./internal/qos/campaign
#
# A failure prints the reproducing seed, the violations, and the fault
# trace.
go test -short -count=1 ./internal/qos/campaign

echo "== go test -race (health/SLO engine)"
# The engine ticks from its own goroutine while subjects register,
# deregister, and serve /health concurrently; transitions run their
# listeners on the tick goroutine. All of it must be race-clean.
go test -race ./internal/health

echo "== go test -race (stripe migration plane, short mode)"
# The migrator sweeps stripes off a suspect member while writers keep
# hitting the same plane, and the seeded crash/recovery campaign
# restarts the "process" mid-move — sweep-lock ordering and journal
# replay must be race-clean. Short mode runs 20 crash seeds; the full
# 100-seed campaign is: go test -count=1 ./internal/rebalance
go test -race -short -count=1 ./internal/rebalance

echo "== mirrored no-lost-byte property suite (short mode)"
# 20 seeded iterations of the mirrored/single equivalence campaign,
# each with mid-batch target kills plus a disk-death-and-live-migration
# cycle. The nightly-style 100-seed sweep is:
#
#     go test -count=1 -run MirroredSingleEquivalence ./internal/nvmeof
#
# A failure prints the reproducing seed and both fault traces.
go test -short -count=1 -run 'TestMirroredSingleEquivalence|TestMigrationCrashRecovery' \
	./internal/nvmeof ./internal/rebalance

echo "== allocation gates (transport)"
# Process-wide heap counts over a live loopback target, so they only
# mean something without -race: the batched small-command steady state
# at 0 allocs/op, and the read path at one buffer per byte read through
# a TCPPlane (the response payload; 1 MiB calls and sequential 16 KiB
# calls through the read-ahead window alike) plus one more where a
# stripe interleaves (docs/batching.md, "Read path"). New + Recover
# allocate by the log the crash left, not by the log region: the gate
# over a meta_storm-shaped log is run by name, so that a rename cannot
# drop it silently. The write path through microfs allocates one staged
# run per file written in small sequential calls and none for one-write
# files or 1 MiB calls (docs/batching.md, "Write path: staged runs"):
# run by name too.
go test -count=1 -run 'TestBatchedSteadyStateAllocs|TestReadPathAllocBytes' ./internal/nvmeof
go test -count=1 -v -run 'TestReadPathAllocBytes/recover/meta_storm' ./internal/nvmeof |
	grep -q -e '--- PASS: TestReadPathAllocBytes/recover/meta_storm'
go test -count=1 -v -run 'TestWritePathAllocBytes' ./internal/nvmeof |
	grep -q -e '--- PASS: TestWritePathAllocBytes '

echo "== snapshot/operation overlap + log writer allocations (microfs)"
# A snapshot that overlaps other operations on its instance commits, or
# keeps in the log, every write logged after it built its image
# (docs/faults.md, "Prefix durability"). Every log call hands the log its
# caller's writer, built once per process: with a pass-through
# WrapLogWrite the steady-state metadata cycle allocates no more than
# when the writer was built at New. Run by name, so that a rename cannot
# drop them; the overlap tests run under -race too.
overlap='TestSnapshotOutlivesOverlappingOp|TestSnapshotMeetsExtension|TestSnapshotMeetsAppendInFlight|TestSnapshotMeetsAppendAtHeader'
go test -count=1 -v -run "^($overlap|TestLogWriterAllocs)\$" ./internal/microfs >"$tmp/overlap" ||
	{ cat "$tmp/overlap"; exit 1; }
for name in $(echo "$overlap" | tr '|' ' ') TestLogWriterAllocs; do
	grep -q -e "--- PASS: $name " "$tmp/overlap" || { echo "$name did not run"; exit 1; }
done
go test -race -count=1 -run "^($overlap)\$" ./internal/microfs

echo "== end-to-end benchmark (smoke test + count repeatability)"
# The smoke test runs every workload once, small; -selfcheck runs one
# workload twice at full size and fails unless write_amp and space_amp
# repeat exactly and alloc_b_per_user_b to 0.5 %. Timing claims are
# judged by scripts/pairs.sh, not here.
go test -count=1 ./benchmark
go run ./benchmark -selfcheck -workload ckpt_large

echo "== go test -race (runtime core)"
go test -race ./internal/core

echo "== go test -race (fault injection + provenance log + microfs)"
go test -race ./internal/faults ./internal/wal ./internal/microfs

echo "== crash-consistency property suite (short mode)"
go test -short -count=1 -run CrashProp ./internal/core

echo "== paper experiments, quick mode (every experiment exits 0)"
# The harness tests assert the shape of each table at quick scale; they do
# not run every seed an experiment runs, and an experiment that fails its
# own check (extfaults: a durability violation at a printed seed) exits 1
# only here. What the tables say is gated in the shuffled run above:
# internal/harness's TestQuickTablesGolden holds every one, less its
# "(… wall)" line, to a committed file byte for byte. A change that means
# to move a paper figure regenerates that file, and says why, with
#
#     go run ./cmd/nvmecr-bench -quick | grep -v ' wall)$' >internal/harness/testdata/quick.golden
go run ./cmd/nvmecr-bench -quick >/dev/null

echo "== nvmecr-trace smoke test"
go run ./cmd/nvmecr-bench -quick -trace "$tmp/trace.jsonl" tab2 >/dev/null
report="$(go run ./cmd/nvmecr-trace -epochs "$tmp/trace.jsonl")"
echo "$report" | grep -q "Span summary" || { echo "trace report missing span summary"; exit 1; }
echo "$report" | grep -q "microfs.fsync" || { echo "trace report missing microfs spans"; exit 1; }
echo "$report" | grep -q "epoch 0" || { echo "trace report missing checkpoint epochs"; exit 1; }
go run ./cmd/nvmecr-trace -chrome "$tmp/chrome.json" "$tmp/trace.jsonl" >/dev/null
grep -q '"traceEvents"' "$tmp/chrome.json" || { echo "chrome export invalid"; exit 1; }

echo "== nvmecrd /health smoke test"
# Boot the daemon on ephemeral ports and check the three health
# surfaces: /health (per-subject verdicts), /healthz (per-layer JSON
# rollup), and the legacy plaintext form behind ?format=text.
go build -o "$tmp/nvmecrd" ./cmd/nvmecrd
"$tmp/nvmecrd" -addr 127.0.0.1:0 -admin 127.0.0.1:0 -stats 0 \
	-health-interval 50ms >"$tmp/nvmecrd.log" 2>&1 &
daemon=$!
trap 'kill "$daemon" 2>/dev/null || true; rm -rf "$tmp"' EXIT
admin=""
i=0
while [ "$i" -lt 50 ]; do
	admin="$(sed -n 's|.*admin on http://\([^ ]*\) .*|\1|p' "$tmp/nvmecrd.log")"
	[ -n "$admin" ] && break
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$admin" ]; then
	echo "nvmecrd admin address never appeared:"
	cat "$tmp/nvmecrd.log"
	exit 1
fi
curl -fsS "http://$admin/health" | grep -q '"status"' \
	|| { echo "/health missing status field"; exit 1; }
curl -fsS "http://$admin/healthz" | grep -q '"layers"' \
	|| { echo "/healthz missing layers rollup"; exit 1; }
curl -fsS "http://$admin/healthz?format=text" | grep -q '^ok' \
	|| { echo "/healthz?format=text lost the legacy form"; exit 1; }
curl -fsS "http://$admin/metrics" | grep -q '^nvmecr_health_state' \
	|| { echo "/metrics missing nvmecr_health_state"; exit 1; }
kill "$daemon"

echo "== non-test Go lines against the committed LOC.txt (informational)"
# LOC.txt is scripts/loc.sh's output as of the commit: a PR refreshes it
# (scripts/loc.sh >LOC.txt) so its per-package delta is in its own diff.
# Printed here: what this tree has moved since. Never fails the gate.
scripts/loc.sh | diff LOC.txt - && echo "LOC.txt is current" || true

echo "tier-1 verify: OK"
