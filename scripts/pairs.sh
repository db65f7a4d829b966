#!/bin/sh
# Interleaved parent/change pairs of one benchmark workload, or of all of
# them: the rule benchmark/NOISE.md sets for a claim about a timing
# metric.
#
#     scripts/pairs.sh <parent-ref> <workload>|all [pairs=10] [change-ref=HEAD]
#
# Extracts the committed files of both refs into two fresh directories
# (git archive: what a driver checks out, and nothing in .git moves),
# lets benchmark/run.sh build each once, then runs
#
#     benchmark/run.sh --workload <w> --seed 2 --seconds 15 --trace 0
#
# <pairs> times per side, alternating which side goes first. Seed 2 is
# the seed benchmark/README.md holds out for claims. For every end-to-end
# metric of BENCHMARK.json it prints each side's median and quartiles,
# the change's median relative to the parent's, how many pairs the change
# won (ties count for neither side), and whether the claim rule holds:
# at least nine tenths of the pairs won and the medians further apart
# than the parent's own quartiles. With "all" it does so for every
# workload of BENCHMARK.json in turn and ends with one no-regression
# table, metric by workload: both medians, the change's relative to the
# parent's, the bound BENCHMARK.json sets, and whether the change is
# inside it. To measure uncommitted work, pass "$(git stash create)" as
# change-ref. About 50 s per pair and workload.
set -eu

cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
	echo "usage: scripts/pairs.sh <parent-ref> <workload>|all [pairs=10] [change-ref=HEAD]" >&2
	exit 2
fi
parent="$1"
workloads="$2"
pairs="${3:-10}"
change="${4:-HEAD}"
if [ "$workloads" = all ]; then
	workloads="$(python3 -c 'import json
print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])')"
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
# extract <side> <ref>: that ref's committed files under $work/<side>.
extract() {
	mkdir "$work/$1"
	git archive "$2" | tar -x -C "$work/$1"
}
extract parent "$parent"
extract change "$change"

# run <side>: one run of $workload in that side's directory; its last
# output line (the JSON result) is appended to <workload>.<side>.jsonl.
run() {
	if ! (cd "$work/$1" && bash benchmark/run.sh --workload "$workload" \
		--seed 2 --seconds 15 --trace 0) >"$work/out" 2>"$work/err"; then
		echo "pairs: $1 run of $workload failed:" >&2
		tail -n 20 "$work/err" "$work/out" >&2
		exit 1
	fi
	tail -n 1 "$work/out" >>"$work/$workload.$1.jsonl"
}

for workload in $workloads; do
	i=1
	while [ "$i" -le "$pairs" ]; do
		if [ $((i % 2)) -eq 1 ]; then
			run parent
			run change
		else
			run change
			run parent
		fi
		echo "$workload: pair $i/$pairs done" >&2
		i=$((i + 1))
	done
done

# shellcheck disable=SC2086 # one argument per workload
python3 - "$work" "$pairs pairs, parent $parent, change $change" $workloads <<'EOF'
import json
import statistics
import sys

work, title, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
summary = []
for w in workloads:
    sides = []
    for side in ("parent", "change"):
        runs = [json.loads(line) for line in open(f"{work}/{w}.{side}.jsonl")]
        for r in runs:
            assert r["correct"] and r["failed"] == 0, r
        sides.append(runs)
    n = len(sides[0])
    print(f"{w}: {title}")
    print("| metric | side | median | q1 | q3 | change/parent | pairs won | claim rule |")
    print("|---|---|---|---|---|---|---|---|")
    for m in metrics:
        par, chg = ([r["metrics"][m["name"]]["value"] for r in runs] for runs in sides)
        sign = 1 if m["better"] == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
        lost = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
        q = [statistics.quantiles(v, n=4) if n > 1 else [v[0]] * 3 for v in (par, chg)]
        med = [statistics.median(v) for v in (par, chg)]
        holds = won >= 0.9 * n and sign * (med[1] - med[0]) > q[0][2] - q[0][0]
        print(f"| {m['name']} | parent | {med[0]:.6g} | {q[0][0]:.6g} | {q[0][2]:.6g} | | | |")
        print(f"| {m['name']} | change | {med[1]:.6g} | {q[1][0]:.6g} | {q[1][2]:.6g} "
              f"| {med[1] / med[0]:.3f}x | {won} of {n} ({lost} lost) | {'holds' if holds else 'no'} |")
        # Outside: the change's median is worse than the parent's by more
        # than the bound, as a share of the parent's.
        worse = sign * (med[0] - med[1]) / med[0]
        summary.append((m, w, med, "outside" if worse > m["bound"] else "inside"))
    print()

if len(workloads) > 1:
    print(f"no regression, all workloads: {title}")
    print("| metric | workload | parent median | change median | change/parent | may worsen by | |")
    print("|---|---|---|---|---|---|---|")
    for m, w, med, verdict in summary:
        print(f"| {m['name']} | {w} | {med[0]:.6g} | {med[1]:.6g} | {med[1] / med[0]:.3f}x "
              f"| {m['bound']:.0%} | {verdict} |")
EOF
