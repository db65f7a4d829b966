#!/usr/bin/env python3
"""Noise study behind NOISE.md and the bounds in BENCHMARK.json.

Runs two sets of RUNS runs of every workload, interleaved (set A run 1 of
every workload, set B run 1, set A run 2, ...), run i of either set with
seed i, through the command BENCHMARK.json names. For every end-to-end
metric it prints each set's median, quartiles and range, the quartile
spread as a share of the median (what the driver holds against the
metric's bound), and how much worse set B's median is than set A's.

    python3 benchmark/noise.py [runs] > noise.md      # from the repo root
"""
import json
import statistics
import subprocess
import sys

RUNS = int(sys.argv[1]) if len(sys.argv) > 1 else 10
bench = json.load(open("BENCHMARK.json"))
metrics = bench["end_to_end"]
workloads = [w["name"] for w in bench["workloads"]]
values = {(w, s, m["name"]): [] for w in workloads for s in "AB" for m in metrics}

for run in range(1, RUNS + 1):
    for s in "AB":
        for w in workloads:
            cmd = bench["command"] + ["--workload", w, "--seed", str(run),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            assert res["correct"] and res["failed"] == 0, res
            for m in metrics:
                values[w, s, m["name"]].append(res["metrics"][m["name"]]["value"])
            print(f"run {run} set {s} {w} done", file=sys.stderr)

json.dump({f"{w}/{s}/{m}": v for (w, s, m), v in values.items()}, open(".bench_build/noise.json", "w"))

for w in workloads:
    print(f"\n### {w}\n")
    print("| metric | set | median | q1 | q3 | min | max | (q3-q1)/median | bound | B worse than A |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for m in metrics:
        med = {}
        for s in "AB":
            v = values[w, s, m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med[s] = statistics.median(v)
            worse = ""
            if s == "B":
                change = (med["B"] - med["A"]) / med["A"]
                worse = f"{(change if m['better'] == 'lower' else -change):+.2%}"
            print(f"| {m['name']} | {s} | {med[s]:.6g} | {q1:.6g} | {q3:.6g} | {min(v):.6g} | {max(v):.6g} "
                  f"| {(q3 - q1) / med[s]:.2%} | {m['bound']:.0%} | {worse} |")
