#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs two sets of runs of every workload (each set: --runs runs with seeds
seed0, seed0+1, ...) and prints, for every end-to-end metric, each set's
median and quartiles, the spread (Q3 - Q1) / median against the metric's
bound, and how far the second median moved from the first. One --trace 1
run per set and workload then checks that every per-layer name is printed
and that the exact counts repeat between the sets.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed0 0]

Exits 1 if a name is missing, a count differs, a spread exceeds its bound,
or a median moved by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Counts that are a pure function of the inputs. The allocator peak is not
# one: hash-map growth depends on per-process random state.
NOT_EXACT = {"alloc_peak_bytes"}


def run(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(argv, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {p.returncode}:\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seed0", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    e2e = bench["end_to_end"]
    layer_names = [m["name"] for m in bench["per_layer"]]
    problems = []

    for w in workloads:
        sets, traced = [], []
        for s in range(2):
            results = []
            for i in range(args.runs):
                r = run(cmd, w, args.seed0 + i, seconds, 0)
                results.append(r)
                print(f"{w} set {s + 1} seed {args.seed0 + i}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
                      + f" failed={r['failed']}/{r['attempted']} correct={r['correct']}",
                      flush=True)
            sets.append(results)
            traced.append(run(cmd, w, args.seed0, seconds, 1))

        for s, results in enumerate(sets):
            for r in results:
                if not r["correct"]:
                    problems.append(f"{w}: set {s + 1} reported correct=false")
                missing = [m["name"] for m in e2e if m["name"] not in r["metrics"]]
                if missing:
                    problems.append(f"{w}: end-to-end metrics not printed: {missing}")
        for t in traced:
            if not t["correct"]:
                problems.append(f"{w}: a --trace 1 run reported correct=false")
            missing = [n for n in layer_names if n not in t["metrics"]]
            if missing:
                problems.append(f"{w}: per-layer metrics not printed: {missing}")
        for name in layer_names:
            a, b = (t["metrics"].get(name) for t in traced)
            if a and b and a["unit"] in ("count", "bytes") and name not in NOT_EXACT:
                if a["value"] != b["value"]:
                    problems.append(f"{w}: count {name} differs between sets: "
                                    f"{a['value']} vs {b['value']}")

        print(f"\n{w}: {args.runs} runs per set, seeds {args.seed0}..{args.seed0 + args.runs - 1}")
        print(f"{'metric':<14}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}{'shift':>9}")
        for m in e2e:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, results in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                shift = ""
                if s == 1:
                    worse = (med - medians[0]) if m["better"] == "lower" else (medians[0] - med)
                    rel = worse / medians[0] if medians[0] else float("inf")
                    shift = f"{rel:+.3f}"
                    if rel > bound:
                        problems.append(f"{w}: {name} median worse by {rel:.3f} > bound {bound}")
                print(f"{name:<14}{s + 1:>4}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{spread:>9.3f}{bound:>8}{shift:>9}")
                if spread > bound:
                    problems.append(f"{w}: {name} spread {spread:.3f} > bound {bound} (set {s + 1})")
        fails = [r["failed"] / r["attempted"] for res in sets for r in res]
        print(f"failure share: median {statistics.median(fails):.3f}, "
              f"min {min(fails):.3f}, max {max(fails):.3f}")
        print(f"tracing overhead: "
              + ", ".join(f"{t['metrics']['trace_overhead_pct']['value']:.1f}%" for t in traced)
              + "\n", flush=True)

    for p in problems:
        print("PROBLEM:", p)
    print("steady" if not problems else f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
