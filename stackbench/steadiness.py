#!/usr/bin/env python3
"""Steadiness of the stack benchmark.

Runs every workload many times, untraced, each run in a fresh process with
its own seed (1000 and up), alternating the order of the workloads from
one repetition to the next. For each workload, set and end-to-end metric
it prints the median, the quartiles, the interquartile range as a share of
the median (the spread the end-to-end bounds in BENCHMARK.json are set
from) and the min-max range.

With --sets 2 it makes two sets of runs, alternating which set runs first
in each repetition, and also prints how far the second set's median lies
from the first's, in the metric's worse direction.

    python3 stackbench/steadiness.py                       # 10 runs per workload
    python3 stackbench/steadiness.py --sets 2 --json runs.json

Run from the root of the repository. Every run uses the command and the
run length of BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED_BASE = 1000


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # The header's fixed-work loop, timed before and after the workload:
    # kept beside the metrics to tell a drift of the machine from one of
    # the program.
    result["calibration_s"] = [float(l.split(":")[1]) for l in lines if l.startswith("# calibration_")]
    result["steal_ticks"] = sum(int(l.split(":")[1]) for l in lines if l.startswith("# cpu_steal_ticks"))
    if not result["correct"]:
        print(f"warning: {workload} seed {seed} read correct=false\n{proc.stderr}", file=sys.stderr)
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    runs = {s: {w: [] for w in workloads} for s in range(args.sets)}
    seed = SEED_BASE
    for rep in range(args.reps):
        order = workloads if rep % 2 == 0 else workloads[::-1]
        sets = list(range(args.sets)) if rep % 2 == 0 else list(range(args.sets))[::-1]
        for s in sets:
            for w in order:
                result = run_once(bench["command"], w, seed, seconds)
                seed += 1
                runs[s][w].append(result)
                print(f"rep {rep} set {s} {w}: attempted {result['attempted']} failed {result['failed']}",
                      file=sys.stderr)

    for w in workloads:
        print(f"\n== {w} ({args.reps} runs per set, {seconds} s each)")
        for s in range(args.sets):
            shares = {r["failed"] / r["attempted"] for r in runs[s][w]}
            calib = [c for r in runs[s][w] for c in r["calibration_s"]]
            _, cmed, _, ciqr = spread(calib)
            steal = [r["steal_ticks"] for r in runs[s][w]]
            print(f"   set {s + 1}: failed share {sorted(shares)}; calibration loop median {cmed:.4f} s, "
                  f"iqr/med {ciqr:.3f}, min-max/med {(max(calib) - min(calib)) / cmed:.3f}; "
                  f"steal ticks per run {statistics.median(steal)} median, {max(steal)} max")
        print(f"   {'metric':18} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
              f"{'min-max/med':>11} {'bound':>6} {'verdict':>9}" + ("  set2-vs-1" if args.sets == 2 else ""))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(args.sets):
                values = [r["metrics"][name]["value"] for r in runs[s][w]]
                q1, med, q3, iqr = spread(values)
                medians.append(med)
                rng = (max(values) - min(values)) / med
                verdict = "steady" if iqr < bound / 3 else ("in-bound" if iqr <= bound else "OVER")
                line = (f"   {name:18} {s + 1:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} {iqr:8.3f} "
                        f"{rng:11.3f} {bound:>6} {verdict:>9}")
                if s == 1:
                    med1, med2 = medians
                    worse = (med2 - med1) / med1 if m["better"] == "lower" else (med1 - med2) / med1
                    line += f"  {worse:+.3f}"
                print(line)

    if args.json:
        with open(args.json, "w") as f:
            json.dump({str(s + 1): runs[s] for s in runs}, f, indent=1)


if __name__ == "__main__":
    main()
