#!/usr/bin/env python3
"""Steadiness check: runs each workload N times and reports, per metric,
the median, the quartiles and the spread relative to the metric's bound.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--trace 0|1]

Run it from the repository root. It reads BENCHMARK.json for the
command, the run length, the workloads and the bounds, and runs
`<command> --workload W --seed S --seconds T --trace X` for every
workload with seeds first-seed .. first-seed+runs-1. The spread is the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median; a metric is flagged when its spread exceeds a third of its
bound. Count metrics of one seed must repeat exactly, so the script
also prints which metrics took a single value across all runs.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    worst = 0.0
    for w in names:
        runs = [run_once(bench["command"], w, args.first_seed + i,
                         bench["run_seconds"], args.trace)
                for i in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n== {w}: {args.runs} runs, correct={correct}, "
              f"failed share(s)={sorted(shares)}")
        print(f"{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}{'/bound':>8}")
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            rel = "" if bound is None else f"{spread / bound:8.2f}"
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above a third of its bound"
                worst = max(worst, spread / bound)
            if len(set(vals)) == 1:
                flag += "  (one value)"
            print(f"{name:<28}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.4f}{'' if bound is None else bound:>7}{rel}{flag}")
    if worst:
        print(f"\nsome spreads exceed a third of their bound (worst {worst:.2f}x bound)")


if __name__ == "__main__":
    main()
