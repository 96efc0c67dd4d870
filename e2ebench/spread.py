#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 e2ebench/spread.py [--runs 10] [--first-seed 1]
                               [--workload W ...] [--seconds S]

Runs e2ebench/run.py once per seed for each workload (untraced), then
prints, per (workload, metric), the median of the runs and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of that median, beside the metric's bound from BENCHMARK.json
("-" for the reported, ungated metrics).
The bounds in BENCHMARK.json were set from this table (see README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    print(f"{'workload':<18} {'metric':<16} {'median':>12} {'iqr/med':>8} "
          f"{'bound':>6}  values")
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            if run.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{run.stderr}")
            lines = run.stdout.splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: outputs not correct")
            record_path = lines[-2].split("run.py: record ", 1)[1]
            with open(record_path) as f:
                reported = json.load(f)["reported"]
            for name, metric in list(result["metrics"].items()) + \
                    list(reported.items()):
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{workload:<18} {name:<16} {med:>12.5g} "
                  f"{spread:>8.4f} {bounds.get(name, '-'):>6}  "
                  + " ".join(f"{v:.5g}" for v in vals), flush=True)


if __name__ == "__main__":
    main()
