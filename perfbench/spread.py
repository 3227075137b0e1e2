#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [workload ...]

Runs run.py once per seed on each workload (all workloads by default) and
prints, for each end-to-end metric, the median of the runs and the spread:
the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A spread
above a third of the metric's bound in BENCHMARK.json is flagged; the
exit code is 1 when any spread exceeds its bound.
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
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    over = False
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert result["correct"], result
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            flag = ""
            if spread > bound:
                flag = "  OVER BOUND"
                over = True
            elif spread > bound / 3:
                flag = "  over bound/3"
            print(f"{workload:17s} {name:21s} median {med:14.6g} "
                  f"spread {spread:7.4f} bound {bound:5.3f}{flag}",
                  flush=True)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
