#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload table1 --seeds 1,2,3,4,5

Runs perfbench/run.py once per seed (sequentially) for BENCHMARK.json's
run_seconds, and prints, per metric, the median over the runs and the
interquartile range as a share of that median, next to the metric's bound
from BENCHMARK.json.
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
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    values = {}
    for seed in args.seeds.split(","):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", seed, "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: run reported failures")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / statistics.median(vs)
        print(f"{name:20s} median {statistics.median(vs):12.4f}  spread {spread:6.3f}"
              f"  bound {bounds.get(name, float('nan')):.3f}")


if __name__ == "__main__":
    main()
