#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [WORKLOAD ...]

Run from the root of a checkout. Runs perfbench/run.py once per seed for each
workload (all of BENCHMARK.json's by default) and prints, per metric, the
median of the runs and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. A spread above a third of the bound is flagged.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    worst = 0.0
    for w in names:
        values = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=False)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}, "
                         f"correct={result['correct']}")
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{m}={values[m][-1]:.4g}" for m in bounds), flush=True)
        for m, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med if med else float("inf")
            flag = "" if share <= bounds[m] / 3 else "  <-- above a third"
            if m != "setup_s":
                worst = max(worst, share / bounds[m])
            print(f"  {w:12s} {m:12s} median {med:12.5g}  spread {share:7.2%}"
                  f"  bound {bounds[m]:.0%}{flag}")
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
