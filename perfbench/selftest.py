#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py [WORKLOAD ...]

Run from the root of a checkout. For every workload (or the ones named) it
runs perfbench/run.py at smoke size and asserts that

  1. an untraced run exits 0, passes its checks, and prints every end-to-end
     metric of BENCHMARK.json with its unit;
  2. a traced run does the same for every per-layer metric, and its Chrome
     trace passes tools/check_trace_events.py;
  3. flipping one bit of one estimate (--flip-bit 1) trips the output check:
     the run exits non-zero and reports correct=false with a failed count.

Exits non-zero listing every violation.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench-selftest"


def run(workload, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--smoke", "1", "--out", str(OUT), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def check_metrics(where, result, expected, errors):
    if result is None:
        errors.append(f"{where}: no JSON result on the last stdout line")
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys are {sorted(result)}")
        return
    metrics = result["metrics"]
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"{where}: metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            errors.append(f"{where}: metric {m['name']} unit {got.get('unit')!r}, "
                          f"expected {m['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)):
            errors.append(f"{where}: metric {m['name']} has no numeric value")
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        errors.append(f"{where}: unexpected metrics {sorted(extra)}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    errors = []
    for w in names:
        code, result, stderr = run(w, "--trace", "0")
        where = f"{w} untraced"
        if code != 0:
            errors.append(f"{where}: exit {code}\n{stderr[-2000:]}")
        check_metrics(where, result, spec["end_to_end"], errors)
        if result and not result.get("correct"):
            errors.append(f"{where}: correct is false")

        code, result, stderr = run(w, "--trace", "1")
        where = f"{w} traced"
        if code != 0:
            errors.append(f"{where}: exit {code}\n{stderr[-2000:]}")
        check_metrics(where, result, spec["per_layer"], errors)
        trace = OUT / f"trace-{w}-seed7.json"
        lint = ROOT / "tools" / "check_trace_events.py"
        if not trace.is_file():
            errors.append(f"{where}: no trace file {trace}")
        elif lint.is_file():
            proc = subprocess.run([sys.executable, str(lint), str(trace)],
                                  capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                errors.append(f"{where}: trace lint failed\n{proc.stdout}")

        code, result, _ = run(w, "--trace", "0", "--flip-bit", "1")
        where = f"{w} with one flipped bit"
        if code == 0:
            errors.append(f"{where}: exit 0, the output check did not trip")
        if not result or result.get("correct") or result.get("failed", 0) < 1:
            errors.append(f"{where}: result does not report the failed check")
        print(f"{w}: done", flush=True)

    for e in errors:
        print("FAIL:", e)
    print("selftest:", "FAILED" if errors else "OK")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
