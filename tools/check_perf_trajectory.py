#!/usr/bin/env python3
"""Lint results/perf_trajectory.jsonl against BENCHMARK.json.

Every line of the trajectory must

  1. parse as a JSON object,
  2. name a workload that BENCHMARK.json declares, with perfbench's
     fingerprint naming the same one,
  3. record a correct run with no failed operations, and
  4. carry every ``end_to_end`` metric of BENCHMARK.json in its unit.

Run standalone (``python3 tools/check_perf_trajectory.py``) or via ctest
(registered as ``perf_trajectory_lint`` with the ``quality`` label). Exits
non-zero listing every violation. ``--self-test`` checks that a well-formed
line passes and that each kind of malformed line is flagged. BENCHMARK.json
is only read.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def check_line(text, workloads, units):
    """Violations of one trajectory line; an empty list when it is clean."""
    try:
        entry = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"does not parse: {exc}"]
    if not isinstance(entry, dict):
        return ["is not a JSON object"]
    errors = []
    workload = entry.get("workload")
    if workload not in workloads:
        errors.append(f"workload {workload!r} is not in BENCHMARK.json")
    fingerprint = entry.get("fingerprint")
    named = (fingerprint.get("fingerprint") or {}).get("workload") \
        if isinstance(fingerprint, dict) else None
    if named != workload:
        errors.append(f"fingerprint names workload {named!r}, "
                      f"the line {workload!r}")
    result = entry.get("result")
    if not isinstance(result, dict):
        return errors + ["has no result object"]
    if result.get("correct") is not True:
        errors.append("result.correct is not true")
    if result.get("failed") != 0:
        errors.append(f"result.failed is {result.get('failed')!r}, not 0")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return errors + ["result has no metrics object"]
    for name, unit in units.items():
        metric = metrics.get(name)
        if not isinstance(metric, dict) or \
                not isinstance(metric.get("value"), (int, float)):
            errors.append(f"metric {name} is missing or has no value")
        elif metric.get("unit") != unit:
            errors.append(f"metric {name} has unit {metric.get('unit')!r}, "
                          f"BENCHMARK.json says {unit!r}")
    return errors


def load_benchmark():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    return workloads, units


def self_test(workloads, units):
    workload = sorted(workloads)[0]
    good = {
        "workload": workload,
        "fingerprint": {"fingerprint": {"workload": workload}},
        "result": {"correct": True, "attempted": 1, "failed": 0,
                   "metrics": {n: {"value": 1.0, "unit": u}
                               for n, u in units.items()}},
    }

    def bad(edit):
        entry = json.loads(json.dumps(good))
        edit(entry)
        return json.dumps(entry)

    first = sorted(units)[0]
    cases = [
        ("truncated line", json.dumps(good)[:-1]),
        ("unknown workload", bad(lambda e: e.update(workload="no_such"))),
        ("fingerprint of another workload", bad(
            lambda e: e["fingerprint"]["fingerprint"].update(workload="x"))),
        ("incorrect run", bad(lambda e: e["result"].update(correct=False))),
        ("failed operations", bad(lambda e: e["result"].update(failed=2))),
        ("missing metric", bad(lambda e: e["result"]["metrics"].pop(first))),
        ("wrong unit", bad(
            lambda e: e["result"]["metrics"][first].update(unit="?"))),
    ]
    failures = 0
    if check_line(json.dumps(good), workloads, units):
        failures += 1
        print("self-test: well-formed line flagged")
    for label, line in cases:
        if not check_line(line, workloads, units):
            failures += 1
            print(f"self-test: malformed line not flagged: {label}")
    if failures:
        print(f"perf trajectory lint self-test: {failures} failure(s)")
        return 1
    print(f"perf trajectory lint self-test: OK ({len(cases)} malformed "
          "lines flagged, well-formed line clean)")
    return 0


def main(argv):
    workloads, units = load_benchmark()
    if argv[1:] == ["--self-test"]:
        return self_test(workloads, units)
    if len(argv) != 1:
        print("usage: check_perf_trajectory.py [--self-test]")
        return 2
    path = ROOT / "results" / "perf_trajectory.jsonl"
    violations = []
    lines = path.read_text().splitlines()
    for number, text in enumerate(lines, start=1):
        violations += [f"line {number}: {e}"
                       for e in check_line(text, workloads, units)]
    if violations:
        print(f"{path.name}: {len(violations)} violation(s)")
        for v in violations:
            print(f"  {v}")
        return 1
    print(f"{path.name}: {len(lines)} line(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
