#!/usr/bin/env python3
"""Build the benchmark driver from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The library sources (src/) and perfbench/
are compiled into .bench_build/perfbench (an incremental no-op after the first
run); build output goes to stderr. The driver's stdout is passed through, so
the last stdout line is its JSON result. Any extra flags (--smoke 1,
--flip-bit 1, --out DIR) are forwarded to the driver.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TIMEOUT_S = 175


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no library sources (src/) next to perfbench/")
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as exc:
        sys.exit(f"perfbench: build failed: {exc}")
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", str(ROOT / ".bench_build" / "perfbench-out")]
    try:
        proc = subprocess.run([str(BUILD / "perfbench"), *args],
                              timeout=TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
