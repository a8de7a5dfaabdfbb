#!/usr/bin/env python3
"""Fail if an object file of a static library lost its floating-point pins.

    check_fp_contract.py ARCHIVE MEMBER [--objdump PATH] [--switches-only]

The files whose float kernels must give the same bits at every vector width
and build type are built with -ffp-contract=off: each must round every
product and every sum on its own, or, say, the AVX-512 forward pass of the
inference plan would differ in the last bits from the SSE2 one, which has no
FMA. They are also pinned to -O2, because g++ 12's -O3 (the Release build
type) runs their wide loops 2-3x slower, and they are built with
-frecord-gcc-switches, which keeps the compiler's command line in the object.

This disassembles the object MEMBER of the static library ARCHIVE and exits
1 if any vfmadd, vfmsub, vfnmadd or vfnmsub instruction appears in it, naming
the functions that hold them; also when the member is missing or has no code.
It then reads the member's recorded switches and exits 1 when there are none,
when -ffp-contract=off is not among them, or when their last -O option is
not -O2 (the build type's comes first; the file's pin must win). It exits
77, which ctest reports as skipped, when no objdump is found.

--switches-only skips the search for fused multiply-adds, for a file that
fuses on purpose with intrinsics (the vector exp reproduces glibc's FMA
expf) and must still be built with both pins.

Registered as ctest ``plan_fp_contract_lint`` (plan.cpp.o in
libgnntrans_nn.a), ``tensor_fp_contract_lint`` (ops.cpp.o in
libgnntrans_tensor.a) and ``tensor_exp_switches_lint`` (vector_exp.cpp.o,
--switches-only), label ``quality``.
"""

import argparse
import collections
import os
import re
import shutil
import subprocess
import sys

FUSED = ("vfmadd", "vfmsub", "vfnmadd", "vfnmsub")
SKIP = 77

MEMBER_RE = re.compile(r"^(\S+):\s+file format ")
HEX_ROW_RE = re.compile(r"^ [0-9a-f]+ ((?:[0-9a-f]+ ){1,4})")
SWITCHES_SECTION = ".GCC.command.line"
FUNCTION_RE = re.compile(r"^[0-9a-f]+ <(.+)>:$")
INSN_RE = re.compile(r"^\s*[0-9a-f]+:\s+([a-z][a-z0-9.]*)")


def find_objdump(given):
    if given and os.path.isfile(given) and os.access(given, os.X_OK):
        return given
    return shutil.which("objdump")


def scan(listing, member):
    """(instruction count, {function: fused count}) of member in listing."""
    inside = False
    function = "?"
    count = 0
    fused = collections.Counter()
    for line in listing.splitlines():
        header = MEMBER_RE.match(line)
        if header:
            inside = header.group(1) == member
            continue
        if not inside:
            continue
        name = FUNCTION_RE.match(line)
        if name:
            function = name.group(1)
            continue
        insn = INSN_RE.match(line)
        if insn:
            count += 1
            if insn.group(1).startswith(FUSED):
                fused[function] += 1
    return count, fused


def recorded_switches(dump, member):
    """Switches in member's .GCC.command.line, from an objdump -s listing."""
    inside = False
    data = bytearray()
    for line in dump.splitlines():
        header = MEMBER_RE.match(line)
        if header:
            inside = header.group(1) == member
            continue
        row = HEX_ROW_RE.match(line) if inside else None
        if row:
            data += bytes.fromhex(row.group(1).replace(" ", ""))
    # One NUL-terminated string per switch, or all of them in one.
    return [s for text in data.decode("ascii", "replace").split("\0")
            for s in text.split() if s.startswith("-")]


def switch_problems(switches):
    """What the recorded switches lack; empty when both pins hold."""
    if not switches:
        return [f"no {SWITCHES_SECTION} section; is -frecord-gcc-switches lost?"]
    problems = []
    if "-ffp-contract=off" not in switches:
        problems.append("-ffp-contract=off is not among the recorded switches")
    levels = [s for s in switches if re.fullmatch(r"-O[0-9sgz]*|-Ofast", s)]
    if not levels or levels[-1] != "-O2":
        last = levels[-1] if levels else "none"
        problems.append(f"the last -O switch is {last}, not -O2")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("archive")
    parser.add_argument("member", help="object file inside ARCHIVE, e.g. plan.cpp.o")
    parser.add_argument("--objdump")
    parser.add_argument("--switches-only", action="store_true",
                        help="check the recorded switches, not the code")
    args = parser.parse_args()
    member = args.member

    objdump = find_objdump(args.objdump)
    if objdump is None:
        print("fp_contract_lint: SKIPPED, no objdump on this host")
        return SKIP
    proc = subprocess.run(
        [objdump, "-d", "-C", "--no-show-raw-insn", args.archive],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        print(f"fp_contract_lint: objdump failed: {proc.stderr.strip()}")
        return 1
    count, fused = scan(proc.stdout, member)
    if count == 0:
        print(f"fp_contract_lint: no code for {member} in {args.archive}")
        return 1
    if fused and not args.switches_only:
        print(f"fp_contract_lint: {sum(fused.values())} fused "
              f"multiply-adds in {member}; is -ffp-contract=off lost?")
        for function, n in fused.most_common():
            print(f"  {n:4d}  {function}")
        return 1
    proc = subprocess.run(
        [objdump, "-s", "-j", SWITCHES_SECTION, args.archive],
        capture_output=True, text=True, check=False)
    switches = recorded_switches(proc.stdout, member)
    problems = switch_problems(switches)
    if problems:
        for problem in problems:
            print(f"fp_contract_lint: {member}: {problem}")
        print(f"  recorded: {' '.join(switches) or '(nothing)'}")
        return 1
    if args.switches_only:
        print(f"fp_contract_lint: {member} built with -ffp-contract=off at -O2 "
              f"({count} instructions, {sum(fused.values())} fused on purpose)")
    else:
        print(f"fp_contract_lint: {count} instructions in {member}, "
              "no fused multiply-add; built with -ffp-contract=off at -O2")
    return 0


if __name__ == "__main__":
    sys.exit(main())
