#!/usr/bin/env python3
"""Fail if an object file of a static library contains a fused multiply-add.

    check_fp_contract.py ARCHIVE MEMBER [--objdump PATH]

The files whose float kernels must give the same bits at every vector width
and build type are built with -ffp-contract=off: each must round every
product and every sum on its own, or, say, the AVX-512 forward pass of the
inference plan would differ in the last bits from the SSE2 one, which has no
FMA. This disassembles the object MEMBER of the static library ARCHIVE and
exits 1 if any vfmadd, vfmsub, vfnmadd or vfnmsub instruction appears in it,
naming the functions that hold them; also when the member is missing or has
no code. It exits 77, which ctest reports as skipped, when no objdump is
found.

Registered as ctest ``plan_fp_contract_lint`` (plan.cpp.o in
libgnntrans_nn.a) and ``tensor_fp_contract_lint`` (ops.cpp.o in
libgnntrans_tensor.a), label ``quality``.
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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("archive")
    parser.add_argument("member", help="object file inside ARCHIVE, e.g. plan.cpp.o")
    parser.add_argument("--objdump")
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
    if fused:
        print(f"fp_contract_lint: {sum(fused.values())} fused "
              f"multiply-adds in {member}; is -ffp-contract=off lost?")
        for function, n in fused.most_common():
            print(f"  {n:4d}  {function}")
        return 1
    print(f"fp_contract_lint: {count} instructions in {member}, "
          "no fused multiply-add")
    return 0


if __name__ == "__main__":
    sys.exit(main())
