#!/usr/bin/env python3
"""Lint the metric names registered in the C++ sources.

Every counter/gauge/histogram literal registered against the global
MetricsRegistry must

  1. start with the ``gnntrans_`` prefix, so scrapes from several tools on one
     host never collide, and
  2. survive ``sanitize_metric_name`` unchanged ([a-zA-Z0-9_:], non-digit
     first character) — a name that the exporter has to rewrite is a name
     that dashboards can never find under its source spelling,

  3. live in a known second-level namespace (``gnntrans_net_*``,
     ``gnntrans_serving_*``, …) so one-off spellings (``gnntrans_network_``,
     ``gnntrans_serve_``) cannot fragment a metric family across dashboards,
     and

  4. follow the Prometheus suffix convention: counters end in ``_total``,
     gauges and histograms do not.

Names built at runtime from a dynamic suffix (e.g. the per-feature
``"gnntrans_quality_feature_psi_" + name`` gauges) are checked on their
literal prefix, which the concatenation syntax exposes; the suffix rule is
skipped for those since the tail is dynamic.

Run standalone (``python3 tools/check_metric_names.py``) or via ctest
(registered as ``metric_name_lint`` with the ``quality`` label). Exits
non-zero listing every violation.
"""

import pathlib
import re
import sys

# .counter("name"...), .gauge("name"...), .histogram("name"...) — also matches
# a concatenation's literal prefix: .gauge("prefix_" + var ...).
REGISTRATION = re.compile(
    r"\.\s*(counter|gauge|histogram)\s*\(\s*\"((?:[^\"\\]|\\.)*)\"\s*(\+)?",
    re.DOTALL,
)

SANITARY = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

# Known second-level namespaces (gnntrans_<ns>_...). Introducing a new one is
# fine — add it here deliberately, so near-miss spellings don't slip through.
NAMESPACES = (
    "cache", "client", "eco", "golden", "liberty", "net", "nn", "obs",
    "quality", "serving", "spef", "sta", "trace", "train", "verilog",
)

# Registrations that are deliberately hostile or synthetic (tests exercising
# the sanitizer itself, bench fixtures) live under these directories.
EXEMPT_DIRS = ("tests", "bench")


def scan(root: pathlib.Path):
    violations = []
    names = set()
    for path in sorted(root.rglob("*.cpp")) + sorted(root.rglob("*.hpp")):
        rel = path.relative_to(root)
        if rel.parts and rel.parts[0] in EXEMPT_DIRS:
            continue
        if "build" in rel.parts[0]:
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        for match in REGISTRATION.finditer(text):
            kind, name, concatenated = match.group(1), match.group(2), match.group(3)
            line = text.count("\n", 0, match.start()) + 1
            where = f"{rel}:{line}"
            if "\\" in name:
                violations.append(
                    f"{where}: {kind} name {name!r} contains escapes; metric "
                    "names must be plain literals"
                )
                continue
            if not name.startswith("gnntrans_"):
                violations.append(
                    f"{where}: {kind} name {name!r} lacks the gnntrans_ prefix"
                )
            if not SANITARY.fullmatch(name):
                violations.append(
                    f"{where}: {kind} name {name!r} would be rewritten by "
                    "sanitize_metric_name ([a-zA-Z0-9_:] only, non-digit first)"
                )
            if name.startswith("gnntrans_") and not any(
                name.startswith(f"gnntrans_{ns}_") for ns in NAMESPACES
            ):
                violations.append(
                    f"{where}: {kind} name {name!r} is outside every known "
                    "namespace (" + ", ".join(NAMESPACES) + "); add the "
                    "namespace to check_metric_names.py if it is intentional"
                )
            if not concatenated:
                if kind == "counter" and not name.endswith("_total"):
                    violations.append(
                        f"{where}: counter {name!r} must end in _total"
                    )
                if kind != "counter" and name.endswith("_total"):
                    violations.append(
                        f"{where}: {kind} {name!r} must not end in _total "
                        "(reserved for counters)"
                    )
                names.add(name)
    return violations, names


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    violations, names = scan(root)
    if violations:
        print(f"metric name lint: {len(violations)} violation(s)")
        for v in violations:
            print(f"  {v}")
        return 1
    print(f"metric name lint: {len(names)} registered names OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
