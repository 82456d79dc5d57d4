#!/usr/bin/env python3
"""Prints each e2ebench workload's result digest on two sides of a change.

Usage: digest_drift.py base.json head.json

Both arguments are `e2ebench/run_bench.py --all --out` documents. Each
workload's `workloads.<w>.timed.digest` hashes the simulated results
that run produced, so a digest that moves means the change altered
what the simulator computes, not only how fast. One line per workload
reads `unchanged` or `CHANGED`; a workload present on one side only is
`CHANGED` with `-` for the missing digest. Advisory: the exit status is
0 whenever both documents parse, so drift is shown, never gated.
"""

from __future__ import annotations

import json
import sys


def digests(doc: dict) -> dict[str, str]:
    """Workload name -> timed-run digest."""
    return {w: d.get("timed", {}).get("digest", "-")
            for w, d in doc.get("workloads", {}).items()}


def drift_lines(base: dict, head: dict) -> list[str]:
    b, h = digests(base), digests(head)
    lines = []
    for w in sorted(set(b) | set(h)):
        old, new = b.get(w, "-"), h.get(w, "-")
        verdict = "unchanged" if old == new and old != "-" else "CHANGED"
        lines.append(f"{w:<14} {old:<18} {new:<18} {verdict}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    docs = []
    for path in argv[1:]:
        with open(path, encoding="utf-8") as f:
            docs.append(json.load(f))
    print(f"{'workload':<14} {'base digest':<18} {'head digest':<18} verdict")
    for line in drift_lines(*docs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
