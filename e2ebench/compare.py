#!/usr/bin/env python3
"""Compares two sets of run_bench.py --all documents, parent and change.

    python3 e2ebench/compare.py --parent p1.json p2.json ... \
        --change c1.json c2.json ...

Arguments may be files or directories of *.json documents. Runs are
paired by position, so list them in the order they were run (alternate
parent and change runs). For each end-to-end metric on each workload it
prints one verdict:

  better      the change wins at least 90% of at least 10 pairs (ties
              count for neither) and the medians differ by more than the
              parent's interquartile range
  worse       the change's median is worse than the parent's by more
              than the metric's bound (a share of the parent's median)
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, and not every change run beats every parent run
  unchanged   otherwise

The exit status is 1 when any pair is worse, else 0. --layers adds the
traced per-layer medians side by side, without verdicts.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """Verdict for one (metric, workload): parent/change are run values."""
    sign = 1 if better == "higher" else -1
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gain = sign * (mc - mp)  # > 0: the change is better
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "better"
    base = abs(mp) if mp else 1.0
    every_run_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if (q3 - q1) / base > bound and not every_run_better:
        return "unresolved"
    if -gain / base > bound:
        return "worse"
    return "unchanged"


def load_docs(paths):
    docs = []
    for p in map(Path, paths):
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        for f in files:
            with open(f, encoding="utf-8") as fh:
                docs.append(json.load(fh))
    return docs


def values(docs, workload, part, metric):
    out = []
    for d in docs:
        m = d["workloads"].get(workload, {}).get(part, {}).get(
            "metrics", {}).get(metric)
        if m is not None and m.get("value") is not None:
            out.append(m["value"])
    return out


def compare(parent, change, spec):
    """Rows of (workload, metric, parent values, change values, verdict)."""
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for m in spec["end_to_end"]:
        for w in workloads:
            a = values(parent, w, "timed", m["name"])
            b = values(change, w, "timed", m["name"])
            if not a or not b:
                rows.append((w, m, a, b, "missing"))
                continue
            rows.append((w, m, a, b,
                         verdict(a, b, m["better"], m["bound"])))
    return rows


def fmt(vals):
    q1, q3 = quartiles(vals)
    return f"{statistics.median(vals):.6g} [{q1:.6g}, {q3:.6g}] n={len(vals)}"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)
    p.add_argument("--spec", default=str(ROOT / "BENCHMARK.json"))
    p.add_argument("--layers", action="store_true",
                   help="also print traced per-layer medians")
    args = p.parse_args(argv)
    with open(args.spec, encoding="utf-8") as f:
        spec = json.load(f)
    parent, change = load_docs(args.parent), load_docs(args.change)

    rows = compare(parent, change, spec)
    for w, m, a, b, v in rows:
        if v == "missing":
            print(f"{w:<14} {m['name']:<14} missing from "
                  f"{'parent' if not a else 'change'} documents")
            continue
        pairs = list(zip(a, b))
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
        mp = statistics.median(a)
        delta = (statistics.median(b) - mp) / abs(mp) * 100 if mp else 0.0
        print(f"{w:<14} {m['name']:<14} parent {fmt(a)}  change {fmt(b)}  "
              f"{delta:+.2f}% (bound {m['bound'] * 100:.0f}%, "
              f"{m['better']} is better) wins {wins}/{len(pairs)}  {v}")
    if args.layers:
        for m in spec["per_layer"]:
            for w in (x["name"] for x in spec["workloads"]):
                a = values(parent, w, "traced", m["name"])
                b = values(change, w, "traced", m["name"])
                if a and b:
                    print(f"layer {w:<14} {m['name']:<38} "
                          f"{statistics.median(a):>12.6g} -> "
                          f"{statistics.median(b):<12.6g} {m['unit']}")
    counts = {}
    for row in rows:
        counts[row[4]] = counts.get(row[4], 0) + 1
    print("summary: " + ", ".join(f"{k} {n}" for k, n in sorted(counts.items())))
    return 1 if counts.get("worse") or counts.get("missing") else 0


if __name__ == "__main__":
    sys.exit(main())
