#!/usr/bin/env python3
"""Throughput-regression gate for the non-gating CI perf job.

Compares a fresh bench_perf run (BENCH_PERF.json) against the
checked-in reference (bench/perf/BENCH_PERF.json) and fails only when
the overall median simulated-kilo-instrs/sec regressed by more than
--tolerance (default 25%). Per-cell regressions are reported but do not
fail the check on their own — single cells are noisy on shared CI
hosts; the overall median is the stable signal.

Absolute throughput differs across machines, so the reference is only a
tripwire against large regressions, not a benchmark target; refresh it
(on the CI host class) when the simulator legitimately gets faster or
slower.

With --sampled, also pairs a sampled-mode document (bench_perf
--mode=sampled) against the current detailed one and reports the
sampled-over-detailed host-throughput speedup per cell plus the median.
The speedup report is informational only — it never fails the check;
docs/PERFORMANCE.md explains why the ceiling on this codebase is modest
(the detailed model is already fast).

--sampled-warm takes a warm-store sampled document (bench_perf
--mode=sampled --store=warm) and reports it the same way: against the
detailed run (the end-to-end memoized speedup) and, when --sampled is
also given, against the cold/plain sampled run (the isolated
memoization win). Informational only, like --sampled.

--warm-state takes a warmed-state sampled document (bench_perf
--mode=sampled --store=warm --warm-state=warm) and reports it against
the detailed run (the end-to-end checkpointed speedup) and, when
--sampled-warm is also given, against the chunk-store-only sampled run
(the isolated warmed-state win on top of chunk memoization).
Informational only, like --sampled. When the document carries per-cell
"warm_state" counters (bench_perf emits them for --warm-state runs),
the global-warmup hit rates are reported alongside the speedups.

Usage: check_perf.py --current BENCH_PERF.json \
                     [--baseline bench/perf/BENCH_PERF.json] \
                     [--sampled BENCH_PERF_SAMPLED.json] \
                     [--sampled-warm BENCH_PERF_SAMPLED_WARM.json] \
                     [--warm-state BENCH_PERF_WARM_STATE.json] \
                     [--tolerance 0.25]

Exit status: 0 within tolerance, 1 regression, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        print(f"check_perf: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if "median_kips_overall" not in doc or "results" not in doc:
        print(f"check_perf: {path} is not a bench_perf document",
              file=sys.stderr)
        sys.exit(2)
    return doc


def cells(doc: dict) -> dict[tuple[str, str], dict]:
    return {(r["workload"], r["config"]): r for r in doc["results"]}


def report_sampled(detailed: dict, sampled: dict,
                   label: str = "sampled vs detailed") -> None:
    """Informational paired-document speedup report; never fails."""
    det_cells = cells(detailed)
    speedups = []
    print(f"{label} (host kinstr/s, informational):")
    for key, s in sorted(cells(sampled).items()):
        d = det_cells.get(key)
        if d is None:
            print(f"  unpaired {key[0]:<12} {key[1]:<30} "
                  f"{s['kips_median']:10.1f} kinstr/s (no paired cell)")
            continue
        speedup = s["kips_median"] / d["kips_median"]
        speedups.append(speedup)
        print(f"  speedup  {key[0]:<12} {key[1]:<30} "
              f"{d['kips_median']:10.1f} -> {s['kips_median']:10.1f} "
              f"({speedup:.2f}x)")
    if speedups:
        speedups.sort()
        n = len(speedups)
        med = (speedups[n // 2] if n % 2
               else 0.5 * (speedups[n // 2 - 1] + speedups[n // 2]))
        print(f"{label} speedup median: {med:.2f}x over {n} cells")


def rate(hits: int, misses: int) -> str:
    total = hits + misses
    if total == 0:
        return "  n/a"
    return f"{100.0 * hits / total:4.0f}%"


def report_warm_state(doc: dict) -> None:
    """Per-cell global-warmup snapshot hit rates.

    Informational; tolerates cells without the "warm_state" object
    (documents from a bench_perf predating the counters, or runs with
    --warm-state=off)."""
    rows = [(k, r["warm_state"]) for k, r in sorted(cells(doc).items())
            if "warm_state" in r]
    if not rows:
        return
    print("warm-state hit rates (global warmup, informational):")
    for (workload, config), w in rows:
        print(f"  {workload:<12} {config:<30} "
              f"{rate(w['hits'], w['misses'])} "
              f"({w['hits']}/{w['hits'] + w['misses']})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    repo = Path(__file__).resolve().parents[2]
    ap.add_argument("--current", type=Path, required=True,
                    help="BENCH_PERF.json from this run")
    ap.add_argument("--baseline", type=Path,
                    default=repo / "bench" / "perf" / "BENCH_PERF.json",
                    help="checked-in reference document")
    ap.add_argument("--sampled", type=Path, default=None,
                    help="bench_perf --mode=sampled document to compare "
                         "against --current (informational)")
    ap.add_argument("--sampled-warm", type=Path, default=None,
                    help="bench_perf --mode=sampled --store=warm "
                         "document; reported against --current and, if "
                         "given, --sampled (informational)")
    ap.add_argument("--warm-state", type=Path, default=None,
                    help="bench_perf --mode=sampled --store=warm "
                         "--warm-state=warm document; reported against "
                         "--current and, if given, --sampled-warm "
                         "(informational)")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional drop in the overall median")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    base_cells = cells(base)
    for key, c in sorted(cells(cur).items()):
        b = base_cells.get(key)
        if b is None:
            print(f"  NEW      {key[0]:<12} {key[1]:<30} "
                  f"{c['kips_median']:10.1f} kinstr/s")
            continue
        ratio = c["kips_median"] / b["kips_median"]
        flag = "SLOWER" if ratio < 1 - args.tolerance else "ok"
        print(f"  {flag:<8} {key[0]:<12} {key[1]:<30} "
              f"{b['kips_median']:10.1f} -> {c['kips_median']:10.1f} "
              f"({ratio:.2f}x)")

    sampled = load(args.sampled) if args.sampled is not None else None
    if sampled is not None:
        report_sampled(cur, sampled)
    warm = None
    if args.sampled_warm is not None:
        warm = load(args.sampled_warm)
        report_sampled(cur, warm, label="warm-store sampled vs detailed")
        if sampled is not None:
            report_sampled(sampled, warm,
                           label="warm-store vs cold-store sampled")
    if args.warm_state is not None:
        wstate = load(args.warm_state)
        report_sampled(cur, wstate,
                       label="warm-state sampled vs detailed")
        if warm is not None:
            report_sampled(warm, wstate,
                           label="warm-state vs chunk-store-only sampled")
        report_warm_state(wstate)

    b = base["median_kips_overall"]
    c = cur["median_kips_overall"]
    ratio = c / b
    print(f"overall median: {b:.1f} -> {c:.1f} kinstr/s ({ratio:.2f}x, "
          f"tolerance {args.tolerance:.0%})")
    if ratio < 1 - args.tolerance:
        print("check_perf: overall median regressed beyond tolerance",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
