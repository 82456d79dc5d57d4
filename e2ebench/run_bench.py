#!/usr/bin/env python3
"""End-to-end benchmark of the CATCH simulator.

One workload, as BENCHMARK.json's command runs it (the last stdout line
is the result object):

    python3 e2ebench/run_bench.py --workload detailed --seed 1 \
        --seconds 25 --trace 0

Every workload with tracing off, then the traced per-layer run of each,
written to one JSON document (the input of compare.py):

    python3 e2ebench/run_bench.py --all --seed 1 --out results.json

The script builds e2ebench/ (and the simulator sources it compiles) into
$CARGO_TARGET_DIR, default .bench_build/, before running. Each workload
runs in a fresh bench_e2e process. Output is checked before it is
reported: every metric BENCHMARK.json names must be present with its
unit, end-to-end values must be positive, and every operation must have
passed bench_e2e's correctness checks (see README.md).
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["detailed", "sampled-sweep", "campaign", "mp-mix"]
# One invocation must finish within 180 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run_bench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures and builds bench_e2e; returns its path or None."""
    out = build_dir()
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", "bench_e2e",
              "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return out / "bench_e2e"


def run_bench_e2e(binary, workload, seed, seconds, trace, smoke):
    """Runs one bench_e2e process; returns its document or None."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}"]
    if smoke:
        cmd.append("--scale=smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload}: bench_e2e timed out after {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload}: bench_e2e exited with {proc.returncode}")
        return None
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: bench_e2e printed no result document")
        return None


def check_metrics(doc, declared):
    """Problems with @p doc's metrics against the declared ones."""
    problems = []
    got = doc.get("metrics", {})
    for m in declared:
        entry = got.get(m["name"])
        if entry is None:
            problems.append(f"metric {m['name']} missing")
            continue
        if entry.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} has unit "
                            f"{entry.get('unit')}, declared {m['unit']}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {m['name']} is not a number")
        elif "bound" in m and value <= 0:
            problems.append(f"end-to-end metric {m['name']} is {value}")
    return problems


def result_line(doc, declared):
    """The result object printed for one invocation."""
    problems = check_metrics(doc, declared)
    for p in problems:
        log(p)
    metrics = {m["name"]: {"value": doc["metrics"][m["name"]]["value"],
                           "unit": m["unit"]}
               for m in declared if m["name"] in doc.get("metrics", {})}
    return {"correct": bool(doc.get("correct")) and not problems,
            "attempted": int(doc.get("attempted", 0)),
            "failed": int(doc.get("failed", 0)),
            "metrics": metrics}


def run_one(args, spec, binary):
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    doc = run_bench_e2e(binary, args.workload, args.seed, args.seconds,
                     args.trace, False)
    if doc is None:
        return 1
    res = result_line(doc, declared)
    if res["attempted"] < 1:
        log("no operation was attempted")
        return 1
    print(json.dumps(res), flush=True)
    return 0


def run_all(args, spec, binary):
    """Every workload untraced, then every workload traced; one document."""
    seconds = 0 if args.smoke else args.seconds
    out = {"seed": args.seed, "seconds": seconds, "smoke": args.smoke,
           "workloads": {}}
    ok = True
    for trace in (0, 1):
        declared = spec["per_layer"] if trace else spec["end_to_end"]
        for w in WORKLOADS:
            log(f"{w} trace={trace}")
            doc = run_bench_e2e(binary, w, args.seed, seconds, trace, args.smoke)
            if doc is None:
                return 1
            res = result_line(doc, declared)
            ok = ok and res["correct"] and res["failed"] == 0
            out["workloads"].setdefault(w, {})[
                "traced" if trace else "timed"] = doc
    print()
    print(f"{'workload':<14} {'metric':<38} {'value':>13} {'unit':<11} "
          f"{'n':>3} {'q1':>12} {'q3':>12}")
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for w in WORKLOADS:
            doc = out["workloads"][w]["traced" if trace else "timed"]
            for m in declared:
                e = doc["metrics"].get(m["name"])
                if e is None:
                    continue
                print(f"{w:<14} {m['name']:<38} {e['value']:>13.6g} "
                      f"{e['unit']:<11} {e['n']:>3} {e['q1']:>12.6g} "
                      f"{e['q3']:>12.6g}")
    for w in WORKLOADS:
        timed = out["workloads"][w]["timed"]
        traced = out["workloads"][w]["traced"]
        print(f"{w:<14} digest {timed['digest']} ops "
              f"{timed['attempted'] + traced['attempted']} failed "
              f"{timed['failed'] + traced['failed']}")
    out["correct"] = ok
    path = Path(args.out) if args.out else (
        binary.parent / f"results-seed{args.seed}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"{'all outputs correct' if ok else 'SOME OUTPUTS INCORRECT'}; "
          f"wrote {path}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true",
                   help="run every workload, untraced then traced")
    p.add_argument("--smoke", action="store_true",
                   help="--all at tiny lengths (the ctest smoke test)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None,
                   help="measured seconds per run (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="document path for --all")
    p.add_argument("--binary", help="use this bench_e2e instead of building")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be a whole number")

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not args.workload and not (args.all or args.smoke):
        p.error("give --workload, --all or --smoke")

    binary = Path(args.binary) if args.binary else build()
    if binary is None or not binary.exists():
        log("no bench_e2e binary")
        return 1
    if args.workload and not (args.all or args.smoke):
        return run_one(args, spec, binary)
    return run_all(args, spec, binary)


if __name__ == "__main__":
    sys.exit(main())
