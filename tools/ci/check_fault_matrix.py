#!/usr/bin/env python3
"""Asserts the fault-containment contract over catchsim JSON exports.

Used by tools/ci/fault_matrix.sh. Five modes:

  --clean clean.json --faulty faulty.json
      The faulty campaign (CATCH_FAULT_INJECT on mcf/tpcc/milc) must
      contain exactly those three failures with the right categories,
      and every other slot's result must be *identical* to the clean
      campaign's (the exporter writes exact u64 and %.17g doubles, so
      JSON equality here is bitwise equality of every counter).

  --clean clean.json --resumed resumed.json [--injected a,b,c]
      The result-store rerun must have re-executed only the failed runs
      (the rest served from the store: exact store_hits/store_misses
      and per-run from_store), succeeded everywhere, and produced
      results identical to the clean campaign.

  --clean clean.json --crashed crashed.json
      A process-isolated campaign with crash injection: every crashed
      slot must be typed (status "crashed", category crashed /
      heartbeat-timeout / exec-fail, no result payload), at least one
      slot must have crashed, the summary must tally them, and every
      surviving slot must be identical to the clean campaign.

  --store suite.json --hits N --misses M [--clean clean.json]
      Result-store accounting: the summary's store_hits/store_misses
      must match exactly and nothing may have failed; with --clean,
      every result must also be identical to the clean campaign
      (store replays are bitwise).

  --clean sampled.json --restored restored.json
      A sampled campaign under the in-memory memo stores (--store
      --profile) listing every workload twice in a row at jobs=1: each
      second copy must have restored its warmed state and chunks from
      the first (warm_state_hits 1, store_hit_chunks > 0), and every
      copy's result must be identical to the storeless campaign's.
"""

import argparse
import json
import sys

# workload -> (status, error category, required message substring).
# The injected hang is driven through the *real* watchdog, so its error
# is the genuine stall-window message, not an "injected" marker.
INJECTED = {
    "mcf": ("failed", "trace-corrupt", "injected"),
    "tpcc": ("failed", "internal", "injected"),
    "milc": ("timed-out", "budget-exceeded", "stall window"),
}


def die(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    by_name = {r["workload"]: r for r in doc["results"]}
    if len(by_name) != len(doc["results"]):
        die(f"{path}: duplicate workload entries")
    return doc, by_name


def check_faulty(clean, faulty):
    cdoc, cruns = load(clean)
    fdoc, fruns = load(faulty)
    if set(cruns) != set(fruns):
        die("clean and faulty campaigns cover different workloads")

    s = fdoc["summary"]
    expect = {
        "total": len(cruns),
        "ok": len(cruns) - len(INJECTED),
        "retried": 0,
        "failed": 2,
        "timed_out": 1,
        "store_hits": 0,
    }
    for key, want in expect.items():
        if s[key] != want:
            die(f"faulty summary {key}={s[key]}, want {want}")

    for name, run in fruns.items():
        if name in INJECTED:
            status, category, needle = INJECTED[name]
            if run["status"] != status:
                die(f"{name}: status {run['status']}, want {status}")
            if "result" in run:
                die(f"{name}: failed run must not carry a result")
            got = run["error"]["category"]
            if got != category:
                die(f"{name}: error category {got}, want {category}")
            if needle not in run["error"]["message"]:
                die(f"{name}: error message lacks '{needle}': "
                    f"{run['error']['message']}")
        else:
            if run["status"] != "ok":
                die(f"{name}: unaffected run has status {run['status']}")
            if run["result"] != cruns[name]["result"]:
                die(f"{name}: unaffected result differs from the "
                    "clean campaign (determinism broken)")
    print(f"faulty campaign OK: {len(INJECTED)} contained failures, "
          f"{expect['ok']} slots bitwise-identical to clean")


def check_resumed(clean, resumed, injected):
    cdoc, cruns = load(clean)
    rdoc, rruns = load(resumed)
    if set(cruns) != set(rruns):
        die("clean and resumed campaigns cover different workloads")

    s = rdoc["summary"]
    want_resumed = len(cruns) - len(injected)
    if s["failed"] or s["timed_out"] or s.get("crashed"):
        die(f"resumed campaign still has failures: {s}")
    if s["store_hits"] != want_resumed:
        die(f"store_hits={s['store_hits']}, want {want_resumed} (only "
            "the failed runs may re-execute)")
    if s["store_misses"] != len(injected):
        die(f"store_misses={s['store_misses']}, want {len(injected)}")

    for name, run in rruns.items():
        want_replay = name not in injected
        if bool(run["from_store"]) != want_replay:
            die(f"{name}: from_store={run['from_store']}, want "
                f"{want_replay}")
        if run["result"] != cruns[name]["result"]:
            die(f"{name}: resumed result differs from the clean "
                "campaign")
    print(f"resumed campaign OK: {want_resumed} replayed, "
          f"{len(injected)} re-executed, all bitwise-identical")


# Error categories a lost worker process may legitimately carry.
CRASH_CATEGORIES = {"crashed", "heartbeat-timeout", "exec-fail"}


def check_crashed(clean, crashed):
    cdoc, cruns = load(clean)
    kdoc, kruns = load(crashed)
    if set(cruns) != set(kruns):
        die("clean and crashed campaigns cover different workloads")

    dead = sorted(n for n, r in kruns.items()
                  if r["status"] == "crashed")
    if not dead:
        die("no crashed slots: the injection selected nobody, so the "
            "matrix cell proves nothing")
    s = kdoc["summary"]
    if s["crashed"] != len(dead):
        die(f"summary crashed={s['crashed']}, want {len(dead)}")
    if s["failed"] or s["timed_out"]:
        die(f"crash campaign has non-crash failures: {s}")

    for name, run in kruns.items():
        if run["status"] == "crashed":
            if "result" in run:
                die(f"{name}: crashed run must not carry a result")
            got = run["error"]["category"]
            if got not in CRASH_CATEGORIES:
                die(f"{name}: crashed run has category '{got}', want "
                    f"one of {sorted(CRASH_CATEGORIES)}")
        elif run["status"] in ("ok", "retried"):
            if run["result"] != cruns[name]["result"]:
                die(f"{name}: surviving slot differs from the clean "
                    "campaign (crash containment broke determinism)")
        else:
            die(f"{name}: unexpected status {run['status']}")
    print(f"crashed campaign OK: {len(dead)} typed crash(es) "
          f"({','.join(dead)}), {len(kruns) - len(dead)} survivors "
          "bitwise-identical to clean")


def check_store(path, hits, misses, clean):
    doc, runs = load(path)
    s = doc["summary"]
    if s["store_hits"] != hits:
        die(f"store_hits={s['store_hits']}, want {hits}")
    if s["store_misses"] != misses:
        die(f"store_misses={s['store_misses']}, want {misses}")
    if s["failed"] or s["timed_out"] or s.get("crashed"):
        die(f"store campaign has failures: {s}")
    served = sum(1 for r in runs.values() if r.get("from_store"))
    if served != hits:
        die(f"{served} runs marked from_store, summary says {hits}")
    if clean:
        cdoc, cruns = load(clean)
        if set(cruns) != set(runs):
            die("store and clean campaigns cover different workloads")
        for name, run in runs.items():
            if run["result"] != cruns[name]["result"]:
                die(f"{name}: store-backed result differs from the "
                    "clean campaign")
    print(f"store campaign OK: {hits} hit(s), {misses} miss(es)")


def check_restored(clean, restored):
    cdoc, cruns = load(clean)
    with open(restored, encoding="utf-8") as f:
        rdoc = json.load(f)
    s = rdoc["summary"]
    if s["failed"] or s["timed_out"] or s.get("crashed"):
        die(f"restored campaign has failures: {s}")
    copies = {}
    for run in rdoc["results"]:
        copies.setdefault(run["workload"], []).append(run)
    if set(copies) != set(cruns):
        die("clean and restored campaigns cover different workloads")
    for name, runs in copies.items():
        if len(runs) != 2:
            die(f"{name}: {len(runs)} copies, want 2")
        perf = runs[1]["hostPerf"]
        if perf["warm_state_hits"] != 1:
            die(f"{name}: second copy warm_state_hits="
                f"{perf['warm_state_hits']}, want 1")
        if perf["store_hit_chunks"] <= 0:
            die(f"{name}: second copy restored no chunk")
        for run in runs:
            if run["result"] != cruns[name]["result"]:
                die(f"{name}: store-restored result differs from the "
                    "storeless campaign")
    print(f"restored campaign OK: {len(copies)} second copies restored "
          "warmed state, all bitwise-identical to storeless")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--clean")
    ap.add_argument("--faulty")
    ap.add_argument("--resumed")
    ap.add_argument("--crashed")
    ap.add_argument("--injected", default=",".join(INJECTED),
                    help="comma-separated workloads the --resumed "
                         "campaign had to re-execute")
    ap.add_argument("--store")
    ap.add_argument("--restored")
    ap.add_argument("--hits", type=int)
    ap.add_argument("--misses", type=int)
    args = ap.parse_args()
    modes = [m for m in (args.faulty, args.resumed, args.crashed,
                         args.store, args.restored) if m]
    if len(modes) != 1:
        ap.error("pass exactly one of --faulty / --resumed / "
                 "--crashed / --store / --restored")
    if args.store:
        if args.hits is None or args.misses is None:
            ap.error("--store needs --hits and --misses")
        check_store(args.store, args.hits, args.misses, args.clean)
        return
    if not args.clean:
        ap.error("this mode needs --clean")
    if args.faulty:
        check_faulty(args.clean, args.faulty)
    elif args.restored:
        check_restored(args.clean, args.restored)
    elif args.crashed:
        check_crashed(args.clean, args.crashed)
    else:
        check_resumed(args.clean, args.resumed,
                      [n for n in args.injected.split(",") if n])


if __name__ == "__main__":
    main()
