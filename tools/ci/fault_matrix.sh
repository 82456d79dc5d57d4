#!/usr/bin/env bash
# End-to-end fault-injection acceptance matrix for the suite executor.
#
# Drives the catchsim CLI the way CI does: a clean campaign, then the
# same campaign with CATCH_FAULT_INJECT forcing one fault of each kind
# into 3 of 7 workloads at two job counts, then a result-store rerun.
# Asserts the containment contract end to end:
#
#   1. the faulty campaign completes with exit code 1 (contained), not
#      a crash or a hang;
#   2. the faulty JSON export is byte-identical at jobs=8 and jobs=16;
#   3. exactly the 3 injected runs fail, with the right categories, and
#      every unaffected slot is bitwise-identical to the clean campaign
#      (tools/ci/check_fault_matrix.py);
#   4. a rerun without injection on the same --result-store
#      re-executes only the 3 failed runs (failures are never stored),
#      serves the other 4 from the store, exits 0, and its results are
#      bitwise-identical to the clean campaign.
#
# Then the process-isolation matrix (--isolate, sim/supervisor.hh):
#
#   5. a clean isolated campaign at jobs=8/16 exits 0 and its export is
#      byte-identical to the in-process clean campaign — cross-mode,
#      cross-worker-count bitwise identity;
#   6. crash-segv injected into ~25% of workers: exit 2, crashed slots
#      typed, survivors bitwise-identical to clean, identical at both
#      job counts;
#   7. exec-fail and heartbeat-stall cells exit 2 (typed at the unit
#      level; here the exit-code contract is what is pinned);
#   8. an OOM-killed campaign with --result-store exits 2,
#      and the resumed rerun re-executes only the dead cell, exits 0,
#      bitwise-identical to clean;
#   9. a result-store resweep: cold run misses every cell, the rerun
#      (in-process mode, same store — the store is mode-agnostic) hits
#      every cell, and a one-knob change (--llc-add) misses every cell
#      again; hit/miss counters asserted from the suite JSON.
#
# Usage: fault_matrix.sh <path-to-catchsim-cli> [workdir]

set -euo pipefail

CLI=${1:?usage: fault_matrix.sh <path-to-catchsim-cli> [workdir]}
WORK=${2:-$(mktemp -d)}
KEEP_WORK=${2:+1}
cleanup() { [ -n "${KEEP_WORK:-}" ] || rm -rf "$WORK"; }
trap cleanup EXIT
mkdir -p "$WORK"

HERE=$(cd "$(dirname "$0")" && pwd)

NAMES=(mcf hmmer omnetpp tpcc milc gobmk hpc.stream)
SPEC='trace-corrupt:mcf;exception:tpcc;hang:milc'
ARGS=(--catch --instr=30000 --warmup=8000)

run_expect() {
    local want=$1
    shift
    local rc=0
    "$@" || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "FAIL: expected exit $want, got $rc: $*" >&2
        exit 1
    fi
}

echo "== clean campaign (jobs=8) =="
run_expect 0 "$CLI" "${ARGS[@]}" --jobs=8 --json="$WORK/clean.json" \
    "${NAMES[@]}"

echo "== faulty campaigns (jobs=8 and jobs=16) =="
for j in 8 16; do
    run_expect 1 env CATCH_FAULT_INJECT="$SPEC" \
        "$CLI" "${ARGS[@]}" --jobs="$j" --json="$WORK/faulty$j.json" \
        "${NAMES[@]}"
done

echo "== job count must not change a byte of the export =="
cmp "$WORK/faulty8.json" "$WORK/faulty16.json"

echo "== containment + bitwise-identical unaffected slots =="
python3 "$HERE/check_fault_matrix.py" \
    --clean "$WORK/clean.json" --faulty "$WORK/faulty8.json"

echo "== stored run with faults, then resume without =="
run_expect 1 env CATCH_FAULT_INJECT="$SPEC" \
    "$CLI" "${ARGS[@]}" --jobs=8 --result-store="$WORK/resume_store" \
    "${NAMES[@]}"
run_expect 0 "$CLI" "${ARGS[@]}" --jobs=8 \
    --result-store="$WORK/resume_store" \
    --json="$WORK/resumed.json" "${NAMES[@]}"
python3 "$HERE/check_fault_matrix.py" \
    --clean "$WORK/clean.json" --resumed "$WORK/resumed.json"

echo "== warm-state snapshot corruption is contained, results identical =="
# Sampled baseline without any store, then a cold sampled campaign that
# populates the on-disk chunk + snapshot tiers (one --store-dir), then a
# rerun (fresh process, so every snapshot comes off disk) with
# state-corrupt injected into every warm-state read. Contract:
# corruption is warn + delete + re-warm — exit 0, and all three exports
# are byte-identical. The store trades only time, never results.
run_expect 0 "$CLI" "${ARGS[@]}" --sample --jobs=8 \
    --json="$WORK/ws_clean.json" "${NAMES[@]}"
run_expect 0 "$CLI" "${ARGS[@]}" --sample --jobs=8 \
    --store-dir="$WORK/ws_store" \
    --json="$WORK/ws_cold.json" "${NAMES[@]}"
run_expect 0 env CATCH_FAULT_INJECT='state-corrupt:warm-state-store' \
    "$CLI" "${ARGS[@]}" --sample --jobs=8 \
    --store-dir="$WORK/ws_store" \
    --json="$WORK/ws_faulty.json" "${NAMES[@]}"
cmp "$WORK/ws_clean.json" "$WORK/ws_cold.json"
cmp "$WORK/ws_clean.json" "$WORK/ws_faulty.json"

echo "== config errors exit 2 before any simulation =="
run_expect 2 "$CLI" "${ARGS[@]}" no-such-workload mcf
run_expect 2 "$CLI" "${ARGS[@]}" --result-store=/dev/null/nested mcf

# ---------------- process-isolated execution matrix ----------------
# Workers re-exec the CLI binary itself (--worker); restarts are
# bounded and unpaced so the crash cells finish quickly.
ISO_ENV=(CATCH_MAX_ATTEMPTS=2 CATCH_BACKOFF_MS=0)

echo "== isolated clean campaigns match in-process byte-for-byte =="
for j in 8 16; do
    run_expect 0 env "${ISO_ENV[@]}" \
        "$CLI" "${ARGS[@]}" --isolate --jobs="$j" \
        --json="$WORK/iso$j.json" "${NAMES[@]}"
done
cmp "$WORK/clean.json" "$WORK/iso8.json"
cmp "$WORK/iso8.json" "$WORK/iso16.json"

echo "== crashed workers are contained and typed (jobs=8 and 16) =="
for j in 8 16; do
    run_expect 2 env "${ISO_ENV[@]}" \
        CATCH_FAULT_INJECT='crash-segv:%25@7' \
        "$CLI" "${ARGS[@]}" --isolate --jobs="$j" \
        --json="$WORK/crash$j.json" "${NAMES[@]}"
done
cmp "$WORK/crash8.json" "$WORK/crash16.json"
python3 "$HERE/check_fault_matrix.py" \
    --clean "$WORK/clean.json" --crashed "$WORK/crash8.json"

echo "== exec failures and heartbeat stalls exit 2 =="
run_expect 2 env "${ISO_ENV[@]}" CATCH_FAULT_INJECT='exec-fail:mcf' \
    "$CLI" "${ARGS[@]}" --isolate --jobs=8 "${NAMES[@]}"
run_expect 2 env "${ISO_ENV[@]}" \
    CATCH_FAULT_INJECT='heartbeat-stall:mcf' \
    CATCH_HEARTBEAT_TIMEOUT_MS=2000 \
    "$CLI" "${ARGS[@]}" --isolate --jobs=8 "${NAMES[@]}"

echo "== OOM-killed campaign resumes through the result store =="
run_expect 2 env "${ISO_ENV[@]}" CATCH_FAULT_INJECT='oom:mcf' \
    "$CLI" "${ARGS[@]}" --isolate --jobs=8 \
    --result-store="$WORK/iso_store" "${NAMES[@]}"
run_expect 0 env "${ISO_ENV[@]}" \
    "$CLI" "${ARGS[@]}" --isolate --jobs=8 \
    --result-store="$WORK/iso_store" \
    --json="$WORK/iso_resumed.json" "${NAMES[@]}"
python3 "$HERE/check_fault_matrix.py" \
    --clean "$WORK/clean.json" --resumed "$WORK/iso_resumed.json" \
    --injected mcf

echo "== result-store resweep re-executes only changed cells =="
N=${#NAMES[@]}
run_expect 0 env "${ISO_ENV[@]}" \
    "$CLI" "${ARGS[@]}" --isolate --jobs=8 \
    --result-store="$WORK/sweep_store" --json="$WORK/sweep1.json" \
    "${NAMES[@]}"
python3 "$HERE/check_fault_matrix.py" --store "$WORK/sweep1.json" \
    --hits 0 --misses "$N" --clean "$WORK/clean.json"
# The store is mode-agnostic: the in-process executor hits the cells an
# isolated campaign persisted.
run_expect 0 "$CLI" "${ARGS[@]}" --jobs=8 \
    --result-store="$WORK/sweep_store" --json="$WORK/sweep2.json" \
    "${NAMES[@]}"
python3 "$HERE/check_fault_matrix.py" --store "$WORK/sweep2.json" \
    --hits "$N" --misses 0 --clean "$WORK/clean.json"
# One knob moves the config digest: every cell is invalidated.
run_expect 0 env "${ISO_ENV[@]}" \
    "$CLI" "${ARGS[@]}" --llc-add=1 --isolate --jobs=8 \
    --result-store="$WORK/sweep_store" --json="$WORK/sweep3.json" \
    "${NAMES[@]}"
python3 "$HERE/check_fault_matrix.py" --store "$WORK/sweep3.json" \
    --hits 0 --misses "$N"

echo "fault matrix: all checks passed"
