#!/usr/bin/env bash
# Exit status of a figure bench: 1 when any of its runs failed, as
# catchsim exits, and 0 when every run finished, so a caller tells a
# partial table from a whole one without parsing stderr. A failed run
# must give exactly 1: an abort's 134 is no pass.
#
# Usage: bench_exit_test.sh <path-to-bench_fig01_remove_l2>

set -uo pipefail

BENCH=${1:?usage: bench_exit_test.sh <path-to-figure-bench>}
unset CATCH_FULL CATCH_JSON CATCH_RESULT_STORE CATCH_FAULT_INJECT
export CATCH_INSTR=20000 CATCH_WARMUP=5000
fails=0

rc=0
out=$(CATCH_FAULT_INJECT='trace-corrupt:mcf' "$BENCH" 2>/dev/null) || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "FAIL: with mcf's runs failing the bench exited $rc, want 1" >&2
    fails=$((fails + 1))
fi
if [[ "$out" != *"GeoMean"* || "$out" != *"workloads left out"* ]]; then
    echo "FAIL: no table over the remaining workloads:" >&2
    echo "$out" >&2
    fails=$((fails + 1))
fi

rc=0
out=$("$BENCH" 2>/dev/null) || rc=$?
if [ "$rc" -ne 0 ] || [[ "$out" == *"left out"* ]]; then
    echo "FAIL: without faults the bench exited $rc, want 0:" >&2
    echo "$out" >&2
    fails=$((fails + 1))
fi

[ "$fails" -eq 0 ]
