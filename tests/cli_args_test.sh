#!/usr/bin/env bash
# Option-value checks of the catchsim CLI: every malformed or
# out-of-range value must exit 2 with the usage text on stderr before
# any simulation starts, and well-formed values must still run.
#
# Usage: cli_args_test.sh <path-to-catchsim-cli>

set -uo pipefail

CLI=${1:?usage: cli_args_test.sh <path-to-catchsim-cli>}
SHORT=(--instr=2000 --warmup=1000)
fails=0

expect_usage() {
    local err rc=0
    err=$("$CLI" "$@" "${SHORT[@]}" mcf 2>&1 >/dev/null) || rc=$?
    if [ "$rc" -ne 2 ] || [[ "$err" != *"usage: catchsim"* ]]; then
        echo "FAIL: $* exited $rc, want 2 with usage text" >&2
        fails=$((fails + 1))
    fi
}

# A well-formed value that makes an invalid configuration: exit 2 with
# the configuration error on stderr.
expect_config_error() {
    local err rc=0
    err=$("$CLI" "$@" "${SHORT[@]}" mcf 2>&1 >/dev/null) || rc=$?
    if [ "$rc" -ne 2 ] || [[ "$err" != *"invalid configuration"* ]]; then
        echo "FAIL: $* exited $rc, want 2 with a configuration error" >&2
        fails=$((fails + 1))
    fi
}

expect_ok() {
    local rc=0
    "$CLI" "$@" mcf >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "FAIL: $* exited $rc, want 0" >&2
        fails=$((fails + 1))
    fi
}

# Each value used to be accepted: strtoull/strtoul read a prefix (or
# nothing) and wrapped negatives, and --config/--tact matched loosely.
# The short lengths come after the bad value so a check that ran the
# simulation would still finish quickly.
expect_usage --instr=abc
expect_usage --instr=
expect_usage --instr=0
expect_usage --instr=+5
expect_usage --instr=99999999999999999999
expect_usage --warmup=1e5
expect_usage --warmup=-1
expect_usage --llc-add=-5
expect_usage --llc-add=4294967296
expect_usage --no-l2=abc
expect_usage --no-l2=0
expect_usage --jobs=0
expect_usage --jobs=2x
expect_usage --sample-interval=20k
expect_usage --sample-window=-2000
expect_usage --sample-warmup=abc
expect_usage --config=bogus
expect_usage --config=
expect_usage --tact=bogus
expect_usage --tact=
expect_usage --tact=cross,,deep
expect_usage --tact=crossdeep

# The sample warmup and window must fit in the interval; a warmup near
# 2^64 used to wrap the sum and pass.
expect_config_error --sample --sample-warmup=30000 --sample-window=1
expect_config_error --sample --sample-warmup=18446744073709551615 \
    --sample-window=1

expect_ok "${SHORT[@]}"
expect_ok --config=client --no-l2=9728 --tact=cross,deep,feeder,code \
    --llc-add=6 --sample --sample-interval=2000 --sample-window=200 \
    --sample-warmup=200 --jobs=1 --instr=4000 --warmup=1000

if [ "$fails" -ne 0 ]; then
    echo "$fails CLI argument check(s) failed" >&2
    exit 1
fi
echo "all CLI argument checks passed"
