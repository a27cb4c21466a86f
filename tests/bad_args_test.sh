#!/usr/bin/env bash
# Argument gate: tmu_run must reject each bad argument below before it
# prepares any workload — exit 2 (bad arguments), a diagnostic on
# stderr, and no "Preparing" line on stdout. Covers malformed and
# out-of-range numbers, including values past the engine's limits
# that would otherwise reach an assertion, configurations
# SystemConfig::validate() rejects, and --plan-dump names with no
# registered einsum.
set -u

TMU_RUN="${1:?usage: bad_args_test.sh <path-to-tmu_run>}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

CASES=(
    "--cores 0"
    "--sve 100"
    "--cores 2 --mesh 2x2"
    "--scale 0"
    "--scale -5"
    "--scale abc"
    "--lanes 0"
    "--lanes 65"
    "--lanes 0 --plan-dump SpMV"
    "--lanes 65 --plan-dump SpMV"
    "--plan-dump SpAdd"
    "--plan-dump NoSuchWorkload"
    "--storage 63"
    "--cores 3x"
    "--deadline-ms -1"
)

fail=0
for args in "${CASES[@]}"; do
    # shellcheck disable=SC2086  # each case is a list of words
    "$TMU_RUN" --workload SpMV,SpKAdd --scale 2048 --quiet $args \
        > "$WORK/out" 2> "$WORK/err"
    code=$?
    if [ "$code" -ne 2 ]; then
        echo "FAIL [$args]: exit $code, want 2"
        fail=1
    elif [ ! -s "$WORK/err" ]; then
        echo "FAIL [$args]: no diagnostic on stderr"
        fail=1
    elif grep -q '^Preparing' "$WORK/out"; then
        echo "FAIL [$args]: prepared a workload before rejecting"
        fail=1
    else
        echo "ok   [$args]: $(head -n 1 "$WORK/err")"
    fi
done
[ "$fail" = 0 ] && echo "PASS: every bad argument was rejected up front"
exit "$fail"
