#!/usr/bin/env bash
# Crash-safety gate for journaled sweeps: SIGKILL a journaled tmu_run
# mid-sweep, resume from the journal, and require the resumed
# JSON/CSV exports to be byte-identical to an uninterrupted reference
# run of the same sweep.
#
# Workload choice: SpMV,SpKAdd,PR,SpMSpM at scale 512 / cores 2 is the
# determinism-checked CI configuration; it is long enough to land the
# kill between journal records on any realistic host.
set -u

TMU_RUN="${1:?usage: kill_resume_test.sh <path-to-tmu_run>}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

ARGS=(--workload SpMV,SpKAdd,PR,SpMSpM --scale 512 --cores 2
      --jobs 1 --quiet)

echo "== reference run (uninterrupted)"
"$TMU_RUN" "${ARGS[@]}" \
    --stats-json "$WORK/ref.json" --stats-csv "$WORK/ref.csv" \
    || { echo "FAIL: reference run exited $?"; exit 1; }

echo "== journaled run, SIGKILL after the first record lands"
"$TMU_RUN" "${ARGS[@]}" --journal "$WORK/journal.jsonl" \
    --stats-json "$WORK/got.json" --stats-csv "$WORK/got.csv" &
pid=$!

# Wait for header + at least one task record, then kill -9: no signal
# handler runs, so this exercises the torn-tail tolerance for real.
killed=0
for _ in $(seq 1 1200); do
    lines=$(wc -l < "$WORK/journal.jsonl" 2>/dev/null || echo 0)
    if [ "${lines:-0}" -ge 2 ]; then
        kill -9 "$pid" 2>/dev/null && killed=1
        break
    fi
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.05
done
wait "$pid" 2>/dev/null
if [ "$killed" = 1 ]; then
    echo "   killed pid $pid with $(wc -l < "$WORK/journal.jsonl") journal line(s) on disk"
else
    echo "   note: sweep finished before the kill; resume degenerates to full replay"
fi

echo "== resume from the journal"
"$TMU_RUN" "${ARGS[@]}" --resume "$WORK/journal.jsonl" \
    --stats-json "$WORK/got.json" --stats-csv "$WORK/got.csv" \
    || { echo "FAIL: resume run exited $?"; exit 1; }

echo "== compare resumed exports against the reference"
cmp "$WORK/ref.json" "$WORK/got.json" \
    || { echo "FAIL: resumed JSON differs from the reference"; exit 1; }
cmp "$WORK/ref.csv" "$WORK/got.csv" \
    || { echo "FAIL: resumed CSV differs from the reference"; exit 1; }

echo "PASS: resumed exports are byte-identical to the reference"
