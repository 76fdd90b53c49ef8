#!/usr/bin/env bash
# Farm smoke test: a >=100-cell campaign run through `ratsim farm` must
# survive a mid-campaign kill -9 of a worker, resume from the shared
# on-disk cache simulating only the missing cells, and produce JSON and
# CSV reports byte-identical to a single-process `ratsim sweep`. Both
# must share prewarm walks: the sweep walks once per prewarm identity,
# and the resumed farm walks fewer times than it simulates cells.
#
# Usage: farm_smoke.sh /path/to/ratsim
set -u

RATSIM=${1:?usage: farm_smoke.sh /path/to/ratsim}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/ratsim_farm_smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# 2 policies x 2 workloads x 26 seeds = 104 cells.
SEEDS=$(seq -s, 1 26)
GRID=(--policies ICOUNT,RaT --workloads "art,mcf;swim,twolf"
      --seeds "$SEEDS" --measure 400 --warmup 100 --prewarm 2000)

echo "== reference sweep (single process) =="
"$RATSIM" sweep "${GRID[@]}" --jobs 4 \
    --json "$WORK/ref.json" --csv "$WORK/ref.csv" \
    > "$WORK/sweep.log" 2>&1 || fail "reference sweep failed"
grep -q "sweep: 104 cells" "$WORK/sweep.log" \
    || fail "expected a 104-cell grid, got: $(cat "$WORK/sweep.log")"
# The policy is not part of the prewarm identity: 2 workloads x 26
# seeds = 52 identities, each walked once and restored by its other
# policy's cell.
grep -q "prewarm: 52 walks, 52 restores" "$WORK/sweep.log" \
    || fail "sweep did not share prewarm walks: $(cat "$WORK/sweep.log")"

echo "== farm run 1: sole worker killed after 30 cells =="
# --no-respawn: this leg's premise is the abort-then-resume path; with
# respawning (the default) the farm would just heal and finish.
if RATSIM_FARM_TEST_KILL_AFTER=30 "$RATSIM" farm "${GRID[@]}" \
    --workers 1 --no-respawn --cache "$WORK/cache" \
    --json "$WORK/dead.json" --csv "$WORK/dead.csv" \
    > "$WORK/farm1.log" 2>&1; then
    fail "farm must exit non-zero when its only worker is killed"
fi
grep -q "30 simulated" "$WORK/farm1.log" \
    || fail "killed run should land exactly 30 cells: $(cat "$WORK/farm1.log")"
[ ! -e "$WORK/dead.json" ] || fail "aborted farm must not write reports"

echo "== farm run 2: resume on 3 workers =="
"$RATSIM" farm "${GRID[@]}" \
    --workers 3 --cache "$WORK/cache" \
    --json "$WORK/farm.json" --csv "$WORK/farm.csv" \
    > "$WORK/farm2.log" 2>&1 || fail "resume failed: $(cat "$WORK/farm2.log")"
# The resume must reuse every cell the killed run landed and simulate
# only the remainder.
grep -q "farm: 104 cells (74 simulated, 30 from cache, 0 failed stores)" \
    "$WORK/farm2.log" \
    || fail "resume accounting wrong: $(cat "$WORK/farm2.log")"
# Workers keep the prewarm checkpoint of the identity they last walked.
WALKS=$(sed -n 's/^prewarm: \([0-9]*\) walks, [0-9]* restores$/\1/p' \
    "$WORK/farm2.log")
[ -n "$WALKS" ] || fail "no prewarm line: $(cat "$WORK/farm2.log")"
[ "$WALKS" -lt 74 ] \
    || fail "resumed farm walked $WALKS times for 74 cells"

echo "== byte-identity against the reference sweep =="
cmp "$WORK/farm.json" "$WORK/ref.json" || fail "JSON reports differ"
cmp "$WORK/farm.csv" "$WORK/ref.csv" || fail "CSV reports differ"

echo "PASS: farm resumed after kill -9 and matched sweep byte-for-byte"
