#!/usr/bin/env bash
# Verify smoke test: `ratsim verify` on the MIX2 pair under RaT must
# find the full host-side mode grid (the cycle-skip-off leg and the
# prewarm-restore leg against the skip-on reference: 2 legs per
# variant, 6 for the three ra-variants) digest-identical — and, with a
# deliberately seeded single-flip mutation, must detect the divergence
# and bisect it to an exact first divergent cycle.
#
# Usage: verify_smoke.sh /path/to/ratsim
set -u

RATSIM=${1:?usage: verify_smoke.sh /path/to/ratsim}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/ratsim_verify_smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

OPTS=(--workload art,gzip --policy RaT
      --measure 4000 --warmup 1000 --prewarm 50000 --digest-window 256)

echo "== clean mode-grid verify (must pass) =="
"$RATSIM" verify "${OPTS[@]}" > "$WORK/clean.log" 2>&1 \
    || fail "clean verify exited non-zero: $(cat "$WORK/clean.log")"
grep -q "verify: mode grid consistent" "$WORK/clean.log" \
    || fail "missing consistency verdict: $(cat "$WORK/clean.log")"
# 3 ra-variants x 2 legs: a leg or variant silently dropped from the
# grid must fail here, not pass with less coverage.
grep -q "verify: mode grid consistent (6 legs" "$WORK/clean.log" \
    || fail "verify grid is not 6 legs: $(cat "$WORK/clean.log")"

echo "== seeded-mutation verify (must fail with a bisected cycle) =="
"$RATSIM" verify "${OPTS[@]}" --mutate-at 1500 \
    > "$WORK/mutated.log" 2>&1
STATUS=$?
[ "$STATUS" -eq 1 ] \
    || fail "mutated verify must exit 1 (detected), got $STATUS: \
$(cat "$WORK/mutated.log")"
grep -q "seeded mutation detected and bisected to cycle" \
    "$WORK/mutated.log" \
    || fail "mutation not bisected: $(cat "$WORK/mutated.log")"
grep -q "exact first divergent cycle" "$WORK/mutated.log" \
    || fail "missing exact-cycle report: $(cat "$WORK/mutated.log")"
# The bisected cycle must be the mutation point + 1 (the flip lands at
# tick start, so the first cycle whose *post-tick* state differs is the
# next one); both dumps must be present for post-mortem.
grep -Eq "bisected to cycle [0-9]+" "$WORK/mutated.log" \
    || fail "no numeric bisected cycle: $(cat "$WORK/mutated.log")"
grep -q -- "--- reference state at cycle" "$WORK/mutated.log" \
    || fail "missing reference state dump"
grep -q -- "--- divergent state at cycle" "$WORK/mutated.log" \
    || fail "missing divergent state dump"

echo "PASS: mode grid consistent clean, seeded mutation bisected"
