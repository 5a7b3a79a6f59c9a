#!/usr/bin/env bash
# Snapshots the end-to-end simulator-step microbenchmarks into
# BENCH_*.json files, so observability changes can be checked against the
# <=2% step-rate regression budget. Runs fully offline.
#
#   $1  probes-off snapshot   (default BENCH_telemetry.json)
#   $2  shadow-probe snapshot (default BENCH_shadow.json)
#   $3  batched-loop snapshot (default BENCH_batched.json)
#   $4  checkpoint snapshot   (default BENCH_checkpoint.json)
#   $5  self-profile snapshot (default BENCH_selfprofile.json)
#   $6  state-digest snapshot (default BENCH_digest.json)
#   $7  scenario snapshot     (default BENCH_scenario.json)
#
# Every named snapshot is written or the script fails loudly — a missing
# bench line is a harness regression, not a skippable condition.
#
# The first file records `system_step_1000_ops` (telemetry fully off — the
# budget-carrying number). The second records it next to
# `system_step_1000_shadow` (shadow CTE caches + provenance attached) and
# the measured overhead percentage, which is reported, not budgeted.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_telemetry.json}"
SHADOW_OUT="${2:-BENCH_shadow.json}"
BATCHED_OUT="${3:-BENCH_batched.json}"
CHECKPOINT_OUT="${4:-BENCH_checkpoint.json}"
PROF_OUT="${5:-BENCH_selfprofile.json}"
DIGEST_OUT="${6:-BENCH_digest.json}"
SCENARIO_OUT="${7:-BENCH_scenario.json}"

# The pre-batching baseline comes from the *committed* shadow snapshot
# (falling back to the working-tree copy): this run refreshes the file,
# so reading it afterwards — or after an earlier local run — would
# compare the new number to itself. The committed copy is read by its
# canonical name even when $2 redirects this run's output elsewhere.
FROZEN=$( (git show HEAD:BENCH_shadow.json 2>/dev/null \
        || cat "$SHADOW_OUT" 2>/dev/null || true) \
    | sed -n 's/.*"baseline_median_ns_per_iter": \([0-9.]*\).*/\1/p' | head -1)

echo "== cargo bench --offline --bench micro (end_to_end)" >&2
RAW=$(cargo bench --offline --bench micro 2>&1 | tee /dev/stderr \
    | grep -E "system_(step|restore)_1000|^prof_(phase|overhead_pct) |^digest_overhead_pct ")
BASE=$(echo "$RAW" | grep "system_step_1000_ops")
SHADOW=$(echo "$RAW" | grep "system_step_1000_shadow" || true)

# Bench line format:
#   name  <median> ns/iter (min <min>, max <max>, <n> samples x <iters> iters)
parse() { echo "$1" | sed -n "s/.*$2[[:space:]]*\([0-9.]*\) ns\/iter.*/\1/p"; }
MEDIAN=$(parse "$BASE" ops)
MIN=$(echo "$BASE" | sed -n 's/.*(min \([0-9.]*\).*/\1/p')
MAX=$(echo "$BASE" | sed -n 's/.*max \([0-9.]*\).*/\1/p')

if [ -z "$MEDIAN" ]; then
    echo "bench_snapshot: could not parse bench output:" >&2
    echo "$RAW" >&2
    exit 1
fi

GIT_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

cat > "$OUT" <<JSON
{
  "bench": "system_step_1000_ops",
  "median_ns_per_iter": $MEDIAN,
  "min_ns_per_iter": $MIN,
  "max_ns_per_iter": $MAX,
  "git_rev": "$GIT_REV"
}
JSON
echo "bench_snapshot: wrote $OUT (median $MEDIAN ns/iter)"

SHADOW_MEDIAN=$(parse "$SHADOW" shadow)
if [ -z "$SHADOW_MEDIAN" ]; then
    echo "bench_snapshot: no system_step_1000_shadow line; cannot write $SHADOW_OUT" >&2
    exit 1
fi
OVERHEAD=$(awk -v b="$MEDIAN" -v s="$SHADOW_MEDIAN" \
    'BEGIN { printf "%.2f", (s - b) / b * 100 }')

cat > "$SHADOW_OUT" <<JSON
{
  "bench": "system_step_1000_shadow",
  "baseline_median_ns_per_iter": $MEDIAN,
  "shadow_median_ns_per_iter": $SHADOW_MEDIAN,
  "shadow_overhead_pct": $OVERHEAD,
  "git_rev": "$GIT_REV"
}
JSON
echo "bench_snapshot: wrote $SHADOW_OUT (shadow median $SHADOW_MEDIAN ns/iter, overhead ${OVERHEAD}%)"

# Batched-retirement snapshot: the probes-off number again, plus its
# speedup over the frozen pre-batching baseline recorded in the committed
# BENCH_shadow.json (the `baseline_median_ns_per_iter` field from the
# last per-op-loop snapshot). The ratio carries the optimisation claim;
# the two-MC variant rides along for reference.
if [ -n "$FROZEN" ]; then
    SPEEDUP=$(awk -v f="$FROZEN" -v m="$MEDIAN" 'BEGIN { printf "%.2f", f / m }')
    MC_SEQ=$(parse "$(echo "$RAW" | grep 2mc_seq || true)" 2mc_seq)
    cat > "$BATCHED_OUT" <<JSON
{
  "bench": "system_step_1000_ops",
  "median_ns_per_iter": $MEDIAN,
  "min_ns_per_iter": $MIN,
  "frozen_baseline_ns_per_iter": $FROZEN,
  "speedup_vs_frozen_baseline": $SPEEDUP,
  "two_mc_sequential_ns_per_iter": ${MC_SEQ:-null},
  "git_rev": "$GIT_REV"
}
JSON
    echo "bench_snapshot: wrote $BATCHED_OUT (${SPEEDUP}x vs frozen baseline $FROZEN ns/iter)"
else
    echo "bench_snapshot: no frozen baseline in $SHADOW_OUT; cannot write $BATCHED_OUT" >&2
    exit 1
fi

# Checkpoint-restore snapshot: `system_restore_1000_ops` rewinds to a
# warmed snapshot before every 1000-op step, so its delta against the
# plain step number is the per-resume restore cost. Reported, not
# budgeted — restores happen once per warm-started sweep bin, not per
# step.
RESTORE=$(echo "$RAW" | grep "system_restore_1000_ops" || true)
RESTORE_MEDIAN=$(parse "$RESTORE" restore_1000_ops)
if [ -z "$RESTORE_MEDIAN" ]; then
    echo "bench_snapshot: no system_restore_1000_ops line; cannot write $CHECKPOINT_OUT" >&2
    exit 1
fi
RESTORE_OVERHEAD=$(awk -v b="$MEDIAN" -v r="$RESTORE_MEDIAN" \
    'BEGIN { printf "%.1f", r - b }')

cat > "$CHECKPOINT_OUT" <<JSON
{
  "bench": "system_restore_1000_ops",
  "restore_median_ns_per_iter": $RESTORE_MEDIAN,
  "step_median_ns_per_iter": $MEDIAN,
  "restore_overhead_ns_per_resume": $RESTORE_OVERHEAD,
  "git_rev": "$GIT_REV"
}
JSON
echo "bench_snapshot: wrote $CHECKPOINT_OUT (restore median $RESTORE_MEDIAN ns/iter, +${RESTORE_OVERHEAD} ns over plain step)"

# Self-profile snapshot: `system_step_1000_prof` is the plain step
# loop with the host profiler armed, measured against an interleaved
# prof-off baseline from the same bench (drift-cancelling pairs; the
# bench prints the paired overhead as a `prof_overhead_pct` line). The
# overhead is budgeted at <2% by the `dylect-stats bench-diff
# --max-overhead-pct` gate in tools/verify.sh, and the accumulated
# `prof_phase` lines become phase_* fields — the wall-clock breakdown
# answering where the remaining ns/op go.
PROF=$(echo "$RAW" | grep "system_step_1000_prof " || true)
PROF_MEDIAN=$(parse "$PROF" prof)
PROF_BASE=$(parse "$(echo "$RAW" | grep "system_step_1000_prof_base" || true)" base)
PROF_OVERHEAD=$(echo "$RAW" | sed -n 's/^prof_overhead_pct \(-\{0,1\}[0-9.]*\)$/\1/p' | head -1)
if [ -z "$PROF_MEDIAN" ] || [ -z "$PROF_BASE" ] || [ -z "$PROF_OVERHEAD" ]; then
    echo "bench_snapshot: no system_step_1000_prof lines; cannot write $PROF_OUT" >&2
    exit 1
fi
PHASES=$(echo "$RAW" | awk '/^prof_phase / {
    printf "  \"phase_%s_ns\": %s,\n  \"phase_%s_calls\": %s,\n", $2, $3, $2, $4
}')

cat > "$PROF_OUT" <<JSON
{
  "bench": "system_step_1000_prof",
  "median_ns_per_iter": $PROF_MEDIAN,
  "baseline_median_ns_per_iter": $PROF_BASE,
  "prof_overhead_pct": $PROF_OVERHEAD,
$PHASES
  "git_rev": "$GIT_REV"
}
JSON
echo "bench_snapshot: wrote $PROF_OUT (prof median $PROF_MEDIAN ns/iter, overhead ${PROF_OVERHEAD}%)"

# State-digest snapshot: `system_step_1000_digest` is the plain step
# loop with the digest window clock armed at the default window length,
# against an interleaved digest-off baseline (each on-side sample spans
# more than one window, so the median includes the amortized full-state
# capture cost). Budgeted at <2% by the same bench-diff gate as the
# profiler.
DIGEST=$(parse "$(echo "$RAW" | grep "system_step_1000_digest " || true)" digest)
DIGEST_BASE=$(parse "$(echo "$RAW" | grep "system_step_1000_digest_base" || true)" base)
DIGEST_OVERHEAD=$(echo "$RAW" | sed -n 's/^digest_overhead_pct \(-\{0,1\}[0-9.]*\)$/\1/p' | head -1)
if [ -z "$DIGEST" ] || [ -z "$DIGEST_BASE" ] || [ -z "$DIGEST_OVERHEAD" ]; then
    echo "bench_snapshot: no system_step_1000_digest lines; cannot write $DIGEST_OUT" >&2
    exit 1
fi

cat > "$DIGEST_OUT" <<JSON
{
  "bench": "system_step_1000_digest",
  "median_ns_per_iter": $DIGEST,
  "baseline_median_ns_per_iter": $DIGEST_BASE,
  "digest_overhead_pct": $DIGEST_OVERHEAD,
  "git_rev": "$GIT_REV"
}
JSON
echo "bench_snapshot: wrote $DIGEST_OUT (digest median $DIGEST ns/iter, overhead ${DIGEST_OVERHEAD}%)"

# Scenario snapshot: `system_step_1000_tenants` is the two-tenant
# co-scheduled step loop (one ASID-tagged core per tenant on a shared
# memory side). The gated median stays the plain single-tenant step
# (`baseline_median_ns_per_iter` — bench-diff's fallback key), so the
# trajectory gate keeps tracking the budget-carrying number; the
# two-tenant median and its ratio over the plain step ride along for
# reference, like the shadow overhead.
TENANTS=$(parse "$(echo "$RAW" | grep "system_step_1000_tenants" || true)" tenants)
if [ -z "$TENANTS" ]; then
    echo "bench_snapshot: no system_step_1000_tenants line; cannot write $SCENARIO_OUT" >&2
    exit 1
fi
TENANTS_RATIO=$(awk -v b="$MEDIAN" -v t="$TENANTS" 'BEGIN { printf "%.2f", t / b }')

cat > "$SCENARIO_OUT" <<JSON
{
  "bench": "system_step_1000_tenants",
  "baseline_median_ns_per_iter": $MEDIAN,
  "tenants_median_ns_per_iter": $TENANTS,
  "tenants_per_step_ratio": $TENANTS_RATIO,
  "git_rev": "$GIT_REV"
}
JSON
echo "bench_snapshot: wrote $SCENARIO_OUT (tenants median $TENANTS ns/iter, ${TENANTS_RATIO}x plain step)"
