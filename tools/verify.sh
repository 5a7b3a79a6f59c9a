#!/usr/bin/env bash
# Tier-1 verification: the hermetic build, the full test suite, and
# formatting. Runs fully offline — a failure here means a fresh checkout
# without network access is broken.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release --offline"
cargo build --release --offline

# `cargo test` must leave the source tree as it found it: no stray crash
# dumps, caches or exports under crates/. Compared before/after so that
# uncommitted edits of one's own do not trip it.
tree_state() {
    if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
        git status --porcelain --untracked-files=all -- crates
    fi
}
TREE_BEFORE=$(tree_state)

echo "== cargo test -q --offline"
cargo test -q --offline

echo "== cargo test leaves crates/ clean"
TREE_AFTER=$(tree_state)
if [ "$TREE_BEFORE" != "$TREE_AFTER" ]; then
    echo "cargo test changed files under crates/:"
    diff <(echo "$TREE_BEFORE") <(echo "$TREE_AFTER") || true
    exit 1
fi

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --all-targets --offline -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

echo "== telemetry smoke: deterministic latency exports diff clean"
# Run the same small deterministic simulation twice with attribution and
# span sampling enabled; every export (series, events, latency histograms,
# trace spans) must be byte-identically reproducible, which dylect-stats
# checks at zero tolerance (exit 1 = drift, exit 3 = missing metric).
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
for run in a b; do
    DYLECT_SPAN_SAMPLE=64 DYLECT_QUICK=1 DYLECT_JOBS=2 \
        cargo run -q --offline --release -p dylect-bench \
        --bin fig_latency_breakdown -- --out "$SMOKE/$run" >/dev/null
done
for f in "$SMOKE"/a/*.jsonl; do
    cargo run -q --offline --release -p dylect-telemetry --bin dylect-stats -- \
        diff "$f" "$SMOKE/b/$(basename "$f")" >/dev/null \
        || { echo "telemetry smoke: $(basename "$f") not reproducible"; exit 1; }
done
for f in "$SMOKE"/a/*.trace.json; do
    cmp -s "$f" "$SMOKE/b/$(basename "$f")" \
        || { echo "telemetry smoke: $(basename "$f") not reproducible"; exit 1; }
done
echo "telemetry smoke: OK"

echo "== shadow smoke: counterfactual exports diff clean"
# Same reproducibility bar for the shadow subsystem: two fig_shadow runs
# (shadow caches, 3C miss classification, page provenance all enabled —
# fig_shadow also asserts compulsory+capacity+conflict == real misses on
# every run) must produce byte-identical exports, including .shadow.jsonl.
for run in a b; do
    DYLECT_SHADOW=1 DYLECT_QUICK=1 DYLECT_JOBS=2 \
        cargo run -q --offline --release -p dylect-bench \
        --bin fig_shadow -- --out "$SMOKE/shadow-$run" >/dev/null
done
for f in "$SMOKE"/shadow-a/*.jsonl; do
    cargo run -q --offline --release -p dylect-telemetry --bin dylect-stats -- \
        diff "$f" "$SMOKE/shadow-b/$(basename "$f")" >/dev/null \
        || { echo "shadow smoke: $(basename "$f") not reproducible"; exit 1; }
done
for f in "$SMOKE"/shadow-a/*.trace.json; do
    cmp -s "$f" "$SMOKE/shadow-b/$(basename "$f")" \
        || { echo "shadow smoke: $(basename "$f") not reproducible"; exit 1; }
done
echo "shadow smoke: OK"

echo "== sharding smoke: worker count leaves the multi-MC ablation byte-identical"
# The multi-MC ablation sweeps 1/2/4 controllers, so DYLECT_JOBS>1 drains
# independent MCs on worker threads *within* each run. Worker count is an
# execution detail; the emitted table must not change by a byte.
DYLECT_QUICK=1 DYLECT_JOBS=1 DYLECT_NO_CACHE=1 \
    cargo run -q --offline --release -p dylect-bench \
    --bin ablation_multimc > "$SMOKE/multimc-seq.tsv"
DYLECT_QUICK=1 DYLECT_JOBS=3 DYLECT_NO_CACHE=1 \
    cargo run -q --offline --release -p dylect-bench \
    --bin ablation_multimc > "$SMOKE/multimc-par.tsv"
cmp -s "$SMOKE/multimc-seq.tsv" "$SMOKE/multimc-par.tsv" \
    || { echo "sharding smoke: worker count changed results"; exit 1; }
echo "sharding smoke: OK"

echo "== checkpoint smoke: repeat runs warm-start from a shared checkpoint"
# First run populates DYLECT_CHECKPOINT_DIR (one .ckpt per warmed config);
# the second run must warm-start from those checkpoints instead of
# re-warming, and still emit a byte-identical table. DYLECT_NO_CACHE keeps
# the report cache out of the way so the second run actually simulates.
CKPT="$SMOKE/ckpt"
DYLECT_QUICK=1 DYLECT_NO_CACHE=1 DYLECT_CHECKPOINT_DIR="$CKPT" \
    cargo run -q --offline --release -p dylect-bench \
    --bin ablation_multimc > "$SMOKE/ckpt-cold.tsv" 2> "$SMOKE/ckpt-cold.log"
grep -q "checkpoint saved" "$SMOKE/ckpt-cold.log" \
    || { echo "checkpoint smoke: cold run saved no checkpoint"; exit 1; }
DYLECT_QUICK=1 DYLECT_NO_CACHE=1 DYLECT_CHECKPOINT_DIR="$CKPT" \
    cargo run -q --offline --release -p dylect-bench \
    --bin ablation_multimc > "$SMOKE/ckpt-warm.tsv" 2> "$SMOKE/ckpt-warm.log"
grep -q "warm-started from checkpoint" "$SMOKE/ckpt-warm.log" \
    || { echo "checkpoint smoke: second run did not warm-start"; exit 1; }
cmp -s "$SMOKE/ckpt-cold.tsv" "$SMOKE/ckpt-warm.tsv" \
    || { echo "checkpoint smoke: warm-start changed results"; exit 1; }
echo "checkpoint smoke: OK"

echo "== selfprofile smoke: profiling on, deterministic exports still diff clean"
# Two fig_selfprofile runs with the host profiler armed: the deterministic
# telemetry exports must stay byte-identical (the dual-clock invariant,
# end to end), while the host-side artifacts (.prof.jsonl, dual trace) are
# wall-clock data — existence and renderability are checked, bytes are not.
for run in a b; do
    DYLECT_PROF=1 DYLECT_QUICK=1 DYLECT_JOBS=2 DYLECT_SPAN_SAMPLE=64 \
        cargo run -q --offline --release -p dylect-bench \
        --bin fig_selfprofile -- --out "$SMOKE/sp-$run" >/dev/null
done
for f in "$SMOKE"/sp-a/*.jsonl; do
    case "$f" in *.prof.jsonl) continue ;; esac
    cargo run -q --offline --release -p dylect-telemetry --bin dylect-stats -- \
        diff "$f" "$SMOKE/sp-b/$(basename "$f")" >/dev/null \
        || { echo "selfprofile smoke: $(basename "$f") not reproducible"; exit 1; }
done
for f in "$SMOKE"/sp-a/*.trace.json; do
    case "$f" in *dual.trace.json) continue ;; esac
    cmp -s "$f" "$SMOKE/sp-b/$(basename "$f")" \
        || { echo "selfprofile smoke: $(basename "$f") not reproducible"; exit 1; }
done
[ -s "$SMOKE/sp-a/selfprofile.prof.jsonl" ] \
    || { echo "selfprofile smoke: no .prof.jsonl written"; exit 1; }
[ -s "$SMOKE/sp-a/omnetpp-dylect.dual.trace.json" ] \
    || { echo "selfprofile smoke: no dual-clock trace written"; exit 1; }
# Write to a file rather than piping into grep -q: the early-exit grep
# would SIGPIPE the still-printing dylect-stats, which pipefail then
# reports as a smoke failure.
cargo run -q --offline --release -p dylect-telemetry --bin dylect-stats -- \
    summary "$SMOKE/sp-a/selfprofile.prof.jsonl" > "$SMOKE/sp-summary.out" \
    || { echo "selfprofile smoke: prof summary failed"; exit 1; }
grep -q "^execute_per_op " "$SMOKE/sp-summary.out" \
    || { echo "selfprofile smoke: prof summary did not render phases"; exit 1; }
echo "selfprofile smoke: OK"

echo "== digest smoke: digest-on exports stay byte-identical to digest-off"
# Re-run the first telemetry smoke's workload with state-digest capture
# armed at a fine window: every deterministic export must not move by a
# byte (digests are write-only observability).
DYLECT_DIGEST=4096 \
    DYLECT_SPAN_SAMPLE=64 DYLECT_QUICK=1 DYLECT_JOBS=2 \
    cargo run -q --offline --release -p dylect-bench \
    --bin fig_latency_breakdown -- --out "$SMOKE/dig" >/dev/null
for f in "$SMOKE"/a/*.jsonl; do
    cargo run -q --offline --release -p dylect-telemetry --bin dylect-stats -- \
        diff "$f" "$SMOKE/dig/$(basename "$f")" >/dev/null \
        || { echo "digest smoke: $(basename "$f") changed with digests on"; exit 1; }
done
# A cache-backed matrix run (fig_latency_breakdown bypasses the report
# cache) must leave a .digest.jsonl stream with at least one window
# record next to each report entry.
DCACHE="$SMOKE/dcache"
DYLECT_DIGEST=4096 DYLECT_CACHE_DIR="$DCACHE" DYLECT_QUICK=1 DYLECT_JOBS=2 \
    cargo run -q --offline --release -p dylect-bench \
    --bin ablation_multimc >/dev/null
DIGEST_STREAM=$(ls "$DCACHE"/*.digest.jsonl 2>/dev/null | head -1)
[ -n "$DIGEST_STREAM" ] \
    || { echo "digest smoke: no .digest.jsonl stream in the cache dir"; exit 1; }
grep -q '"digest": "window"' "$DIGEST_STREAM" \
    || { echo "digest smoke: stream has no window records"; exit 1; }
echo "digest smoke: OK"

echo "== bisect smoke: first-divergence bisection localizes an injected fault"
# fig_divergence --bisect injects one spurious L3-miss count at op 6400
# (inside digest window 2 at its 4096-op window) and must localize it
# from the digest streams alone: first to the window, then via op-level
# replay to the exact op and component; the always-on flight recorder
# must dump a non-empty ring on the mismatch. dylect-stats bisect must
# reach the same verdict from the artifacts with its documented exit
# codes (1 = divergence, 0 = identical).
DIV="$SMOKE/divergence"
DYLECT_QUICK=1 cargo run -q --offline --release -p dylect-bench \
    --bin fig_divergence -- --bisect --out "$DIV" > "$SMOKE/bisect.out" \
    || { echo "bisect smoke: fig_divergence --bisect failed"; cat "$SMOKE/bisect.out"; exit 1; }
grep -q "first diverging window: 2 (component cache)" "$SMOKE/bisect.out" \
    || { echo "bisect smoke: wrong or missing window verdict"; cat "$SMOKE/bisect.out"; exit 1; }
grep -q "first diverging op: 6400 (component cache)" "$SMOKE/bisect.out" \
    || { echo "bisect smoke: wrong or missing op verdict"; cat "$SMOKE/bisect.out"; exit 1; }
DUMP=$(sed -n 's/^flight recorder dumped to //p' "$SMOKE/bisect.out")
[ -n "$DUMP" ] && [ -s "$DUMP" ] \
    || { echo "bisect smoke: flight recorder dump missing or empty"; exit 1; }
grep -q '"kind": "digest_mismatch"' "$DUMP" \
    || { echo "bisect smoke: dump lacks the digest_mismatch event"; exit 1; }
STATS="cargo run -q --offline --release -p dylect-telemetry --bin dylect-stats --"
RC=0
$STATS bisect "$DIV/bisect-base.digest.jsonl" "$DIV/bisect-perturbed.digest.jsonl" \
    > "$SMOKE/bisect-stats.out" || RC=$?
[ "$RC" = 1 ] || { echo "bisect smoke: dylect-stats bisect exit $RC, want 1"; exit 1; }
grep -q 'component `cache`' "$SMOKE/bisect-stats.out" \
    || { echo "bisect smoke: dylect-stats bisect named the wrong component"; exit 1; }
$STATS bisect "$DIV/bisect-base.digest.jsonl" "$DIV/bisect-base.digest.jsonl" >/dev/null \
    || { echo "bisect smoke: identical streams must exit 0"; exit 1; }
echo "bisect smoke: OK"

echo "== scenario smoke: co-scheduled runs diff clean, tenant exports included"
# Two fig_tenants runs of the same full scenario (two tenants, nested 2D
# walks, a phase shift and a pressure squeeze inside the window) must be
# byte-identically reproducible: the printed tables AND the per-tenant
# .tenants.jsonl exports. DYLECT_NO_CACHE keeps the solo baselines
# honest — both runs simulate everything fresh.
for run in a b; do
    DYLECT_SCENARIO='tenants=omnetpp,canneal;nested=1;phase@1024=theta:0.2,hot:0.8;pressure@2048=128' \
        DYLECT_QUICK=1 DYLECT_JOBS=2 DYLECT_NO_CACHE=1 \
        cargo run -q --offline --release -p dylect-bench \
        --bin fig_tenants -- --out "$SMOKE/tenants-$run" > "$SMOKE/tenants-$run.tsv"
done
cmp -s "$SMOKE/tenants-a.tsv" "$SMOKE/tenants-b.tsv" \
    || { echo "scenario smoke: fig_tenants tables not reproducible"; exit 1; }
ls "$SMOKE"/tenants-a/*.tenants.jsonl >/dev/null 2>&1 \
    || { echo "scenario smoke: no .tenants.jsonl exports written"; exit 1; }
for f in "$SMOKE"/tenants-a/*.tenants.jsonl; do
    cmp -s "$f" "$SMOKE/tenants-b/$(basename "$f")" \
        || { echo "scenario smoke: $(basename "$f") not reproducible"; exit 1; }
    grep -q '"slowdown"' "$f" \
        || { echo "scenario smoke: $(basename "$f") has no slowdown rows"; exit 1; }
    grep -q '"finding"' "$f" \
        || { echo "scenario smoke: $(basename "$f") has no interference findings"; exit 1; }
done
echo "scenario smoke: OK"

echo "== bench-diff gate: committed BENCH trajectory within budgets"
# The committed bench-history registry, oldest snapshot first. Gates: the
# newest median step must not regress >25% over its predecessor, and any
# self-profiling or state-digest snapshot must show <2% armed overhead.
cargo run -q --offline --release -p dylect-telemetry --bin dylect-stats -- \
    bench-diff BENCH_latency_attrib.json BENCH_telemetry.json \
    BENCH_batched.json BENCH_checkpoint.json BENCH_selfprofile.json \
    BENCH_digest.json BENCH_scenario.json \
    --gate-rel 0.25 --max-overhead-pct 2.0 \
    || { echo "bench-diff gate: trajectory breached a budget"; exit 1; }
echo "bench-diff gate: OK"

echo "== serve smoke: dylect-serve answers healthz, figure, and diff"
# Serve the telemetry exports from the first smoke on an ephemeral port
# and exercise the HTTP surface with the built-in client: /healthz,
# /figure/<name> (byte-compared against the on-disk artifact), /diff of
# an artifact against its reproduced twin (must be identical => 200),
# and a missing artifact (must be a non-200 status).
SERVE_BIN=target/release/dylect-serve
WWW="$SMOKE/www"
mkdir -p "$WWW/cache"
cp "$SMOKE"/a/*.jsonl "$WWW/"
cp "$SMOKE"/tenants-a/*.tenants.jsonl "$WWW/"
cp "$DCACHE"/*.digest.jsonl "$WWW/cache/"
DYLECT_SERVE_ADDR=127.0.0.1:0 DYLECT_PROF=1 "$SERVE_BIN" "$WWW" \
    > "$SMOKE/serve.out" 2>/dev/null &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$SMOKE"' EXIT
for _ in $(seq 50); do
    grep -q "^listening on " "$SMOKE/serve.out" && break
    sleep 0.1
done
ADDR=$(sed -n 's/^listening on //p' "$SMOKE/serve.out")
[ -n "$ADDR" ] || { echo "serve smoke: server never came up"; exit 1; }
"$SERVE_BIN" get "http://$ADDR/healthz" > "$SMOKE/healthz.out" \
    || { echo "serve smoke: /healthz failed"; exit 1; }
# Skip the tenants exports here: the /diff twin below comes from the
# telemetry smoke's b-run, which has no tenants artifacts.
FIG=$(basename "$(ls "$WWW"/*.jsonl | grep -v '\.tenants\.jsonl$' | head -1)")
"$SERVE_BIN" get "http://$ADDR/figure/$FIG" > "$SMOKE/figure.out" \
    || { echo "serve smoke: /figure/$FIG failed"; exit 1; }
cmp -s "$SMOKE/figure.out" "$WWW/$FIG" \
    || { echo "serve smoke: /figure/$FIG differs from on-disk artifact"; exit 1; }
cp "$SMOKE/b/$FIG" "$WWW/twin-$FIG"
"$SERVE_BIN" get "http://$ADDR/diff?a=$FIG&b=twin-$FIG" > "$SMOKE/diff.out" \
    || { echo "serve smoke: /diff reported drift between identical runs"; exit 1; }
if "$SERVE_BIN" get "http://$ADDR/figure/no-such-artifact.jsonl" >/dev/null 2>&1; then
    echo "serve smoke: missing artifact did not 404"; exit 1
fi
# /metrics must be well-formed Prometheus text with the full phase-timer
# schema (every phase series present even at zero) and request counters —
# the serve_request timer is live because the server runs with
# DYLECT_PROF=1. /runs answers even with no progress markers.
"$SERVE_BIN" get "http://$ADDR/metrics" > "$SMOKE/metrics.out" \
    || { echo "serve smoke: /metrics failed"; exit 1; }
for series in dylect_serve_requests_total dylect_prof_phase_ns_total \
    dylect_prof_phase_calls_total dylect_runs_total; do
    grep -q "^$series" "$SMOKE/metrics.out" \
        || { echo "serve smoke: /metrics missing $series"; exit 1; }
done
grep -q 'dylect_prof_phase_ns_total{phase="serve_request"}' "$SMOKE/metrics.out" \
    || { echo "serve smoke: /metrics missing serve_request phase"; exit 1; }
"$SERVE_BIN" get "http://$ADDR/runs" >/dev/null \
    || { echo "serve smoke: /runs failed"; exit 1; }
# /digest/<cache-stem> must serve the runner's digest stream byte-for-byte
# (suffix optional), and /metrics must count its windows.
DSTREAM=$(ls "$WWW"/cache/*.digest.jsonl | head -1)
DSTEM=$(basename "$DSTREAM" .digest.jsonl)
"$SERVE_BIN" get "http://$ADDR/digest/$DSTEM" > "$SMOKE/digest.out" \
    || { echo "serve smoke: /digest/$DSTEM failed"; exit 1; }
cmp -s "$SMOKE/digest.out" "$DSTREAM" \
    || { echo "serve smoke: /digest/$DSTEM differs from on-disk stream"; exit 1; }
grep -q "dylect_digest_windows{artifact=\"$DSTEM.digest.jsonl\"}" "$SMOKE/metrics.out" \
    || { echo "serve smoke: /metrics missing dylect_digest_windows gauge"; exit 1; }
# The fig_tenants exports must surface as per-tenant slowdown gauges and
# be fetchable as ordinary artifacts.
TEN=$(basename "$(ls "$WWW"/*.tenants.jsonl | head -1)")
"$SERVE_BIN" get "http://$ADDR/figure/$TEN" > "$SMOKE/tenfig.out" \
    || { echo "serve smoke: /figure/$TEN failed"; exit 1; }
cmp -s "$SMOKE/tenfig.out" "$WWW/$TEN" \
    || { echo "serve smoke: /figure/$TEN differs from on-disk artifact"; exit 1; }
grep -q "dylect_tenant_slowdown{artifact=\"$TEN\"" "$SMOKE/metrics.out" \
    || { echo "serve smoke: /metrics missing dylect_tenant_slowdown gauge"; exit 1; }
kill "$SERVE_PID" 2>/dev/null || true
echo "serve smoke: OK"

echo "verify: OK"
