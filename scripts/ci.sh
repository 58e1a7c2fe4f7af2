#!/usr/bin/env bash
# CI gate for the renuca workspace. Everything here must pass offline —
# the workspace is hermetic (in-tree path crates only, see README).
set -euo pipefail
cd "$(dirname "$0")/.."

# default-members = [".", "crates/*"]: these select every workspace crate.
echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== no compiler warnings =="
# Both builds are cached by now, and cargo replays a cached unit's
# diagnostics, so this sees every warning of the two builds above.
WARN_LOG="$( (cargo build --release && cargo test -q --no-run) 2>&1)"
if printf '%s\n' "$WARN_LOG" | grep -q '^warning'; then
    printf '%s\n' "$WARN_LOG" | grep -A8 '^warning'
    echo "FAIL: the build prints compiler warnings" >&2
    exit 1
fi

echo "== differential smoke: bounded seeded corpus vs the golden model =="
# Fixed seeds, all nine schemes, pow2 and non-pow2 meshes
# (see TESTING.md), plus the per-scheme mutation self-checks. diffcheck
# exits non-zero on any divergence and writes the ddmin-shrunk
# reproducer under out/.
./target/release/diffcheck --quick --out out

echo "== mutant reproducers replay both ways =="
# Each shrunk mutation reproducer must diverge under its injected bug
# (exit 1) and replay clean without it (exit 0).
for trace in out/mutant_*_seed42.trace; do
    rc=0
    ./target/release/diffcheck --replay "$trace" --mutant > /dev/null || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "FAIL: $trace --mutant exited $rc, want 1" >&2
        exit 1
    fi
    ./target/release/diffcheck --replay "$trace" > /dev/null
done

echo "== e2e benchmark correctness gate: seed 0 against expected.txt =="
# The frozen end-to-end benchmark (e2e-bench/) is its own workspace, so
# the tier-1 build above never compiles it. One untraced rep at seed 0
# checks every point's output fingerprint against e2e-bench/expected.txt;
# its last line must say "correct":true. The bench refuses to run while
# any RENUCA_* variable is set, so all of them are unset for this step
# and the speed gate below.
E2E_UNSET=()
for var in $(compgen -e); do
    case "$var" in RENUCA_*) E2E_UNSET+=(-u "$var") ;; esac
done
E2E_LAST="$(env ${E2E_UNSET[@]+"${E2E_UNSET[@]}"} cargo run --release --quiet --offline \
    --manifest-path e2e-bench/Cargo.toml -- --reps 1 --trace 0 | tail -n 1)"
if ! printf '%s\n' "$E2E_LAST" | grep -q '"correct":true'; then
    echo "e2e correctness gate FAILED: $(printf '%s' "$E2E_LAST" | head -c 400)"
    exit 1
fi
echo "e2e correctness gate OK"

echo "== e2e benchmark tests: the shim, report and smoke tests of e2e-bench/ =="
# They compile against the crates' trait surface (the shim wraps every
# LlcPlacement hook, the two-probe one included), and the tier-1 tests
# above never build them, so a hierarchy or trait change could break them
# unseen.
env ${E2E_UNSET[@]+"${E2E_UNSET[@]}"} cargo test --release --offline \
    --manifest-path e2e-bench/Cargo.toml
echo "e2e benchmark tests OK"

echo "== e2e speed gate: same-window A/B of scheme-zoo against the parent =="
# scripts/bench_ab.sh builds the base revision and this tree and runs 5
# alternating pairs of the scheme-zoo workload (all nine schemes). The
# base is the revision this tree changes: HEAD when the tree has
# uncommitted changes, else HEAD~1. Measuring both sides in the same
# window leaves no committed, host-bound baseline to go stale.
#
# A run-time metric fails when the tree wins at most 1 of the 5 pairs AND
# its median is more than 10 % worse than the base's. 10 % is half of the
# 20 % slowdown the gate must catch, and above the worst per-run spread
# (7.6 %) of e2e-bench/README.md's noise study, so noise alone does not
# reach it. The win count keeps one slow window from failing the gate.
if [ -n "$(git status --porcelain)" ]; then AB_BASE=HEAD; else AB_BASE=HEAD~1; fi
if ! git rev-parse --quiet --verify "$AB_BASE^{commit}" >/dev/null; then
    echo "e2e speed gate FAILED: cannot resolve base $AB_BASE (shallow clone?)"
    exit 1
fi
if ! env ${E2E_UNSET[@]+"${E2E_UNSET[@]}"} scripts/bench_ab.sh -n 5 -w scheme-zoo "$AB_BASE"; then
    echo "e2e speed gate FAILED: the A/B did not complete (see out/ab/runs/)"
    exit 1
fi
if ! awk '
    BEGIN { better["sim_mips"] = "higher"; better["warmup_mips"] = "higher"; better["pass_s"] = "lower" }
    $1 in better && $6 ~ /^[0-9]+\/[0-9]+$/ {
        seen[$1] = 1; split($6, w, "/")
        worse = (better[$1] == "higher") ? ($2 - $4) / $2 : ($4 - $2) / $2
        if (w[1] <= 1 && worse > 0.10) {
            printf "%s: %d/%d wins, median %.1f %% worse\n", $1, w[1], w[2], 100 * worse
            bad = 1
        }
    }
    /^failed points:/ { fb = $4 + 0; fh = $6 + 0; pts = 1 }
    END {
        for (m in better) if (!(m in seen)) { print m ": missing from the summary"; bad = 1 }
        if (!pts) { print "failed-points line missing"; bad = 1 }
        else if (fh > fb) { printf "head fails %d points, base %d\n", fh, fb; bad = 1 }
        exit bad
    }' out/ab/summary.txt; then
    echo "e2e speed gate FAILED (out/ab/summary.txt)"
    exit 1
fi
echo "e2e speed gate OK"

echo "== examples: build and run every example =="
# The examples are the public-API drivers of System::run; running them
# (a few seconds together) catches a panic that a build alone cannot.
cargo build --release --examples
for src in examples/*.rs; do
    ex="$(basename "$src" .rs)"
    if ! ./target/release/examples/"$ex" >/dev/null; then
        echo "examples FAILED: $ex exited non-zero"
        exit 1
    fi
done
echo "examples OK"

echo "== rustdoc (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== manifest smoke: --stats emits a schema-conformant run manifest =="
MANIFEST="$(mktemp)"
trap 'rm -f "$MANIFEST"' EXIT
RENUCA_WARMUP=500 RENUCA_MEASURE=2000 \
    ./target/release/fig3 --stats "$MANIFEST" >/dev/null 2>&1
# Top-level keys must appear in the documented order (EXPERIMENTS.md,
# "Observability: run manifests").
if ! grep -qE '^\{"schema":"renuca-manifest-v1","binary":"fig3","label":"[^"]+","version":"[^"]+","budget":\{"warmup":500,"measure":2000\},"config":\{.*\},"stats":\{.*\},"wear_heatmap":\{"unit":"years","rows":\[.*\]\}\}$' \
    "$MANIFEST"; then
    echo "manifest smoke FAILED: $MANIFEST does not match renuca-manifest-v1"
    head -c 400 "$MANIFEST"; echo
    exit 1
fi
echo "manifest smoke OK ($(wc -c < "$MANIFEST") bytes)"

echo "== bank-queue smoke: write bursts queue, the trickle probe does not =="
# Under the asymmetric ReRAM default, the WB saturation study must observe
# bank contention (nonzero read-side queue cycles somewhere in the grid),
# while the single-core trickle probe — which never reads the L3 data
# array — must report exactly zero. Both invariants live in DESIGN.md §12.
RENUCA_WARMUP=2000 RENUCA_MEASURE=8000 \
    ./target/release/wburst --stats "$MANIFEST" >/dev/null 2>&1
if ! grep -qE '"llc\.queue_cycles_total":[1-9][0-9]*' "$MANIFEST"; then
    echo "bank-queue smoke FAILED: wburst saw no queueing under asymmetric default"
    head -c 400 "$MANIFEST"; echo
    exit 1
fi
RENUCA_WARMUP=2000 RENUCA_MEASURE=8000 \
    ./target/release/wburst --trickle --stats "$MANIFEST" >/dev/null 2>&1
if ! grep -qE '"llc\.queue_cycles_total":0[,}]' "$MANIFEST"; then
    echo "bank-queue smoke FAILED: trickle probe reported nonzero queue cycles"
    head -c 400 "$MANIFEST"; echo
    exit 1
fi
echo "bank-queue smoke OK"

echo "== forecast smoke: closed-form lifetime forecast within tolerance =="
# The L2C2 analytical forecast must describe the simulated compressed
# cache on every WL/WB workload: the forecast binary itself exits
# non-zero when any workload's iso-timing error on the lifetime
# aggregates exceeds compress::FORECAST_TOLERANCE (DESIGN.md §15). The
# committed full-budget numbers live in docs/forecast.report.json; this
# runs the same hard gate at a CI-sized budget.
RENUCA_WARMUP=5000 RENUCA_MEASURE=60000 \
    ./target/release/forecast --stats "$MANIFEST" >/dev/null
if ! grep -q '"forecast.max_rel_err"' "$MANIFEST"; then
    echo "forecast smoke FAILED: manifest carries no forecast.max_rel_err"
    head -c 400 "$MANIFEST"; echo
    exit 1
fi
echo "forecast smoke OK"

echo "== campaign smoke: run, lose manifests, resume, verify, byte-compare =="
CAMP_TMP="$(mktemp -d)"
trap 'rm -f "$MANIFEST"; rm -rf "$CAMP_TMP"' EXIT
cat >"$CAMP_TMP/smoke.campaign" <<'EOF'
renuca-campaign-v1
name cismoke
config small 4
budget warmup=50 measure=300
schemes S-NUCA Re-NUCA
workloads 1 2
thresholds 25
EOF
# A job is done iff its manifest is on disk. Run the spec to completion,
# delete the report and K manifests (what an interrupted run leaves), and
# the next `run` must execute exactly those K jobs, pass `verify`, and
# reproduce an uninterrupted run's report byte for byte.
# usage: campaign_resume_smoke <label> <spec> <out dir> <K>
campaign_resume_smoke() {
    local label="$1" spec="$2" out="$3" k="$4"
    RENUCA_THREADS=2 ./target/release/campaign run "$spec" --out "$out/a" >/dev/null 2>&1
    rm "$out/a/report.json"
    local manifests=("$out"/a/jobs/j*.json)
    rm "${manifests[@]:0:$k}"
    RENUCA_THREADS=1 ./target/release/campaign run "$spec" --out "$out/a" \
        >"$out/resume.log" 2>&1
    if ! grep -q ": $k executed," "$out/resume.log"; then
        echo "$label smoke FAILED: resume did not execute exactly $k jobs"
        cat "$out/resume.log"
        exit 1
    fi
    ./target/release/campaign verify "$spec" --out "$out/a" >/dev/null 2>&1
    RENUCA_THREADS=2 ./target/release/campaign run "$spec" --out "$out/b" >/dev/null 2>&1
    if ! cmp -s "$out/a/report.json" "$out/b/report.json"; then
        echo "$label smoke FAILED: resumed report differs from uninterrupted run"
        exit 1
    fi
}
campaign_resume_smoke campaign "$CAMP_TMP/smoke.campaign" "$CAMP_TMP/smoke" 2
# A spec whose `set` override gives an invalid machine must be a spec
# error naming its line — non-zero exit, no panic.
sed 's/^thresholds 25$/set rob_entries 1/' "$CAMP_TMP/smoke.campaign" \
    >"$CAMP_TMP/bad.campaign"
BAD_RC=0
./target/release/campaign status "$CAMP_TMP/bad.campaign" \
    --out "$CAMP_TMP/bad" >/dev/null 2>"$CAMP_TMP/bad.err" || BAD_RC=$?
if [ "$BAD_RC" -eq 0 ] || ! grep -q 'line [0-9]*:' "$CAMP_TMP/bad.err" \
    || grep -q 'panicked' "$CAMP_TMP/bad.err"; then
    echo "campaign smoke FAILED: invalid override rc=$BAD_RC (want non-zero, a line N: error, no panic)"
    cat "$CAMP_TMP/bad.err"
    exit 1
fi
echo "campaign smoke OK ($(wc -c < "$CAMP_TMP/smoke/a/report.json") byte report)"

echo "== head-to-head smoke: competitor campaign run, lose manifests, resume, verify =="
# Same resume/byte-compare discipline over the committed head-to-head
# spec (Re-NUCA vs WEC / Coloring / MAC with the S-NUCA reference, WL
# grid + WB write-burst family). The spec carries no budget line, so the
# environment shrinks it for CI.
export RENUCA_WARMUP=50 RENUCA_MEASURE=300
campaign_resume_smoke head-to-head campaigns/headtohead.campaign "$CAMP_TMP/h2h" 3
unset RENUCA_WARMUP RENUCA_MEASURE
for s in Re-NUCA Re-NUCA-C2 S-NUCA WEC Coloring MAC; do
    if ! grep -q "\"scheme\":\"$s\"" "$CAMP_TMP/h2h/a/report.json"; then
        echo "head-to-head smoke FAILED: scheme $s missing from report"
        exit 1
    fi
done
echo "head-to-head smoke OK ($(wc -c < "$CAMP_TMP/h2h/a/report.json") byte report)"

echo "== formatting =="
cargo fmt --check

echo "CI OK"
