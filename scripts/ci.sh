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

echo "== e2e speed gate: same-window A/Bs of scheme-zoo and write-burst against the parent =="
# scripts/bench_ab.sh builds the base revision and this tree and runs 5
# alternating pairs of one workload. The base is the revision this tree
# changes: HEAD when the tree has uncommitted changes, else HEAD~1.
# Measuring both sides in the same window leaves no committed, host-bound
# baseline to go stale. Two workloads, because they load different
# layers: scheme-zoo runs all nine schemes on light L3 traffic, and
# write-burst is the memory side (about 5x scheme-zoo's calendar
# reservations per pass), where a NoC, bank or DRAM slowdown shows.
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
for AB_WORKLOAD in scheme-zoo write-burst; do
    if ! env ${E2E_UNSET[@]+"${E2E_UNSET[@]}"} scripts/bench_ab.sh -n 5 -w "$AB_WORKLOAD" "$AB_BASE"; then
        echo "e2e speed gate FAILED: the $AB_WORKLOAD A/B did not complete (see out/ab/runs/)"
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
        echo "e2e speed gate FAILED on $AB_WORKLOAD (out/ab/summary.txt)"
        exit 1
    fi
    echo "e2e speed gate OK on $AB_WORKLOAD"
done

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
    ./target/release/all fig3 --stats "$MANIFEST" >/dev/null 2>&1
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
# Under the asymmetric ReRAM default, each scheme named below must queue
# (nonzero read-side queue cycles) on the heaviest write-burst mix, WB4;
# at this budget all nine schemes of the WB saturation study do. The
# single-core trickle probe, which never reads the L3 data array, must
# report exactly zero. Both invariants live in DESIGN.md §12.
RENUCA_WARMUP=2000 RENUCA_MEASURE=8000 \
    ./target/release/all wburst --stats "$MANIFEST" >/dev/null 2>&1
for s in Naive S-NUCA Re-NUCA R-NUCA Private WEC Coloring MAC Re-NUCA-C2; do
    if ! grep -qE "\"scheme\.$s\.wb\[4\]\.queue_cycles_total\":[1-9][0-9]*" "$MANIFEST"; then
        echo "bank-queue smoke FAILED: $s saw no bank queueing on WB4"
        head -c 400 "$MANIFEST"; echo
        exit 1
    fi
done
# A scheme-dispatch fault (one scheme built as another) only shows if the
# schemes differ: the seven placements below must each queue a different
# number of WB4 cycles, and compression must move Re-NUCA-C2's WB4 raw
# minimum lifetime off Re-NUCA's. MAC's rows equal S-NUCA's at this
# budget, which evicts no dirty L3 line, so MAC is left out; the
# end_to_end test `mac_replacement_moves_a_run_that_evicts_dirty_l3_lines`
# checks it where one is (TESTING.md, "Smokes that can fail").
wb4_field() { grep -oE "\"scheme\.$1\.wb\[4\]\.$2\":[^,}]*" "$MANIFEST" | cut -d: -f2; }
WB4_QUEUES="$(for s in Naive S-NUCA Re-NUCA R-NUCA Private WEC Coloring; do
    echo "$s $(wb4_field "$s" queue_cycles_total)"; done)"
if ! printf '%s\n' "$WB4_QUEUES" | awk '
    { n++; if ($2 in seen) { print $1 ": same WB4 queue cycles as " seen[$2]; bad = 1 }; seen[$2] = $1 }
    END { exit (n != 7 || bad) }'; then
    echo "bank-queue smoke FAILED: two schemes queue the same WB4 cycles"
    printf '%s\n' "$WB4_QUEUES"
    exit 1
fi
if [ "$(wb4_field Re-NUCA-C2 raw_min_years)" = "$(wb4_field Re-NUCA raw_min_years)" ]; then
    echo "bank-queue smoke FAILED: Re-NUCA-C2 has Re-NUCA's WB4 raw_min_years"
    exit 1
fi
# The probe runs long enough to make at least 500 L3 fills (about 600
# at this budget, in ~20 ms), so a bank model that queued them would show.
RENUCA_WARMUP=200000 RENUCA_MEASURE=1000000 \
    ./target/release/all trickle --stats "$MANIFEST" >/dev/null 2>&1
TRICKLE_FILLS="$(grep -oE '"l3_fills":[0-9]+' "$MANIFEST" | cut -d: -f2)"
if [ "${TRICKLE_FILLS:-0}" -lt 500 ]; then
    echo "bank-queue smoke FAILED: trickle probe made ${TRICKLE_FILLS:-no} L3 fills, want >= 500"
    exit 1
fi
if ! grep -qE '"llc\.queue_cycles_total":0[,}]' "$MANIFEST"; then
    echo "bank-queue smoke FAILED: trickle probe reported nonzero queue cycles"
    head -c 400 "$MANIFEST"; echo
    exit 1
fi
echo "bank-queue smoke OK"

echo "== forecast smoke: closed-form lifetime forecast within tolerance =="
# The L2C2 analytical forecast must describe the simulated compressed
# cache on every WL/WB workload: the forecast study itself exits
# non-zero when any workload's iso-timing error on the lifetime
# aggregates exceeds compress::FORECAST_TOLERANCE (DESIGN.md §15). The
# committed full-budget numbers live in docs/forecast.report.json; this
# runs the same hard gate at a CI-sized budget. A Re-NUCA-C2 built
# without compression fails it (TESTING.md, "Smokes that can fail").
RENUCA_WARMUP=5000 RENUCA_MEASURE=60000 \
    ./target/release/all forecast --stats "$MANIFEST" >/dev/null
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
budget warmup=2000 measure=20000
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
# The byte-compare can only see a fault in the lifetime aggregate or in
# scheme dispatch if the report is not made of capped constants: at this
# budget every raw_min_years must be below the 100-year cap, and S-NUCA
# and Re-NUCA must report a different IPC on each workload.
SMOKE_REPORT="$CAMP_TMP/smoke/a/report.json"
if ! grep -oE '"raw_min_years":[^,]*' "$SMOKE_REPORT" | cut -d: -f2 \
    | awk '{ n++; if ($1 + 0 >= 100) bad = 1 } END { exit (n != 2 || bad) }'; then
    echo "campaign smoke FAILED: a raw_min_years is at the 100-year lifetime cap"
    cat "$SMOKE_REPORT"; echo
    exit 1
fi
if ! grep -oE '"per_workload_ipc":\[[^]]*\]' "$SMOKE_REPORT" | sed -E 's/.*\[(.*)\]/\1/' \
    | awk -F, 'NR == 1 { for (i = 1; i <= NF; i++) a[i] = $i }
               NR == 2 { for (i = 1; i <= NF; i++) if ($i == a[i]) bad = 1 }
               END { exit (NR != 2 || bad) }'; then
    echo "campaign smoke FAILED: S-NUCA and Re-NUCA report the same IPC on a workload"
    cat "$SMOKE_REPORT"; echo
    exit 1
fi
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
# environment sets one: large enough that the schemes' results differ (at
# 50+300, five schemes reported the same IPC row), small enough that the
# 84-job campaign runs in a few seconds.
export RENUCA_WARMUP=2000 RENUCA_MEASURE=20000
campaign_resume_smoke head-to-head campaigns/headtohead.campaign "$CAMP_TMP/h2h" 3
unset RENUCA_WARMUP RENUCA_MEASURE
for s in Re-NUCA Re-NUCA-C2 S-NUCA WEC Coloring MAC; do
    if ! grep -q "\"scheme\":\"$s\"" "$CAMP_TMP/h2h/a/report.json"; then
        echo "head-to-head smoke FAILED: scheme $s missing from report"
        exit 1
    fi
done
# The byte-compare only sees a dispatch fault if the schemes differ: every
# raw_min_years must be below the 100-year cap, Re-NUCA, WEC and Coloring
# must each report an IPC row unlike S-NUCA's, and compression must move
# Re-NUCA-C2's raw minimum lifetime off Re-NUCA's. MAC's rows equal
# S-NUCA's at this budget, which evicts no dirty L3 line (TESTING.md,
# "Smokes that can fail").
H2H_REPORT="$CAMP_TMP/h2h/a/report.json"
h2h_field() { grep -oE "\"$1\":$2" "$H2H_REPORT" | cut -d: -f2- | tr -d '"'; }
if ! paste -d' ' <(h2h_field scheme '"[^"]*"') <(h2h_field raw_min_years '[^,]*') \
    <(h2h_field per_workload_ipc '\[[^]]*\]') | awk '
    { raw[$1] = $2; ipc[$1] = $3; n++
      if ($2 + 0 >= 100) { print $1 ": raw_min_years at the 100-year cap"; bad = 1 } }
    END {
        if (n != 6) { print "want 6 scheme groups, got " n; bad = 1 }
        split("Re-NUCA WEC Coloring", s, " ")
        for (i in s) if (ipc[s[i]] == ipc["S-NUCA"]) { print s[i] ": same IPC row as S-NUCA"; bad = 1 }
        if (raw["Re-NUCA-C2"] == raw["Re-NUCA"]) { print "Re-NUCA-C2: same raw_min_years as Re-NUCA"; bad = 1 }
        exit bad
    }'; then
    echo "head-to-head smoke FAILED"
    cat "$H2H_REPORT"; echo
    exit 1
fi
echo "head-to-head smoke OK ($(wc -c < "$CAMP_TMP/h2h/a/report.json") byte report)"

echo "== formatting =="
cargo fmt --check

echo "CI OK"
