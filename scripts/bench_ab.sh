#!/usr/bin/env bash
# Same-window A/B of the end-to-end benchmark, as e2e-bench/README.md
# ("Same-window A/B") describes it: build a base revision and the working
# tree into separate target directories, run PAIRS alternating pairs of one
# workload on the held-out seed 1 (`--seed 1 --trace 0`), then print, per
# end-to-end metric of BENCHMARK.json, each side's median and IQR, how
# many pairs the working tree won, and a 95 % bootstrap confidence interval
# of the relative change of the median.
#
#   scripts/bench_ab.sh [-n PAIRS] [-w WORKLOAD] [BASE]
#
#   -n PAIRS     pairs to run (default 10); odd pairs run base first,
#                even pairs run the working tree first
#   -w WORKLOAD  e2e workload (default scheme-zoo)
#   BASE         revision to compare against (default HEAD~1, the parent of
#                a committed change; pass HEAD to measure uncommitted edits)
#
# Each run is time-boxed to BENCHMARK.json's run_seconds. A metric is
# marked "claim" when the working tree wins at least 90 % of all PAIRS
# pairs (ties, and pairs where either run has no value, count as losses),
# the medians differ by more than the base's IQR, and the working tree has
# no more failed points than the base. The CI does not enter the verdict.
#
# The CI resamples the complete pairs with replacement 2000 times, keeping
# each pair's base and head values together, and computes
# (head median - base median) / base median for each resample. It prints
# the 50th and 1951st of the sorted 2000 values (the percentile bootstrap).
# The draws come from a Park-Miller generator with a fixed seed, restarted
# for every metric, so the same run logs always give the same interval,
# whatever the awk. Everything is written under out/ab/: the base
# checkout (a git worktree, removed on exit), both target directories, one
# log per run and summary.txt. The e2e runs themselves write their JSON
# documents to out/bench/. No RENUCA_* variable may be set (e2e refuses).
set -euo pipefail
cd "$(dirname "$0")/.."

PAIRS=10
WORKLOAD=scheme-zoo
while getopts n:w: opt; do
    case "$opt" in
    n) PAIRS="$OPTARG" ;;
    w) WORKLOAD="$OPTARG" ;;
    *) sed -n '10,16p' "$0" >&2; exit 2 ;;
    esac
done
SECS="$(sed -nE 's/.*"run_seconds": *([0-9]+).*/\1/p' BENCHMARK.json)"
shift $((OPTIND - 1))
BASE_SHA="$(git rev-parse --verify "${1:-HEAD~1}^{commit}")"

OUT="$PWD/out/ab"
WT="$OUT/base-src"
mkdir -p "$OUT/runs"
rm -f "$OUT"/runs/*.txt
git worktree remove --force "$WT" >/dev/null 2>&1 || rm -rf "$WT"
git worktree add --detach --quiet "$WT" "$BASE_SHA"
trap 'git worktree remove --force "$WT" >/dev/null 2>&1 || true' EXIT

# build SRC_DIR SIDE: release-build SRC_DIR's e2e into its own target dir
# and copy the executable to out/ab/SIDE-e2e.
build() {
    CARGO_TARGET_DIR="$OUT/target-$2" cargo build --release --quiet --offline \
        --manifest-path "$1/e2e-bench/Cargo.toml"
    cp "$OUT/target-$2/release/e2e" "$OUT/$2-e2e"
}
echo "building base $(git rev-parse --short "$BASE_SHA") and the working tree"
build "$WT" base
build "$PWD" head

for i in $(seq 1 "$PAIRS"); do
    if ((i % 2)); then order="base head"; else order="head base"; fi
    for side in $order; do
        log="$OUT/runs/$i-$side.txt"
        if ! "$OUT/$side-e2e" --workload "$WORKLOAD" --seed 1 --seconds "$SECS" \
            --trace 0 >"$log" 2>&1; then
            echo "pair $i: $side run exited non-zero (see $log)" >&2
        fi
        echo "pair $i/$PAIRS: $side done"
    done
done

# End-to-end metrics and their direction, read from BENCHMARK.json (only
# end-to-end entries carry a bound).
METRICS="$(grep '"bound"' BENCHMARK.json |
    sed -E 's/.*"name": *"([^"]+)".*"better": *"([^"]+)".*/\1 \2/')"

# One line per run: pair side metric value (the run's median over reps),
# plus the run's failed-point count as metric `failed_points`.
for log in "$OUT"/runs/*.txt; do
    tag="$(basename "$log" .txt)"
    awk -v w="$WORKLOAD" -v pair="${tag%-*}" -v side="${tag#*-}" \
        '$1 == w && NF >= 4 { print pair, side, $2, $3 }' "$log"
done >"$OUT/values.txt"

printf '%s\n' "$METRICS" | awk -v pairs="$PAIRS" -v w="$WORKLOAD" '
# Median and quartiles as statistics.quantiles(v, n=4) (exclusive method),
# the convention of e2e-bench/src/report.rs.
function summarize(v, n,    i, j, k, t, m, d) {
    for (i = 2; i <= n; i++) {
        t = v[i]
        for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
        v[j + 1] = t
    }
    med = (n % 2) ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
    if (n < 2) { q1 = q3 = v[1]; return }
    m = n + 1
    for (k = 1; k <= 3; k += 2) {
        j = int(k * m / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
        d = k * m / 4 - j
        t = v[j] + (v[j + 1] - v[j]) * d
        if (k == 1) q1 = t; else q3 = t
    }
}
# Park-Miller minimal standard generator: every product stays below 2^53,
# so it is exact in awk doubles. Returns a value in (0, 1).
function rnd() {
    seed = (16807 * seed) % 2147483647
    return seed / 2147483647
}
# Percentile-bootstrap 95 % CI of the relative median change over the nb
# complete pairs (bv[i], hv[i]); sets ci_lo and ci_hi (fractions). Call it
# before summarize, which sorts bv and hv in place and breaks the pairs.
function bootstrap(nb,    r, i, j, t, bm) {
    seed = 20160523
    for (r = 1; r <= BOOT; r++) {
        for (i = 1; i <= nb; i++) {
            j = 1 + int(rnd() * nb)
            rb[i] = bv[j]; rh[i] = hv[j]
        }
        summarize(rb, nb); bm = med
        summarize(rh, nb)
        rel[r] = (bm != 0) ? (med - bm) / bm : 0
    }
    for (i = 2; i <= BOOT; i++) {
        t = rel[i]
        for (j = i - 1; j >= 1 && rel[j] > t; j--) rel[j + 1] = rel[j]
        rel[j + 1] = t
    }
    ci_lo = rel[int(BOOT * 0.025)]; ci_hi = rel[BOOT - int(BOOT * 0.025) + 1]
}
BEGIN { BOOT = 2000 }
FNR == NR { better[$1] = $2; order[++nm] = $1; next }
{ val[$3, $2, $1] = $4; seen[$3, $2, $1] = 1 }
END {
    # A gain does not count when the working tree fails more points.
    for (p = 1; p <= pairs; p++) {
        fb += val["failed_points", "base", p]; fh += val["failed_points", "head", p]
    }
    printf "workload %s, %d pairs, seed 1\n", w, pairs
    printf "%-14s %12s %10s %12s %10s %6s  %-20s %s\n", "metric", "base_med", "base_iqr",
        "head_med", "head_iqr", "wins", "ci95_rel_change", "verdict"
    for (k = 1; k <= nm; k++) {
        name = order[k]; nb = nh = wins = 0
        for (p = 1; p <= pairs; p++) {
            if (!seen[name, "base", p] || !seen[name, "head", p]) continue
            b = val[name, "base", p]; h = val[name, "head", p]
            bv[++nb] = b; hv[++nh] = h
            if ((better[name] == "higher") ? h > b : h < b) wins++
        }
        if (nb == 0) { printf "%-14s no complete pairs\n", name; continue }
        bootstrap(nb)
        ci = sprintf("[%+.2f%%, %+.2f%%]", 100 * ci_lo, 100 * ci_hi)
        summarize(bv, nb); bmed = med; biqr = q3 - q1
        summarize(hv, nh); hmed = med; hiqr = q3 - q1
        diff = hmed - bmed; if (diff < 0) diff = -diff
        verdict = (wins >= 0.9 * pairs && diff > biqr && fh <= fb) ? "claim" : "-"
        printf "%-14s %12.4f %10.4f %12.4f %10.4f %3d/%-2d  %-20s %s\n", name, bmed, biqr,
            hmed, hiqr, wins, pairs, ci, verdict
    }
    printf "failed points: base %d, head %d\n", fb, fh
}' - "$OUT/values.txt" | tee "$OUT/summary.txt"
