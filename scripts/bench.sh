#!/usr/bin/env sh
# Regenerate the quick-mode kernel baseline (BENCH_baseline.json).
#
# Runs the bench_baseline binary: index probe, insert/delete and ordered
# scan, T-Tree attribute descent, and the join and dedup kernels at
# small fixed cardinalities and seeds, best-of-3 timing, sorted JSON
# keys. Two runs produce files that align line-by-line — only the
# measured ns values move — so a regression shows up as a clean numeric
# diff against the checked-in baseline.
#
# The emitted file records host metadata (CPU count, measured per-iter
# noise floor from 3 repeats) alongside the entries, so a reader can
# judge whether a numeric diff clears the machine's jitter.
#
# usage: scripts/bench.sh [OUT_FILE]          (default BENCH_baseline.json)
#        scripts/bench.sh compare [BASELINE]  fresh run diffed against the
#                                             baseline; exits non-zero if a
#                                             tracked kernel regressed >25%
set -eu

cd "$(dirname "$0")/.."

cargo build --release -p mmdb-bench --bin bench_baseline
if [ "${1:-}" = "compare" ]; then
    exec ./target/release/bench_baseline --compare "${2:-BENCH_baseline.json}"
fi
./target/release/bench_baseline --out "${1:-BENCH_baseline.json}"
