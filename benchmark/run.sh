#!/usr/bin/env bash
# One command for the whole benchmark: build the crate offline, prove the
# oracle can fail (--self-test), run the five workloads untraced (end-to-end
# metrics) and then traced (per-layer metrics), print every metric as
# `name unit value`, and write benchmark/out/results-<seed>.json for
# compare.sh. Exits non-zero on any correctness failure.
#
#   benchmark/run.sh [--seed N] [--repeat K] [--seconds S] [--smoke]
#
# --repeat K  run everything K times into the same file, so that compare.sh
#             can tell a difference from the run-to-run spread
# --smoke     a tenth of the rows for a fiftieth of the time (about 1/100 of
#             the ops), done in well under 15 s: a wiring check, not a
#             measurement
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed=1
repeat=1
seconds=15 # run_seconds of BENCHMARK.json
rows=200000
while (($#)); do
    case "$1" in
    --seed) seed=$2 && shift 2 ;;
    --repeat) repeat=$2 && shift 2 ;;
    --seconds) seconds=$2 && shift 2 ;;
    --smoke) seconds=0.3 && rows=20000 && shift ;;
    *) echo "usage: $0 [--seed N] [--repeat K] [--seconds S] [--smoke]" >&2 && exit 2 ;;
    esac
done

bench=(cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" --)
cargo build --release --offline --manifest-path "$here/Cargo.toml"
"${bench[@]}" --self-test

mkdir -p "$here/out"
results="$here/out/results-$seed.json"
status=0
printf '{"seed": %s, "seconds": %s, "rows": %s, "nproc": %s, "runs": [' \
    "$seed" "$seconds" "$rows" "$(nproc)" >"$results"
sep=""
for rep in $(seq 1 "$repeat"); do
    for trace in 0 1; do
        for workload in point_read report_read write_commit mixed_clients restart; do
            out="$("${bench[@]}" --workload "$workload" --seed "$seed" \
                --seconds "$seconds" --trace "$trace" --rows "$rows")"
            printf '%s\n' "$out" | sed '$d' # the metrics, for the reader
            line="$(printf '%s\n' "$out" | tail -n 1)"
            case "$line" in
            '{"correct": true,'*) ;;
            *) echo "FAILED: $workload (trace $trace, repeat $rep): $line" >&2 && status=1 ;;
            esac
            printf '%s\n{"workload": "%s", "trace": %s, "repeat": %s, "result": %s}' \
                "$sep" "$workload" "$trace" "$rep" "$line" >>"$results"
            sep=","
        done
    done
done
printf '\n]}\n' >>"$results"
echo "wrote $results"
exit "$status"
