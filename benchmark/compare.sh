#!/usr/bin/env bash
# Judge two result files of run.sh by the bounds in BENCHMARK.json:
#
#   benchmark/compare.sh BASE.json NEW.json
#
# One row per workload x end-to-end metric (both medians, NEW / BASE, each
# side's run-to-run spread, the bound, the verdict), then the exact-count
# per-layer metrics of the one-client workloads. Exits non-zero on a
# regression, on more failed ops in NEW, or on a count that does not repeat
# within one file. See src/compare.rs for the rules.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
[ $# -eq 2 ] || { echo "usage: $0 BASE.json NEW.json" >&2 && exit 2; }
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- --compare "$1" "$2"
