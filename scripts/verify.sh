#!/usr/bin/env sh
# Full verification: build, tests, lint gates, the mmdb-check deep
# invariant layer, the kernel-baseline gates and an end-to-end benchmark
# smoke run — with a per-gate PASS/FAIL summary at the end. Exits
# non-zero if any gate fails.
set -u

cd "$(dirname "$0")/.."

SUMMARY=""
FAILED=0

gate() {
    name="$1"
    shift
    echo "==> $name: $*"
    if "$@"; then
        SUMMARY="$SUMMARY
PASS  $name"
    else
        SUMMARY="$SUMMARY
FAIL  $name"
        FAILED=1
    fi
}

# Tier-1: the seed contract.
gate "build-release"     cargo build --release
gate "tier1-tests"       cargo test -q

# Hygiene gates. fmt and clippy fail on any drift; the workspace lint
# table sets clippy::unwrap_used / expect_used to warn, and -D warnings
# promotes them to hard errors for library code here.
gate "fmt"               cargo fmt --check
gate "clippy-D-warnings" cargo clippy --workspace --all-targets -- -D warnings

# Every feature combination must at least typecheck.
gate "check-all-features" cargo check --workspace --all-features

# Workspace invariant linter (DESIGN.md §13): dirty-partition marking,
# lock order, panic-free hot kernels, check-feature gating. Fails on any
# unwaived finding.
gate "lint-invariants"   cargo run --release -q -p mmdb-lint -- --root . --policy mmdb-lint.policy

# Smoke-test the gate itself: inject an unmarked mutation fixture into a
# copy of the storage sources and demand the linter FAILS on it with a
# dirty-mark finding — proving lint-invariants can actually fail.
lint_seeded_smoke() {
    tmp=$(mktemp -d) || return 1
    mkdir -p "$tmp/crates/storage" || return 1
    cp -r crates/storage/src "$tmp/crates/storage/src" || return 1
    cp crates/storage/tests/fixtures/bump_free.rs \
       "$tmp/crates/storage/src/zz_injected_fixture.rs" || return 1
    out=$("./target/release/mmdb-lint" --root "$tmp" --policy mmdb-lint.policy 2>&1)
    status=$?
    rm -rf "$tmp"
    [ "$status" -eq 1 ] || { echo "$out"; echo "expected exit 1, got $status"; return 1; }
    echo "$out" | grep -q "dirty-mark" || { echo "$out"; return 1; }
}
gate "lint-seeded-smoke" lint_seeded_smoke

# Full workspace suite (crate unit tests beyond the root package).
gate "workspace-tests"   cargo test --workspace -q

# The verification layer: check-after-op hooks in the property suites,
# the checker's own self-tests, and the corruption (negative) tests.
gate "deep-check-tests"  cargo test --features check -q
gate "checker-selftests" cargo test -p mmdb-check -q

# Bounded interleaving-explorer smoke: the seeded scheduler must find
# and seed-replay the toy-lock race, and drive the real lock manager
# clean, within its bounded seed budget.
gate "explorer-smoke"    cargo test -p mmdb-check explore -q

# Planner gates: golden explain snapshots (exact plan renderings for
# every join method, pushdown, and reordering) and the accuracy smoke —
# the cost model's chosen method must land within tolerance of the
# fastest measured method (writes results/planner_accuracy.csv).
gate "plan-golden"       cargo test --test plan_explain -q
gate "planner-accuracy"  cargo run --release --example planner_accuracy

# Restart-performance acceptance: the production bulk index build
# (create_index on a loaded table, the path restart rebuilds with) must
# beat the pre-bulk restart loop (tuple-at-a-time reinsertion through an
# adapter that re-locks the relation on every comparison) by >= 2x on a
# 100k-row unique-key rebuild. Part of the margin is the per-comparison
# lock (EXPERIMENTS.md). The full recover_with pipeline is also swept
# across sizes and dop (writes results/recovery_scaling.csv).
gate "recovery-accept"   cargo run --release --example recovery_bench -- --quick

# Crash-recovery torture: scripted workloads over the fault-injecting
# disk, crashed at seeded power-cut points across a bounded seed sweep
# (64 seeds — the CI budget; any failure prints its seed for replay),
# plus the torn-write negative tests and the buggy-manager catch. Half
# the seeds restart through the parallel replay path (seed-derived dop).
gate "recovery-torture"  env MMDB_TORTURE_SEEDS=64 cargo test --test recovery_torture -q

# Multi-session serializability: seeded concurrent transaction schedules
# over the TxnEngine must admit a serial order explaining every committed
# read and the final state (64-seed sweep; MMDB_TXN_SEED replays one),
# plus the guaranteed deadlock-cycle and no-false-positive tests.
gate "txn-serializability" env MMDB_TXN_SEEDS=64 cargo test --test prop_txn -q

# Concurrent-commit crash torture: group commits from racing sessions
# against seeded power cuts; restart must recover exactly the Ok-committed
# set (64 seeds, MMDB_TORTURE_SEED replays one).
gate "txn-torture"       env MMDB_TORTURE_SEEDS=64 cargo test --test recovery_torture concurrent_commit -q

# Fault-injection smoke: the StableStore conformance suite (MemDisk,
# FileDisk, FaultyDisk passthrough) and the log-device counter/retry
# tests under injected flush failures.
gate "inject-smoke"      cargo test -p mmdb-recovery --test stable_store_conformance --test device_faults -q

# Manager-level recovery properties: random commit/abort interleavings
# must restart to exactly the latest-LSN committed images.
gate "prop-recovery"     cargo test --test prop_recovery -q

# Perf-baseline smoke: the quick-mode baseline generator must run and
# emit a file whose keys align with the checked-in BENCH_baseline.json
# (values are wall-clock and expected to move; only structure is gated).
bench_baseline_diff() {
    sh scripts/bench.sh /tmp/mmdb_bench_smoke.json || return 1
    a=$(sed 's/: [0-9]*,*$//' BENCH_baseline.json)
    b=$(sed 's/: [0-9]*,*$//' /tmp/mmdb_bench_smoke.json)
    [ "$a" = "$b" ]
}
gate "bench-baseline"    bench_baseline_diff

# Perf-regression gate: the same fresh quick-mode run, numerically diffed
# against the committed baseline — fails if any tracked kernel (join_4k/,
# dedup_4k/) is more than 25% slower than its baseline cell
# after dividing out the run-wide host-speed factor (median ratio across
# all cells, so a uniformly slower host doesn't flag every kernel). A
# failing pass re-measures in-process and keeps per-key minima before
# giving a verdict.
gate "bench-regress"     ./target/release/bench_baseline --compare BENCH_baseline.json \
                             --fresh /tmp/mmdb_bench_smoke.json

# End-to-end benchmark smoke: builds the stand-alone mmdb-e2e crate
# against the public API, proves its oracle can fail (--self-test), then
# runs all five BENCHMARK.json workloads with the oracle on — the guard
# that an API change here never breaks the benchmark.
gate "e2e-smoke"         benchmark/run.sh --smoke

echo ""
echo "==== verification summary ===="
echo "$SUMMARY" | sed '/^$/d'
exit $FAILED
