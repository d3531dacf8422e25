//! Restart-performance acceptance bench (DESIGN.md §16).
//!
//! Two measurements:
//!
//! 1. **Bulk vs tuple-at-a-time index rebuild** over the same 100k-row
//!    relation: the run-sort + bottom-up T-Tree build restart now uses
//!    against the pre-§16 restart loop, per-tuple `insert(tid)` through
//!    an adapter that re-locks the relation on every comparison. The
//!    bulk path must win by ≥ 2x (`verify.sh` runs this as the
//!    `recovery-accept` gate). Part of that margin is the per-comparison
//!    lock, not the algorithm: the same tuple loop under one held guard
//!    measured 1.5–2.7x slower than the bulk build (EXPERIMENTS.md).
//! 2. **Time-to-ready vs database size vs dop** through the full
//!    `CrashedDatabase::recover_with` pipeline (catalog, working set,
//!    background, index rebuild), written to
//!    `results/recovery_scaling.csv`.
//!
//! ```sh
//! cargo run --release --example recovery_bench [--quick]
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout)]

use mmdb_bench::indexes::shuffled_keys;
use mmdb_bench::time_best;
use mmdb_core::{Database, IndexKind, RecoveryReport};
use mmdb_exec::ExecConfig;
use mmdb_index::adapter::Adapter;
use mmdb_index::sort::run_sort;
use mmdb_index::stats::Counters;
use mmdb_index::traits::OrderedIndex;
use mmdb_index::{TTree, TTreeConfig};
use mmdb_storage::{
    AttrAdapter, AttrType, KeyValue, OwnedValue, PartitionConfig, Relation, Schema, TupleId,
};
use parking_lot::RwLock;
use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// T-Tree node size (the workload suites' fixed choice).
const NODE_SIZE: usize = 30;
/// The restart path's sort-kernel run length.
const RUN_LEN: usize = 16_384;
/// Rebuild-contest cardinality (the acceptance criterion's 100k).
const REBUILD_N: usize = 100_000;
/// Required bulk-over-tuple speedup.
const REQUIRED_SPEEDUP: f64 = 2.0;

fn ms(secs: f64) -> f64 {
    secs * 1e3
}

/// The pre-§16 engine adapter, kept as the gate's reference: it owns a
/// handle to the relation and takes `rel.read()` on every comparison and
/// tag.
struct RelockAdapter {
    rel: Arc<RwLock<Relation>>,
    attr: AttrAdapter,
}

impl Adapter for RelockAdapter {
    type Entry = TupleId;
    type Key = KeyValue;
    type Ctx<'c> = ();

    fn cmp_entries(&self, (): (), a: &TupleId, b: &TupleId) -> Ordering {
        self.attr.cmp_entries(&self.rel.read(), a, b)
    }

    fn cmp_entry_key(&self, (): (), e: &TupleId, key: &KeyValue) -> Ordering {
        self.attr.cmp_entry_key(&self.rel.read(), e, key)
    }

    fn entry_tag(&self, (): (), e: &TupleId) -> u64 {
        self.attr.entry_tag(&self.rel.read(), e)
    }

    fn key_tag(&self, (): (), key: &KeyValue) -> u64 {
        key.order_tag()
    }
}

/// Part 1: rebuild one T-Tree over a shared 100k-row relation both ways.
fn rebuild_contest() -> (f64, f64) {
    let mut rel = Relation::new(
        "r",
        Schema::of(&[("k", AttrType::Int)]),
        PartitionConfig::default(),
    );
    for k in shuffled_keys(REBUILD_N, 11) {
        rel.insert(&[OwnedValue::Int(k as i64)]).expect("insert");
    }
    let rel = Arc::new(RwLock::new(rel));

    // The pre-§16 restart loop: per-tuple insertion through the adapter,
    // re-locking the relation on every comparison.
    let ((), tuple_secs) = time_best(3, || {
        let adapter = RelockAdapter {
            rel: Arc::clone(&rel),
            attr: AttrAdapter::new(0),
        };
        let mut t = TTree::new(adapter, TTreeConfig::with_node_size(NODE_SIZE));
        for tid in rel.read().iter_tids() {
            t.insert((), tid);
        }
        assert_eq!(t.len(), REBUILD_N);
    });

    // The bulk path: snapshot (tag, tid) under one read guard, run-sort,
    // build bottom-up at target occupancy.
    let ((), bulk_secs) = time_best(3, || {
        let r = rel.read();
        let adapter = AttrAdapter::new(0);
        let mut tagged: Vec<(u64, TupleId)> = r
            .iter_tids()
            .map(|tid| (adapter.entry_tag(&r, &tid), tid))
            .collect();
        let counters = Counters::default();
        run_sort(&mut tagged, RUN_LEN, &counters, &mut |a, b| {
            a.0.cmp(&b.0)
                .then_with(|| adapter.cmp_entries(&r, &a.1, &b.1))
        });
        let config = TTreeConfig::with_node_size(NODE_SIZE);
        let t = TTree::build_from_sorted(adapter, &r, config, tagged);
        assert_eq!(t.len(), REBUILD_N);
    });
    (tuple_secs, bulk_secs)
}

/// Build an `n`-row database (T-Tree + hash index), checkpoint, crash.
fn build_and_crash(n: usize) -> mmdb_core::CrashedDatabase<mmdb_recovery::MemDisk> {
    let mut db = Database::in_memory();
    db.create_table(
        "t",
        Schema::of(&[("k", AttrType::Int), ("v", AttrType::Int)]),
    )
    .unwrap();
    db.create_index("t_k", "t", "k", IndexKind::TTree).unwrap();
    db.create_index("t_v", "t", "v", IndexKind::Hash).unwrap();
    let keys = shuffled_keys(n, 29);
    for chunk in keys.chunks(1_000) {
        let mut txn = db.begin();
        for k in chunk {
            db.insert(
                &mut txn,
                "t",
                vec![
                    OwnedValue::Int(*k as i64),
                    OwnedValue::Int((*k % 97) as i64),
                ],
            )
            .unwrap();
        }
        db.commit(txn).unwrap();
    }
    db.checkpoint().unwrap();
    db.crash()
}

/// Part 2: full restart wall time per (size, dop), with the report's
/// phase breakdown.
fn scaling_row(n: usize, dop: usize) -> (f64, RecoveryReport, usize) {
    let crashed = build_and_crash(n);
    let start = Instant::now();
    let (db, report) = crashed
        .recover_with(&[("t", 0)], ExecConfig::with_dop(dop))
        .expect("recovery must succeed");
    let total = start.elapsed().as_secs_f64();
    assert_eq!(db.len("t").unwrap(), n, "recovered row count");
    db.validate_indexes().unwrap();
    let loaded = report.loaded.len();
    (total, report, loaded)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    println!("== bulk vs tuple-at-a-time index rebuild ({REBUILD_N} rows) ==");
    let (tuple_secs, bulk_secs) = rebuild_contest();
    let speedup = tuple_secs / bulk_secs;
    println!(
        "tuple-at-a-time: {:>9.2} ms\nbulk build:      {:>9.2} ms\nspeedup:         {speedup:>9.2}x (required ≥ {REQUIRED_SPEEDUP}x)",
        ms(tuple_secs),
        ms(bulk_secs),
    );
    assert!(
        speedup >= REQUIRED_SPEEDUP,
        "bulk index reconstruction must be ≥ {REQUIRED_SPEEDUP}x faster than \
         tuple-at-a-time at {REBUILD_N} rows; measured {speedup:.2}x"
    );

    println!("\n== time-to-ready vs database size vs dop ==");
    let sizes: &[usize] = if quick {
        &[10_000, 30_000]
    } else {
        &[10_000, 30_000, 100_000]
    };
    let dops = [1usize, 2, 4];
    let mut csv = String::from(
        "rows,dop,total_ms,catalog_ms,working_set_ms,background_ms,index_rebuild_ms,partitions\n",
    );
    println!(
        "{:>8} {:>4} {:>10} {:>10} {:>12} {:>12} {:>14} {:>10}",
        "rows",
        "dop",
        "total ms",
        "catalog",
        "working set",
        "background",
        "index rebuild",
        "partitions"
    );
    for &n in sizes {
        for dop in dops {
            let (total, report, parts) = scaling_row(n, dop);
            let t = report.timings;
            println!(
                "{n:>8} {dop:>4} {:>10.2} {:>10.2} {:>12.2} {:>12.2} {:>14.2} {parts:>10}",
                ms(total),
                ms(t.catalog.as_secs_f64()),
                ms(t.working_set.as_secs_f64()),
                ms(t.background.as_secs_f64()),
                ms(t.index_rebuild.as_secs_f64()),
            );
            csv.push_str(&format!(
                "{n},{dop},{:.3},{:.3},{:.3},{:.3},{:.3},{parts}\n",
                ms(total),
                ms(t.catalog.as_secs_f64()),
                ms(t.working_set.as_secs_f64()),
                ms(t.background.as_secs_f64()),
                ms(t.index_rebuild.as_secs_f64()),
            ));
        }
    }
    std::fs::create_dir_all("results").unwrap();
    std::fs::write("results/recovery_scaling.csv", &csv).unwrap();
    println!("\nwrote results/recovery_scaling.csv");
    println!("recovery_bench: OK");
}
