//! Restart-performance acceptance bench (DESIGN.md §16).
//!
//! Two measurements:
//!
//! 1. **Bulk vs tuple-at-a-time index rebuild** over 100k rows: the
//!    production bulk build (`Database::create_index` on a loaded table,
//!    the code path restart rebuilds every index with) against the
//!    pre-§16 restart loop, per-tuple `insert(tid)` through an adapter
//!    that re-locks the relation on every comparison. On unique keys the
//!    bulk path must win by ≥ 2x (`verify.sh` runs this as the
//!    `recovery-accept` gate); a 60-distinct-key row (the ledger's
//!    `emp.age` shape) is printed beside it with no bound. Part of the
//!    margin is the per-comparison lock, not the algorithm: the same
//!    tuple loop under one held guard measured 1.5–2.7x slower than the
//!    old run-sort bulk build (EXPERIMENTS.md).
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
use mmdb_index::traits::OrderedIndex;
use mmdb_index::{TTree, TTreeConfig};
use mmdb_storage::{
    AttrAdapter, AttrType, KeyValue, OwnedValue, PartitionConfig, Relation, Schema, TupleId,
};
use std::cmp::Ordering;
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// T-Tree node size (the workload suites' fixed choice).
const NODE_SIZE: usize = 30;
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
        self.attr.cmp_entries(&self.rel.read().unwrap(), a, b)
    }

    fn cmp_entry_key(&self, (): (), e: &TupleId, key: &KeyValue) -> Ordering {
        self.attr.cmp_entry_key(&self.rel.read().unwrap(), e, key)
    }

    fn entry_tag(&self, (): (), e: &TupleId) -> u64 {
        self.attr.entry_tag(&self.rel.read().unwrap(), e)
    }

    fn key_tag(&self, (): (), key: &KeyValue) -> u64 {
        key.order_tag()
    }
}

/// Part 1: rebuild one T-Tree over 100k rows of `keys` both ways.
/// Returns the best-of-3 seconds of (tuple-at-a-time, bulk).
fn rebuild_contest(keys: &[i64]) -> (f64, f64) {
    let mut rel = Relation::new(
        "r",
        Schema::of(&[("k", AttrType::Int)]),
        PartitionConfig::default(),
    );
    for k in keys {
        rel.insert(&[OwnedValue::Int(*k)]).expect("insert");
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
        for tid in rel.read().unwrap().iter_tids() {
            t.insert((), tid);
        }
        assert_eq!(t.len(), REBUILD_N);
    });

    // The bulk path, as restart runs it: `create_index` bulk-builds over
    // the loaded population through the same function.
    let mut db = Database::in_memory();
    db.create_table("r", Schema::of(&[("k", AttrType::Int)]))
        .unwrap();
    // A table takes inserts only once an index covers it (§2.1).
    db.create_index("r_hash", "r", "k", IndexKind::Hash)
        .unwrap();
    for chunk in keys.chunks(1_000) {
        let mut txn = db.begin();
        for k in chunk {
            db.insert(&mut txn, "r", vec![OwnedValue::Int(*k)]).unwrap();
        }
        db.commit(txn).unwrap();
    }
    let mut built = 0;
    let ((), bulk_secs) = time_best(3, || {
        built += 1;
        db.create_index(&format!("r_k{built}"), "r", "k", IndexKind::TTree)
            .unwrap();
    });
    assert_eq!(db.len("r").unwrap(), REBUILD_N);
    db.validate_indexes().unwrap();
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
    println!(
        "{:<16} {:>16} {:>12} {:>9}",
        "keys", "tuple-at-a-time", "bulk build", "speedup"
    );
    let unique: Vec<i64> = shuffled_keys(REBUILD_N, 11)
        .into_iter()
        .map(|k| k as i64)
        .collect();
    let sixty: Vec<i64> = unique.iter().map(|k| k % 60).collect();
    let mut speedup = 0.0;
    for (label, keys) in [("unique", &unique), ("60 distinct", &sixty)] {
        let (tuple_secs, bulk_secs) = rebuild_contest(keys);
        let s = tuple_secs / bulk_secs;
        println!(
            "{label:<16} {:>13.2} ms {:>9.2} ms {s:>8.2}x",
            ms(tuple_secs),
            ms(bulk_secs),
        );
        if label == "unique" {
            speedup = s;
        }
    }
    println!("required on unique keys: ≥ {REQUIRED_SPEEDUP}x");
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
