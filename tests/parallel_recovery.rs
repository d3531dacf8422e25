//! Parallel restart equivalence: recovering the same crashed database
//! through `recover_with` at dop 1, 2, and 4 must produce bit-for-bit
//! the same database as the serial `recover` — same tuple ids, same
//! rows, same partition count, same load order, same rebuilt
//! indexes. The dop only changes *when* work runs, never *what* it
//! computes (DESIGN.md §16).
//!
//! The workload is seeded and fault-free (fault interactions are the
//! torture suite's job): run the identical script once per dop, crash,
//! recover at that dop, and compare full-state digests.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmdb_core::{CrashedDatabase, Database, IndexKind, RecoveryReport};
use mmdb_exec::{ExecConfig, Predicate};
use mmdb_recovery::{MemDisk, RestartPhase, SplitMix64};
use mmdb_storage::{AttrType, OwnedValue, Schema, TupleId};
use std::ops::Bound;

/// Ops per scripted run — enough to spread rows over several partitions
/// and leave a mix of checkpointed, device-resident, and buffer-only
/// images behind at the crash.
const SCRIPT_LEN: u64 = 120;

/// Run the seeded workload to the same crash point every time.
fn build_crashed(seed: u64) -> CrashedDatabase<MemDisk> {
    let mut db = Database::in_memory();
    db.create_table(
        "t",
        Schema::of(&[("k", AttrType::Int), ("v", AttrType::Int)]),
    )
    .unwrap();
    // One index of each kind, so both bulk rebuild paths (run-sort +
    // bottom-up T-Tree, pre-sized hash fill) are on the recovery path.
    db.create_index("t_k", "t", "k", IndexKind::TTree).unwrap();
    db.create_index("t_v", "t", "v", IndexKind::Hash).unwrap();
    let mut rng = SplitMix64::new(seed);
    let mut live: Vec<TupleId> = Vec::new();
    let mut next_key = 0i64;
    for _ in 0..SCRIPT_LEN {
        match rng.next_u64() % 10 {
            0..=4 => {
                let n = 1 + rng.next_u64() % 4;
                let mut txn = db.begin();
                for _ in 0..n {
                    let k = next_key;
                    next_key += 1;
                    db.insert(
                        &mut txn,
                        "t",
                        vec![OwnedValue::Int(k), OwnedValue::Int(k % 17)],
                    )
                    .unwrap();
                }
                live.extend(db.commit(txn).unwrap());
            }
            5 => {
                if live.is_empty() {
                    continue;
                }
                let tid = live[(rng.next_u64() as usize) % live.len()];
                let v = (rng.next_u64() % 1000) as i64;
                let mut txn = db.begin();
                db.update(&mut txn, "t", tid, "v", OwnedValue::Int(v))
                    .unwrap();
                db.commit(txn).unwrap();
            }
            6 => {
                if live.is_empty() {
                    continue;
                }
                let pick = (rng.next_u64() as usize) % live.len();
                let tid = live.swap_remove(pick);
                let mut txn = db.begin();
                db.delete(&mut txn, "t", tid).unwrap();
                db.commit(txn).unwrap();
            }
            7 => {
                // Staged-then-aborted work: must leave no trace at any dop.
                let mut txn = db.begin();
                db.insert(
                    &mut txn,
                    "t",
                    vec![OwnedValue::Int(-1), OwnedValue::Int(-1)],
                )
                .unwrap();
                db.abort(txn);
            }
            8 => db.run_log_device().unwrap(),
            _ => {
                db.checkpoint().unwrap();
            }
        }
    }
    db.crash()
}

/// Everything observable about the recovered table: partition count,
/// tuple ids, and full rows, in storage order.
type Digest = (usize, Vec<(TupleId, Vec<OwnedValue>)>);

fn digest(db: &Database<MemDisk>) -> Digest {
    let partitions = db.with_relation("t", |r| r.partition_count()).unwrap();
    let tids = db.tids("t").unwrap();
    let rows = db.fetch("t", &tids, &["k", "v"]).unwrap();
    (partitions, tids.into_iter().zip(rows).collect())
}

/// Recover at `dop` and return the digest plus the report.
fn recover_at(seed: u64, dop: usize) -> (Digest, RecoveryReport, Database<MemDisk>) {
    let crashed = build_crashed(seed);
    let (db, report) = crashed
        .recover_with(&[("t", 0), ("t", 1)], ExecConfig::with_dop(dop))
        .expect("fault-free recovery must succeed");
    (digest(&db), report, db)
}

#[test]
fn parallel_recovery_bit_identical_across_dop() {
    for seed in [0u64, 1, 2, 17, 99] {
        // Serial baseline through the default `recover` entry point.
        let crashed = build_crashed(seed);
        let (base_db, base_report) = crashed.recover(&[("t", 0), ("t", 1)]).unwrap();
        let base = digest(&base_db);
        assert!(
            !base.1.is_empty(),
            "seed {seed}: workload committed no rows — test is vacuous"
        );
        for dop in [1usize, 2, 4] {
            let (state, report, db) = recover_at(seed, dop);
            assert_eq!(
                base, state,
                "seed {seed}: dop {dop} recovered a different database state"
            );
            // The report's content (not its wall times) is equally
            // deterministic: same load order, same rebuild counts.
            assert_eq!(base_report.loaded, report.loaded, "seed {seed}, dop {dop}");
            assert_eq!(
                base_report.indexes_rebuilt, report.indexes_rebuilt,
                "seed {seed}, dop {dop}"
            );
            let names: Vec<(&str, usize)> = report
                .index_stats
                .iter()
                .map(|s| (s.name.as_str(), s.entries))
                .collect();
            assert_eq!(
                names,
                vec![("t_k", base.1.len()), ("t_v", base.1.len())],
                "seed {seed}, dop {dop}: per-index rebuild stats"
            );
            // Restart's fetch and decode fan out through the pool; its
            // merge rule must be completion-order independent on exactly
            // this result shape (the partition load order).
            #[cfg(all(feature = "check", debug_assertions))]
            {
                let tagged: Vec<_> = report.loaded.iter().cloned().enumerate().collect();
                mmdb_check::merge_checks::check_merge_determinism(&tagged)
                    .into_result()
                    .unwrap_or_else(|e| panic!("seed {seed}, dop {dop}: {e}"));
            }
            db.validate_indexes().unwrap();
            #[cfg(feature = "check")]
            db.deep_check().into_result().unwrap_or_else(|e| {
                panic!("seed {seed}, dop {dop}: deep check over bulk-built indexes:\n{e}")
            });
        }
    }
}

#[test]
fn working_set_loads_first_at_every_dop() {
    for dop in [1usize, 4] {
        let (_, report, _) = recover_at(7, dop);
        assert!(!report.loaded.is_empty());
        // Working-set entries form a prefix of the load order.
        let first_bg = report
            .loaded
            .iter()
            .position(|(_, _, ph)| *ph == RestartPhase::Background)
            .unwrap_or(report.loaded.len());
        assert!(
            report.loaded[first_bg..]
                .iter()
                .all(|(_, _, ph)| *ph == RestartPhase::Background),
            "dop {dop}: a working-set partition loaded after the background phase began"
        );
        let ws: Vec<u32> = report.loaded[..first_bg]
            .iter()
            .map(|(_, p, _)| *p)
            .collect();
        // Requested partitions with a recoverable image, in request
        // order (a requested partition nothing was ever logged for is
        // rightly absent).
        let want: Vec<u32> = [0u32, 1]
            .iter()
            .copied()
            .filter(|p| ws.contains(p))
            .collect();
        assert_eq!(
            ws, want,
            "dop {dop}: working set must load in request order"
        );
        assert!(
            ws.contains(&0),
            "dop {dop}: partition 0 always has an image in this workload"
        );
    }
}

/// Attributes of the rebuilt-order table, each under its own T-Tree.
const ORDER_ATTRS: [&str; 4] = ["dup", "uniq", "ptr", "s"];

/// A string of `len` bytes whose first eight are the same for every row:
/// the `Str` tag ties and the value order has to decide.
fn shared_prefix_str(variant: u64, len: usize) -> String {
    format!("sharedpr{variant}{}", "x".repeat(len))
}

/// Run a seeded workload over table `o` — a duplicate-heavy `Int`, a
/// unique `Int`, a `Ptr` into table `d` that is NULL for a third of the
/// rows, and a `Str` whose values share their 8-byte prefix and are long
/// enough that a partition's heap holds only a few dozen of them — with
/// deletes and string-growing updates (which relocate tuples and leave
/// forwarding addresses), then crash. Returns how many tuples moved.
fn build_order_crashed(seed: u64) -> (CrashedDatabase<MemDisk>, usize) {
    let mut db = Database::in_memory();
    db.create_table("d", Schema::of(&[("n", AttrType::Int)]))
        .unwrap();
    db.create_index("d_n", "d", "n", IndexKind::Hash).unwrap();
    let mut txn = db.begin();
    for n in 0..8 {
        db.insert(&mut txn, "d", vec![OwnedValue::Int(n)]).unwrap();
    }
    let targets = db.commit(txn).unwrap();
    db.create_table(
        "o",
        Schema::of(&[
            ("dup", AttrType::Int),
            ("uniq", AttrType::Int),
            ("ptr", AttrType::Ptr),
            ("s", AttrType::Str),
        ]),
    )
    .unwrap();
    for attr in ORDER_ATTRS {
        db.create_index(&format!("o_{attr}"), "o", attr, IndexKind::TTree)
            .unwrap();
    }
    let mut rng = SplitMix64::new(seed);
    let mut live: Vec<TupleId> = Vec::new();
    for batch in 0..30i64 {
        let mut txn = db.begin();
        for i in 0..12 {
            let k = batch * 12 + i;
            let r = rng.next_u64();
            let ptr = if r.is_multiple_of(3) {
                None
            } else {
                Some(targets[(r % 8) as usize])
            };
            db.insert(
                &mut txn,
                "o",
                vec![
                    OwnedValue::Int((r % 5) as i64 - 2),
                    OwnedValue::Int(10_000 - 7 * k),
                    OwnedValue::Ptr(ptr),
                    OwnedValue::Str(shared_prefix_str(r % 3, 200 + (r % 4) as usize * 100)),
                ],
            )
            .unwrap();
        }
        live.extend(db.commit(txn).unwrap());
        match batch % 5 {
            1 => {
                // Delete a few rows anywhere in the table.
                let mut txn = db.begin();
                for _ in 0..4 {
                    let tid = live.swap_remove(rng.next_u64() as usize % live.len());
                    db.delete(&mut txn, "o", tid).unwrap();
                }
                db.commit(txn).unwrap();
            }
            3 => {
                // Grow strings past what their partition's heap holds,
                // and move some rows to another duplicate key.
                let mut txn = db.begin();
                for _ in 0..3 {
                    let tid = live[rng.next_u64() as usize % live.len()];
                    let s = shared_prefix_str(rng.next_u64() % 3, 4_000);
                    db.update(&mut txn, "o", tid, "s", OwnedValue::Str(s))
                        .unwrap();
                    let dup = (rng.next_u64() % 5) as i64 - 2;
                    db.update(&mut txn, "o", tid, "dup", OwnedValue::Int(dup))
                        .unwrap();
                }
                db.commit(txn).unwrap();
            }
            4 => db.checkpoint().map(|_| ()).unwrap(),
            _ => db.run_log_device().unwrap(),
        }
    }
    let moved = db
        .with_relation("o", |r| {
            live.iter()
                .filter(|t| r.resolve(**t).unwrap() != **t)
                .count()
        })
        .unwrap();
    (db.crash(), moved)
}

/// An attribute value with a total order matching the index's (NULL
/// pointer largest).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum OrderKey {
    Int(i64),
    Str(String),
    Ptr(TupleId),
}

/// Every T-Tree's entries in tree order, as `(value, tid)`.
fn tree_listings(db: &Database<MemDisk>) -> Vec<Vec<(OrderKey, TupleId)>> {
    let all = Predicate::Range {
        lo: Bound::Unbounded,
        hi: Bound::Unbounded,
    };
    ORDER_ATTRS
        .iter()
        .map(|attr| {
            let tids = db.select("o", attr, &all).unwrap().column(0);
            let rows = db.fetch("o", &tids, &[attr]).unwrap();
            rows.into_iter()
                .zip(tids)
                .map(|(row, tid)| {
                    let key = match &row[0] {
                        OwnedValue::Int(i) => OrderKey::Int(*i),
                        OwnedValue::Str(s) => OrderKey::Str(s.clone()),
                        OwnedValue::Ptr(p) => OrderKey::Ptr(p.unwrap_or_else(TupleId::null)),
                        other => panic!("unexpected value {other:?}"),
                    };
                    (key, tid)
                })
                .collect()
        })
        .collect()
}

#[test]
fn rebuilt_trees_list_entries_in_value_tid_order() {
    for seed in [0u64, 1, 2, 3] {
        let mut listings = Vec::new();
        for dop in [1usize, 2] {
            let (crashed, moved) = build_order_crashed(seed);
            assert!(
                moved > 0,
                "seed {seed}: no tuple relocated — test is vacuous"
            );
            let (db, _) = crashed
                .recover_with(&[("o", 0)], ExecConfig::with_dop(dop))
                .unwrap();
            let rows = db.len("o").unwrap();
            let listing = tree_listings(&db);
            for (attr, entries) in ORDER_ATTRS.iter().zip(&listing) {
                assert_eq!(entries.len(), rows, "seed {seed}, dop {dop}, {attr}");
                if let Some(w) = entries.windows(2).find(|w| w[0] >= w[1]) {
                    panic!(
                        "seed {seed}, dop {dop}, {attr}: {:?} listed before {:?}",
                        w[0], w[1]
                    );
                }
            }
            db.validate_indexes().unwrap();
            listings.push(listing);
        }
        assert_eq!(
            listings[0], listings[1],
            "seed {seed}: dop 1 and dop 2 differ"
        );
    }
}
