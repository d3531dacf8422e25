//! Failure-injection tests for the recovery protocol: arbitrary
//! interleavings of commits, aborts, log-device progress, and crash
//! points must always recover exactly the committed state.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmdb_core::{Database, IndexKind};
use mmdb_exec::{ExecConfig, Predicate};
use mmdb_storage::{AttrType, KeyValue, OwnedValue, Schema};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One scripted step of database activity.
#[derive(Debug, Clone)]
enum Step {
    /// Commit a transaction inserting these keys (values `key * 10`).
    CommitInsert(Vec<i64>),
    /// Abort a transaction that staged these keys.
    AbortInsert(Vec<i64>),
    /// Commit an update of one existing key's value to `new`.
    CommitUpdate { key_index: usize, new: i64 },
    /// Let the log device pull (but not flush).
    DevicePoll,
    /// Full log-device cycle (pull + flush to disk copy).
    DeviceFlush,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => prop::collection::vec(0i64..2000, 1..6).prop_map(Step::CommitInsert),
        2 => prop::collection::vec(0i64..2000, 1..6).prop_map(Step::AbortInsert),
        3 => (0usize..64, 0i64..100_000).prop_map(|(key_index, new)| Step::CommitUpdate { key_index, new }),
        1 => Just(Step::DevicePoll),
        1 => Just(Step::DeviceFlush),
    ]
}

fn fresh_db() -> Database {
    let mut db = Database::in_memory();
    db.create_table(
        "t",
        Schema::of(&[("k", AttrType::Int), ("v", AttrType::Int)]),
    )
    .unwrap();
    db.create_index("t_k", "t", "k", IndexKind::TTree).unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn recovery_equals_committed_model(steps in prop::collection::vec(step_strategy(), 1..25)) {
        let mut db = fresh_db();
        // Committed truth: key -> (tid, value). Keys inserted once.
        let mut model: BTreeMap<i64, (mmdb_storage::TupleId, i64)> = BTreeMap::new();
        for step in &steps {
            match step {
                Step::CommitInsert(keys) => {
                    let mut txn = db.begin();
                    let mut fresh = Vec::new();
                    for k in keys {
                        if !model.contains_key(k) && !fresh.contains(k) {
                            db.insert(&mut txn, "t",
                                vec![OwnedValue::Int(*k), OwnedValue::Int(k * 10)]).unwrap();
                            fresh.push(*k);
                        }
                    }
                    let tids = db.commit(txn).unwrap();
                    for (k, tid) in fresh.into_iter().zip(tids) {
                        model.insert(k, (tid, k * 10));
                    }
                }
                Step::AbortInsert(keys) => {
                    let mut txn = db.begin();
                    for k in keys {
                        // Key collisions with the model are fine: aborted
                        // work never happened.
                        db.insert(&mut txn, "t",
                            vec![OwnedValue::Int(*k + 1_000_000), OwnedValue::Int(-1)]).unwrap();
                    }
                    db.abort(txn);
                }
                Step::CommitUpdate { key_index, new } => {
                    if model.is_empty() { continue; }
                    let k = *model.keys().nth(key_index % model.len()).unwrap();
                    let (tid, _) = model[&k];
                    let mut txn = db.begin();
                    db.update(&mut txn, "t", tid, "v", OwnedValue::Int(*new)).unwrap();
                    db.commit(txn).unwrap();
                    model.insert(k, (tid, *new));
                }
                Step::DevicePoll => { /* modeled inside run_log_device only */ }
                Step::DeviceFlush => db.run_log_device().unwrap(),
            }
        }
        // Crash at an arbitrary point in device progress, then recover.
        let crashed = db.crash();
        let (db2, _report) = crashed.recover(&[("t", 0)]).unwrap();
        prop_assert_eq!(db2.len("t").unwrap(), model.len());
        db2.validate_indexes().map_err(TestCaseError::fail)?;
        for (k, (_tid, v)) in &model {
            let hits = db2.select("t", "k", &Predicate::Eq(KeyValue::Int(*k))).unwrap();
            prop_assert_eq!(hits.len(), 1, "key {} missing", k);
            let row = db2.fetch("t", &hits.column(0), &["v"]).unwrap();
            prop_assert_eq!(&row[0][0], &OwnedValue::Int(*v), "key {} value", k);
        }
        // Nothing beyond the model survived (aborted inserts used keys
        // ≥ 1,000,000).
        let ghosts = db2.select("t", "k",
            &Predicate::greater(KeyValue::Int(999_999))).unwrap();
        prop_assert!(ghosts.is_empty(), "aborted inserts leaked");
    }

    #[test]
    fn double_crash_is_idempotent(keys in prop::collection::vec(0i64..500, 1..20)) {
        let mut db = fresh_db();
        let mut txn = db.begin();
        let mut uniq = keys.clone();
        uniq.sort_unstable();
        uniq.dedup();
        for k in &uniq {
            db.insert(&mut txn, "t", vec![OwnedValue::Int(*k), OwnedValue::Int(0)]).unwrap();
        }
        db.commit(txn).unwrap();
        let (db2, _) = db.crash().recover(&[]).unwrap();
        prop_assert_eq!(db2.len("t").unwrap(), uniq.len());
        // Crash again immediately — recovery must be repeatable.
        let (db3, _) = db2.crash().recover(&[("t", 0)]).unwrap();
        prop_assert_eq!(db3.len("t").unwrap(), uniq.len());
        db3.validate_indexes().map_err(TestCaseError::fail)?;
    }
}

#[test]
fn recover_on_empty_database_fails_gracefully_without_catalog() {
    // A crashed DB that never persisted a catalog (no DDL) cannot recover.
    use mmdb_recovery::{MemDisk, RecoveryManager};
    let mgr = RecoveryManager::new(MemDisk::new());
    drop(mgr); // nothing to assert here beyond type plumbing
    let db: Database = Database::in_memory();
    // No create_table calls → catalog was still written? No: only DDL
    // persists it. Crash + recover must fail with a catalog error.
    let crashed = db.crash();
    let err = crashed.recover(&[]).err().expect("no catalog to recover");
    assert!(format!("{err}").contains("catalog"));
}

#[test]
fn working_set_ordering_is_respected() {
    let mut db = Database::in_memory();
    db.create_table(
        "w",
        Schema::of(&[("k", AttrType::Int), ("pad", AttrType::Str)]),
    )
    .unwrap();
    db.create_index("w_k", "w", "k", IndexKind::TTree).unwrap();
    let mut txn = db.begin();
    for k in 0..30_000 {
        db.insert(
            &mut txn,
            "w",
            vec![OwnedValue::Int(k), OwnedValue::Str(format!("pad{k}"))],
        )
        .unwrap();
    }
    db.commit(txn).unwrap();
    let parts = db.with_relation("w", |r| r.partition_count()).unwrap();
    assert!(parts >= 4);
    let (db2, report) = db.crash().recover(&[("w", 3), ("w", 1)]).unwrap();
    assert_eq!(report.loaded[0].1, 3, "requested working set loads first");
    assert_eq!(report.loaded[1].1, 1);
    use mmdb_recovery::RestartPhase;
    assert_eq!(report.loaded[0].2, RestartPhase::WorkingSet);
    assert!(report.loaded[2..]
        .iter()
        .all(|(_, _, p)| *p == RestartPhase::Background));
    assert_eq!(db2.len("w").unwrap(), 30_000);
}

/// Indexes created across tables in interleaved order (t2, t1, t2) are
/// all rebuilt at restart, each on its own table, and each serves a
/// lookup afterwards.
#[test]
fn interleaved_ddl_restarts_every_index_on_its_table() {
    let mut db = Database::in_memory();
    let schema = Schema::of(&[("k", AttrType::Int), ("v", AttrType::Int)]);
    db.create_table("t1", schema.clone()).unwrap();
    db.create_table("t2", schema).unwrap();
    db.create_index("t2_k", "t2", "k", IndexKind::TTree)
        .unwrap();
    db.create_index("t1_v", "t1", "v", IndexKind::Hash).unwrap();
    db.create_index("t2_v", "t2", "v", IndexKind::Hash).unwrap();
    let mut txn = db.begin();
    for k in 0..50i64 {
        db.insert(&mut txn, "t1", vec![k.into(), (k * 10).into()])
            .unwrap();
        db.insert(&mut txn, "t2", vec![k.into(), (k * 100).into()])
            .unwrap();
    }
    db.commit(txn).unwrap();
    let (db2, report) = db
        .crash()
        .recover_with(&[("t2", 0)], ExecConfig::with_dop(2))
        .unwrap();
    assert_eq!(report.indexes_rebuilt, 3);
    let names: Vec<&str> = report.index_stats.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["t1_v", "t2_k", "t2_v"], "table by table");
    assert!(report.index_stats.iter().all(|s| s.entries == 50));
    db2.validate_indexes().unwrap();
    #[cfg(feature = "check")]
    db2.deep_check().assert_ok();
    for (table, attr, key) in [("t2", "k", 7), ("t1", "v", 70), ("t2", "v", 700)] {
        let hits = db2
            .select(table, attr, &Predicate::Eq(KeyValue::Int(key)))
            .unwrap();
        let rows = db2.fetch(table, &hits.column(0), &["k"]).unwrap();
        assert_eq!(rows, [[OwnedValue::Int(7)]], "{table}.{attr} = {key}");
    }
}
