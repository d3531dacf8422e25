//! Serializability property suite for the multi-session transaction
//! engine.
//!
//! Seeded multi-threaded schedules of read/write transactions run over
//! small relations through [`TxnEngine`] sessions. For every seed the
//! suite asserts that the committed history is equivalent to *some*
//! serial order: there must exist a permutation of the committed
//! transactions whose serial replay against a model database reproduces
//! both every transaction's recorded read set and the final database
//! state. Deadlock victims (the engine detects cycles and aborts) must
//! leave no trace.
//!
//! Workloads derive from `SplitMix64` — the same generator the
//! interleaving explorer and the torture harness use — so a failure
//! prints its seed and replays bit-for-bit (up to OS thread scheduling,
//! which the oracle quantifies over by accepting *any* serial
//! equivalent):
//!
//! ```text
//! MMDB_TXN_SEED=<seed> cargo test --test prop_txn serializable_across_seeds -- --nocapture
//! ```
//!
//! `MMDB_TXN_SEEDS=<n>` widens or narrows the sweep (default 64, the CI
//! configuration).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmdb_core::{Database, IndexKind, TxnEngine, TxnError};
use mmdb_exec::Predicate;
use mmdb_recovery::SplitMix64;
use mmdb_storage::{AttrType, KeyValue, OwnedValue, Schema, TupleId};
use std::collections::BTreeMap;
use std::sync::{mpsc, Barrier};
use std::thread;

const TABLES: [&str; 2] = ["rel_a", "rel_b"];
/// Keys 0..SEED_KEYS exist in every table before the concurrent phase.
const SEED_KEYS: i64 = 4;
/// Concurrent client threads (dop > 1).
const THREADS: usize = 3;
/// Transactions per thread.
const TXNS_PER_THREAD: usize = 2;
/// Operations per transaction.
const OPS_PER_TXN: usize = 3;

/// One logical operation of a generated transaction. Inserts use keys
/// unique across the whole schedule, so every key maps to at most one
/// row and serial replay is exact; updates and deletes are conditioned
/// on presence (their hidden existence-read is deterministic given the
/// model state, so the oracle replays it faithfully).
#[derive(Debug, Clone)]
enum Op {
    /// Read the value of `key` (None when absent).
    Read { table: usize, key: i64 },
    /// Set `key` to `val` if the key exists; no-op otherwise.
    Update { table: usize, key: i64, val: i64 },
    /// Insert a schedule-unique `key` with `val`.
    InsertUnique { table: usize, key: i64, val: i64 },
    /// Delete `key` if present.
    Delete { table: usize, key: i64 },
}

/// The observable record of one committed transaction.
#[derive(Debug)]
struct Committed {
    ops: Vec<Op>,
    /// Recorded result of each `Op::Read`, in op order.
    reads: Vec<Option<i64>>,
}

fn build_engine() -> TxnEngine {
    let engine = TxnEngine::new(Database::in_memory());
    engine.with_db(|db| {
        for t in TABLES {
            db.create_table(t, Schema::of(&[("k", AttrType::Int), ("v", AttrType::Int)]))
                .unwrap();
            db.create_index(&format!("{t}_k"), t, "k", IndexKind::Hash)
                .unwrap();
        }
        let mut txn = db.begin();
        for t in TABLES {
            for k in 0..SEED_KEYS {
                db.insert(&mut txn, t, vec![OwnedValue::Int(k), OwnedValue::Int(0)])
                    .unwrap();
            }
        }
        db.commit(txn).unwrap();
    });
    engine
}

/// Insert keys start here; `unique_key` never repeats within a schedule.
const INSERT_BASE: i64 = 1000;

/// Generate the ops of one transaction from a seeded stream.
/// `unique_key` is the base for this transaction's schedule-unique
/// insert keys.
fn gen_ops(rng: &mut SplitMix64, unique_key: i64) -> Vec<Op> {
    // Writes are deferred: a transaction's reads never see its own
    // buffered writes, and a second write to a tuple the transaction
    // already buffered a delete for is a (correctly rejected) double
    // delete. Keep generated transactions inside the supported
    // semantics: once a key is deleted in a txn, later ops on it
    // degrade to reads.
    let mut deleted = std::collections::HashSet::new();
    (0..OPS_PER_TXN)
        .map(|op_idx| {
            let table = (rng.next_u64() % TABLES.len() as u64) as usize;
            let key = (rng.next_u64() % (SEED_KEYS as u64 + 1)) as i64;
            match rng.next_u64() % 10 {
                0..=2 => Op::Read { table, key },
                3..=5 if !deleted.contains(&(table, key)) => Op::Update {
                    table,
                    key,
                    val: (rng.next_u64() % 1_000_000) as i64,
                },
                6..=7 => Op::InsertUnique {
                    table,
                    key: unique_key + op_idx as i64,
                    val: (rng.next_u64() % 1_000_000) as i64,
                },
                8..=9 if deleted.insert((table, key)) => Op::Delete { table, key },
                _ => Op::Read { table, key },
            }
        })
        .collect()
}

/// Find the tuple id and value of `key` within an open transaction.
fn lookup(
    session: &mmdb_core::Session,
    txn: &mut mmdb_core::Txn,
    table: &str,
    key: i64,
) -> Result<Option<(TupleId, i64)>, TxnError> {
    session.read(txn, &[table], |db| {
        let tids = db.select(table, "k", &Predicate::Eq(KeyValue::Int(key)))?;
        let flat: Vec<TupleId> = tids.iter().map(|row| row[0]).collect();
        match flat.first() {
            None => Ok(None),
            Some(&tid) => {
                let rows = db.fetch(table, &[tid], &["v"])?;
                let OwnedValue::Int(v) = rows[0][0] else {
                    return Ok(None);
                };
                Ok(Some((tid, v)))
            }
        }
    })
}

/// Execute one generated transaction through a session. Returns the read
/// records on commit, or None when it was a deadlock victim.
fn run_txn(session: &mmdb_core::Session, ops: &[Op]) -> Option<Vec<Option<i64>>> {
    let mut txn = session.begin();
    let mut reads = Vec::new();
    for op in ops {
        let step = match op {
            Op::Read { table, key } => lookup(session, &mut txn, TABLES[*table], *key)
                .map(|found| reads.push(found.map(|(_, v)| v))),
            Op::Update { table, key, val } => {
                match lookup(session, &mut txn, TABLES[*table], *key) {
                    Ok(Some((tid, _))) => {
                        session.update(&mut txn, TABLES[*table], tid, "v", OwnedValue::Int(*val))
                    }
                    Ok(None) => Ok(()),
                    Err(e) => Err(e),
                }
            }
            Op::InsertUnique { table, key, val } => session.insert(
                &mut txn,
                TABLES[*table],
                vec![OwnedValue::Int(*key), OwnedValue::Int(*val)],
            ),
            Op::Delete { table, key } => match lookup(session, &mut txn, TABLES[*table], *key) {
                Ok(Some((tid, _))) => session.delete(&mut txn, TABLES[*table], tid),
                Ok(None) => Ok(()),
                Err(e) => Err(e),
            },
        };
        match step {
            Ok(()) => {}
            Err(TxnError::Deadlock) => return None,
            Err(e) => panic!("unexpected txn error: {e}"),
        }
    }
    match session.commit(txn) {
        Ok(_) => Some(reads),
        Err(TxnError::Deadlock) => None,
        Err(e) => panic!("unexpected commit error: {e}"),
    }
}

type Model = BTreeMap<(usize, i64), i64>;

/// Serially replay one committed transaction on the model, checking its
/// recorded reads. Writes are deferred in the engine, so every read
/// (including the hidden existence reads of update/delete) observes the
/// transaction-entry snapshot `pre`; effects accumulate into `model`.
/// Returns false on the first read mismatch.
fn replay(model: &mut Model, committed: &Committed) -> bool {
    let pre = model.clone();
    let mut r = 0;
    for op in &committed.ops {
        match op {
            Op::Read { table, key } => {
                let got = pre.get(&(*table, *key)).copied();
                if got != committed.reads[r] {
                    return false;
                }
                r += 1;
            }
            Op::Update { table, key, val } => {
                if pre.contains_key(&(*table, *key)) {
                    model.insert((*table, *key), *val);
                }
            }
            Op::InsertUnique { table, key, val } => {
                model.insert((*table, *key), *val);
            }
            Op::Delete { table, key } => {
                if pre.contains_key(&(*table, *key)) {
                    model.remove(&(*table, *key));
                }
            }
        }
    }
    true
}

/// Does any permutation of `committed` serially reproduce `final_state`?
fn some_serial_order(committed: &[Committed], initial: &Model, final_state: &Model) -> bool {
    let n = committed.len();
    let mut order: Vec<usize> = (0..n).collect();
    permute(&mut order, 0, &mut |perm| {
        let mut model = initial.clone();
        for &i in perm {
            if !replay(&mut model, &committed[i]) {
                return false;
            }
        }
        &model == final_state
    })
}

/// Heap's-algorithm permutation search; `accept` short-circuits success.
fn permute(items: &mut Vec<usize>, k: usize, accept: &mut impl FnMut(&[usize]) -> bool) -> bool {
    if k == items.len() {
        return accept(items);
    }
    for i in k..items.len() {
        items.swap(k, i);
        if permute(items, k + 1, accept) {
            return true;
        }
        items.swap(k, i);
    }
    false
}

/// Dump a table as key -> value (sequential scan path).
fn dump(db: &Database, table: usize) -> Model {
    let tids = db
        .select(
            TABLES[table],
            "k",
            &Predicate::greater(KeyValue::Int(i64::MIN)),
        )
        .unwrap();
    let flat: Vec<TupleId> = tids.iter().map(|row| row[0]).collect();
    let rows = db.fetch(TABLES[table], &flat, &["k", "v"]).unwrap();
    let n = rows.len();
    let out: Model = rows
        .into_iter()
        .map(|row| {
            let (OwnedValue::Int(k), OwnedValue::Int(v)) = (&row[0], &row[1]) else {
                panic!("non-int row in {table}");
            };
            ((table, *k), *v)
        })
        .collect();
    // Insert keys are schedule-unique and updates never create rows, so
    // a duplicate key here means isolation was violated.
    assert_eq!(out.len(), n, "duplicate keys in table {table}");
    out
}

fn run_seed(seed: u64) {
    let engine = build_engine();
    let initial: Model = (0..TABLES.len())
        .flat_map(|t| (0..SEED_KEYS).map(move |k| ((t, k), 0)))
        .collect();

    let (tx, rx) = mpsc::channel();
    let mut handles = Vec::new();
    for thread_idx in 0..THREADS {
        let session = engine.session();
        let tx = tx.clone();
        handles.push(thread::spawn(move || {
            let mut rng = SplitMix64::new(
                seed.wrapping_add(0x9e37_79b9)
                    .wrapping_mul(thread_idx as u64 + 1),
            );
            for txn_idx in 0..TXNS_PER_THREAD {
                let base =
                    INSERT_BASE + ((thread_idx * TXNS_PER_THREAD + txn_idx) * OPS_PER_TXN) as i64;
                let ops = gen_ops(&mut rng, base);
                if let Some(reads) = run_txn(&session, &ops) {
                    tx.send(Committed { ops, reads }).unwrap();
                }
            }
        }));
    }
    drop(tx);
    for h in handles {
        h.join().unwrap();
    }
    let committed: Vec<Committed> = rx.into_iter().collect();

    let db = engine
        .into_inner()
        .expect("all sessions joined; engine must unwrap");
    let mut final_state = Model::new();
    for t in 0..TABLES.len() {
        final_state.extend(dump(&db, t));
    }

    assert!(
        some_serial_order(&committed, &initial, &final_state),
        "seed {seed}: no serial order of {} committed txns explains the final state\n\
         committed: {committed:#?}\nfinal: {final_state:?}",
        committed.len(),
    );
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

#[test]
fn serializable_across_seeds() {
    if let Some(seed) = env_u64("MMDB_TXN_SEED") {
        run_seed(seed);
        return;
    }
    let n = env_u64("MMDB_TXN_SEEDS").unwrap_or(64);
    for seed in 0..n {
        run_seed(seed);
    }
}

// ---- deadlock negative tests -------------------------------------------

/// Build an engine with `names` one-row tables (key 0, value 0).
fn engine_with_tables(names: &[&str]) -> TxnEngine {
    let engine = TxnEngine::new(Database::in_memory());
    engine.with_db(|db| {
        for t in names {
            db.create_table(t, Schema::of(&[("k", AttrType::Int), ("v", AttrType::Int)]))
                .unwrap();
            db.create_index(&format!("{t}_k"), t, "k", IndexKind::Hash)
                .unwrap();
            let mut txn = db.begin();
            db.insert(&mut txn, t, vec![OwnedValue::Int(0), OwnedValue::Int(0)])
                .unwrap();
            db.commit(txn).unwrap();
        }
    });
    engine
}

/// Count rows in `table`.
fn row_count(db: &Database, table: &str) -> usize {
    db.select(table, "k", &Predicate::greater(KeyValue::Int(i64::MIN)))
        .unwrap()
        .len()
}

/// Run a guaranteed lock cycle over `tables`: thread i S-locks table i
/// (read), then — after every thread holds its read lock — inserts into
/// table (i+1) % n and commits. Returns per-thread commit outcomes
/// (true = committed) and the recovered database.
fn run_cycle(tables: &'static [&'static str]) -> (Vec<bool>, Database) {
    let engine = engine_with_tables(tables);
    let n = tables.len();
    let barrier = std::sync::Arc::new(Barrier::new(n));
    let mut handles = Vec::new();
    for i in 0..n {
        let session = engine.session();
        let barrier = std::sync::Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            let mut txn = session.begin();
            // S-lock table i via a read.
            session
                .select(&mut txn, tables[i], "k", &Predicate::Eq(KeyValue::Int(0)))
                .unwrap();
            barrier.wait();
            // Insert into the next table: X-locks its partition + fence
            // at commit, closing the cycle.
            let next = tables[(i + 1) % n];
            let marker = vec![OwnedValue::Int(100 + i as i64), OwnedValue::Int(i as i64)];
            if let Err(e) = session.insert(&mut txn, next, marker) {
                assert!(matches!(e, TxnError::Deadlock), "unexpected: {e}");
                return false;
            }
            match session.commit(txn) {
                Ok(_) => true,
                Err(TxnError::Deadlock) => false,
                Err(e) => panic!("unexpected commit error: {e}"),
            }
        }));
    }
    let outcomes: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let db = engine.into_inner().expect("sessions joined");
    (outcomes, db)
}

#[test]
fn two_txn_cycle_aborts_exactly_one_victim() {
    static TABLES2: [&str; 2] = ["dl_x", "dl_y"];
    let (outcomes, db) = run_cycle(&TABLES2);
    let committed = outcomes.iter().filter(|&&c| c).count();
    assert_eq!(
        committed, 1,
        "a 2-cycle must abort exactly one victim (outcomes: {outcomes:?})"
    );
    // The survivor's insert is present; the victim's left no trace.
    for (i, &ok) in outcomes.iter().enumerate() {
        let target = TABLES2[(i + 1) % 2];
        let expected = if ok { 2 } else { 1 };
        assert_eq!(
            row_count(&db, target),
            expected,
            "thread {i} (committed={ok}) row count in {target}"
        );
    }
}

#[test]
fn three_txn_cycle_aborts_a_victim_and_survivors_commit() {
    static TABLES3: [&str; 3] = ["dl3_a", "dl3_b", "dl3_c"];
    let (outcomes, db) = run_cycle(&TABLES3);
    let committed = outcomes.iter().filter(|&&c| c).count();
    assert!(
        committed < 3,
        "a 3-cycle must abort at least one victim (outcomes: {outcomes:?})"
    );
    assert!(
        committed >= 1,
        "deadlock detection must not abort every transaction (outcomes: {outcomes:?})"
    );
    for (i, &ok) in outcomes.iter().enumerate() {
        let target = TABLES3[(i + 1) % 3];
        let expected = if ok { 2 } else { 1 };
        assert_eq!(
            row_count(&db, target),
            expected,
            "thread {i} (committed={ok}) row count in {target}"
        );
    }
}

#[test]
fn conflict_without_cycle_never_aborts() {
    let engine = engine_with_tables(&["nf_x", "nf_y"]);
    let s1 = engine.session();
    let mut t1 = s1.begin();
    // T1 S-locks x.
    s1.select(&mut t1, "nf_x", "k", &Predicate::Eq(KeyValue::Int(0)))
        .unwrap();

    // T2 writes x: its commit must block behind T1's read lock — a
    // conflict, but no cycle.
    let snapshot = engine.lock_request_count();
    let s2 = engine.session();
    let t2_handle = thread::spawn(move || {
        let mut t2 = s2.begin();
        s2.insert(
            &mut t2,
            "nf_x",
            vec![OwnedValue::Int(1), OwnedValue::Int(1)],
        )
        .unwrap();
        s2.commit(t2).is_ok()
    });
    // Wait (event-driven, no sleeps) until T2's commit has issued lock
    // requests — i.e. it is queued behind T1.
    while engine.lock_request_count() <= snapshot {
        thread::yield_now();
    }

    // T1 writes y and commits; T2 then unblocks and commits.
    s1.insert(
        &mut t1,
        "nf_y",
        vec![OwnedValue::Int(1), OwnedValue::Int(1)],
    )
    .unwrap();
    assert!(s1.commit(t1).is_ok(), "T1 must commit (no cycle exists)");
    assert!(
        t2_handle.join().unwrap(),
        "T2 must commit after T1 releases (conflict without cycle)"
    );

    drop(s1);
    let db = engine.into_inner().expect("sessions dropped");
    assert_eq!(row_count(&db, "nf_x"), 2);
    assert_eq!(row_count(&db, "nf_y"), 2);
}
