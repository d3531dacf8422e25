//! Multiple users, one memory-resident database (§2.4–§2.5): a
//! bank-teller workload from eight concurrent sessions over the
//! [`TxnEngine`]. Each transfer is a strict-2PL transaction at partition
//! granularity; deadlock victims are retried.
//!
//! ```sh
//! cargo run --release --example multi_user
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout)]

use mmdb_core::{Database, IndexKind, Session, Txn, TxnEngine, TxnError};
use mmdb_exec::Predicate;
use mmdb_storage::{AttrType, KeyValue, OwnedValue, Schema, TupleId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const ACCOUNTS: i64 = 64;
const CLIENTS: usize = 8;
const TXNS_PER_CLIENT: usize = 500;
/// Retry budget per transfer; every deadlock aborts exactly one of the
/// transactions in the cycle, so some transfer always gets through.
const ATTEMPTS: usize = 10_000;

fn balance(s: &Session, txn: &mut Txn, owner: i64) -> Result<(TupleId, i64), TxnError> {
    s.read(txn, &["acct"], |db| {
        let hit = db.select("acct", "owner", &Predicate::Eq(KeyValue::Int(owner)))?;
        let tid = hit.column(0)[0];
        match db.fetch("acct", &[tid], &["balance"])?[0][0] {
            OwnedValue::Int(v) => Ok((tid, v)),
            _ => unreachable!(),
        }
    })
}

fn main() {
    let mut db = Database::in_memory();
    db.create_table(
        "acct",
        Schema::of(&[("owner", AttrType::Int), ("balance", AttrType::Int)]),
    )
    .unwrap();
    db.create_index("acct_owner", "acct", "owner", IndexKind::Hash)
        .unwrap();
    let mut txn = db.begin();
    for owner in 0..ACCOUNTS {
        db.insert(&mut txn, "acct", vec![owner.into(), 1000i64.into()])
            .unwrap();
    }
    db.commit(txn).unwrap();
    let engine = TxnEngine::new(db);

    let attempts = AtomicUsize::new(0);
    let transfers = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let session = engine.session();
            let (attempts, transfers) = (&attempts, &transfers);
            scope.spawn(move || {
                let mut seed = (c as u64 + 1) * 0x9E37_79B9;
                for _ in 0..TXNS_PER_CLIENT {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    let from = (seed % ACCOUNTS as u64) as i64;
                    let to = ((seed >> 8) % ACCOUNTS as u64) as i64;
                    if from == to {
                        continue;
                    }
                    // One short transfer transaction: read both balances
                    // under S locks, buffer both updates, commit under X
                    // locks.
                    session
                        .with_retry(ATTEMPTS, |s, txn| {
                            attempts.fetch_add(1, Ordering::Relaxed);
                            let (ftid, fbal) = balance(s, txn, from)?;
                            let (ttid, tbal) = balance(s, txn, to)?;
                            s.update(txn, "acct", ftid, "balance", OwnedValue::Int(fbal - 10))?;
                            s.update(txn, "acct", ttid, "balance", OwnedValue::Int(tbal + 10))
                        })
                        .expect("transfer commits within the retry budget");
                    transfers.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let transfers = transfers.into_inner();

    let (total, n) = engine.with_db(|db| {
        let tids = db.tids("acct").unwrap();
        let total: i64 = tids
            .iter()
            .map(
                |t| match db.fetch("acct", &[*t], &["balance"]).unwrap()[0][0] {
                    OwnedValue::Int(v) => v,
                    _ => unreachable!(),
                },
            )
            .sum();
        db.validate_indexes().unwrap();
        (total, tids.len())
    });
    println!(
        "{CLIENTS} sessions × {TXNS_PER_CLIENT} transfer txns in {:.3}s ({:.0} txn/s, {} deadlock retries)",
        elapsed.as_secs_f64(),
        transfers as f64 / elapsed.as_secs_f64(),
        attempts.into_inner() - transfers
    );
    let stats = engine.group_commit_stats();
    println!(
        "group commit: {} commits in {} batches (largest {})",
        stats.commits, stats.batches, stats.largest_batch
    );
    println!("accounts: {n}, total balance: {total}");
    assert_eq!(total, ACCOUNTS * 1000, "money is conserved");
    println!("money conserved under concurrent 2PL sessions ✓");
}
