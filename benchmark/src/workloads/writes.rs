//! The two workloads that commit: `write_commit` (one client, nothing but
//! single-statement write transactions) and `mixed_clients` (reads and
//! read-modify-writes from several clients at once).

use super::reads::{read_txn, select_by_id};
use super::Phase;
use crate::dataset::{id_eq, Bench, EmpRow, Res, Sess, AGE_LO, AGE_SPAN, SALARY_SPAN};
use mmdb_core::TxnError;
use mmdb_storage::{OwnedValue, TupleId};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

/// Deadlocked transactions are retried by the client this many times
/// before the op counts as failed.
const RETRY_BUDGET: u64 = 1000;

enum Write {
    Salary(i64, i64),
    Age(i64, i64),
    Insert(i64, EmpRow),
    Delete(i64),
}

/// 1 client; single-statement write transactions: 35% update `salary`
/// (unindexed), 35% update `age` (indexed), 15% insert, 15% delete of a
/// row this workload inserted earlier, so the table stays level.
pub fn write_commit(mut bench: Bench, mut ph: Phase) -> Res<(Bench, Vec<Phase>)> {
    let session = bench.engine.session();
    // Updates go to the rows of the load, which nothing deletes; deletes go
    // to rows inserted since (by this phase or one before it).
    let loaded = bench.model.loaded;
    let mut inserted: Vec<i64> = bench.model.emp.range(loaded..).map(|(id, _)| *id).collect();
    while ph.running() {
        let kind = ph.rng.below(100);
        let write = if kind < 35 {
            Write::Salary(ph.rng.below(loaded), ph.rng.below(SALARY_SPAN))
        } else if kind < 70 {
            Write::Age(ph.rng.below(loaded), AGE_LO + ph.rng.below(AGE_SPAN))
        } else if kind < 85 || inserted.is_empty() {
            let id = bench.model.fresh_id();
            Write::Insert(id, EmpRow::generate(&mut ph.rng, id))
        } else {
            let at = ph.rng.below(inserted.len() as i64) as usize;
            Write::Delete(inserted.swap_remove(at))
        };
        let tid_of = |id: &i64| bench.model.emp.get(id).map(|r| r.tid);
        let target = match &write {
            Write::Salary(id, _) | Write::Age(id, _) | Write::Delete(id) => tid_of(id),
            Write::Insert(..) => None,
        };

        let op = ph.begin_op();
        let t0 = ph.tr.now();
        let mut txn = session.begin();
        ph.txns += 1;
        let t1 = ph.tr.mark();
        let buffered = match (&write, target) {
            (Write::Salary(_, v), Some(tid)) => {
                session.update(&mut txn, "emp", tid, "salary", OwnedValue::Int(*v))
            }
            (Write::Age(_, v), Some(tid)) => {
                session.update(&mut txn, "emp", tid, "age", OwnedValue::Int(*v))
            }
            (Write::Delete(_), Some(tid)) => session.delete(&mut txn, "emp", tid),
            (Write::Insert(id, row), _) => session.insert(&mut txn, "emp", row.values(*id)),
            // The model lost track of a row it should hold: an oracle bug,
            // reported as a failed op below.
            (_, None) => Ok(()),
        };
        let t2 = ph.tr.mark();
        let committed = session.commit(txn);
        let t3 = ph.tr.now();
        ph.tr.span(op, "engine.begin", t0, t1);
        ph.tr.span(op, "engine.write_buffer", t1, t2);
        ph.tr.span(op, "engine.commit", t2, t3);
        ph.end_op(op, t0, t3);

        // Only an acknowledged commit changes the model.
        let tids = match (buffered, committed) {
            (Ok(()), Ok(tids)) => tids,
            (Err(e), _) | (_, Err(e)) => {
                ph.fail(|| format!("write txn: {e}"));
                continue;
            }
        };
        ph.write_commits += 1;
        match (write, target, tids.as_slice()) {
            (Write::Salary(id, v), Some(_), []) => {
                bench.model.emp.entry(id).and_modify(|r| r.salary = v);
                ph.user_bytes += 8;
            }
            (Write::Age(id, v), Some(_), []) => {
                bench.model.emp.entry(id).and_modify(|r| r.age = v);
                ph.user_bytes += 8;
            }
            (Write::Delete(id), Some(_), []) => {
                bench.model.emp.remove(&id);
            }
            (Write::Insert(id, mut row), _, [tid]) => {
                row.tid = *tid;
                ph.user_bytes += row.user_bytes();
                bench.model.emp.insert(id, row);
                inserted.push(id);
            }
            (_, _, tids) => ph.fail(|| format!("write txn acknowledged with {} tids", tids.len())),
        }
    }
    drop(session);
    Ok((bench, vec![ph]))
}

/// What the clients of `mixed_clients` share: the rows' immutable parts,
/// and the salary each row's owner last had acknowledged.
struct Shared {
    rows: Vec<(String, TupleId)>,
    salary: Vec<AtomicI64>,
    clients: i64,
}

impl Shared {
    /// Rows `lo..=hi` as client `me` may expect them: its own rows exactly
    /// (nobody else writes them), other clients' rows with any salary.
    fn expect(&self, me: i64, lo: i64, hi: i64) -> Vec<(&str, Option<i64>)> {
        (lo.max(0)..=hi.min(self.rows.len() as i64 - 1))
            .map(|id| {
                let mine = id % self.clients == me;
                (
                    self.rows[id as usize].0.as_str(),
                    mine.then(|| self.salary[id as usize].load(Relaxed)),
                )
            })
            .collect()
    }
}

/// One attempt at a read-modify-write transaction: select the row's salary
/// by id, update it, commit. Returns the rows the select saw.
fn rmw_attempt(
    session: &Sess,
    ph: &mut Phase,
    op: u64,
    id: i64,
    tid: TupleId,
    new_salary: i64,
) -> Result<Vec<Vec<OwnedValue>>, TxnError> {
    let t0 = ph.tr.mark();
    let mut txn = session.begin();
    ph.txns += 1;
    let t1 = ph.tr.mark();
    ph.tr.span(op, "engine.begin", t0, t1);
    let buffered =
        select_by_id(session, &mut txn, ph, op, &id_eq(id), &["salary"]).and_then(|rows| {
            let t2 = ph.tr.mark();
            session.update(&mut txn, "emp", tid, "salary", OwnedValue::Int(new_salary))?;
            ph.tr.span(op, "engine.write_buffer", t2, ph.tr.mark());
            Ok(rows)
        });
    match buffered {
        Ok(rows) => {
            let t3 = ph.tr.mark();
            let committed = session.commit(txn);
            ph.tr.span(op, "engine.commit", t3, ph.tr.mark());
            committed.map(|_| rows)
        }
        // A deadlock victim has already lost its locks and its writes.
        Err(TxnError::Deadlock) => Err(TxnError::Deadlock),
        Err(e) => {
            session.abort(txn);
            Err(e)
        }
    }
}

/// One read-modify-write op, retried from the top while it is the deadlock
/// victim (two clients that both hold S on a partition and both want X).
fn rmw_txn(session: &Sess, shared: &Shared, ph: &mut Phase, id: i64) {
    let new_salary = ph.rng.below(SALARY_SPAN);
    let tid = shared.rows[id as usize].1;
    let op = ph.begin_op();
    let t0 = ph.tr.now();
    let mut tries = 0;
    let result = loop {
        match rmw_attempt(session, ph, op, id, tid, new_salary) {
            Err(TxnError::Deadlock) if tries < RETRY_BUDGET => {
                tries += 1;
                ph.retries += 1;
            }
            other => break other,
        }
    };
    let t1 = ph.tr.now();
    ph.end_op(op, t0, t1);
    match result {
        Ok(rows) => {
            ph.write_commits += 1;
            ph.user_bytes += 8;
            let old = shared.salary[id as usize].swap(new_salary, Relaxed);
            if rows != [vec![OwnedValue::Int(old)]] {
                ph.fail(|| {
                    format!("rmw emp.id = {id}: read {rows:?}, last acknowledged salary {old}")
                });
            }
        }
        Err(e) => ph.fail(|| format!("rmw emp.id = {id}: {e}")),
    }
}

/// `phases.len()` clients; each: 70% point read, 10% 20-row range read,
/// 20% read-modify-write. Half of all keys come from a hot set of 1% of
/// the rows (every 100th id, so the hot rows spread over all partitions).
/// A client writes only rows whose id is its own number modulo the client
/// count, so every client knows exactly what its own rows must hold.
pub fn mixed_clients(mut bench: Bench, phases: Vec<Phase>) -> Res<(Bench, Vec<Phase>)> {
    let n = bench.model.loaded;
    let shared = Shared {
        rows: bench
            .model
            .emp
            .values()
            .map(|r| (r.ename.clone(), r.tid))
            .collect(),
        salary: bench
            .model
            .emp
            .values()
            .map(|r| AtomicI64::new(r.salary))
            .collect(),
        clients: phases.len() as i64,
    };
    if shared.rows.len() as i64 != n {
        return Err("mixed_clients needs the dense ids of a freshly loaded dataset".into());
    }
    let engine = &bench.engine;
    let shared_ref = &shared;
    let phases: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = phases
            .into_iter()
            .enumerate()
            .map(|(me, mut ph)| {
                let me = me as i64;
                scope.spawn(move || {
                    let session = engine.session();
                    while ph.running() {
                        let key = if ph.rng.below(2) == 0 {
                            ph.rng.below(n / 100) * 100
                        } else {
                            ph.rng.below(n)
                        };
                        let kind = ph.rng.below(100);
                        if kind < 80 {
                            read_txn(&session, &mut ph, key, kind >= 70, |lo, hi| {
                                shared_ref.expect(me, lo, hi)
                            });
                        } else {
                            // The nearest row this client owns.
                            let own = key - key % shared_ref.clients + me;
                            let own = if own >= n {
                                own - shared_ref.clients
                            } else {
                                own
                            };
                            rmw_txn(&session, shared_ref, &mut ph, own);
                        }
                    }
                    ph
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a mixed_clients client panicked"))
            .collect::<Result<_, _>>()
    })?;
    for (row, salary) in bench.model.emp.values_mut().zip(&shared.salary) {
        row.salary = salary.load(Relaxed);
    }
    Ok((bench, phases))
}
