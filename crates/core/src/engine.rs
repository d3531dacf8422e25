//! The multi-session transaction engine: strict 2PL at partition
//! granularity over a latched [`Database`].
//!
//! The paper (§2.5) argues a main-memory DBMS should lock *very large
//! granules* — partitions — because lock hold times are short and the CPU
//! cost of locking dominates. [`TxnEngine`] puts that design under real
//! concurrency: N sessions on N threads run read/write transactions
//! against one shared [`Database`], isolated by the partition
//! [`LockManager`] and serialized physically by a short-critical-section
//! engine latch.
//!
//! Two-level synchronization:
//!
//! * **The engine latch** (`Mutex<Database>`) serializes *physical* access
//!   to the shared data structures (relations, indexes, recovery
//!   buffers). It is only ever held for the duration of one
//!   operation — never across a blocking partition-lock acquisition, so a
//!   session waiting for a transaction lock cannot wedge the engine.
//! * **Partition locks** (shared [`LockManager`]) provide *logical*
//!   isolation across multi-operation transactions: reads S-lock every
//!   partition of each table they touch plus the table's
//!   [`APPEND_FENCE`]; writers X-lock their commit footprint (resolved
//!   partitions, predicted insert landings, and the fence for tables they
//!   grow). All locks are held to commit/abort — strict 2PL — so every
//!   committed history is conflict-serializable.
//!
//! Deadlocks are *detected*, not prevented: the lock manager's waits-for
//! graph refuses a wait that would close a cycle, the engine releases the
//! victim's locks, and the caller sees [`TxnError::Deadlock`]. Because
//! writes are deferred (buffered in the [`Transaction`], applied only at
//! commit once every lock is held), a victim's writes leave no trace — no
//! undo, in memory or in the log.
//!
//! Commit records are batched into the redo log by [`GroupCommit`]:
//! concurrent committers elect a leader per batch, the leader places every
//! member's commit marker into the stable log buffer under one latch
//! acquisition and runs the log device once, and followers wait for their
//! batch's completion. N writers thus amortize log-device flushes instead
//! of serializing on them.
//!
//! **Failure.** Recovery is redo-only (§2.4): a write that panics halfway
//! cannot be undone, only rebuilt from the log. A panic while the latch
//! is held poisons it, and the poison flag is the engine's failed state:
//! every later [`Session`] call returns [`TxnError::EngineFailed`], and
//! the only way on is [`TxnEngine::crash`] followed by
//! [`CrashedDatabase::recover_with`], exactly as after a power cut.

use crate::db::{Database, TableId, APPEND_FENCE};
use crate::error::DbError;
use crate::restart::CrashedDatabase;
use crate::txn::Transaction;
use mmdb_exec::Predicate;
use mmdb_lock::{LockError, LockManager, LockMode, LockTarget, TxnId};
use mmdb_recovery::{MemDisk, StableStore};
use mmdb_storage::{OwnedValue, TempList, TupleId};
use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

// Compile-time proof that the engine can share the database across
// client threads: this regressing (e.g. an `Rc` reintroduced into the
// relation/index plumbing) should fail here, not at a distant use site.
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<Database<MemDisk>>();

/// A transaction-level failure, distinct from query-level [`DbError`]s so
/// callers can pattern-match the retryable case.
#[derive(Debug)]
pub enum TxnError {
    /// Waiting for a lock would have closed a waits-for cycle. The
    /// transaction has been aborted (buffered writes discarded, locks
    /// released); the caller should retry it from the top.
    Deadlock,
    /// A panic under the engine latch (or in a group-commit flush) left
    /// memory in an unknown state. The engine serves nothing more:
    /// acknowledged commits are in the log, so recover with
    /// [`TxnEngine::crash`] and [`CrashedDatabase::recover_with`].
    EngineFailed,
    /// Any other database error (the transaction is not auto-aborted).
    Db(DbError),
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Deadlock => write!(f, "deadlock detected; transaction aborted"),
            TxnError::EngineFailed => write!(
                f,
                "engine failed: a panic under the engine latch; crash() and recover_with"
            ),
            TxnError::Db(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TxnError {}

impl From<DbError> for TxnError {
    fn from(e: DbError) -> Self {
        match e {
            DbError::Lock(LockError::Deadlock) => TxnError::Deadlock,
            other => TxnError::Db(other),
        }
    }
}

impl From<LockError> for TxnError {
    fn from(e: LockError) -> Self {
        match e {
            LockError::Deadlock => TxnError::Deadlock,
            other => TxnError::Db(DbError::Lock(other)),
        }
    }
}

/// Group-commit lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Transactions whose commit record was made durable.
    pub commits: u64,
    /// Batches flushed (= log-device runs triggered by commits).
    pub batches: u64,
    /// Size of the largest batch flushed.
    pub largest_batch: usize,
}

#[derive(Debug, Default)]
struct GroupState {
    /// Members of the forming batch (joined, record not yet durable).
    pending: Vec<TxnId>,
    /// Generation the forming batch will flush as (1-based).
    next_gen: u64,
    /// Highest generation whose flush completed.
    completed: u64,
    /// A leader is currently out flushing a batch.
    leader_active: bool,
    /// A leader's flush failed or panicked: no batch completes any more.
    failed: bool,
    stats: GroupCommitStats,
}

/// Leader/follower commit-record batching (see module docs).
#[derive(Debug)]
pub(crate) struct GroupCommit {
    state: Mutex<GroupState>,
    cv: Condvar,
}

impl GroupCommit {
    fn new() -> Self {
        GroupCommit {
            state: Mutex::new(GroupState {
                next_gen: 1,
                ..GroupState::default()
            }),
            cv: Condvar::new(),
        }
    }

    /// Join the forming batch and block until this transaction's commit
    /// record is durable. At most one thread (the batch leader) runs
    /// `flush` per generation; it receives every member of the batch.
    /// Invariant relied on below: a transaction in `pending` always
    /// belongs to generation `next_gen`, because the leader takes the
    /// whole pending set and bumps `next_gen` atomically.
    ///
    /// If a leader's `flush` fails or panics, the group fails: the leader
    /// wakes every waiter, and they and every later committer return
    /// [`TxnError::EngineFailed`] instead of waiting for a leader that is
    /// gone.
    fn commit_with<F>(&self, id: TxnId, flush: F) -> Result<(), TxnError>
    where
        F: FnOnce(&[TxnId]) -> Result<(), TxnError>,
    {
        let mut s = self.state.lock().unwrap_or_else(fail_stop);
        let my_gen = s.next_gen;
        s.pending.push(id);
        loop {
            if s.completed >= my_gen {
                return Ok(()); // a leader flushed our batch
            }
            if s.failed {
                return Err(TxnError::EngineFailed);
            }
            if !s.leader_active {
                // Become leader for our own generation.
                s.leader_active = true;
                let batch = std::mem::take(&mut s.pending);
                s.next_gen += 1;
                drop(s);
                let _unwind = FailOnUnwind(self);
                if let Err(e) = flush(&batch) {
                    self.fail();
                    return Err(e);
                }
                let mut s = self.state.lock().unwrap_or_else(fail_stop);
                s.leader_active = false;
                s.completed = my_gen;
                s.stats.commits += batch.len() as u64;
                s.stats.batches += 1;
                s.stats.largest_batch = s.stats.largest_batch.max(batch.len());
                self.cv.notify_all();
                return Ok(());
            }
            s = self.cv.wait(s).unwrap_or_else(fail_stop);
        }
    }

    /// No batch will complete any more: wake every waiter to fail. Runs
    /// while a leader unwinds, so it must not panic: a poisoned state is
    /// left as is, since every waiter re-raises that poison on waking.
    fn fail(&self) {
        if let Ok(mut s) = self.state.lock() {
            s.failed = true;
            s.leader_active = false;
        }
        self.cv.notify_all();
    }

    fn stats(&self) -> GroupCommitStats {
        self.state.lock().unwrap_or_else(fail_stop).stats
    }
}

/// A batch leader's unwind path: if `flush` panics, dropping this fails
/// the group, so no waiter sleeps on a leader that is gone.
struct FailOnUnwind<'a>(&'a GroupCommit);

impl Drop for FailOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.fail();
        }
    }
}

/// Poison handler for the group-commit state. Only this module's
/// bookkeeping runs under it (a leader flushes with it dropped), so
/// poison means that bookkeeping panicked: re-raise (fail-stop).
fn fail_stop<G>(_: PoisonError<G>) -> G {
    panic!("group-commit state poisoned: its bookkeeping panicked while holding it")
}

struct EngineInner<S: StableStore> {
    db: Mutex<Database<S>>,
    locks: Arc<LockManager>,
    group: GroupCommit,
}

impl<S: StableStore> EngineInner<S> {
    /// The engine latch. Its poison flag is the failed state: a panic
    /// while any closure held the latch — `&mut Database` or `&Database`
    /// alike — may have left relations and indexes diverged, so nothing
    /// is served from them again.
    fn latch(&self) -> Result<MutexGuard<'_, Database<S>>, TxnError> {
        self.db.lock().map_err(|_| TxnError::EngineFailed)
    }
}

/// The shared engine. Cheap to clone; hand a [`Session`] to each client
/// thread.
pub struct TxnEngine<S: StableStore = MemDisk> {
    inner: Arc<EngineInner<S>>,
}

impl<S: StableStore> Clone for TxnEngine<S> {
    fn clone(&self) -> Self {
        TxnEngine {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// An open engine transaction: the buffered write set plus the doomed
/// flag set when a deadlock abort already released its locks.
#[derive(Debug)]
pub struct Txn {
    inner: Transaction,
    doomed: bool,
}

impl Txn {
    /// The lock-manager transaction id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.inner.id()
    }

    /// True when the transaction has no buffered writes.
    #[must_use]
    pub fn is_read_only(&self) -> bool {
        self.inner.is_read_only()
    }
}

impl<S: StableStore> TxnEngine<S> {
    /// Wrap a database for multi-session use.
    #[must_use]
    pub fn new(db: Database<S>) -> Self {
        let locks = Arc::clone(&db.locks);
        TxnEngine {
            inner: Arc::new(EngineInner {
                db: Mutex::new(db),
                locks,
                group: GroupCommit::new(),
            }),
        }
    }

    /// A session handle for one client thread.
    #[must_use]
    pub fn session(&self) -> Session<S> {
        Session {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Run `f` with exclusive access to the database, outside any
    /// transaction. For administration (creating tables and indexes,
    /// checkpointing) before or between concurrent phases — `f` bypasses
    /// partition locking, so do not interleave it with live transactions
    /// that touch the same tables.
    ///
    /// # Panics
    ///
    /// On a failed engine (see [`TxnError::EngineFailed`]); recover it
    /// with [`TxnEngine::crash`] and [`CrashedDatabase::recover_with`].
    pub fn with_db<R>(&self, f: impl FnOnce(&mut Database<S>) -> R) -> R {
        let Ok(mut db) = self.inner.latch() else {
            panic!(
                "engine failed: a panic under the engine latch left memory diverged; \
                 recover with TxnEngine::crash() and CrashedDatabase::recover_with"
            );
        };
        f(&mut db)
    }

    /// Group-commit counters (batching effectiveness).
    #[must_use]
    pub fn group_commit_stats(&self) -> GroupCommitStats {
        self.inner.group.stats()
    }

    /// Total lock requests issued through the shared lock manager.
    #[must_use]
    pub fn lock_request_count(&self) -> u64 {
        self.inner.locks.request_count()
    }

    /// Unwrap the engine back into the database. Returns `None` while
    /// other handles (engine clones or sessions) are still alive, and for
    /// a failed engine, whose memory must not be used; [`TxnEngine::crash`]
    /// takes both kinds.
    #[must_use]
    pub fn into_inner(self) -> Option<Database<S>> {
        Arc::try_unwrap(self.inner).ok()?.db.into_inner().ok()
    }

    /// Crash the engine: keep only what survives a power cut (the stable
    /// log buffer, the log device and the disk copy) for
    /// [`CrashedDatabase::recover_with`]. The one exit from a failed
    /// engine; a healthy one crashes the same way. Returns `None` while
    /// other handles (engine clones or sessions) are still alive.
    #[must_use]
    pub fn crash(self) -> Option<CrashedDatabase<S>> {
        let inner = Arc::try_unwrap(self.inner).ok()?;
        // The one place a poisoned latch is opened. `Database::crash`
        // keeps only the recovery manager and drops the relations and
        // indexes a panic may have left diverged; restart rebuilds them
        // from the log, which holds acknowledged commits only.
        let db = inner
            .db
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        Some(db.crash())
    }
}

/// A per-client handle: begin/read/write/commit/abort. Clone freely —
/// sessions are interchangeable; isolation lives with the [`Txn`], not
/// the session.
pub struct Session<S: StableStore = MemDisk> {
    inner: Arc<EngineInner<S>>,
}

impl<S: StableStore> Clone for Session<S> {
    fn clone(&self) -> Self {
        Session {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<S: StableStore> Session<S> {
    /// Open a transaction.
    #[must_use]
    pub fn begin(&self) -> Txn {
        Txn {
            inner: Transaction::new(self.inner.locks.begin()),
            doomed: false,
        }
    }

    /// Abort a deadlock victim in place: release everything it holds and
    /// refuse all further work on it.
    fn doom(&self, txn: &mut Txn) {
        self.inner.locks.release_all(txn.inner.id);
        txn.doomed = true;
    }

    /// Acquire `target` for `txn`, blocking outside the engine latch; on
    /// deadlock the transaction is doomed (locks released) and
    /// [`TxnError::Deadlock`] returned.
    fn acquire(&self, txn: &mut Txn, target: LockTarget, mode: LockMode) -> Result<(), TxnError> {
        if txn.doomed {
            return Err(TxnError::Deadlock);
        }
        match self.inner.locks.lock(txn.inner.id, target, mode) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.doom(txn);
                Err(e.into())
            }
        }
    }

    /// S-lock every partition of `table` plus its append fence, looping
    /// until the partition count is stable (a table that grew mid-loop is
    /// re-covered; once the fence is held shared, it cannot grow again).
    fn lock_table_read(&self, txn: &mut Txn, table: &str) -> Result<TableId, TxnError> {
        let (t, mut n) = {
            let db = self.inner.latch()?;
            let t = db.table_id(table).map_err(TxnError::Db)?;
            (t, db.table_partition_count(t))
        };
        loop {
            for p in 0..n {
                self.acquire(txn, LockTarget::new(t as u32, p as u32), LockMode::Shared)?;
            }
            self.acquire(
                txn,
                LockTarget::new(t as u32, APPEND_FENCE),
                LockMode::Shared,
            )?;
            let now = self.inner.latch()?.table_partition_count(t);
            if now == n {
                return Ok(t);
            }
            n = now;
        }
    }

    /// Run a read closure against the database with `tables` S-locked for
    /// the rest of the transaction (repeatable reads, no phantoms). The
    /// closure runs under the engine latch — keep it to query work. A
    /// panic in it fails the engine, as a panicking write would.
    pub fn read<R>(
        &self,
        txn: &mut Txn,
        tables: &[&str],
        f: impl FnOnce(&Database<S>) -> Result<R, DbError>,
    ) -> Result<R, TxnError> {
        for table in tables {
            self.lock_table_read(txn, table)?;
        }
        let db = self.inner.latch()?;
        f(&db).map_err(TxnError::Db)
    }

    /// Transactional selection (the §4 access-path preference ordering).
    pub fn select(
        &self,
        txn: &mut Txn,
        table: &str,
        attr: &str,
        pred: &Predicate,
    ) -> Result<TempList, TxnError> {
        self.read(txn, &[table], |db| db.select(table, attr, pred))
    }

    /// Transactional selection materialized to owned attribute values.
    pub fn select_values(
        &self,
        txn: &mut Txn,
        table: &str,
        attr: &str,
        pred: &Predicate,
        attrs: &[&str],
    ) -> Result<Vec<Vec<OwnedValue>>, TxnError> {
        self.read(txn, &[table], |db| {
            let tids = db.select(table, attr, pred)?;
            let flat: Vec<TupleId> = tids.iter().map(|row| row[0]).collect();
            db.fetch(table, &flat, attrs)
        })
    }

    /// Buffer an insert.
    pub fn insert(
        &self,
        txn: &mut Txn,
        table: &str,
        values: Vec<OwnedValue>,
    ) -> Result<(), TxnError> {
        if txn.doomed {
            return Err(TxnError::Deadlock);
        }
        let db = self.inner.latch()?;
        db.insert(&mut txn.inner, table, values)
            .map_err(TxnError::Db)
    }

    /// Buffer a single-attribute update.
    pub fn update(
        &self,
        txn: &mut Txn,
        table: &str,
        tid: TupleId,
        attr: &str,
        value: OwnedValue,
    ) -> Result<(), TxnError> {
        if txn.doomed {
            return Err(TxnError::Deadlock);
        }
        let db = self.inner.latch()?;
        db.update(&mut txn.inner, table, tid, attr, value)
            .map_err(TxnError::Db)
    }

    /// Buffer a delete.
    pub fn delete(&self, txn: &mut Txn, table: &str, tid: TupleId) -> Result<(), TxnError> {
        if txn.doomed {
            return Err(TxnError::Deadlock);
        }
        let db = self.inner.latch()?;
        db.delete(&mut txn.inner, table, tid).map_err(TxnError::Db)
    }

    /// Commit: X-lock the write footprint (outside the latch), apply and
    /// write-ahead-log the writes under the latch, group-commit the
    /// record, release all locks. Returns inserted tuple ids in order.
    ///
    /// The footprint is predicted, acquired, then *re-validated under the
    /// latch* in a loop: only when a latch-held recomputation shows every
    /// needed lock already granted do the writes apply — so a transaction
    /// that deadlocks during acquisition has touched nothing.
    pub fn commit(&self, txn: Txn) -> Result<Vec<TupleId>, TxnError> {
        if txn.doomed {
            return Err(TxnError::Deadlock);
        }
        let id = txn.inner.id;
        let committed = if txn.inner.is_read_only() {
            Ok(Vec::new())
        } else {
            self.apply_and_commit(txn.inner)
        };
        // Every exit releases here, a commit only once its record is
        // durable (strict 2PL: locks outlive the commit record).
        self.inner.locks.release_all(id);
        committed
    }

    /// [`Session::commit`]'s two phases, leaving the lock release to it.
    fn apply_and_commit(&self, mut t: Transaction) -> Result<Vec<TupleId>, TxnError> {
        // Phase A: acquire + revalidate + apply.
        let mut targets = {
            let db = self.inner.latch()?;
            db.commit_lock_targets(&t).map_err(TxnError::Db)?
        };
        let inserted = loop {
            for target in &targets {
                self.inner.locks.lock(t.id, *target, LockMode::Exclusive)?;
            }
            let mut db = self.inner.latch()?;
            let now = db.commit_lock_targets(&t).map_err(TxnError::Db)?;
            let held: HashSet<LockTarget> = self.inner.locks.held(t.id).into_iter().collect();
            if now.iter().all(|x| held.contains(x)) {
                let writes = std::mem::take(&mut t.writes);
                match db.apply_and_log(t.id, writes) {
                    Ok(ins) => break ins,
                    Err(e) => {
                        db.abort(t);
                        return Err(TxnError::Db(e));
                    }
                }
            }
            targets = now;
        };

        // Phase B: group-commit the record. On a failed engine the commit
        // fails with `EngineFailed`; its record is then in the log wholly
        // or not at all.
        self.inner.group.commit_with(t.id, |batch| {
            let mut db = self.inner.latch()?;
            for member in batch {
                db.mark_committed(*member);
            }
            // Push committed records toward the disk copy; device errors
            // (e.g. an injected power cut) do not fail the commit — the
            // record is already in the stable log buffer, which is the
            // durability point (§2.4 stable memory).
            let _ = db.run_log_device();
            Ok(())
        })?;
        Ok(inserted)
    }

    /// Abort: discard buffered writes, release all locks. No undo is ever
    /// needed: writes are deferred to commit, so an open transaction has
    /// nothing in the database or the log, and abort takes no latch.
    pub fn abort(&self, txn: Txn) {
        self.inner.locks.release_all(txn.inner.id);
    }

    /// Run `body` in a fresh transaction, committing on success and
    /// retrying (up to `attempts` times) when it or the commit deadlocks.
    /// Returns the body result and the committed transaction's inserted
    /// tuple ids.
    pub fn with_retry<R>(
        &self,
        attempts: usize,
        mut body: impl FnMut(&Session<S>, &mut Txn) -> Result<R, TxnError>,
    ) -> Result<(R, Vec<TupleId>), TxnError> {
        for _ in 0..attempts {
            let mut txn = self.begin();
            match body(self, &mut txn) {
                Ok(r) => match self.commit(txn) {
                    Ok(ins) => return Ok((r, ins)),
                    Err(TxnError::Deadlock) => {}
                    Err(e) => return Err(e),
                },
                Err(TxnError::Deadlock) => {} // already doomed + released
                Err(e) => {
                    self.abort(txn);
                    return Err(e);
                }
            }
        }
        Err(TxnError::Deadlock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::apply_panic;
    use crate::IndexKind;
    use mmdb_exec::ExecConfig;
    use mmdb_recovery::{PartitionKey, SplitMix64};
    use mmdb_storage::{AttrType, KeyValue, Schema};
    use std::collections::BTreeMap;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    fn engine_with_table() -> TxnEngine {
        let engine = TxnEngine::new(Database::in_memory());
        engine.with_db(|db| {
            let schema = Schema::of(&[("k", AttrType::Int), ("v", AttrType::Int)]);
            db.create_table("t", schema).unwrap();
            db.create_index("t_k", "t", "k", crate::IndexKind::Hash)
                .unwrap();
        });
        engine
    }

    #[test]
    fn single_session_insert_select() {
        let engine = engine_with_table();
        let session = engine.session();
        let mut txn = session.begin();
        session
            .insert(&mut txn, "t", vec![OwnedValue::Int(1), OwnedValue::Int(10)])
            .unwrap();
        let ins = session.commit(txn).unwrap();
        assert_eq!(ins.len(), 1);

        let mut txn = session.begin();
        let rows = session
            .select_values(
                &mut txn,
                "t",
                "k",
                &Predicate::Eq(mmdb_storage::KeyValue::Int(1)),
                &["v"],
            )
            .unwrap();
        assert_eq!(rows, vec![vec![OwnedValue::Int(10)]]);
        session.commit(txn).unwrap();
    }

    #[test]
    fn group_commit_batches_concurrent_committers() {
        // Deterministically force a multi-member batch: the first
        // committer's flush blocks on a channel while two more join the
        // forming batch; the blocked leader's batch is a singleton, the
        // next leader takes both followers at once.
        let gc = GroupCommit::new();
        let gc = Arc::new(gc);
        let (enter_tx, enter_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();

        let g1 = Arc::clone(&gc);
        let leader = thread::spawn(move || {
            g1.commit_with(TxnId(1), |batch| {
                enter_tx.send(batch.len()).ok();
                release_rx.recv().ok();
                Ok(())
            })
        });
        // Wait until txn 1's leader is inside its flush.
        let first_batch = enter_rx.recv().unwrap_or(0);
        assert_eq!(first_batch, 1);

        let followers: Vec<_> = [2u64, 3u64]
            .into_iter()
            .map(|id| {
                let g = Arc::clone(&gc);
                thread::spawn(move || g.commit_with(TxnId(id), |_| Ok(())))
            })
            .collect();
        // Let the followers enqueue, then release the blocked leader.
        while gc.state.lock().unwrap().pending.len() < 2 {
            thread::yield_now();
        }
        release_tx.send(()).ok();
        leader.join().ok();
        for f in followers {
            f.join().ok();
        }

        let stats = gc.stats();
        assert_eq!(stats.commits, 3);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.largest_batch, 2);
    }

    #[test]
    fn engine_unwraps_after_sessions_drop() {
        let engine = engine_with_table();
        let session = engine.session();
        drop(session);
        assert!(engine.into_inner().is_some());
    }

    // ---- the engine-failed fence ---------------------------------------

    /// `k → v` for every row of a table `(k Int, v Int)`.
    type Rows = BTreeMap<i64, i64>;

    /// One buffered write, kept so a test can replay it on a model.
    #[derive(Debug, Clone, Copy)]
    enum Write {
        Insert(i64, i64),
        Update(i64, i64),
        Delete(i64),
    }

    fn replay(rows: &mut Rows, writes: &[Write]) {
        for w in writes {
            match *w {
                Write::Insert(k, v) | Write::Update(k, v) => rows.insert(k, v),
                Write::Delete(k) => rows.remove(&k),
            };
        }
    }

    fn rows_of<S: StableStore>(db: &Database<S>, table: &str) -> Rows {
        let tids = db.tids(table).unwrap();
        db.fetch(table, &tids, &["k", "v"])
            .unwrap()
            .into_iter()
            .map(|row| match row.as_slice() {
                [OwnedValue::Int(k), OwnedValue::Int(v)] => (*k, *v),
                other => panic!("unexpected row {other:?}"),
            })
            .collect()
    }

    /// `t(k, v)` with a hash index on `k` and a T-Tree on `v`, so an
    /// update of `v` deletes and re-inserts an index entry, plus an empty
    /// `u(k, v)` that shares no lock with `t`. Returns the engine, the
    /// committed rows of `t` and their tuple ids.
    fn fence_engine(rows: i64) -> (TxnEngine, Rows, BTreeMap<i64, TupleId>) {
        let engine = TxnEngine::new(Database::in_memory());
        engine.with_db(|db| {
            let schema = Schema::of(&[("k", AttrType::Int), ("v", AttrType::Int)]);
            db.create_table("t", schema).unwrap();
            db.create_index("t_k", "t", "k", IndexKind::Hash).unwrap();
            db.create_index("t_v", "t", "v", IndexKind::TTree).unwrap();
            let schema = Schema::of(&[("k", AttrType::Int), ("v", AttrType::Int)]);
            db.create_table("u", schema).unwrap();
            db.create_index("u_k", "u", "k", IndexKind::Hash).unwrap();
        });
        let session = engine.session();
        let mut txn = session.begin();
        let mut acked = Rows::new();
        for k in 0..rows {
            session
                .insert(
                    &mut txn,
                    "t",
                    vec![OwnedValue::Int(k), OwnedValue::Int(k * 10)],
                )
                .unwrap();
            acked.insert(k, k * 10);
        }
        let tids = acked
            .keys()
            .copied()
            .zip(session.commit(txn).unwrap())
            .collect();
        (engine, acked, tids)
    }

    /// The only exit from a failed engine: crash, restart from the log,
    /// and check the rebuilt database.
    fn crash_and_recover<S: StableStore + Sync>(engine: TxnEngine<S>) -> Database<S> {
        let crashed = engine.crash().expect("every other handle is gone");
        let (db, _) = crashed
            .recover_with(&[], ExecConfig::with_dop(2))
            .unwrap_or_else(|e| panic!("restart failed: {e}"));
        db.validate_indexes().unwrap();
        #[cfg(feature = "check")]
        db.deep_check().assert_ok();
        db
    }

    #[test]
    fn a_panic_in_with_db_fails_the_engine() {
        let (engine, mut acked, _) = fence_engine(8);
        let session = engine.session();
        // Buffered before the failure, committed after it.
        let mut late = session.begin();
        session
            .insert(
                &mut late,
                "t",
                vec![OwnedValue::Int(50), OwnedValue::Int(5)],
            )
            .unwrap();

        let caught = catch_unwind(AssertUnwindSafe(|| {
            engine.with_db(|db| {
                let mut txn = db.begin();
                db.insert(&mut txn, "t", vec![OwnedValue::Int(40), OwnedValue::Int(4)])
                    .unwrap();
                db.commit(txn).unwrap();
                panic!("administration bug after a commit");
            })
        }));
        assert!(caught.is_err());
        acked.insert(40, 4);

        assert!(matches!(session.commit(late), Err(TxnError::EngineFailed)));
        let mut txn = session.begin();
        let eq = Predicate::Eq(KeyValue::Int(0));
        assert!(matches!(
            session.select(&mut txn, "t", "k", &eq),
            Err(TxnError::EngineFailed)
        ));
        assert!(matches!(
            session.insert(&mut txn, "t", vec![OwnedValue::Int(60), OwnedValue::Int(6)]),
            Err(TxnError::EngineFailed)
        ));
        session.abort(txn);
        let refused = catch_unwind(AssertUnwindSafe(|| engine.with_db(|_| ())));
        let message = refused.expect_err("with_db refuses a failed engine");
        let message = message.downcast_ref::<&str>().unwrap();
        assert!(message.contains("crash()") && message.contains("recover_with"));
        drop(session);

        let db = crash_and_recover(engine);
        assert_eq!(rows_of(&db, "t"), acked);
    }

    #[test]
    fn a_failed_engine_does_not_unwrap() {
        let (engine, _, _) = fence_engine(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            engine.with_db(|_| panic!("fail the engine"));
        }));
        assert!(caught.is_err());
        assert!(engine.into_inner().is_none());
    }

    /// One seed of the apply-step oracle: a panic armed inside
    /// `apply_and_log` at a seed-chosen step of a seed-chosen commit.
    fn apply_panic_run(seed: u64) {
        const TXNS: u64 = 6;
        let mut rng = SplitMix64::new(seed);
        let (engine, mut acked, mut tids) = fence_engine(12);
        let session = engine.session();
        // A transaction buffered up front and committed after the panic,
        // on `u`, so it waits for no lock the panicked commit still holds.
        let mut late = session.begin();
        session
            .insert(
                &mut late,
                "u",
                vec![OwnedValue::Int(900), OwnedValue::Int(9)],
            )
            .unwrap();
        // Each transaction is insert, update, delete: one apply step each.
        let step = rng.next_u64() % TXNS * 3 + seed % 3;
        apply_panic::arm(u32::try_from(step).unwrap());
        let mut uncertain: Vec<Vec<Write>> = Vec::new();
        for i in 0..TXNS as i64 {
            let live: Vec<i64> = acked.keys().copied().collect();
            let n = live.len() as u64;
            let a = (rng.next_u64() % n) as usize;
            let b = (a + 1 + (rng.next_u64() % (n - 1)) as usize) % live.len();
            let v = (rng.next_u64() % 1000) as i64;
            let writes = [
                Write::Insert(100 + i, v),
                Write::Update(live[a], v + 1),
                Write::Delete(live[b]),
            ];
            let mut txn = session.begin();
            for w in writes {
                match w {
                    Write::Insert(k, v) => {
                        session.insert(&mut txn, "t", vec![OwnedValue::Int(k), OwnedValue::Int(v)])
                    }
                    Write::Update(k, v) => {
                        session.update(&mut txn, "t", tids[&k], "v", OwnedValue::Int(v))
                    }
                    Write::Delete(k) => session.delete(&mut txn, "t", tids[&k]),
                }
                .unwrap();
            }
            match catch_unwind(AssertUnwindSafe(|| session.commit(txn))) {
                Ok(Ok(inserted)) => {
                    replay(&mut acked, &writes);
                    tids.insert(100 + i, inserted[0]);
                    tids.remove(&live[b]);
                }
                Ok(Err(TxnError::EngineFailed)) | Err(_) => {
                    uncertain.push(writes.to_vec());
                    break;
                }
                Ok(Err(e)) => panic!("seed {seed}: unexpected {e}"),
            }
        }
        assert_eq!(uncertain.len(), 1, "seed {seed}: the armed step never ran");
        assert!(
            matches!(session.commit(late), Err(TxnError::EngineFailed)),
            "seed {seed}: a commit after the panic was served"
        );
        drop(session);

        // Acknowledged commits all survive; each failed one wholly or
        // not at all, in commit order.
        let db = crash_and_recover(engine);
        let late_rows = rows_of(&db, "u");
        assert!(late_rows.is_empty() || late_rows == Rows::from([(900, 9)]));
        let got = rows_of(&db, "t");
        let allowed: Vec<Rows> = (0..1u32 << uncertain.len())
            .map(|mask| {
                let mut rows = acked.clone();
                for (j, writes) in uncertain.iter().enumerate() {
                    if mask & (1 << j) != 0 {
                        replay(&mut rows, writes);
                    }
                }
                rows
            })
            .collect();
        assert!(
            allowed.contains(&got),
            "seed {seed} (panic at step {step}): recovered {got:?}, acknowledged {acked:?}, failed {uncertain:?}"
        );
    }

    #[test]
    fn a_panic_inside_apply_fails_the_engine_and_restart_drops_it() {
        for seed in 0..24 {
            apply_panic_run(seed);
        }
    }

    /// A disk copy whose writes panic once armed. The group-commit
    /// leader runs the log device inside its flush, so the first flush
    /// after arming panics there.
    struct PanicOnWrite {
        inner: MemDisk,
        armed: Arc<AtomicBool>,
    }

    impl StableStore for PanicOnWrite {
        fn write(&mut self, key: PartitionKey, image: &[u8]) -> std::io::Result<()> {
            assert!(
                !self.armed.load(Ordering::SeqCst),
                "injected disk-write panic"
            );
            self.inner.write(key, image)
        }
        fn read(&self, key: PartitionKey) -> std::io::Result<Option<Vec<u8>>> {
            self.inner.read(key)
        }
        fn keys(&self) -> std::io::Result<Vec<PartitionKey>> {
            self.inner.keys()
        }
        fn write_meta(&mut self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
            self.inner.write_meta(name, bytes)
        }
        fn read_meta(&self, name: &str) -> std::io::Result<Option<Vec<u8>>> {
            self.inner.read_meta(name)
        }
    }

    #[test]
    fn a_panicking_group_commit_leader_strands_no_committer() {
        const COMMITTERS: usize = 3;
        let armed = Arc::new(AtomicBool::new(false));
        let engine = TxnEngine::new(Database::with_disk(PanicOnWrite {
            inner: MemDisk::new(),
            armed: Arc::clone(&armed),
        }));
        // One table per committer, so no two of them share a lock.
        let mut tids = Vec::new();
        for c in 0..COMMITTERS {
            let name = format!("t{c}");
            engine.with_db(|db| {
                let schema = Schema::of(&[("k", AttrType::Int), ("v", AttrType::Int)]);
                db.create_table(&name, schema).unwrap();
                db.create_index(&format!("{name}_k"), &name, "k", IndexKind::Hash)
                    .unwrap();
            });
            let session = engine.session();
            let mut txn = session.begin();
            session
                .insert(
                    &mut txn,
                    &name,
                    vec![OwnedValue::Int(0), OwnedValue::Int(0)],
                )
                .unwrap();
            tids.push(session.commit(txn).unwrap()[0]);
        }
        armed.store(true, Ordering::SeqCst);

        let (done_tx, done_rx) = mpsc::channel();
        let handles: Vec<_> = tids
            .into_iter()
            .enumerate()
            .map(|(c, tid)| {
                let session = engine.session();
                let done = done_tx.clone();
                thread::spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let mut txn = session.begin();
                        session.update(&mut txn, &format!("t{c}"), tid, "v", OwnedValue::Int(1))?;
                        session.commit(txn)
                    }));
                    drop(session);
                    done.send(outcome.map(|r| r.map(|_| ()))).ok();
                })
            })
            .collect();
        let mut panicked = 0;
        for _ in 0..COMMITTERS {
            match done_rx
                .recv_timeout(Duration::from_secs(20))
                .expect("a committer is stranded behind the panicked leader")
            {
                Err(_) => panicked += 1,
                Ok(Err(TxnError::EngineFailed)) => {}
                Ok(other) => panic!("unexpected commit outcome {other:?}"),
            }
        }
        assert_eq!(panicked, 1, "exactly the first leader's flush panics");
        for h in handles {
            h.join().unwrap();
        }

        armed.store(false, Ordering::SeqCst);
        let db = crash_and_recover(engine);
        for c in 0..COMMITTERS {
            let rows = rows_of(&db, &format!("t{c}"));
            assert!(rows == Rows::from([(0, 0)]) || rows == Rows::from([(0, 1)]));
        }
    }

    #[test]
    fn a_panicking_leader_wakes_its_followers() {
        let gc = Arc::new(GroupCommit::new());
        let (enter_tx, enter_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let g1 = Arc::clone(&gc);
        let leader = thread::spawn(move || {
            g1.commit_with(TxnId(1), |_| {
                enter_tx.send(()).ok();
                release_rx.recv().ok();
                panic!("the leader's flush panics");
            })
        });
        enter_rx.recv().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let followers: Vec<_> = [2u64, 3]
            .into_iter()
            .map(|id| {
                let g = Arc::clone(&gc);
                let done = done_tx.clone();
                thread::spawn(move || done.send(g.commit_with(TxnId(id), |_| Ok(()))).ok())
            })
            .collect();
        while gc.state.lock().unwrap().pending.len() < 2 {
            thread::yield_now();
        }
        release_tx.send(()).ok();
        assert!(
            leader.join().is_err(),
            "the leader's panic reaches its caller"
        );
        for _ in 0..2 {
            let woke = done_rx
                .recv_timeout(Duration::from_secs(20))
                .expect("a follower is stranded");
            assert!(matches!(woke, Err(TxnError::EngineFailed)));
        }
        for f in followers {
            f.join().unwrap();
        }
        assert!(matches!(
            gc.commit_with(TxnId(4), |_| Ok(())),
            Err(TxnError::EngineFailed)
        ));
    }
}
