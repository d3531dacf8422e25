//! The [`Database`] facade: catalog, transactions, and the direct
//! single-predicate read path. Plan binding lives in `bind.rs`, crash
//! restart in `restart.rs`.

use crate::bind::BoundSelect;
use crate::catalog::{encode_catalog, CatalogMeta, IndexMeta, TableMeta};
use crate::error::DbError;
use crate::restart::{build_index_bulk, CrashedDatabase};
use crate::txn::{Transaction, WriteOp};
use mmdb_exec::{
    choose_select_path, select_hash_index, select_scan_all, select_tree_index, Predicate,
};
use mmdb_index::traits::{OrderedIndex, UnorderedIndex};
use mmdb_index::{ModifiedLinearHash, TTree};
use mmdb_lock::{LockManager, LockMode, LockTarget, TxnId};
use mmdb_recovery::{MemDisk, PartitionKey, RecoveryManager, StableStore};
use mmdb_storage::{AttrAdapter, OwnedValue, PartitionConfig, Relation, Schema, TempList, TupleId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Identifies a table (position in catalog order).
pub type TableId = usize;

/// The two dynamic index structures the MM-DBMS design selected (§2.2):
/// the T-Tree for ordered data and Modified Linear Hashing for unordered
/// data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// T-Tree: ordered, supports ranges, merge joins, ordered scans.
    TTree,
    /// Modified Linear Hashing: exact match only, fastest lookups.
    Hash,
}

/// An engine index. Its operations compare through the relation of the
/// table that owns it, borrowed alongside.
pub(crate) enum AnyIndex {
    TTree(TTree<AttrAdapter>),
    Hash(ModifiedLinearHash<AttrAdapter>),
}

impl AnyIndex {
    fn insert(&mut self, rel: &Relation, tid: TupleId) {
        match self {
            AnyIndex::TTree(t) => t.insert(rel, tid),
            AnyIndex::Hash(h) => h.insert(rel, tid),
        }
    }

    fn delete_entry(&mut self, rel: &Relation, tid: &TupleId) -> bool {
        match self {
            AnyIndex::TTree(t) => t.delete_entry(rel, tid),
            AnyIndex::Hash(h) => h.delete_entry(rel, tid),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyIndex::TTree(t) => t.len(),
            AnyIndex::Hash(h) => h.len(),
        }
    }

    fn validate(&self, rel: &Relation) -> Result<(), String> {
        match self {
            AnyIndex::TTree(t) => t.validate(rel),
            AnyIndex::Hash(h) => h.validate(rel),
        }
    }
}

pub(crate) struct TableIndex {
    pub(crate) name: String,
    pub(crate) attr: usize,
    pub(crate) kind: IndexKind,
    pub(crate) param: u32,
    pub(crate) index: AnyIndex,
}

/// A relation and the indexes over it (§2.1: the relation is reached
/// through its indexes), owned by value with no guard of its own:
/// readers borrow `&Database` and writers `&mut Database` (under
/// [`crate::TxnEngine`], both inside its latch), so the borrow checker
/// already serialises every access. Index upkeep borrows `rel` and
/// `indexes` as disjoint fields.
pub(crate) struct Table {
    pub(crate) name: String,
    pub(crate) rel: Relation,
    /// In creation order.
    pub(crate) indexes: Vec<TableIndex>,
}

/// The memory-resident database (§2).
pub struct Database<S: StableStore = MemDisk> {
    pub(crate) tables: Vec<Table>,
    pub(crate) locks: Arc<LockManager>,
    pub(crate) recovery: RecoveryManager<S>,
    /// Monotone catalog version; selects which shadow slot the next
    /// persist writes (see [`Database::persist_catalog`]).
    pub(crate) catalog_epoch: u64,
}

/// Partition number used as a per-table append fence: transactional
/// readers S-lock it alongside every real partition of a table, and
/// transactions that grow the table (inserts, or updates that may
/// relocate a tuple) X-lock it — so a committed insert can never surface
/// as a phantom inside a concurrent reader's scan. Real partitions never
/// reach this id.
pub const APPEND_FENCE: u32 = u32::MAX;

/// Shadow slots for the catalog blob. Persists alternate between them,
/// so a torn write (power cut mid-catalog-write) can destroy at most
/// one slot — restart always finds the previous intact epoch in the
/// other.
pub(crate) const CATALOG_SLOTS: [&str; 2] = ["catalog.a", "catalog.b"];

impl Database<MemDisk> {
    /// A database whose disk copy is simulated in memory.
    #[must_use]
    pub fn in_memory() -> Self {
        Database::with_disk(MemDisk::new())
    }
}

impl<S: StableStore> Database<S> {
    /// A database over an explicit disk-copy backend (e.g.
    /// [`mmdb_recovery::FileDisk`]).
    pub fn with_disk(disk: S) -> Self {
        Database {
            tables: Vec::new(),
            locks: Arc::new(LockManager::default()),
            recovery: RecoveryManager::new(disk),
            catalog_epoch: 0,
        }
    }

    // ---- catalog -------------------------------------------------------

    pub(crate) fn table_id(&self, name: &str) -> Result<TableId, DbError> {
        self.tables
            .iter()
            .position(|t| t.name == name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    pub(crate) fn table(&self, id: TableId) -> &Table {
        &self.tables[id]
    }

    /// Create a table with default partition sizing.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<TableId, DbError> {
        if self.tables.iter().any(|t| t.name == name) {
            return Err(DbError::Duplicate(name.to_string()));
        }
        self.tables.push(Table {
            name: name.to_string(),
            rel: Relation::new(name, schema, PartitionConfig::default()),
            indexes: Vec::new(),
        });
        if let Err(e) = self.persist_catalog() {
            // DDL the disk copy never recorded must not stay live.
            self.tables.pop();
            return Err(e);
        }
        Ok(self.tables.len() - 1)
    }

    /// Create an index with the default parameter (T-Tree node size 30 /
    /// hash target chain length 2).
    pub fn create_index(
        &mut self,
        name: &str,
        table: &str,
        attr: &str,
        kind: IndexKind,
    ) -> Result<(), DbError> {
        let param = match kind {
            IndexKind::TTree => 30,
            IndexKind::Hash => 2,
        };
        if self
            .tables
            .iter()
            .flat_map(|t| &t.indexes)
            .any(|i| i.name == name)
        {
            return Err(DbError::Duplicate(name.to_string()));
        }
        let t = self.table_id(table)?;
        let rel = &self.table(t).rel;
        let attr_idx = rel.schema().index_of(attr)?;
        // Bulk-build over the existing population: one key snapshot, then
        // run-sort + bottom-up construction (T-Tree) or a pre-sized fill
        // (hash) — the same path restart uses.
        let (index, _entries) = build_index_bulk(rel, attr_idx, kind, param);
        self.tables[t].indexes.push(TableIndex {
            name: name.to_string(),
            attr: attr_idx,
            kind,
            param,
            index,
        });
        if let Err(e) = self.persist_catalog() {
            self.tables[t].indexes.pop();
            return Err(e);
        }
        Ok(())
    }

    pub(crate) fn persist_catalog(&mut self) -> Result<(), DbError> {
        let meta = CatalogMeta {
            tables: self
                .tables
                .iter()
                .map(|t| TableMeta {
                    name: t.name.clone(),
                    schema: t.rel.schema().clone(),
                    config: t.rel.config(),
                })
                .collect(),
            indexes: self
                .tables
                .iter()
                .enumerate()
                .flat_map(|(t, table)| {
                    table.indexes.iter().map(move |i| IndexMeta {
                        name: i.name.clone(),
                        table: t as u32,
                        attr: i.attr as u32,
                        kind: i.kind,
                        param: i.param,
                    })
                })
                .collect(),
        };
        // Shadow write: prefix the next epoch to the blob and write the
        // slot the current epoch did not use. A crash mid-write tears
        // this slot only; the other still decodes at the current epoch.
        // The epoch advances only once the write lands, so a failed
        // write is retried into the same slot, never the intact one.
        let epoch = self.catalog_epoch + 1;
        let mut blob = epoch.to_le_bytes().to_vec();
        blob.extend_from_slice(&encode_catalog(&meta));
        let slot = CATALOG_SLOTS[(epoch % 2) as usize];
        self.recovery.write_meta(slot, &blob)?;
        self.catalog_epoch = epoch;
        Ok(())
    }

    /// A table's relation, borrowed for as long as the database is.
    pub(crate) fn relation(&self, table: &str) -> Result<&Relation, DbError> {
        Ok(&self.table(self.table_id(table)?).rel)
    }

    /// Number of live tuples in a table.
    pub fn len(&self, table: &str) -> Result<usize, DbError> {
        Ok(self.relation(table)?.len())
    }

    /// Run a closure against the table's relation (read-only).
    pub fn with_relation<R>(
        &self,
        table: &str,
        f: impl FnOnce(&Relation) -> R,
    ) -> Result<R, DbError> {
        Ok(f(self.relation(table)?))
    }

    /// All live tuple ids of a table (via storage; the primary index scan
    /// would yield the same set).
    pub fn tids(&self, table: &str) -> Result<Vec<TupleId>, DbError> {
        Ok(self.relation(table)?.tids())
    }

    /// Check every index invariant (tests / debugging).
    pub fn validate_indexes(&self) -> Result<(), String> {
        for Table { rel, indexes, .. } in &self.tables {
            for i in indexes {
                i.index
                    .validate(rel)
                    .map_err(|e| format!("{}: {e}", i.name))?;
                let expect = rel.len();
                if i.index.len() != expect {
                    return Err(format!(
                        "{}: holds {} entries, relation has {expect}",
                        i.name,
                        i.index.len()
                    ));
                }
            }
        }
        Ok(())
    }

    // ---- transactions ---------------------------------------------------

    /// Open a transaction.
    pub fn begin(&self) -> Transaction {
        Transaction::new(self.locks.begin())
    }

    /// Buffer an insert.
    pub fn insert(
        &self,
        txn: &mut Transaction,
        table: &str,
        values: Vec<OwnedValue>,
    ) -> Result<(), DbError> {
        let t = self.table_id(table)?;
        if self.table(t).indexes.is_empty() {
            return Err(DbError::MissingIndex(table.to_string()));
        }
        self.table(t).rel.schema().check_row(&values)?;
        txn.writes.push(WriteOp::Insert { table: t, values });
        Ok(())
    }

    /// Buffer a single-attribute update.
    pub fn update(
        &self,
        txn: &mut Transaction,
        table: &str,
        tid: TupleId,
        attr: &str,
        value: OwnedValue,
    ) -> Result<(), DbError> {
        let t = self.table_id(table)?;
        let rel = &self.table(t).rel;
        let attr_idx = rel.schema().index_of(attr)?;
        let a = rel.schema().attr(attr_idx)?;
        if !a.ty.admits(&value) {
            return Err(DbError::Storage(mmdb_storage::StorageError::TypeMismatch {
                attr: attr_idx,
                expected: a.ty.name(),
                found: value.type_name(),
            }));
        }
        rel.resolve(tid)?;
        txn.writes.push(WriteOp::Update {
            table: t,
            tid,
            attr: attr_idx,
            value,
        });
        Ok(())
    }

    /// Buffer a delete.
    pub fn delete(&self, txn: &mut Transaction, table: &str, tid: TupleId) -> Result<(), DbError> {
        let t = self.table_id(table)?;
        self.table(t).rel.resolve(tid)?;
        txn.writes.push(WriteOp::Delete { table: t, tid });
        Ok(())
    }

    /// Commit: apply the write set (X-locking each touched partition),
    /// write partition after-images to the stable log buffer, and release
    /// all locks (strict 2PL). Returns the tuple ids of the transaction's
    /// inserts, in order.
    pub fn commit(&mut self, mut txn: Transaction) -> Result<Vec<TupleId>, DbError> {
        let writes = std::mem::take(&mut txn.writes);
        let inserted = self.apply_and_log(txn.id, writes)?;
        self.recovery.commit(txn.id.0);
        self.locks.release_all(txn.id);
        Ok(inserted)
    }

    /// The partition locks a transaction's write set will need at commit:
    /// resolved partitions for updates/deletes, predicted landing
    /// partitions for inserts, and the [`APPEND_FENCE`] for any table the
    /// transaction may grow. Sorted and deduplicated (a global acquisition
    /// order keeps lock-footprint reasoning simple; deadlocks are still
    /// detected, not prevented, because reads interleave). Predictions are
    /// only exact while the catalog latch is held — the transaction engine
    /// re-validates before applying.
    pub(crate) fn commit_lock_targets(
        &self,
        txn: &Transaction,
    ) -> Result<Vec<LockTarget>, DbError> {
        let mut targets = Vec::new();
        let mut inserts: HashMap<TableId, Vec<Vec<OwnedValue>>> = HashMap::new();
        for op in &txn.writes {
            match op {
                WriteOp::Insert { table, values } => {
                    inserts.entry(*table).or_default().push(values.clone());
                }
                WriteOp::Update {
                    table, tid, value, ..
                } => {
                    let rel = &self.table(*table).rel;
                    let phys = rel.resolve(*tid)?;
                    targets.push(LockTarget::new(*table as u32, phys.partition));
                    if matches!(value, OwnedValue::Str(_) | OwnedValue::PtrList(_)) {
                        // A heap-bearing update can overflow its partition
                        // and relocate the tuple wherever an insert would
                        // land — fence the table like an insert does.
                        let n = rel.partition_count() as u32;
                        for p in n.saturating_sub(2)..=n {
                            targets.push(LockTarget::new(*table as u32, p));
                        }
                        targets.push(LockTarget::new(*table as u32, APPEND_FENCE));
                    }
                }
                WriteOp::Delete { table, tid } => {
                    let phys = self.table(*table).rel.resolve(*tid)?;
                    targets.push(LockTarget::new(*table as u32, phys.partition));
                }
            }
        }
        for (t, rows) in inserts {
            for p in self.table(t).rel.predict_inserts(&rows) {
                targets.push(LockTarget::new(t as u32, p));
            }
            targets.push(LockTarget::new(t as u32, APPEND_FENCE));
        }
        targets.sort_unstable();
        targets.dedup();
        Ok(targets)
    }

    /// Apply and write-ahead-log a transaction's writes without ending the
    /// transaction: everything [`Database::commit`] does up to (but not
    /// including) the commit record and lock release. The transaction
    /// engine calls this under its latch with all partition locks already
    /// held, then group-commits the record and releases.
    pub(crate) fn apply_and_log(
        &mut self,
        txn_id: TxnId,
        writes: Vec<WriteOp>,
    ) -> Result<Vec<TupleId>, DbError> {
        // Pre-validate so the apply loop cannot fail halfway.
        let mut doomed: HashSet<(usize, TupleId)> = HashSet::new();
        for op in &writes {
            match op {
                WriteOp::Update { table, tid, .. } => {
                    if doomed.contains(&(*table, *tid)) {
                        return Err(DbError::Storage(mmdb_storage::StorageError::SlotEmpty(
                            *tid,
                        )));
                    }
                    self.table(*table).rel.resolve(*tid)?;
                }
                WriteOp::Delete { table, tid } => {
                    if !doomed.insert((*table, *tid)) {
                        return Err(DbError::Storage(mmdb_storage::StorageError::SlotEmpty(
                            *tid,
                        )));
                    }
                    self.table(*table).rel.resolve(*tid)?;
                }
                WriteOp::Insert { .. } => {}
            }
        }

        let mut inserted = Vec::new();
        let mut touched: HashSet<usize> = HashSet::new();
        for op in writes {
            match op {
                WriteOp::Insert { table, values } => {
                    let Table { rel, indexes, .. } = &mut self.tables[table];
                    let tid = rel.insert(&values)?;
                    #[cfg(test)]
                    apply_panic::step();
                    self.locks.lock(
                        txn_id,
                        LockTarget::new(table as u32, tid.partition),
                        LockMode::Exclusive,
                    )?;
                    for i in indexes.iter_mut() {
                        i.index.insert(rel, tid);
                    }
                    inserted.push(tid);
                    touched.insert(table);
                }
                WriteOp::Update {
                    table,
                    tid,
                    attr,
                    value,
                } => {
                    let Table { rel, indexes, .. } = &mut self.tables[table];
                    let phys = rel.resolve(tid)?;
                    self.locks.lock(
                        txn_id,
                        LockTarget::new(table as u32, phys.partition),
                        LockMode::Exclusive,
                    )?;
                    // Remove stale index entries while the old value is
                    // still readable.
                    for i in indexes.iter_mut().filter(|i| i.attr == attr) {
                        i.index.delete_entry(rel, &tid);
                    }
                    #[cfg(test)]
                    apply_panic::step();
                    rel.update_field(tid, attr, &value)?;
                    for i in indexes.iter_mut().filter(|i| i.attr == attr) {
                        i.index.insert(rel, tid);
                    }
                    touched.insert(table);
                }
                WriteOp::Delete { table, tid } => {
                    let Table { rel, indexes, .. } = &mut self.tables[table];
                    let phys = rel.resolve(tid)?;
                    self.locks.lock(
                        txn_id,
                        LockTarget::new(table as u32, phys.partition),
                        LockMode::Exclusive,
                    )?;
                    for i in indexes.iter_mut() {
                        i.index.delete_entry(rel, &tid);
                    }
                    #[cfg(test)]
                    apply_panic::step();
                    rel.delete(tid)?;
                    touched.insert(table);
                }
            }
        }

        // Write-ahead the after-images of every dirtied partition, then
        // commit the log.
        for t in touched {
            let rel = &mut self.tables[t].rel;
            for p in rel.dirty_partitions() {
                let image = rel.partition_image(p)?;
                self.recovery
                    .log_update(txn_id.0, PartitionKey::new(t as u32, p), image);
            }
            rel.clear_dirty();
        }
        Ok(inserted)
    }

    /// Abort: discard the buffered writes — "the log entry is removed and
    /// no undo is needed" (nothing touched the database).
    pub fn abort(&mut self, txn: Transaction) {
        self.recovery.abort(txn.id.0);
        self.locks.release_all(txn.id);
    }

    // ---- transaction-engine plumbing -----------------------------------

    /// Write the commit record for `txn_id` into the stable log buffer
    /// (the group-commit leader batches these, then flushes once).
    pub(crate) fn mark_committed(&mut self, txn_id: TxnId) {
        self.recovery.commit(txn_id.0);
    }

    /// Current partition count of table `t`.
    pub(crate) fn table_partition_count(&self, t: TableId) -> usize {
        self.table(t).rel.partition_count()
    }

    // ---- recovery plumbing ---------------------------------------------

    /// One cycle of the active log device (pull committed records,
    /// propagate to the disk copy).
    pub fn run_log_device(&mut self) -> Result<(), DbError> {
        self.recovery.run_log_device()?;
        Ok(())
    }

    /// Log-device diagnostics: `(records pulled, images flushed)`.
    #[must_use]
    pub fn log_device_counters(&self) -> (u64, u64) {
        self.recovery.device_counters()
    }

    /// Simulate a crash: the memory-resident database (relations and
    /// indexes) is lost; the stable log buffer, log device, and disk copy
    /// survive.
    #[must_use]
    pub fn crash(mut self) -> CrashedDatabase<S> {
        self.recovery.crash_volatile();
        CrashedDatabase {
            recovery: self.recovery,
        }
    }

    // ---- queries ---------------------------------------------------------

    /// Selection with the §4 preference ordering: hash lookup, then tree
    /// lookup, then sequential scan.
    pub fn select(&self, table: &str, attr: &str, pred: &Predicate) -> Result<TempList, DbError> {
        let t = self.table_id(table)?;
        let rel = &self.table(t).rel;
        let attr_idx = rel.schema().index_of(attr)?;
        let path = choose_select_path(
            self.availability(t, attr_idx),
            matches!(pred, Predicate::Eq(_)),
        );
        match self.bind_select(t, attr_idx, path, pred)? {
            BoundSelect::Hash(idx, key) => Ok(select_hash_index(idx, rel, key)),
            BoundSelect::Tree(idx) => Ok(select_tree_index(idx, rel, pred)),
            BoundSelect::Scan => Ok(select_scan_all(rel, attr_idx, pred)?),
        }
    }

    /// Materialize chosen attributes of a temp-list column into owned
    /// values (the final output step; this is the only copy ever made).
    pub fn fetch(
        &self,
        table: &str,
        tids: &[TupleId],
        attrs: &[&str],
    ) -> Result<Vec<Vec<OwnedValue>>, DbError> {
        let rel = self.relation(table)?;
        let idxs: Vec<usize> = attrs
            .iter()
            .map(|a| rel.schema().index_of(a))
            .collect::<Result<_, _>>()?;
        let mut out = Vec::with_capacity(tids.len());
        for tid in tids {
            let row: Vec<OwnedValue> = idxs
                .iter()
                .map(|i| rel.field(*tid, *i).map(|v| v.to_owned_value()))
                .collect::<Result<_, _>>()?;
            out.push(row);
        }
        Ok(out)
    }
}

#[cfg(feature = "check")]
impl<S: StableStore> Database<S> {
    /// Whole-database deep consistency check (the `mmdb-check` layer):
    /// deep structural validation of every index, exactly-once tuple
    /// reachability through each index, pointer-field liveness for
    /// precomputed joins, relation/partition reconciliation, lock-table
    /// discipline, and log-buffer LSN invariants.
    #[must_use]
    pub fn deep_check(&self) -> mmdb_check::Report {
        use mmdb_check::DeepCheck;
        use mmdb_storage::AttrType;
        let mut report = mmdb_check::Report::new();
        for table in &self.tables {
            let rel = &table.rel;
            report.merge(mmdb_check::storage_checks::check_relation(rel));
            let live: HashSet<TupleId> = rel.iter_tids().collect();
            for def in &table.indexes {
                report.merge(match &def.index {
                    AnyIndex::TTree(x) => x.deep_check(rel),
                    AnyIndex::Hash(x) => x.deep_check(rel),
                });
                let entries: Vec<TupleId> = match &def.index {
                    AnyIndex::TTree(x) => {
                        x.raw_nodes().into_iter().flat_map(|n| n.entries).collect()
                    }
                    AnyIndex::Hash(x) => {
                        x.raw_chains().into_iter().flat_map(|c| c.entries).collect()
                    }
                };
                let mut counts: std::collections::HashMap<TupleId, usize> =
                    std::collections::HashMap::new();
                for tid in &entries {
                    *counts.entry(*tid).or_insert(0) += 1;
                }
                for (tid, n) in &counts {
                    if !live.contains(tid) {
                        report.fail(
                            "database",
                            format!("index {} tuple {tid:?}", def.name),
                            "reachability",
                            format!("index holds a tuple not live in {}", table.name),
                        );
                    } else if *n != 1 {
                        report.fail(
                            "database",
                            format!("index {} tuple {tid:?}", def.name),
                            "reachability",
                            format!("tuple reachable {n} times (must be exactly once)"),
                        );
                    }
                }
                for tid in &live {
                    if !counts.contains_key(tid) {
                        report.fail(
                            "database",
                            format!("index {} tuple {tid:?}", def.name),
                            "reachability",
                            format!("live tuple of {} missing from the index", table.name),
                        );
                    }
                }
            }
            // Precomputed-join pointer fields must resolve to a live tuple
            // in some table (§2.1: tuple pointers replace foreign keys).
            for (attr, a) in rel.schema().attrs().iter().enumerate() {
                if !matches!(a.ty, AttrType::Ptr | AttrType::PtrList) {
                    continue;
                }
                for tid in rel.iter_tids() {
                    let targets: Vec<TupleId> = match rel.field(tid, attr) {
                        Ok(mmdb_storage::Value::Ptr(p)) => p.into_iter().collect(),
                        Ok(mmdb_storage::Value::PtrList(l)) => l,
                        Ok(_) => Vec::new(),
                        Err(e) => {
                            report.fail(
                                "database",
                                format!("{} tuple {tid:?} attr {attr}", table.name),
                                "pointer-field",
                                format!("live tuple field unreadable: {e}"),
                            );
                            continue;
                        }
                    };
                    for target in targets {
                        let resolves = self.tables.iter().any(|t| t.rel.resolve(target).is_ok());
                        if !resolves {
                            report.fail(
                                "database",
                                format!("{} tuple {tid:?} attr {attr}", table.name),
                                "pointer-field",
                                format!("pointer {target:?} does not resolve to a live tuple"),
                            );
                        }
                    }
                }
            }
        }
        report.merge(mmdb_check::lock_checks::check_lock_table(
            &self.locks.snapshot(),
        ));
        report.merge(mmdb_check::log_checks::check_log_buffer(
            self.recovery.log_buffer(),
        ));
        report
    }
}

/// Test seam: a panic armed at the `n`-th apply step (0-based, counted
/// on the arming thread) of [`Database::apply_and_log`]. Each write
/// passes one step, placed where a panic leaves memory diverged: an
/// insert between the relation and its indexes, an update between its
/// index deletes and the new value, a delete between its index deletes
/// and the relation.
#[cfg(test)]
pub(crate) mod apply_panic {
    use std::cell::Cell;

    thread_local! {
        static AT: Cell<Option<u32>> = const { Cell::new(None) };
    }

    /// Panic at this thread's `step`-th apply step from now on.
    pub(crate) fn arm(step: u32) {
        AT.with(|at| at.set(Some(step)));
    }

    pub(super) fn step() {
        AT.with(|at| match at.get() {
            Some(0) => {
                at.set(None);
                panic!("injected panic at an apply step");
            }
            Some(n) => at.set(Some(n - 1)),
            None => {}
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_recovery::RestartPhase;
    use mmdb_storage::{AttrType, KeyValue};

    fn emp_schema() -> Schema {
        Schema::of(&[("name", AttrType::Str), ("age", AttrType::Int)])
    }

    fn seeded_db() -> (Database, Vec<TupleId>) {
        let mut db = Database::in_memory();
        db.create_table("emp", emp_schema()).unwrap();
        db.create_index("emp_age", "emp", "age", IndexKind::TTree)
            .unwrap();
        db.create_index("emp_name", "emp", "name", IndexKind::Hash)
            .unwrap();
        let mut txn = db.begin();
        for (n, a) in [
            ("Dave", 24i64),
            ("Suzan", 27),
            ("Yaman", 54),
            ("Jane", 47),
            ("Cindy", 22),
            ("Old", 66),
        ] {
            db.insert(&mut txn, "emp", vec![n.into(), a.into()])
                .unwrap();
        }
        let tids = db.commit(txn).unwrap();
        (db, tids)
    }

    #[test]
    fn ddl_dml_select_roundtrip() {
        let (db, tids) = seeded_db();
        assert_eq!(db.len("emp").unwrap(), 6);
        assert_eq!(tids.len(), 6);
        db.validate_indexes().unwrap();
        // Tree range (Query 1 of the paper).
        let old = db
            .select("emp", "age", &Predicate::greater(KeyValue::Int(65)))
            .unwrap();
        assert_eq!(old.len(), 1);
        // Hash exact match.
        let jane = db
            .select("emp", "name", &Predicate::Eq(KeyValue::from("Jane")))
            .unwrap();
        assert_eq!(jane.len(), 1);
        let rows = db.fetch("emp", &jane.column(0), &["name", "age"]).unwrap();
        assert_eq!(rows[0], vec![OwnedValue::from("Jane"), OwnedValue::Int(47)]);
    }

    #[test]
    fn insert_requires_an_index() {
        let mut db = Database::in_memory();
        db.create_table("t", emp_schema()).unwrap();
        let mut txn = db.begin();
        let err = db
            .insert(&mut txn, "t", vec!["x".into(), OwnedValue::Int(1)])
            .unwrap_err();
        assert!(matches!(err, DbError::MissingIndex(_)));
        db.abort(txn);
    }

    #[test]
    fn abort_discards_everything() {
        let (mut db, _) = seeded_db();
        let mut txn = db.begin();
        db.insert(&mut txn, "emp", vec!["Ghost".into(), OwnedValue::Int(1)])
            .unwrap();
        db.abort(txn);
        assert_eq!(db.len("emp").unwrap(), 6);
        let ghost = db
            .select("emp", "name", &Predicate::Eq(KeyValue::from("Ghost")))
            .unwrap();
        assert!(ghost.is_empty());
    }

    #[test]
    fn update_maintains_indexes() {
        let (mut db, tids) = seeded_db();
        let mut txn = db.begin();
        db.update(&mut txn, "emp", tids[0], "age", OwnedValue::Int(99))
            .unwrap();
        db.commit(txn).unwrap();
        db.validate_indexes().unwrap();
        let hits = db
            .select("emp", "age", &Predicate::Eq(KeyValue::Int(99)))
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert!(db
            .select("emp", "age", &Predicate::Eq(KeyValue::Int(24)))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn delete_maintains_indexes() {
        let (mut db, tids) = seeded_db();
        let mut txn = db.begin();
        db.delete(&mut txn, "emp", tids[2]).unwrap();
        db.commit(txn).unwrap();
        db.validate_indexes().unwrap();
        assert_eq!(db.len("emp").unwrap(), 5);
        assert!(db
            .select("emp", "age", &Predicate::Eq(KeyValue::Int(54)))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn double_delete_in_one_txn_rejected() {
        let (mut db, tids) = seeded_db();
        let mut txn = db.begin();
        db.delete(&mut txn, "emp", tids[0]).unwrap();
        db.delete(&mut txn, "emp", tids[0]).unwrap();
        assert!(db.commit(txn).is_err() || db.len("emp").unwrap() == 5);
    }

    #[test]
    fn crash_and_recover_committed_state() {
        let (mut db, tids) = seeded_db();
        // An extra committed update.
        let mut txn = db.begin();
        db.update(&mut txn, "emp", tids[4], "age", OwnedValue::Int(23))
            .unwrap();
        db.commit(txn).unwrap();
        // And an uncommitted one that must vanish.
        let mut txn = db.begin();
        db.insert(&mut txn, "emp", vec!["Doomed".into(), OwnedValue::Int(1)])
            .unwrap();
        // (never committed)
        let crashed = db.crash();
        let (db2, report) = crashed.recover(&[("emp", 0)]).unwrap();
        assert_eq!(db2.len("emp").unwrap(), 6);
        assert_eq!(report.indexes_rebuilt, 2);
        assert_eq!(report.loaded[0].2, RestartPhase::WorkingSet);
        db2.validate_indexes().unwrap();
        let cindy = db2
            .select("emp", "name", &Predicate::Eq(KeyValue::from("Cindy")))
            .unwrap();
        let rows = db2.fetch("emp", &cindy.column(0), &["age"]).unwrap();
        assert_eq!(rows[0][0], OwnedValue::Int(23), "committed update survives");
        assert!(db2
            .select("emp", "name", &Predicate::Eq(KeyValue::from("Doomed")))
            .unwrap()
            .is_empty());
    }

    /// The whole-database deep check stays clean across tables, both
    /// index kinds, precomputed-join pointers, and update/delete churn.
    #[cfg(feature = "check")]
    #[test]
    fn deep_check_is_clean_through_churn() {
        let mut db = Database::in_memory();
        db.create_table("dept", Schema::of(&[("dname", AttrType::Str)]))
            .unwrap();
        db.create_index("dept_name", "dept", "dname", IndexKind::Hash)
            .unwrap();
        db.create_table(
            "emp",
            Schema::of(&[
                ("ename", AttrType::Str),
                ("age", AttrType::Int),
                ("dept", AttrType::Ptr),
            ]),
        )
        .unwrap();
        db.create_index("emp_age", "emp", "age", IndexKind::TTree)
            .unwrap();
        db.create_index("emp_name", "emp", "ename", IndexKind::Hash)
            .unwrap();
        let mut txn = db.begin();
        db.insert(&mut txn, "dept", vec!["Toy".into()]).unwrap();
        let toy = db.commit(txn).unwrap()[0];
        db.deep_check().assert_ok();
        let mut emps = Vec::new();
        for i in 0..40i64 {
            let mut txn = db.begin();
            db.insert(
                &mut txn,
                "emp",
                vec![
                    format!("e{i}").into(),
                    OwnedValue::Int(i % 7),
                    OwnedValue::Ptr(Some(toy)),
                ],
            )
            .unwrap();
            emps.extend(db.commit(txn).unwrap());
        }
        db.deep_check().assert_ok();
        for (i, tid) in emps.iter().enumerate() {
            let mut txn = db.begin();
            if i % 3 == 0 {
                db.delete(&mut txn, "emp", *tid).unwrap();
            } else {
                db.update(&mut txn, "emp", *tid, "age", OwnedValue::Int(99))
                    .unwrap();
            }
            db.commit(txn).unwrap();
            db.deep_check().assert_ok();
        }
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut db = Database::in_memory();
        db.create_table("t", emp_schema()).unwrap();
        assert!(matches!(
            db.create_table("t", emp_schema()),
            Err(DbError::Duplicate(_))
        ));
        db.create_index("i", "t", "age", IndexKind::TTree).unwrap();
        assert!(matches!(
            db.create_index("i", "t", "name", IndexKind::Hash),
            Err(DbError::Duplicate(_))
        ));
    }

    #[test]
    fn checkpoint_truncates_the_log_and_survives_a_crash() {
        let (mut db, _) = seeded_db();
        let report = db.checkpoint().unwrap();
        assert!(report.images_written >= 1);
        assert!(report.records_truncated >= 1);
        // Everything committed was subsumed by checkpoint images: the log
        // device finds nothing left to pull or flush.
        db.run_log_device().unwrap();
        assert_eq!(db.log_device_counters(), (0, 0));
        // A second checkpoint has no dirty partitions to write.
        let again = db.checkpoint().unwrap();
        assert_eq!(again.images_written, 0);
        // And the checkpoint alone is enough to restart from.
        let (db2, _) = db.crash().recover(&[("emp", 0)]).unwrap();
        assert_eq!(db2.len("emp").unwrap(), 6);
        db2.validate_indexes().unwrap();
    }

    #[test]
    fn fuzzy_checkpoint_interleaved_with_commits_recovers_exactly() {
        let (mut db, tids) = seeded_db();
        let mut ckpt = db.checkpoint_begin();
        assert!(ckpt.remaining() >= 1);
        // One step, then live updates land mid-checkpoint.
        ckpt.step(&mut db).unwrap();
        let mut txn = db.begin();
        db.update(&mut txn, "emp", tids[0], "age", OwnedValue::Int(80))
            .unwrap();
        db.insert(&mut txn, "emp", vec!["Mid".into(), OwnedValue::Int(33)])
            .unwrap();
        db.commit(txn).unwrap();
        ckpt.run(&mut db).unwrap();
        // The mid-checkpoint commit re-dirtied its partition.
        let trailing = db.checkpoint_begin();
        assert!(trailing.remaining() >= 1, "re-dirtied partition pending");
        let (db2, _) = db.crash().recover(&[("emp", 0)]).unwrap();
        assert_eq!(db2.len("emp").unwrap(), 7);
        db2.validate_indexes().unwrap();
        let hits = db2
            .select("emp", "age", &Predicate::Eq(KeyValue::Int(80)))
            .unwrap();
        assert_eq!(hits.len(), 1, "mid-checkpoint update survives");
        assert_eq!(
            db2.select("emp", "name", &Predicate::Eq(KeyValue::from("Mid")))
                .unwrap()
                .len(),
            1,
            "mid-checkpoint insert survives"
        );
    }

    #[test]
    fn restart_rejects_an_index_on_an_unknown_table() {
        let meta = CatalogMeta {
            tables: Vec::new(),
            indexes: vec![IndexMeta {
                name: "orphan".into(),
                table: 3,
                attr: 0,
                kind: IndexKind::TTree,
                param: 30,
            }],
        };
        let mut blob = 1u64.to_le_bytes().to_vec();
        blob.extend_from_slice(&encode_catalog(&meta));
        let mut disk = MemDisk::new();
        disk.write_meta(CATALOG_SLOTS[1], &blob).unwrap();
        let err = Database::with_disk(disk).crash().recover(&[]).err();
        assert!(
            matches!(&err, Some(DbError::Catalog(m)) if m.contains("unknown relation 3")),
            "{err:?}"
        );
    }

    #[test]
    fn log_device_propagates_to_disk() {
        let (mut db, _) = seeded_db();
        assert_eq!(db.log_device_counters(), (0, 0));
        db.run_log_device().unwrap();
        let (pulled, flushed) = db.log_device_counters();
        assert!(pulled > 0);
        assert!(flushed > 0);
    }
}
