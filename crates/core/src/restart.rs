//! The restart seam (§2.4): what survives a crash, the working-set-first
//! parallel reload, and the bulk index construction that restart and
//! `create_index` share.

use crate::catalog::{decode_catalog, CatalogMeta};
use crate::db::{AnyIndex, Database, IndexKind, Table, TableIndex, CATALOG_SLOTS};
use crate::error::DbError;
use mmdb_exec::{run_tasks, ExecConfig};
use mmdb_index::adapter::{Adapter, HashAdapter};
use mmdb_index::sort::{radix_sort_by_tag, run_sort};
use mmdb_index::stats::Counters;
use mmdb_index::{ModifiedLinearHash, TTree, TTreeConfig};
use mmdb_lock::LockManager;
use mmdb_recovery::{PartitionKey, RecoveryManager, RestartPhase, StableStore};
use mmdb_storage::{for_each_exact_tag, AttrAdapter, Partition, Relation, TupleId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run length for the bulk-rebuild sort kernel: long enough that runs
/// stay L2-resident for `(u64, TupleId)` pairs (the same figure the
/// query kernels use).
const REBUILD_RUN_LEN: usize = 16_384;

/// Build one index over the current population of `rel` through the bulk
/// paths (DESIGN.md §16): snapshot `(key tag, tid)` pairs with a
/// monomorphic loop over the borrowed relation — the tuple-at-a-time
/// alternative re-dispatches through [`AnyIndex`] for every tuple — then
/// either sort + bottom-up T-Tree construction or a pre-sized hash fill.
/// A rebuilt T-Tree lists its entries in `(key, tid)` order. Returns the
/// index and its entry count.
pub(crate) fn build_index_bulk(
    rel: &Relation,
    attr: usize,
    kind: IndexKind,
    param: u32,
) -> (AnyIndex, usize) {
    let adapter = AttrAdapter::new(attr);
    match kind {
        IndexKind::TTree => {
            let mut tagged: Vec<(u64, TupleId)> = Vec::with_capacity(rel.len());
            if for_each_exact_tag(rel, attr, |tid, tag| tagged.push((tag, tid))) {
                // An `Int`/`Ptr` tag is the key: the tags, read straight
                // from the partition cells in ascending tid order, are all
                // the sort needs, and the stable radix pass keeps equal
                // keys in that tid order.
                radix_sort_by_tag(&mut tagged);
            } else {
                // A `Str` tag holds an 8-byte prefix and a `PtrList` tag
                // nothing: unequal tags decide without touching the tuple
                // (the §2.2 pointer-chase), ties fall back to the full
                // value order, then to the tid.
                tagged.extend(
                    rel.iter_tids()
                        .map(|tid| (adapter.entry_tag(rel, &tid), tid)),
                );
                let counters = Counters::default();
                run_sort(&mut tagged, REBUILD_RUN_LEN, &counters, &mut |a, b| {
                    a.0.cmp(&b.0)
                        .then_with(|| adapter.cmp_entries(rel, &a.1, &b.1))
                        .then_with(|| a.1.cmp(&b.1))
                });
            }
            let n = tagged.len();
            let tree = TTree::build_from_sorted(
                adapter,
                rel,
                TTreeConfig::with_node_size(param as usize),
                tagged,
            );
            (AnyIndex::TTree(tree), n)
        }
        IndexKind::Hash => {
            let hashed: Vec<(u64, TupleId)> = rel
                .iter_tids()
                .map(|tid| (adapter.hash_entry(rel, &tid), tid))
                .collect();
            let n = hashed.len();
            let mut h = ModifiedLinearHash::new(adapter, param as usize);
            h.bulk_fill_hashed(rel, hashed);
            (AnyIndex::Hash(h), n)
        }
    }
}

/// Wall-clock time spent in each restart phase (§2.4 order). Catalog and
/// working set gate availability; background and index rebuild gate full
/// restoration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryTimings {
    /// Reading + decoding the catalog shadow slots.
    pub catalog: Duration,
    /// Fetching, merging, decoding, and installing working-set partitions.
    pub working_set: Duration,
    /// Same for the remainder of the database.
    pub background: Duration,
    /// Bulk-rebuilding every index over the reloaded relations.
    pub index_rebuild: Duration,
}

/// How one index's restart rebuild went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexRebuildStat {
    /// Index name (catalog order).
    pub name: String,
    /// Entries loaded into the rebuilt structure.
    pub entries: usize,
    /// Wall-clock time for this index's rebuild task.
    pub elapsed: Duration,
}

/// A recovered-partition record: which partition, in which restart phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `(table name, partition, phase)` in load order — working set first.
    pub loaded: Vec<(String, u32, RestartPhase)>,
    /// Indexes rebuilt after reload.
    pub indexes_rebuilt: usize,
    /// Per-phase wall times.
    pub timings: RecoveryTimings,
    /// Per-index rebuild statistics, in catalog order.
    pub index_stats: Vec<IndexRebuildStat>,
}

/// A database after a crash: only the recovery components survive.
pub struct CrashedDatabase<S: StableStore> {
    pub(crate) recovery: RecoveryManager<S>,
}

impl<S: StableStore + Sync> CrashedDatabase<S> {
    /// The §2.4 restart: rebuild the catalog, load the named working-set
    /// partitions first (merging unapplied log updates on the fly), then
    /// the rest, and rebuild all indexes. Runs with the default execution
    /// config — parallel on a multicore host, serial on one core.
    pub fn recover(
        self,
        working_set: &[(&str, u32)],
    ) -> Result<(Database<S>, RecoveryReport), DbError> {
        self.recover_with(working_set, ExecConfig::default())
    }

    /// [`CrashedDatabase::recover`] with an explicit execution config
    /// (DESIGN.md §16). Image fetch + log merge, partition decode, and
    /// index rebuilds fan out on up to `exec.dop` pool workers; results
    /// are merged in plan order, so the recovered database (and any
    /// error) is bit-identical across `dop` values. A panicking pool
    /// task is no exception: it returns [`DbError::Exec`] with
    /// `ExecError::TaskPanicked` naming the lowest panicked task, at
    /// every dop. `exec.dop <= 1` reproduces the serial path with no
    /// thread spawned.
    pub fn recover_with(
        self,
        working_set: &[(&str, u32)],
        exec: ExecConfig,
    ) -> Result<(Database<S>, RecoveryReport), DbError> {
        let mut timings = RecoveryTimings::default();
        let catalog_start = Instant::now();
        // Read both shadow slots; the freshest epoch that still decodes
        // wins. A torn slot is reported (and skipped) — restart only
        // fails if no slot survives.
        let mut best: Option<(u64, CatalogMeta)> = None;
        let mut slot_errors: Vec<String> = Vec::new();
        let mut slots_present = 0usize;
        for slot in CATALOG_SLOTS {
            let Some(bytes) = self.recovery.read_meta(slot)? else {
                continue;
            };
            slots_present += 1;
            if bytes.len() < 8 {
                slot_errors.push(format!("{slot}: catalog truncated before epoch header"));
                continue;
            }
            let mut e = [0u8; 8];
            e.copy_from_slice(&bytes[..8]);
            let epoch = u64::from_le_bytes(e);
            match decode_catalog(&bytes[8..]) {
                Ok(meta) => {
                    let fresher = match &best {
                        Some((have, _)) => epoch > *have,
                        None => true,
                    };
                    if fresher {
                        best = Some((epoch, meta));
                    }
                }
                Err(err) => slot_errors.push(format!("{slot}: {err}")),
            }
        }
        let (catalog_epoch, meta) = match best {
            Some(found) => found,
            None if slots_present == 0 => {
                return Err(DbError::Catalog("no catalog on disk copy".into()))
            }
            None => {
                return Err(DbError::Catalog(format!(
                    "no catalog slot survived: {}",
                    slot_errors.join("; ")
                )))
            }
        };
        let mut db = Database {
            tables: meta
                .tables
                .iter()
                .map(|t| Table {
                    name: t.name.clone(),
                    rel: Relation::new(&t.name, t.schema.clone(), t.config),
                    indexes: Vec::new(),
                })
                .collect(),
            locks: Arc::new(LockManager::default()),
            recovery: self.recovery,
            catalog_epoch,
        };
        // Resolve the working set to partition keys.
        let mut keys = Vec::with_capacity(working_set.len());
        for (name, part) in working_set {
            let t = db.table_id(name)?;
            keys.push(PartitionKey::new(t as u32, *part));
        }
        let plan = db.recovery.restart_plan(&keys)?;
        timings.catalog = catalog_start.elapsed();

        // The two §2.4 reload phases: working set strictly first, then
        // the background remainder. Each phase fans its image fetch + log
        // merge and its partition decode over the pool, then installs
        // serially in plan order (installation is a cheap pointer swap;
        // ordering keeps the report and any error deterministic).
        let mut loaded = Vec::with_capacity(plan.len());
        let ws_start = Instant::now();
        let images =
            db.recovery
                .fetch_phase(&plan.working_set, RestartPhase::WorkingSet, exec.dop)?;
        install_images(&mut db, images, exec, &mut loaded)?;
        timings.working_set = ws_start.elapsed();
        let bg_start = Instant::now();
        let images =
            db.recovery
                .fetch_phase(&plan.background, RestartPhase::Background, exec.dop)?;
        install_images(&mut db, images, exec, &mut loaded)?;
        timings.background = bg_start.elapsed();

        // Rebuild indexes from the reloaded relations: one bulk-build
        // task per index on the pool. Builds only read their relation
        // (`Relation` is `Sync`), so tasks are independent; merge order
        // is catalog order regardless of completion order.
        let rebuild_start = Instant::now();
        let rels: Vec<&Relation> = meta
            .indexes
            .iter()
            .map(|im| {
                db.tables
                    .get(im.table as usize)
                    .map(|t| &t.rel)
                    .ok_or_else(|| {
                        DbError::Catalog(format!(
                            "index {} on unknown relation {}",
                            im.name, im.table
                        ))
                    })
            })
            .collect::<Result<_, _>>()?;
        let built: Vec<(AnyIndex, usize, Duration)> =
            run_tasks(meta.indexes.len(), exec.dop, |i| {
                let im = &meta.indexes[i];
                let start = Instant::now();
                let (index, entries) =
                    build_index_bulk(rels[i], im.attr as usize, im.kind, im.param);
                (index, entries, start.elapsed())
            })?;
        let mut index_stats = Vec::with_capacity(built.len());
        for (im, (index, entries, elapsed)) in meta.indexes.into_iter().zip(built) {
            index_stats.push(IndexRebuildStat {
                name: im.name.clone(),
                entries,
                elapsed,
            });
            db.tables[im.table as usize].indexes.push(TableIndex {
                name: im.name,
                attr: im.attr as usize,
                kind: im.kind,
                param: im.param,
                index,
            });
        }
        timings.index_rebuild = rebuild_start.elapsed();
        let rebuilt = index_stats.len();
        Ok((
            db,
            RecoveryReport {
                loaded,
                indexes_rebuilt: rebuilt,
                timings,
                index_stats,
            },
        ))
    }
}

/// Install one restart phase's images into the recovered tables: decode
/// on the pool when the phase's byte volume warrants it, install serially
/// in plan order (preserving the serial path's first-error semantics).
fn install_images<S: StableStore>(
    db: &mut Database<S>,
    images: Vec<(PartitionKey, Vec<u8>, RestartPhase)>,
    exec: ExecConfig,
    loaded: &mut Vec<(String, u32, RestartPhase)>,
) -> Result<(), DbError> {
    let total_bytes: usize = images.iter().map(|(_, img, _)| img.len()).sum();
    let dop = if exec.parallel_for(total_bytes) {
        exec.dop
    } else {
        1
    };
    let decoded = run_tasks(images.len(), dop, |i| {
        Partition::try_from_bytes(&images[i].1)
    })?;
    for ((key, _, phase), part) in images.into_iter().zip(decoded) {
        let t = key.relation as usize;
        if t >= db.tables.len() {
            return Err(DbError::Catalog(format!(
                "image for unknown relation {}",
                key.relation
            )));
        }
        let part = part.map_err(|e| match e {
            // A torn/truncated image must fail loudly with the
            // partition's identity, never be redone as-is.
            mmdb_storage::StorageError::CorruptImage(_) => DbError::CorruptPartition {
                table: db.tables[t].name.clone(),
                partition: key.partition,
                source: e,
            },
            other => DbError::Storage(other),
        })?;
        db.tables[t].rel.install_partition(key.partition, part);
        loaded.push((db.tables[t].name.clone(), key.partition, phase));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_exec::ExecError;
    use mmdb_recovery::MemDisk;
    use mmdb_storage::{AttrType, OwnedValue, Schema};

    /// A disk copy whose `read` of one partition panics, as a device or
    /// decoder bug would inside a restart worker.
    struct PanicOnRead {
        inner: MemDisk,
        poisoned: PartitionKey,
    }

    impl StableStore for PanicOnRead {
        fn write(&mut self, key: PartitionKey, image: &[u8]) -> std::io::Result<()> {
            self.inner.write(key, image)
        }
        fn read(&self, key: PartitionKey) -> std::io::Result<Option<Vec<u8>>> {
            assert_ne!(key, self.poisoned, "injected read panic");
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

    /// Three one-partition tables whose images are all on the disk copy,
    /// crashed; restart's background phase fetches them as tasks 0..3.
    fn crashed() -> CrashedDatabase<PanicOnRead> {
        let mut db = Database::with_disk(PanicOnRead {
            inner: MemDisk::new(),
            poisoned: PartitionKey::new(1, 0),
        });
        for name in ["a", "b", "c"] {
            db.create_table(name, Schema::of(&[("k", AttrType::Int)]))
                .unwrap();
            db.create_index(&format!("{name}_k"), name, "k", IndexKind::Hash)
                .unwrap();
            let mut txn = db.begin();
            db.insert(&mut txn, name, vec![OwnedValue::Int(1)]).unwrap();
            db.commit(txn).unwrap();
        }
        db.run_log_device().unwrap();
        db.crash()
    }

    #[test]
    fn a_panicking_restart_worker_is_the_same_typed_error_at_every_dop() {
        for dop in [1, 2] {
            match crashed().recover_with(&[], ExecConfig::with_dop(dop)) {
                Err(DbError::Exec(ExecError::TaskPanicked { task: 1 })) => {}
                Err(e) => panic!("dop {dop}: unexpected error {e}"),
                Ok(_) => panic!("dop {dop}: restart read the poisoned partition"),
            }
        }
    }
}
