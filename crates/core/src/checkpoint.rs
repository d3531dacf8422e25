//! Explicit checkpointing of partition images to the disk copy.
//!
//! §2.4 tracks which partitions are dirty but leaves *when* their images
//! reach disk to the log device. A [`Checkpointer`] makes that explicit:
//! it walks every relation's checkpoint-dirty partition set, serializes
//! each partition image through the [`mmdb_recovery::RecoveryManager`],
//! resets that partition's dirty bit, and truncates the log (stable
//! buffer + device accumulation) up to the partition's checkpoint LSN —
//! bounding both restart work and log growth.
//!
//! The checkpoint is **fuzzy**: it runs one partition at a time
//! ([`Checkpointer::step`]) and tolerates live committed updates between
//! steps. Correctness comes from per-partition LSN cuts — each image is
//! captured immediately after taking its cut, so the image provably
//! covers every committed record below the cut and truncation never
//! drops a record the image does not subsume. A partition re-dirtied
//! after its image was captured simply stays (or becomes) dirty for the
//! next checkpoint, and its newer log records (at or past the cut)
//! survive truncation.
//!
//! Failure atomicity: the image write happens *before* any truncation,
//! so an injected I/O error (or a power cut mid-write) leaves the log
//! intact — restart still recovers from the surviving log layers, and
//! a torn image on disk is masked by the fresher, untruncated records.

use crate::db::{Database, TableId};
use crate::error::DbError;
use mmdb_recovery::{PartitionKey, StableStore};

/// What one full checkpoint pass accomplished.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Partition images written to the disk copy.
    pub images_written: usize,
    /// Log records (stable buffer + device accumulation) truncated
    /// because a checkpoint image now subsumes them.
    pub records_truncated: usize,
}

/// A resumable, fuzzy checkpoint over one [`Database`].
///
/// Created by [`Database::checkpoint_begin`], which snapshots the
/// checkpoint-dirty partition work list. Call [`Checkpointer::step`]
/// repeatedly — interleaving commits, aborts, and log-device cycles
/// freely between steps — until it returns `Ok(None)`.
#[derive(Debug)]
pub struct Checkpointer {
    /// Pending `(table, partition)` pairs, popped back-to-front.
    work: Vec<(TableId, u32)>,
    report: CheckpointReport,
}

impl Checkpointer {
    pub(crate) fn new(work: Vec<(TableId, u32)>) -> Self {
        Checkpointer {
            work,
            report: CheckpointReport::default(),
        }
    }

    /// Partitions still awaiting their image write.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.work.len()
    }

    /// Progress so far (also the final report once `step` returns
    /// `Ok(None)`).
    #[must_use]
    pub fn report(&self) -> CheckpointReport {
        self.report.clone()
    }

    /// Checkpoint the next pending partition: take an LSN cut, capture
    /// the image, write it to the disk copy, clear the partition's
    /// checkpoint-dirty bit, and truncate superseded log records.
    ///
    /// Returns the `(table, partition)` checkpointed, or `None` when the
    /// work list is exhausted. On an I/O error the partition stays on
    /// the work list and nothing is truncated — `step` can simply be
    /// retried.
    pub fn step<S: StableStore>(
        &mut self,
        db: &mut Database<S>,
    ) -> Result<Option<(TableId, u32)>, DbError> {
        let Some(&(t, p)) = self.work.last() else {
            return Ok(None);
        };
        let truncated = db.checkpoint_partition(t, p)?;
        self.work.pop();
        self.report.images_written += 1;
        self.report.records_truncated += truncated;
        Ok(Some((t, p)))
    }

    /// Drive [`Checkpointer::step`] to completion (a sharp checkpoint
    /// when not interleaved with updates).
    pub fn run<S: StableStore>(
        &mut self,
        db: &mut Database<S>,
    ) -> Result<CheckpointReport, DbError> {
        while self.step(db)?.is_some() {}
        Ok(self.report())
    }
}

impl<S: StableStore> Database<S> {
    /// Start a fuzzy checkpoint: snapshot the checkpoint-dirty partition
    /// sets of every relation into a work list. Partitions dirtied after
    /// this call are picked up by the *next* checkpoint.
    #[must_use]
    pub fn checkpoint_begin(&self) -> Checkpointer {
        let mut work = Vec::new();
        for (t, table) in self.tables.iter().enumerate() {
            for p in table.rel.checkpoint_dirty_partitions() {
                work.push((t, p));
            }
        }
        // Popped back-to-front: reverse so partitions checkpoint in
        // (table, partition) order.
        work.reverse();
        Checkpointer::new(work)
    }

    /// A complete checkpoint pass: re-persist the catalog, then write
    /// every checkpoint-dirty partition image and truncate the log
    /// records each image subsumes.
    pub fn checkpoint(&mut self) -> Result<CheckpointReport, DbError> {
        self.persist_catalog()?;
        self.checkpoint_begin().run(self)
    }

    /// Checkpoint one partition (the [`Checkpointer::step`] workhorse):
    /// cut, capture, write, clear dirty, truncate. Returns the number of
    /// log records truncated.
    pub(crate) fn checkpoint_partition(&mut self, t: TableId, p: u32) -> Result<usize, DbError> {
        let key = PartitionKey::new(t as u32, p);
        let rel = &mut self.tables[t].rel;
        let cut = self.recovery.checkpoint_cut();
        let image = rel.partition_image(p)?;
        let truncated = self.recovery.checkpoint_image(key, &image, cut)?;
        rel.clear_checkpoint_dirty(p);
        Ok(truncated)
    }
}
