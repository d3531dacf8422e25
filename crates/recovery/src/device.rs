//! The active log device (§2.4).
//!
//! *"During normal operation, the log device reads the updates of
//! committed transactions from the stable log buffer and updates the disk
//! copy of the database. The log device holds a change accumulation log,
//! so it does not need to update the disk version of the database every
//! time a partition is modified."*

use crate::disk::StableStore;
use crate::log::{LogRecord, PartitionKey, StableLogBuffer};
use std::collections::HashMap;

/// The log device: pulls committed records and accumulates the newest
/// image per partition until a flush writes them to the disk copy.
#[derive(Debug, Default)]
pub struct LogDevice {
    /// Change-accumulation log: newest (lsn, image) per partition.
    accumulated: HashMap<PartitionKey, (u64, Vec<u8>)>,
    /// Records pulled from the buffer, total (diagnostics).
    pulled: u64,
    /// Images written to disk, total (diagnostics).
    flushed: u64,
}

impl LogDevice {
    /// Create an idle device.
    #[must_use]
    pub fn new() -> Self {
        LogDevice::default()
    }

    /// Pull all committed records from the stable buffer into the
    /// change-accumulation log. Later images supersede earlier ones — this
    /// is the accumulation that spares the disk repeated writes.
    pub fn poll(&mut self, buffer: &mut StableLogBuffer) {
        for LogRecord {
            lsn, key, image, ..
        } in buffer.drain_committed()
        {
            self.pulled += 1;
            match self.accumulated.get(&key) {
                Some((old_lsn, _)) if *old_lsn > lsn => {}
                _ => {
                    self.accumulated.insert(key, (lsn, image));
                }
            }
        }
    }

    /// Write every accumulated image to the disk copy, clearing each
    /// entry only once its write succeeded. On a write failure the
    /// unwritten images — the failed one included — stay in the
    /// accumulation log, so a later retry (or a crash-restart reading
    /// [`LogDevice::pending`]) still sees them; a failed flush must never
    /// lose committed work. A write that panics leaves them there too.
    pub fn flush(&mut self, disk: &mut dyn StableStore) -> std::io::Result<()> {
        let mut keys: Vec<PartitionKey> = self.accumulated.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            if let Some((_, image)) = self.accumulated.get(&key) {
                disk.write(key, image)?;
                self.accumulated.remove(&key);
                self.flushed += 1;
            }
        }
        Ok(())
    }

    /// Place an image directly into the accumulation log (newest LSN
    /// still wins). Checkpoints use this as a guard copy: the image
    /// stays here — surviving any crash — until the in-place disk write
    /// is known good, so a torn overwrite can never destroy the only
    /// durable copy of a partition.
    pub fn stage(&mut self, key: PartitionKey, lsn: u64, image: Vec<u8>) {
        match self.accumulated.get(&key) {
            Some((old_lsn, _)) if *old_lsn > lsn => {}
            _ => {
                self.accumulated.insert(key, (lsn, image));
            }
        }
    }

    /// Checkpoint truncation: drop the accumulated image of `key` if its
    /// LSN is strictly below `below_lsn` (a checkpoint image at that cut
    /// supersedes it). Returns the number of images dropped (0 or 1).
    pub fn truncate(&mut self, key: PartitionKey, below_lsn: u64) -> usize {
        match self.accumulated.get(&key) {
            Some((lsn, _)) if *lsn < below_lsn => {
                self.accumulated.remove(&key);
                1
            }
            _ => 0,
        }
    }

    /// Unapplied image for a partition, if any — checked during restart:
    /// *"The log device is checked for any updates to that partition that
    /// have not yet been propagated to the disk copy."*
    #[must_use]
    pub fn pending(&self, key: PartitionKey) -> Option<(u64, &[u8])> {
        self.accumulated.get(&key).map(|(l, v)| (*l, v.as_slice()))
    }

    /// Keys with unapplied images.
    #[must_use]
    pub fn pending_keys(&self) -> Vec<PartitionKey> {
        let mut v: Vec<PartitionKey> = self.accumulated.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Total records pulled from the stable buffer.
    #[must_use]
    pub fn pulled(&self) -> u64 {
        self.pulled
    }

    /// Total images flushed to disk.
    #[must_use]
    pub fn flushed(&self) -> u64 {
        self.flushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::disk::StableStore;

    fn k(p: u32) -> PartitionKey {
        PartitionKey::new(0, p)
    }

    #[test]
    fn accumulation_supersedes_older_images() {
        let mut buf = StableLogBuffer::new();
        let mut dev = LogDevice::new();
        buf.log(1, k(0), vec![1]);
        buf.commit(1);
        dev.poll(&mut buf);
        buf.log(2, k(0), vec![2]);
        buf.log(2, k(1), vec![7]);
        buf.commit(2);
        dev.poll(&mut buf);
        assert_eq!(dev.pending(k(0)).unwrap().1, &[2]);
        assert_eq!(dev.pending_keys(), vec![k(0), k(1)]);
        assert_eq!(dev.pulled(), 3);
    }

    #[test]
    fn flush_writes_once_per_partition() {
        let mut buf = StableLogBuffer::new();
        let mut dev = LogDevice::new();
        let mut disk = MemDisk::new();
        for round in 0..10u8 {
            buf.log(u64::from(round), k(0), vec![round]);
            buf.commit(u64::from(round));
        }
        dev.poll(&mut buf);
        dev.flush(&mut disk).unwrap();
        // Ten updates accumulated into one disk write.
        assert_eq!(dev.flushed(), 1);
        assert_eq!(disk.read(k(0)).unwrap(), Some(vec![9]));
        assert!(dev.pending(k(0)).is_none(), "accumulation cleared");
    }

    #[test]
    fn out_of_order_poll_keeps_newest_lsn() {
        let mut buf = StableLogBuffer::new();
        let mut dev = LogDevice::new();
        // txn 2 logs after txn 1 but commits first.
        buf.log(1, k(3), vec![1]);
        buf.log(2, k(3), vec![2]);
        buf.commit(2);
        dev.poll(&mut buf);
        buf.commit(1);
        dev.poll(&mut buf);
        // txn 2's record has the higher LSN; it must win even though txn
        // 1's arrived later.
        assert_eq!(dev.pending(k(3)).unwrap().1, &[2]);
    }
}
