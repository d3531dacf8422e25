//! Parallel restart replay: the §2.4 two-phase plan fanned out on the
//! worker pool (DESIGN.md §16).
//!
//! Restart time directly gates availability — "the MM-DBMS should be able
//! to run at close to its normal rate" only once the working set is back —
//! yet every partition's recovery is independent: the freshest image is a
//! pure function of (committed buffer records, device accumulation, disk
//! copy) for that one [`PartitionKey`]. [`RecoveryManager::restart_with`]
//! exploits that by pulling image fetch + log merge for independent
//! partitions onto [`mmdb_exec::run_tasks`] workers, one phase at a time
//! (working set strictly before background, as the paper requires), and
//! merging results back **in plan order** so the output is bit-identical
//! to the serial [`RecoveryManager::restart`].
//!
//! Determinism notes:
//! * workers only *read* (`recover_image` takes `&self`), so there is no
//!   ordering hazard — any interleaving computes the same images;
//! * results are merged by task index, not completion order;
//! * at `dop <= 1`, with fewer than two keys in a phase, or on a machine
//!   with one core, `run_tasks` runs everything inline on the caller with
//!   no thread spawned — the serial path *is* the parallel path
//!   degenerated;
//! * on error the earliest failing key in plan order wins, though at
//!   `dop > 1` later fetches may already have run; a fetch that panics
//!   is the error `ExecError::TaskPanicked` (inside an `io::Error`)
//!   naming the lowest panicked task at every `dop`.
//!
//! This module is panic-path linted (`mmdb-lint.policy`): no indexing, no
//! unwraps, no arithmetic that can trap — restart is the one phase where
//! a panic means an unavailable database rather than a failed query.

use crate::disk::StableStore;
use crate::log::PartitionKey;
use crate::manager::{RecoveryManager, RestartPhase};
use mmdb_exec::run_tasks;

/// The two-phase restart plan: which partitions to recover and in which
/// order, resolved before any image is fetched. Produced by
/// [`RecoveryManager::restart_plan`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RestartPlan {
    /// Partitions requested by current transactions, loaded first
    /// (request order, deduplicated).
    pub working_set: Vec<PartitionKey>,
    /// The remainder of the database, loaded "by a background process"
    /// (sorted key order, disjoint from the working set).
    pub background: Vec<PartitionKey>,
}

impl RestartPlan {
    /// Total partitions in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.working_set.len() + self.background.len()
    }

    /// True when no partition needs recovering.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.working_set.is_empty() && self.background.is_empty()
    }

    /// Every `(key, phase)` pair in replay order: the working set, then
    /// the background phase.
    pub fn entries(&self) -> impl Iterator<Item = (PartitionKey, RestartPhase)> + '_ {
        let ws = self
            .working_set
            .iter()
            .map(|&k| (k, RestartPhase::WorkingSet));
        let bg = self
            .background
            .iter()
            .map(|&k| (k, RestartPhase::Background));
        ws.chain(bg)
    }
}

impl<S: StableStore + Sync> RecoveryManager<S> {
    /// [`RecoveryManager::restart`] with the per-partition image
    /// fetch + log merge spread over up to `dop` pool workers.
    ///
    /// Output (and error, if any) is bit-identical to the serial restart
    /// for every `dop`; `dop <= 1` runs inline with no thread spawned.
    pub fn restart_with(
        &self,
        working_set: &[PartitionKey],
        dop: usize,
    ) -> std::io::Result<Vec<(PartitionKey, Vec<u8>, RestartPhase)>> {
        let plan = self.restart_plan(working_set)?;
        let mut out = Vec::with_capacity(plan.len());
        // The phase boundary is a barrier: the paper's protocol promises
        // the working set is resident before background reload begins.
        out.extend(self.fetch_phase(&plan.working_set, RestartPhase::WorkingSet, dop)?);
        out.extend(self.fetch_phase(&plan.background, RestartPhase::Background, dop)?);
        Ok(out)
    }

    /// Recover one phase's partitions, returning `(key, image, phase)`
    /// in plan order. Partitions no layer knows an image for are
    /// skipped, exactly as in the serial path. Public so the database
    /// layer can time (and interleave work between) the two phases while
    /// reusing the same fan-out.
    pub fn fetch_phase(
        &self,
        keys: &[PartitionKey],
        phase: RestartPhase,
        dop: usize,
    ) -> std::io::Result<Vec<(PartitionKey, Vec<u8>, RestartPhase)>> {
        let fetched = run_tasks(keys.len(), dop, |i| match keys.get(i) {
            Some(&key) => self.recover_image(key),
            None => Ok(None),
        })
        // A worker's panic keeps its typed `ExecError` inside the
        // `io::Error`; `DbError`'s conversion unwraps it again.
        .map_err(std::io::Error::other)?;
        // `run_tasks` returns results in task order = plan order; the
        // first error in that order is the one the serial path would
        // have short-circuited on.
        let mut out = Vec::with_capacity(keys.len());
        for (key, res) in keys.iter().zip(fetched) {
            if let Some(img) = res? {
                out.push((*key, img, phase));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn key(r: u32, p: u32) -> PartitionKey {
        PartitionKey::new(r, p)
    }

    /// A manager with images spread across all three layers: disk copies,
    /// device-accumulated images, and committed-but-unpulled buffer
    /// records, with some keys shadowed at several layers.
    fn populated() -> RecoveryManager<MemDisk> {
        let mut m = RecoveryManager::new(MemDisk::new());
        for p in 0..12u32 {
            m.log_update(1, key(0, p), vec![1, p as u8]);
        }
        m.commit(1);
        m.run_log_device().expect("flush to disk");
        // Newer images for some partitions, pulled to the device but not
        // flushed.
        for p in 0..6u32 {
            m.log_update(2, key(0, p), vec![2, p as u8]);
        }
        m.commit(2);
        m.run_log_device_poll_only();
        // Newest images for a few partitions, committed in the buffer only.
        for p in 0..3u32 {
            m.log_update(3, key(0, p), vec![3, p as u8]);
        }
        m.commit(3);
        // A second relation only the buffer knows about.
        m.log_update(4, key(1, 0), vec![9]);
        m.commit(4);
        m
    }

    #[test]
    fn plan_partitions_and_dedups() {
        let m = populated();
        let ws = [key(0, 3), key(0, 1), key(0, 3), key(1, 0)];
        let plan = m.restart_plan(&ws).expect("plan");
        assert_eq!(plan.working_set, vec![key(0, 3), key(0, 1), key(1, 0)]);
        assert_eq!(plan.len(), 13);
        assert!(!plan.is_empty());
        // Background: sorted, disjoint from the working set.
        let mut expect: Vec<PartitionKey> = (0..12u32)
            .filter(|p| *p != 3 && *p != 1)
            .map(|p| key(0, p))
            .collect();
        expect.sort_unstable();
        assert_eq!(plan.background, expect);
        // entries() replays working set strictly first.
        let phases: Vec<RestartPhase> = plan.entries().map(|(_, ph)| ph).collect();
        assert_eq!(&phases[..3], &[RestartPhase::WorkingSet; 3]);
        assert!(phases[3..].iter().all(|p| *p == RestartPhase::Background));
    }

    #[test]
    fn parallel_restart_bit_identical_to_serial() {
        let m = populated();
        let ws = [key(0, 5), key(0, 0), key(1, 0)];
        let serial = m.restart(&ws).expect("serial");
        assert!(!serial.is_empty());
        for dop in [1, 2, 4, 8] {
            let parallel = m.restart_with(&ws, dop).expect("parallel");
            assert_eq!(serial, parallel, "dop {dop}");
        }
    }

    #[test]
    fn parallel_restart_on_empty_manager() {
        let m = RecoveryManager::new(MemDisk::new());
        for dop in [1, 4] {
            assert_eq!(m.restart_with(&[], dop).expect("restart"), vec![]);
            assert_eq!(
                m.restart_with(&[key(0, 0)], dop).expect("restart"),
                vec![],
                "unknown working-set key recovers nothing"
            );
        }
    }

    #[test]
    fn parallel_restart_freshest_image_wins() {
        let m = populated();
        let plan = m.restart_with(&[], 4).expect("restart");
        for (k, img, _) in &plan {
            let want = match k.partition {
                0..=2 => 3u8,
                3..=5 => 2,
                _ => 1,
            };
            if k.relation == 0 {
                assert_eq!(img.first(), Some(&want), "partition {}", k.partition);
            }
        }
    }
}
