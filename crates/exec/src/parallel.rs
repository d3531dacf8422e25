//! Restart's worker pool and its fan-out configuration.
//!
//! A small std-only scoped pool (`std::thread::scope`; no external
//! runtime): [`run_tasks`] runs independent, index-tagged work units and
//! [`merge_indexed`] puts their results back in task order, so output
//! never depends on worker completion order. Restart uses it for image
//! fetch, partition decode and per-index rebuilds (DESIGN.md §16). The
//! query operators are single-threaded, as in the paper.

use crate::error::ExecError;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

/// Default [`ExecConfig::parallel_threshold`]: inputs whose estimated
/// working set fits a single core's private cache hierarchy run inline —
/// at this size thread spawn + merge overhead reliably exceeds any
/// speedup, on any host.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 1024 * 1024;

/// Restart's fan-out configuration: how many pool workers
/// `CrashedDatabase::recover_with` may use for image fetch, partition
/// decode and index rebuilds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Number of worker threads the pool may use. `1` means strictly
    /// serial execution on the calling thread.
    pub dop: usize,
    /// Inputs whose estimated working set is smaller than this many
    /// **bytes** run serially even when `dop > 1` (thread spawn + merge
    /// overhead dwarfs cache-resident inputs). `0` disables the floor.
    pub parallel_threshold: usize,
}

impl Default for ExecConfig {
    /// Default to the machine's available parallelism, with the
    /// [`DEFAULT_PARALLEL_THRESHOLD`] bytes floor.
    fn default() -> Self {
        ExecConfig {
            dop: available_workers(),
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
        }
    }
}

impl ExecConfig {
    /// Strictly serial execution on the calling thread.
    #[must_use]
    pub fn serial() -> Self {
        ExecConfig {
            dop: 1,
            parallel_threshold: 0,
        }
    }

    /// Explicit degree of parallelism (clamped to at least 1) with no
    /// byte floor — fan-out happens on any non-empty input, which is what
    /// the determinism tests want.
    #[must_use]
    pub fn with_dop(dop: usize) -> Self {
        ExecConfig {
            dop: dop.max(1),
            ..ExecConfig::serial()
        }
    }

    /// True when this config requests multi-threaded execution.
    #[must_use]
    pub fn is_parallel(&self) -> bool {
        self.dop > 1
    }

    /// True when work with an `approx_bytes` working-set estimate
    /// should fan out: `dop > 1` and the estimate is at least
    /// [`parallel_threshold`] bytes.
    ///
    /// [`parallel_threshold`]: ExecConfig::parallel_threshold
    #[must_use]
    pub fn parallel_for(&self, approx_bytes: usize) -> bool {
        self.is_parallel() && approx_bytes >= self.parallel_threshold
    }
}

/// The machine's available parallelism (cached: the pool consults it on
/// every dispatch to avoid spawning workers that can never run).
fn available_workers() -> usize {
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Run `tasks` independent work units on up to `dop` workers and return
/// their results **in task order**. Workers pull task indices from a
/// shared atomic counter, so uneven units balance automatically. The
/// calling thread participates as worker zero and only `workers - 1`
/// threads are spawned, with `workers` capped at the machine's available
/// parallelism; with one effective worker (or a single task) everything
/// runs inline with no spawn at all.
///
/// A task's panic is caught where the task runs, on the inline path and
/// on the pool alike, and surfaces as [`ExecError::TaskPanicked`] naming
/// the lowest panicked task index — so the error, like the results, does
/// not depend on `dop` or on worker timing.
pub fn run_tasks<T, F>(tasks: usize, dop: usize, f: F) -> Result<Vec<T>, ExecError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run = |task: usize| {
        catch_unwind(AssertUnwindSafe(|| f(task))).map_err(|_| ExecError::TaskPanicked { task })
    };
    let workers = dop.min(tasks).min(available_workers());
    if workers <= 1 {
        // In task order, so the first panic is the lowest.
        return (0..tasks).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, AtomicOrdering::Relaxed);
            if i >= tasks {
                break mine;
            }
            mine.push((i, run(i)));
        }
    };
    let mut tagged = Vec::with_capacity(tasks);
    std::thread::scope(|scope| {
        // The caller is worker 0; helpers spin up only for the rest.
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        tagged.extend(work());
        for helper in helpers {
            match helper.join() {
                Ok(part) => tagged.extend(part),
                // Tasks cannot unwind past `run`; this is the pool's own
                // bookkeeping failing, so hand the panic to the caller.
                Err(payload) => resume_unwind(payload),
            }
        }
    });
    // Every task ran, so the first `Err` in task order is the lowest.
    merge_indexed(tagged).into_iter().collect()
}

/// Merge worker-tagged results back into task order.
///
/// This is the pool's *only* merge rule: every unit's result is tagged
/// with its task index and sorted by that index, so output is a pure
/// function of the inputs and independent of worker completion order.
/// `mmdb-check` exercises this over permuted completion orders (the
/// merge-determinism invariant).
#[must_use]
pub fn merge_indexed<T>(mut tagged: Vec<(usize, T)>) -> Vec<T> {
    tagged.sort_unstable_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_tasks_returns_in_task_order() {
        let results = run_tasks(64, 8, |i| i * 3).unwrap();
        assert_eq!(results, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_task_is_the_same_typed_error_at_every_dop() {
        for dop in [1, 2, 8] {
            let err = run_tasks(16, dop, |i| {
                assert!(i != 5 && i != 11, "task {i} fails");
                i
            })
            .unwrap_err();
            assert_eq!(err, ExecError::TaskPanicked { task: 5 }, "dop {dop}");
        }
    }

    #[test]
    fn default_config_uses_available_parallelism() {
        assert!(ExecConfig::default().dop >= 1);
        assert_eq!(
            ExecConfig::default().parallel_threshold,
            DEFAULT_PARALLEL_THRESHOLD
        );
        assert!(!ExecConfig::serial().is_parallel());
        assert_eq!(ExecConfig::with_dop(0).dop, 1);
    }

    #[test]
    fn parallel_threshold_gates_fan_out_by_bytes() {
        let cfg = ExecConfig {
            dop: 8,
            parallel_threshold: 4096,
        };
        assert!(!cfg.parallel_for(4095));
        assert!(cfg.parallel_for(4096));
        assert!(ExecConfig::with_dop(8).parallel_for(0), "0 = no floor");
        assert!(!ExecConfig::serial().parallel_for(usize::MAX));
    }
}
