//! Partition-parallel query execution (morsel-style).
//!
//! Lehman & Carey's §2 architecture partitions relations and locks at
//! partition granularity, but the paper's operators are single-threaded.
//! This module adds multicore variants of the three hot paths — selection
//! scan, hash/nested-loops join, and duplicate elimination — on top of a
//! small std-only scoped worker pool (`std::thread::scope`; no external
//! runtime).
//!
//! **Determinism rule:** every parallel operator must return *bit-identical
//! output* to its serial counterpart. Work is split into ordered units
//! (byte-sized morsels of partitions for scans, contiguous input chunks
//! for probes and dedup), each unit's result is produced independently,
//! and the units are merged back **in unit order** on the coordinating
//! thread. Where a shared read-only structure is needed (the hash-join
//! build table), it is built serially in the exact insertion order of the
//! serial operator, so per-key match order (reverse insertion, the
//! chained-bucket contract) is preserved.
//!
//! **Paying for itself:** fanning out only wins when the work outweighs
//! thread spawn + merge overhead, so dispatch is gated and sized in
//! *bytes* of estimated working set, not tuple or partition counts:
//!
//! * inputs under [`ExecConfig::parallel_threshold`] bytes run inline on
//!   the calling thread (dop is ignored — the work fits one core);
//! * above it, work splits into ~[`MORSEL_BYTES`] units pulled from a
//!   shared counter, so uneven units balance automatically;
//! * the calling thread is itself worker zero — only `workers - 1`
//!   threads are spawned, capped at the machine's available parallelism
//!   (extra workers on a saturated host are pure context-switch overhead).
//!
//! `dop = 1` never spawns a thread: callers (and [`run_chunks`] itself)
//! fall straight through to the serial code path.

use crate::error::ExecError;
use crate::join::{
    hash_join, theta_nested_loops_join, BatchProbeTable, JoinOutput, JoinSide, ThetaOp,
};
use crate::project::{hash_row, project_hash, row_values_into, rows_equal, ProjectOutput};
use crate::select::{select_scan_iter, Predicate};
use mmdb_index::stats::{Counters, Snapshot};
use mmdb_storage::{Relation, ResultDescriptor, TempList, TupleId};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;

/// Target working-set bytes of one parallel work unit (morsel): sized to
/// sit comfortably in a core's L2 slice, so a worker streams through its
/// morsel without round-trips to shared cache between units.
pub const MORSEL_BYTES: usize = 256 * 1024;

/// Default [`ExecConfig::parallel_threshold`]: inputs whose estimated
/// working set fits a single core's private cache hierarchy run inline —
/// at this size thread spawn + merge overhead reliably exceeds any
/// speedup, on any host.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 1024 * 1024;

/// Rough bytes one tuple contributes to an operator's working set: the
/// tuple-pointer bookkeeping plus the slice of tuple storage a
/// dereference actually touches (about a cache line).
pub(crate) const APPROX_TUPLE_BYTES: usize = 64;

/// Estimated working-set bytes of scanning/probing `n` tuples.
pub(crate) fn approx_scan_bytes(n: usize) -> usize {
    n.saturating_mul(APPROX_TUPLE_BYTES)
}

/// Degree-of-parallelism knob threaded through `Database::select`,
/// `Database::join`, and `QueryBuilder::run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Number of worker threads operators may use. `1` means strictly
    /// serial execution on the calling thread (the paper's code path).
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
    /// Strictly serial execution (the existing single-threaded operators).
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

    /// This config with only the degree of parallelism replaced — the
    /// per-query override knob (`QueryBuilder::parallelism`), which must
    /// not discard other configured fields.
    #[must_use]
    pub fn override_dop(self, dop: usize) -> Self {
        ExecConfig {
            dop: dop.max(1),
            ..self
        }
    }

    /// True when this config requests multi-threaded execution.
    #[must_use]
    pub fn is_parallel(&self) -> bool {
        self.dop > 1
    }

    /// True when an operator with an `approx_bytes` working-set estimate
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
/// shared atomic counter (morsel dispatch), so uneven units balance
/// automatically. The calling thread participates as worker zero and only
/// `workers - 1` threads are spawned, with `workers` capped at the
/// machine's available parallelism; with one effective worker (or a
/// single task) everything runs inline with no spawn at all.
///
/// Public so other layers can borrow the pool for their own fan-out —
/// restart uses it for partition replay and per-index rebuilds
/// (DESIGN.md §16) — while this crate's operators keep their dedicated
/// wrappers below.
pub fn run_tasks<T, F>(tasks: usize, dop: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_tasks_scratch::<T, (), _>(tasks, dop, |(), i| f(i))
}

/// [`run_tasks`] with a worker-local scratch value: each worker (or the
/// calling thread when running inline) creates one `S` and reuses it for
/// every unit it pulls, so a unit's scratch buffers keep their high-water
/// capacity across partitions instead of reallocating per unit.
fn run_tasks_scratch<T, S, F>(tasks: usize, dop: usize, f: F) -> Vec<T>
where
    T: Send,
    S: Default,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = dop.min(tasks).min(available_workers());
    if workers <= 1 {
        let mut scratch = S::default();
        return (0..tasks).map(|i| f(&mut scratch, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(tasks));
    let work = |_w: usize| {
        let mut scratch = S::default();
        loop {
            let i = next.fetch_add(1, AtomicOrdering::Relaxed);
            if i >= tasks {
                break;
            }
            let result = f(&mut scratch, i);
            slots
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push((i, result));
        }
    };
    std::thread::scope(|scope| {
        // The caller is worker 0; helpers spin up only for the rest.
        for w in 1..workers {
            scope.spawn(move || work(w));
        }
        work(0);
    });
    let collected = slots
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    merge_indexed(collected)
}

/// Merge worker-tagged results back into task order.
///
/// This is the pool's *only* merge rule: every parallel operator tags each
/// unit's result with its task index and sorts by that index, so output is
/// a pure function of the inputs and independent of worker completion
/// order. `mmdb-check` exercises this over permuted completion orders (the
/// merge-determinism invariant).
#[must_use]
pub fn merge_indexed<T>(mut tagged: Vec<(usize, T)>) -> Vec<T> {
    tagged.sort_unstable_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Split `len` items into exactly `min(chunks, len)` contiguous ranges of
/// near-equal size, in order. Returns an empty list for an empty input.
// mmdb-lint: allow(panic-path) — the divisors are `chunks.max(1).min(len)` after a len == 0 early return, so they are always >= 1
fn chunk_ranges(len: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = chunks.max(1).min(len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let size = base + usize::from(c < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// How many morsels to cut `len` items of `item_bytes` each into:
/// one per [`MORSEL_BYTES`] of estimated working set, but at least one
/// per worker (so everyone has work) and at most 8 per worker (so the
/// ordered merge stays cheap while the shared counter still balances
/// uneven units).
fn morsel_count(len: usize, item_bytes: usize, dop: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let dop = dop.max(1);
    let by_bytes = len.saturating_mul(item_bytes).div_ceil(MORSEL_BYTES);
    by_bytes.clamp(dop, dop.saturating_mul(8)).min(len)
}

/// Byte-sized morsels over `len` items: [`chunk_ranges`] with the chunk
/// count chosen by [`morsel_count`].
fn morsel_ranges(len: usize, item_bytes: usize, dop: usize) -> Vec<std::ops::Range<usize>> {
    chunk_ranges(len, morsel_count(len, item_bytes, dop))
}

/// Fan byte-sized morsels of work over the pool and merge per-morsel
/// `TempList`s (plus per-morsel stats) in morsel order.
// mmdb-lint: allow(panic-path) — `ranges[c]` task indices come from run_tasks(ranges.len(), ..), which only yields c < ranges.len()
fn run_chunks<F>(
    arity: usize,
    len: usize,
    dop: usize,
    f: F,
) -> Result<(TempList, Snapshot), ExecError>
where
    F: Fn(std::ops::Range<usize>) -> Result<(TempList, Snapshot), ExecError> + Sync,
{
    let ranges = morsel_ranges(len, APPROX_TUPLE_BYTES, dop);
    let results = run_tasks(ranges.len(), dop, |c| f(ranges[c].clone()));
    let mut lists = Vec::with_capacity(results.len());
    let mut stats = Snapshot::default();
    for r in results {
        let (list, s) = r?;
        stats = stats.plus(&s);
        lists.push(list);
    }
    Ok((TempList::merged(arity, lists)?, stats))
}

/// Parallel selection scan: contiguous groups of partitions are bundled
/// into byte-sized morsels (a partition is often far smaller than a
/// morsel), each unit walking its partitions' live slots in slot order;
/// results merge in partition order. Output is identical to
/// [`select_scan`](crate::select::select_scan) over [`Relation::tids`].
// mmdb-lint: allow(panic-path) — `groups[g]` indices come from run_tasks_scratch(groups.len(), ..); the part_bytes divisor is `parts.max(1)`
pub fn parallel_select_scan(
    rel: &Relation,
    attr: usize,
    pred: &Predicate,
    cfg: ExecConfig,
) -> Result<TempList, ExecError> {
    if !cfg.parallel_for(approx_scan_bytes(rel.len())) {
        return select_scan_iter(rel, attr, rel.iter_tids(), pred);
    }
    let parts = rel.partition_count();
    // Bundle partitions so one task's working set is ~MORSEL_BYTES
    // (estimated from the average partition population).
    let part_bytes = approx_scan_bytes(rel.len()).div_ceil(parts.max(1));
    let groups = morsel_ranges(parts, part_bytes.max(1), cfg.dop);
    // Each worker reuses one hit buffer across the partitions it scans
    // (cleared per group, capacity kept); the result is copied out at
    // the exact final size, so groups never pay geometric growth.
    let scan_group = |hits: &mut Vec<TupleId>, g: usize| -> Result<TempList, ExecError> {
        hits.clear();
        for p in groups[g].clone() {
            for tid in rel.tids_in_partition(p as u32)? {
                let v = rel.field(tid, attr)?;
                if pred.matches(&v) {
                    hits.push(tid);
                }
            }
        }
        Ok(TempList::from_tids(hits.as_slice().to_vec()))
    };
    let results = run_tasks_scratch(groups.len(), cfg.dop, scan_group);
    let mut lists = Vec::with_capacity(results.len());
    for r in results {
        lists.push(r?);
    }
    Ok(TempList::merged(1, lists)?)
}

/// Parallel hash join: build the chained-bucket table on the inner side
/// once (serially, in serial insertion order), then probe byte-sized
/// morsels of the outer side concurrently with the batched probe kernel.
/// Pair output is identical to [`hash_join`]: outer order, with per-key
/// matches in reverse insertion order.
pub fn parallel_hash_join(
    outer: JoinSide<'_>,
    inner: JoinSide<'_>,
    cfg: ExecConfig,
) -> Result<JoinOutput, ExecError> {
    if !cfg.parallel_for(approx_scan_bytes(outer.len())) {
        return hash_join(outer, inner);
    }
    let table = BatchProbeTable::build(inner)?;
    let (pairs, probe_stats) = run_chunks(2, outer.len(), cfg.dop, |range| {
        let counters = Counters::default();
        let mut out = TempList::with_capacity(2, range.len().min(1024));
        table.probe_range(outer, range, &mut out, &counters)?;
        Ok((out, counters.snapshot()))
    })?;
    Ok(JoinOutput {
        pairs,
        stats: table.build_stats.plus(&probe_stats),
    })
}

/// Parallel theta (nested-loops) join: the fallback for non-equi
/// predicates. Contiguous chunks of the outer side each scan the full
/// inner side; chunk results merge in order, so output is identical to
/// [`theta_nested_loops_join`]. The working-set estimate multiplies the
/// sides (each outer tuple rescans the inner relation), so even a small
/// outer side fans out when the cross product is heavy.
// mmdb-lint: allow(panic-path) — `outer.tids[range]` ranges come from morsel_ranges(outer.len(), ..), which produces only subranges of 0..outer.len()
pub fn parallel_theta_join(
    outer: JoinSide<'_>,
    inner: JoinSide<'_>,
    op: ThetaOp,
    cfg: ExecConfig,
) -> Result<JoinOutput, ExecError> {
    let work_bytes = outer
        .len()
        .saturating_mul(inner.len())
        .saturating_mul(std::mem::size_of::<TupleId>());
    if !cfg.parallel_for(work_bytes) {
        return theta_nested_loops_join(outer, inner, op);
    }
    let (pairs, stats) = run_chunks(2, outer.len(), cfg.dop, |range| {
        let counters = Counters::default();
        let mut out = TempList::with_capacity(2, range.len().min(1024));
        for &ot in &outer.tids[range] {
            let ov = outer.value(ot)?;
            for &it in inner.tids {
                let iv = inner.value(it)?;
                counters.comparisons(1);
                if op.matches(ov.total_cmp(&iv)) {
                    out.push_pair(ot, it)?;
                }
            }
        }
        Ok((out, counters.snapshot()))
    })?;
    Ok(JoinOutput { pairs, stats })
}

/// Parallel equijoin by nested loops (see [`parallel_theta_join`]).
pub fn parallel_nested_loops_join(
    outer: JoinSide<'_>,
    inner: JoinSide<'_>,
    cfg: ExecConfig,
) -> Result<JoinOutput, ExecError> {
    parallel_theta_join(outer, inner, ThetaOp::Eq, cfg)
}

/// Chain terminator in the dedup hash tables below.
const NIL: u32 = u32::MAX;

/// Survivors of one chunk's local dedup: global row indices, in order.
struct ChunkSurvivors {
    rows: Vec<u32>,
    stats: Snapshot,
}

/// Parallel duplicate elimination: each worker hash-dedups one byte-sized
/// morsel of rows locally (first occurrence kept, like the serial \[DKO84\]
/// table), then a single-threaded merge re-dedups the survivors in chunk
/// order. First-occurrence-in-input-order semantics — and therefore the
/// exact output rows and order of [`project_hash`] — are preserved.
// mmdb-lint: allow(panic-path) — `heads[bucket]` is masked with table_size - 1 (a power of two); `kept[cur]`/`next[cur]` chain ids are only ever pushed as kept.len() so cur != NIL implies cur < kept.len() == next.len(); `ranges[c]` comes from run_tasks(ranges.len(), ..)
pub fn parallel_project_hash(
    list: &TempList,
    desc: &ResultDescriptor,
    sources: &[&Relation],
    cfg: ExecConfig,
) -> Result<ProjectOutput, ExecError> {
    if !cfg.parallel_for(approx_scan_bytes(list.len())) {
        return project_hash(list, desc, sources);
    }
    let n = list.len();
    let ranges = morsel_ranges(n, APPROX_TUPLE_BYTES, cfg.dop);
    let dedup_chunk = |c: usize| -> Result<ChunkSurvivors, ExecError> {
        let range = ranges[c].clone();
        let counters = Counters::default();
        let table_size = (range.len() / 2).max(8).next_power_of_two();
        let mask = (table_size - 1) as u64;
        let mut heads = vec![NIL; table_size];
        let mut next: Vec<u32> = Vec::with_capacity(range.len().min(1024));
        let mut kept: Vec<u32> = Vec::with_capacity(range.len().min(1024));
        let mut vals = Vec::with_capacity(desc.width());
        let mut other = Vec::with_capacity(desc.width());
        'rows: for i in range {
            row_values_into(list, i, desc, sources, &mut vals)?;
            let bucket = (hash_row(&vals, &counters) & mask) as usize;
            let mut cur = heads[bucket];
            while cur != NIL {
                counters.node_visits(1);
                let j = kept[cur as usize] as usize;
                row_values_into(list, j, desc, sources, &mut other)?;
                if rows_equal(&vals, &other, &counters) {
                    continue 'rows;
                }
                cur = next[cur as usize];
            }
            let id = kept.len() as u32;
            kept.push(i as u32);
            next.push(heads[bucket]);
            heads[bucket] = id;
        }
        Ok(ChunkSurvivors {
            rows: kept,
            stats: counters.snapshot(),
        })
    };
    let chunk_results = run_tasks(ranges.len(), cfg.dop, dedup_chunk);

    // Single-threaded merge: walk survivors in chunk order and re-dedup
    // across chunks with the same hash table shape as the serial pass.
    let counters = Counters::default();
    let mut stats = Snapshot::default();
    let mut survivors: Vec<u32> = Vec::new();
    for r in chunk_results {
        let chunk = r?;
        stats = stats.plus(&chunk.stats);
        survivors.extend(chunk.rows);
    }
    let table_size = (survivors.len() / 2).max(8).next_power_of_two();
    let mask = (table_size - 1) as u64;
    let mut heads = vec![NIL; table_size];
    let mut next: Vec<u32> = Vec::with_capacity(survivors.len().min(1024));
    let mut kept: Vec<u32> = Vec::with_capacity(survivors.len().min(1024));
    let mut out = TempList::with_capacity(list.arity(), survivors.len().min(1024));
    let mut vals = Vec::with_capacity(desc.width());
    let mut other = Vec::with_capacity(desc.width());
    'survivors: for &i in &survivors {
        row_values_into(list, i as usize, desc, sources, &mut vals)?;
        let bucket = (hash_row(&vals, &counters) & mask) as usize;
        let mut cur = heads[bucket];
        while cur != NIL {
            counters.node_visits(1);
            let j = kept[cur as usize] as usize;
            row_values_into(list, j, desc, sources, &mut other)?;
            if rows_equal(&vals, &other, &counters) {
                continue 'survivors;
            }
            cur = next[cur as usize];
        }
        let id = kept.len() as u32;
        kept.push(i);
        next.push(heads[bucket]);
        heads[bucket] = id;
        out.push(list.row(i as usize))?;
    }
    Ok(ProjectOutput {
        rows: out,
        stats: stats.plus(&counters.snapshot()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::fixtures::{expected_pairs, normalize, random_values, rel_with_values};
    use crate::project::project_hash;
    use crate::select::select_scan;
    use mmdb_storage::{
        AttrType, KeyValue, OutputField, OwnedValue, PartitionConfig, Schema, StorageError,
    };

    fn many_partition_rel(values: &[i64]) -> (Relation, Vec<TupleId>) {
        let schema = Schema::of(&[("pk", AttrType::Int), ("jcol", AttrType::Int)]);
        let mut rel = Relation::new("r", schema, PartitionConfig::tiny());
        let tids = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                rel.insert(&[OwnedValue::Int(i as i64), OwnedValue::Int(*v)])
                    .unwrap()
            })
            .collect();
        (rel, tids)
    }

    #[test]
    fn chunk_ranges_cover_and_order() {
        assert!(chunk_ranges(0, 4).is_empty());
        for (len, chunks) in [(1, 4), (7, 3), (100, 8), (5, 1), (8, 8), (3, 16)] {
            let ranges = chunk_ranges(len, chunks);
            assert!(ranges.len() <= chunks.max(1));
            let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
            assert_eq!(
                flat,
                (0..len).collect::<Vec<_>>(),
                "len={len} chunks={chunks}"
            );
        }
    }

    #[test]
    fn morsel_count_tracks_bytes_and_workers() {
        assert_eq!(morsel_count(0, 64, 4), 0);
        // Tiny input: still one morsel per worker at most, never > len.
        assert_eq!(morsel_count(3, 64, 8), 3);
        // Input far larger than a morsel: byte-driven count.
        let n = 100_000;
        let c = morsel_count(n, 64, 4);
        assert!(c >= 4, "at least one per worker");
        assert!(c <= 32, "at most 8 per worker, got {c}");
        // Morsel size larger than the whole input: one unit per worker.
        assert_eq!(morsel_count(100, 64, 2), 2);
        // Ranges always cover the input exactly.
        for (len, bytes, dop) in [
            (1, 1, 8),
            (17, 64, 3),
            (100_000, 64, 4),
            (5, 1024 * 1024, 2),
        ] {
            let flat: Vec<usize> = morsel_ranges(len, bytes, dop)
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(flat, (0..len).collect::<Vec<_>>(), "len={len} dop={dop}");
        }
    }

    #[test]
    fn run_tasks_returns_in_task_order() {
        let results = run_tasks(64, 8, |i| i * 3);
        assert_eq!(results, (0..64).map(|i| i * 3).collect::<Vec<_>>());
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
    fn override_dop_preserves_other_fields() {
        let cfg = ExecConfig {
            dop: 4,
            parallel_threshold: 1000,
        };
        let overridden = cfg.override_dop(2);
        assert_eq!(overridden.dop, 2);
        assert_eq!(overridden.parallel_threshold, 1000, "threshold survives");
        assert_eq!(cfg.override_dop(0).dop, 1, "clamped to 1");
    }

    #[test]
    fn parallel_threshold_gates_fan_out_by_bytes() {
        let cfg = ExecConfig {
            dop: 8,
            parallel_threshold: 4096,
        };
        assert!(!cfg.parallel_for(4095));
        assert!(cfg.parallel_for(4096));
        // The default floor keeps cache-resident inputs serial: 10k tuples
        // estimate under 1 MiB, so a 10k-row scan never fans out …
        let auto = ExecConfig::default().override_dop(8);
        assert!(!auto.parallel_for(approx_scan_bytes(10_000)));
        // … while a 100k-row scan does.
        assert!(auto.parallel_for(approx_scan_bytes(100_000)));
        assert!(ExecConfig::with_dop(8).parallel_for(0), "0 = no floor");
        assert!(!ExecConfig::serial().parallel_for(usize::MAX));
    }

    #[test]
    fn parallel_scan_identical_to_serial() {
        let values: Vec<i64> = (0..3000).map(|i| (i * 37) % 100).collect();
        let (rel, _) = many_partition_rel(&values);
        assert!(rel.partition_count() > 4, "want many partitions");
        let tids = rel.tids();
        let pred = Predicate::between(KeyValue::Int(10), KeyValue::Int(40));
        let serial = select_scan(&rel, 1, &tids, &pred).unwrap();
        for dop in [1, 2, 4, 8] {
            let par = parallel_select_scan(&rel, 1, &pred, ExecConfig::with_dop(dop)).unwrap();
            assert_eq!(par, serial, "dop={dop}");
        }
    }

    #[test]
    fn parallel_scan_propagates_field_errors() {
        let (rel, _) = many_partition_rel(&(0..100).collect::<Vec<i64>>());
        let err = parallel_select_scan(
            &rel,
            9, // no such attribute
            &Predicate::Eq(KeyValue::Int(0)),
            ExecConfig::with_dop(4),
        );
        assert!(matches!(
            err,
            Err(ExecError::Storage(StorageError::NoSuchAttribute(_)))
        ));
    }

    #[test]
    fn parallel_hash_join_identical_to_serial() {
        let ov = random_values(700, 90, 21);
        let iv = random_values(500, 90, 22);
        let (orel, otids) = rel_with_values("o", &ov);
        let (irel, itids) = rel_with_values("i", &iv);
        let o = JoinSide::new(&orel, 1, &otids);
        let i = JoinSide::new(&irel, 1, &itids);
        let serial = hash_join(o, i).unwrap();
        assert_eq!(
            normalize(&serial.pairs, &orel, &irel),
            expected_pairs(&ov, &iv)
        );
        for dop in [1, 2, 4, 8] {
            let par = parallel_hash_join(o, i, ExecConfig::with_dop(dop)).unwrap();
            assert_eq!(par.pairs, serial.pairs, "dop={dop}");
        }
    }

    #[test]
    fn parallel_hash_join_empty_sides() {
        let (rel, tids) = rel_with_values("r", &[1, 2, 3]);
        let empty: Vec<TupleId> = vec![];
        let cfg = ExecConfig::with_dop(4);
        assert!(parallel_hash_join(
            JoinSide::new(&rel, 1, &empty),
            JoinSide::new(&rel, 1, &tids),
            cfg
        )
        .unwrap()
        .is_empty());
        assert!(parallel_hash_join(
            JoinSide::new(&rel, 1, &tids),
            JoinSide::new(&rel, 1, &empty),
            cfg
        )
        .unwrap()
        .is_empty());
    }

    #[test]
    fn parallel_theta_join_identical_to_serial() {
        let ov = random_values(120, 25, 31);
        let iv = random_values(90, 25, 32);
        let (orel, otids) = rel_with_values("o", &ov);
        let (irel, itids) = rel_with_values("i", &iv);
        let o = JoinSide::new(&orel, 1, &otids);
        let i = JoinSide::new(&irel, 1, &itids);
        for op in [
            ThetaOp::Eq,
            ThetaOp::Ne,
            ThetaOp::Lt,
            ThetaOp::Le,
            ThetaOp::Gt,
            ThetaOp::Ge,
        ] {
            let serial = theta_nested_loops_join(o, i, op).unwrap();
            for dop in [2, 4, 8] {
                let par = parallel_theta_join(o, i, op, ExecConfig::with_dop(dop)).unwrap();
                assert_eq!(par.pairs, serial.pairs, "op={op:?} dop={dop}");
            }
        }
    }

    #[test]
    fn parallel_dedup_identical_to_serial() {
        let values: Vec<i64> = (0..2500).map(|i| (i * 13) % 200).collect();
        let (rel, tids) = many_partition_rel(&values);
        let list = TempList::from_tids(tids);
        let desc = ResultDescriptor::new(vec![OutputField::new(0, 1, "jcol")]);
        let serial = project_hash(&list, &desc, &[&rel]).unwrap();
        assert_eq!(serial.rows.len(), 200);
        for dop in [1, 2, 4, 8] {
            let par =
                parallel_project_hash(&list, &desc, &[&rel], ExecConfig::with_dop(dop)).unwrap();
            assert_eq!(par.rows, serial.rows, "dop={dop}");
        }
    }

    #[test]
    fn parallel_dedup_empty_input() {
        let (rel, _) = many_partition_rel(&[]);
        let list = TempList::new(1);
        let desc = ResultDescriptor::new(vec![OutputField::new(0, 1, "jcol")]);
        let out = parallel_project_hash(&list, &desc, &[&rel], ExecConfig::with_dop(8)).unwrap();
        assert!(out.rows.is_empty());
    }
}
