//! Intermediate-result reuse cache: plan-keyed [`TempList`] caching with
//! write invalidation.
//!
//! Every planned subtree that reads base relations (selections, joins,
//! post-filters) canonicalises to a stable string — relation names,
//! attribute names, predicate text, and the logical join shape, but *not*
//! the chosen access path or join method — whose hash is the cache key.
//! When a query runs with the cache enabled, [`apply_cache`] substitutes a
//! [`PlanNodeKind::Cached`] leaf for the largest subtrees whose entries
//! are still valid, and hands back *store tickets* for the subtrees that
//! missed; the binder wraps those operators in [`MemoizeOp`] so their
//! results populate the cache as a side effect of normal execution.
//!
//! Validity is version-stamped: each entry records the per-partition
//! version counters ([`VersionSource::table_versions`]) of every relation
//! the subtree read, plus the catalog epoch (index creation changes access
//! paths and therefore result *order*). Any write bumps a partition
//! counter, so the next lookup sees a stamp mismatch and drops the entry
//! lazily — invalidation costs the write path nothing beyond the counter
//! bump it already does for dirty tracking.
//!
//! Eviction is cost-weighted LRU in the spirit of Dursun et al.: the
//! benefit score is the planner's own §3.3.4 comparison estimate for the
//! absorbed subtree (scaled by observed hits) per byte retained, so cheap
//! huge results go first and expensive small ones stay.

use crate::error::ExecError;
use crate::plan::cost::{SelectPath, SORT_CMP_WEIGHT};
use crate::plan::physical::{BoxedOperator, ExecContext, Operator};
use crate::plan::planner::{CachedMode, NodeId, PlanNode, PlanNodeKind, PlannedQuery};
use crate::select::Predicate;
use mmdb_index::adapter::mix64;
use mmdb_index::stats::Snapshot;
use mmdb_storage::{KeyValue, Relation, TempList, TupleId};
use parking_lot::Mutex;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

/// Default cache budget: 16 MiB of cached tuple pointers.
pub const DEFAULT_CAPACITY_BYTES: usize = 16 << 20;

/// Maximum pending delta records per entry. Past this the maintenance
/// debt exceeds what a read-time patch plausibly saves, so the entry is
/// evicted instead (`delta_overflow_evictions` counts these).
pub const DELTA_BUDGET: usize = 64;

/// Cost of copying one cached tuple pointer while rebuilding a patched
/// result, in §3.3.4 comparison units (a pointer move is far cheaper
/// than a comparison that dereferences a tuple).
const DELTA_COPY_WEIGHT: f64 = 0.25;

/// Cost of fetching + re-testing one delta record against the live
/// tuple (one field dereference, one predicate evaluation).
const DELTA_REC_WEIGHT: f64 = 2.0;

/// Live partition-version oracle the cache validates stamps against.
/// Implemented by the database layer over [`Relation::partition_versions`]
/// (`Relation` = `mmdb_storage::Relation`).
pub trait VersionSource {
    /// Current per-partition version counters of `table`, or `None` if
    /// the table no longer exists (which invalidates any entry over it).
    fn table_versions(&self, table: &str) -> Option<Vec<u64>>;
    /// Monotone counter bumped by catalog changes (index creation/drop).
    /// Access-path changes can reorder results, so entries never survive
    /// an epoch change.
    fn catalog_epoch(&self) -> u64 {
        0
    }
}

/// Stable fingerprint of a canonical plan string (FNV-1a folded through
/// an avalanche finaliser). The canonical string is kept as the preimage
/// so collisions degrade to misses, never to wrong results.
#[must_use]
pub fn fingerprint(canonical: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canonical.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix64(h)
}

/// Is this node kind worth caching? Scans are excluded (recomputing a tid
/// enumeration is as cheap as copying it); projection/distinct wrappers
/// carry no relational work of their own.
#[must_use]
pub fn cacheable(kind: &PlanNodeKind) -> bool {
    matches!(
        kind,
        PlanNodeKind::Select { .. } | PlanNodeKind::PostFilter { .. } | PlanNodeKind::Join { .. }
    )
}

/// Structured reuse key for single-attribute selection entries: the
/// semantic shape (`relation`, `attribute`, predicate interval) that
/// subsumption matching and delta maintenance reason over. Joins and
/// post-filters stay fingerprint-only (exact reuse); a `ReuseKey` is
/// what lets `sel x < 100` answer `sel x < 50`.
#[derive(Debug, Clone)]
pub struct ReuseKey {
    /// The selected relation.
    pub table: String,
    /// The selected attribute.
    pub attr: String,
    /// The predicate interval (Eq is the degenerate `[k, k]`).
    pub pred: Predicate,
    /// Computed via an order-deterministic path (tree lookup or
    /// sequential scan, *not* hash lookup). Only such entries can answer
    /// a narrower query by re-filtering: under an unchanged catalog
    /// epoch the narrower query's cold path walks the same index in the
    /// same order, so its output is an order-preserving subsequence of
    /// this entry's rows.
    pub order_safe: bool,
    /// Computed by sequential scan, whose output is physical
    /// `(partition, slot)` order — the one order delta patching can
    /// restore by sorting. Tree-ordered entries are not maintainable
    /// (a patched set cannot be re-sorted into key order without
    /// dereferencing every tuple, i.e. recomputing).
    pub maintainable: bool,
}

/// Compare two probe keys of the same type; `None` for heterogeneous
/// pairs (no subsumption across attribute types).
fn cmp_keys(a: &KeyValue, b: &KeyValue) -> Option<Ordering> {
    match (a, b) {
        (KeyValue::Int(x), KeyValue::Int(y)) => Some(x.cmp(y)),
        (KeyValue::Str(x), KeyValue::Str(y)) => Some(x.cmp(y)),
        (KeyValue::Ptr(x), KeyValue::Ptr(y)) => Some(x.cmp(y)),
        _ => None,
    }
}

/// Does the `outer` predicate's interval contain the `inner` one's —
/// i.e. does every tuple satisfying `inner` also satisfy `outer`? This
/// is the subsumption lattice's partial order: when it holds, a cached
/// `outer` result answers an `inner` query by re-filtering. Eq is
/// treated as the closed degenerate interval `[k, k]`; bound strictness
/// is honoured exactly (`>= 5` covers `> 5`, but `> 5` does not cover
/// `>= 5`).
#[must_use]
pub fn covers(outer: &Predicate, inner: &Predicate) -> bool {
    fn bounds(p: &Predicate) -> (Bound<&KeyValue>, Bound<&KeyValue>) {
        match p {
            Predicate::Eq(k) => (Bound::Included(k), Bound::Included(k)),
            Predicate::Range { lo, hi } => (
                match lo {
                    Bound::Unbounded => Bound::Unbounded,
                    Bound::Included(k) => Bound::Included(k),
                    Bound::Excluded(k) => Bound::Excluded(k),
                },
                match hi {
                    Bound::Unbounded => Bound::Unbounded,
                    Bound::Included(k) => Bound::Included(k),
                    Bound::Excluded(k) => Bound::Excluded(k),
                },
            ),
        }
    }
    fn lo_covers(outer: Bound<&KeyValue>, inner: Bound<&KeyValue>) -> bool {
        match (outer, inner) {
            (Bound::Unbounded, _) => true,
            (_, Bound::Unbounded) => false,
            (Bound::Included(a), Bound::Included(b) | Bound::Excluded(b)) => {
                cmp_keys(a, b).is_some_and(|o| o != Ordering::Greater)
            }
            (Bound::Excluded(a), Bound::Included(b)) => {
                cmp_keys(a, b).is_some_and(|o| o == Ordering::Less)
            }
            (Bound::Excluded(a), Bound::Excluded(b)) => {
                cmp_keys(a, b).is_some_and(|o| o != Ordering::Greater)
            }
        }
    }
    fn hi_covers(outer: Bound<&KeyValue>, inner: Bound<&KeyValue>) -> bool {
        match (outer, inner) {
            (Bound::Unbounded, _) => true,
            (_, Bound::Unbounded) => false,
            (Bound::Included(a), Bound::Included(b) | Bound::Excluded(b)) => {
                cmp_keys(a, b).is_some_and(|o| o != Ordering::Less)
            }
            (Bound::Excluded(a), Bound::Included(b)) => {
                cmp_keys(a, b).is_some_and(|o| o == Ordering::Greater)
            }
            (Bound::Excluded(a), Bound::Excluded(b)) => {
                cmp_keys(a, b).is_some_and(|o| o != Ordering::Less)
            }
        }
    }
    let (olo, ohi) = bounds(outer);
    let (ilo, ihi) = bounds(inner);
    lo_covers(olo, ilo) && hi_covers(ohi, ihi)
}

/// One logged write against a table a maintainable cache entry reads.
/// Tuple ids are *resolved physical* locations (the form sequential
/// scans emit), captured at apply time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaEvent {
    /// A tuple was inserted at this physical location.
    Insert(TupleId),
    /// The tuple at this physical location was deleted.
    Delete(TupleId),
    /// An attribute of the tuple at this physical location changed
    /// in place.
    Update(TupleId),
    /// A tuple relocated across partitions (heap overflow forwarding):
    /// physical ids are no longer stable, so maintained entries on the
    /// table must be dropped, not patched.
    Barrier,
}

/// One link in an entry's delta chain: the event plus the table's full
/// partition-version vector immediately after the write. The last
/// record's vector is the entry's `delta_stamps`; at read time the
/// chain is applicable only if that vector equals the live one exactly
/// — any write that bypassed the log breaks the equality and the entry
/// falls back to invalidation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRec {
    /// What happened.
    pub event: DeltaEvent,
    /// `partition_versions()` of the table right after the write.
    pub versions_after: Vec<u64>,
}

/// Canonical form of a subtree: the method-independent logical shape, or
/// `None` when the subtree contains no cacheable relational work.
#[must_use]
pub fn canonical_plan(node: &PlanNode) -> Option<String> {
    match &node.kind {
        PlanNodeKind::Scan { table } => Some(format!("scan({table})")),
        PlanNodeKind::Select {
            table, attr, pred, ..
        } => Some(format!("sel({table}.{attr} {pred})")),
        PlanNodeKind::PostFilter {
            table, attr, pred, ..
        } => {
            let child = canonical_plan(node.children.first()?)?;
            Some(format!("filter({child}, {table}.{attr} {pred})"))
        }
        PlanNodeKind::Join {
            source_table,
            outer_attr,
            inner_table,
            inner_attr,
            ..
        } => {
            let outer = canonical_plan(node.children.first()?)?;
            // Methods that probe an index or follow pointers have no
            // materialised inner child; they read the full inner
            // relation (the planner only picks them when the inner is
            // unfiltered), so the inner side canonicalises as a scan.
            let inner = match node.children.get(1) {
                Some(c) => canonical_plan(c)?,
                None => format!("scan({inner_table})"),
            };
            Some(format!(
                "join({outer}, {source_table}.{outer_attr}={inner_table}.{inner_attr}, {inner})"
            ))
        }
        PlanNodeKind::Cached { canonical, .. } => Some(canonical.clone()),
        PlanNodeKind::Project { .. } | PlanNodeKind::Distinct => None,
    }
}

/// Tables a subtree binds, in temp-list column order (base first, then
/// each join's inner in execution order). Duplicates are kept — the
/// length is the cached rows' arity.
#[must_use]
pub fn tables_of(node: &PlanNode) -> Vec<String> {
    fn rec(node: &PlanNode, out: &mut Vec<String>) {
        match &node.kind {
            PlanNodeKind::Scan { table } | PlanNodeKind::Select { table, .. } => {
                out.push(table.clone());
            }
            PlanNodeKind::PostFilter { .. } => {
                if let Some(c) = node.children.first() {
                    rec(c, out);
                }
            }
            PlanNodeKind::Join { inner_table, .. } => {
                if let Some(c) = node.children.first() {
                    rec(c, out);
                }
                out.push(inner_table.clone());
            }
            PlanNodeKind::Cached { tables, .. } => out.extend(tables.iter().cloned()),
            PlanNodeKind::Project { .. } | PlanNodeKind::Distinct => {
                for c in &node.children {
                    rec(c, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    rec(node, &mut out);
    out
}

/// Filters a subtree applies, as `(table, attr, pred)` — including any
/// already absorbed into [`PlanNodeKind::Cached`] children.
#[must_use]
pub fn absorbed_filters(node: &PlanNode) -> Vec<(String, String, Predicate)> {
    let mut out = Vec::new();
    fn rec(node: &PlanNode, out: &mut Vec<(String, String, Predicate)>) {
        match &node.kind {
            PlanNodeKind::Select {
                table, attr, pred, ..
            }
            | PlanNodeKind::PostFilter {
                table, attr, pred, ..
            } => out.push((table.clone(), attr.clone(), pred.clone())),
            PlanNodeKind::Cached { filters, .. } => out.extend(filters.iter().cloned()),
            _ => {}
        }
        for c in &node.children {
            rec(c, out);
        }
    }
    rec(node, &mut out);
    out
}

/// Joins a subtree performs, as `(source, outer_attr, inner, inner_attr)`
/// — including any already absorbed into [`PlanNodeKind::Cached`]
/// children.
#[must_use]
pub fn absorbed_joins(node: &PlanNode) -> Vec<(String, String, String, String)> {
    let mut out = Vec::new();
    fn rec(node: &PlanNode, out: &mut Vec<(String, String, String, String)>) {
        match &node.kind {
            PlanNodeKind::Join {
                source_table,
                outer_attr,
                inner_table,
                inner_attr,
                ..
            } => out.push((
                source_table.clone(),
                outer_attr.clone(),
                inner_table.clone(),
                inner_attr.clone(),
            )),
            PlanNodeKind::Cached { joins, .. } => out.extend(joins.iter().cloned()),
            _ => {}
        }
        for c in &node.children {
            rec(c, out);
        }
    }
    rec(node, &mut out);
    out
}

/// Instruction to memoise one operator's output after it executes,
/// produced by [`apply_cache`] for each cacheable subtree that missed.
#[derive(Debug, Clone)]
pub struct StoreTicket {
    /// Cache key.
    pub fingerprint: u64,
    /// Fingerprint preimage.
    pub canonical: String,
    /// Tables read, in column order (arity = length).
    pub tables: Vec<String>,
    /// Per-table partition-version stamps captured at plan time. No
    /// write can intervene between planning and execution (queries hold
    /// `&Database`), so plan-time stamps describe the executed input.
    pub stamps: Vec<Vec<u64>>,
    /// Catalog epoch captured at plan time.
    pub epoch: u64,
    /// Estimated comparisons saved per hit (§3.3.4 subtree total) — the
    /// eviction benefit score.
    pub cost: f64,
    /// Structured key when the subtree is a single-attribute selection
    /// (the shape subsumption and delta maintenance understand).
    pub key: Option<ReuseKey>,
}

/// One memoised intermediate result.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Cache key (hash of `canonical`).
    pub fingerprint: u64,
    /// Fingerprint preimage; checked on lookup so hash collisions
    /// degrade to misses.
    pub canonical: String,
    /// Tables read, in column order.
    pub tables: Vec<String>,
    /// Per-table partition-version stamps the rows were computed from.
    pub stamps: Vec<Vec<u64>>,
    /// Catalog epoch the rows were computed under.
    pub epoch: u64,
    /// The memoised rows.
    pub rows: Arc<TempList>,
    /// Eviction benefit score (estimated comparisons per recompute).
    pub cost: f64,
    /// Approximate retained bytes.
    pub bytes: usize,
    /// Times this entry has been served.
    pub hits: u64,
    /// LRU clock value of the last touch.
    pub last_used: u64,
    /// Structured key for selection entries (`None` for joins and
    /// post-filters, which only ever match exactly).
    pub key: Option<ReuseKey>,
    /// Pending writes against the keyed table, in apply order. Only
    /// *hot* (served at least once) maintainable entries accrue deltas;
    /// everything else keeps the cheap invalidate-on-mismatch path.
    pub deltas: Vec<DeltaRec>,
    /// The keyed table's partition-version vector the rows would carry
    /// *after* applying every pending delta (equals `stamps[0]` while
    /// the chain is empty). Delta service requires this to equal the
    /// live vector exactly.
    pub delta_stamps: Vec<u64>,
    /// Monotone per-entry write counter: a read-time patch captured at
    /// sequence `s` may only write its result back if the entry is
    /// still at `s` (no writes raced past the patch).
    pub delta_seq: u64,
}

fn entry_bytes(canonical: &str, tables: &[String], stamps: &[Vec<u64>], rows: &TempList) -> usize {
    let meta = 96
        + canonical.len()
        + tables.iter().map(|t| t.len() + 24).sum::<usize>()
        + stamps.iter().map(|s| s.len() * 8 + 24).sum::<usize>();
    meta + rows.len() * rows.arity() * std::mem::size_of::<mmdb_storage::TupleId>()
}

/// Cache counters (monotone over the cache's lifetime, except `entries`
/// and `bytes` which are current occupancy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found no valid entry.
    pub misses: u64,
    /// Entries dropped because a version stamp or epoch mismatched.
    pub invalidations: u64,
    /// Entries dropped by the eviction policy.
    pub evictions: u64,
    /// Of `hits`: lookups answered by a *subsuming* entry (wider
    /// predicate, re-filtered at read time).
    pub subsumed_hits: u64,
    /// Read-time delta patches executed (each one turned a stale hot
    /// entry back into a fresh one instead of recomputing).
    pub delta_applies: u64,
    /// Entries dropped because their pending delta chain outgrew
    /// [`DELTA_BUDGET`].
    pub delta_overflow_evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate bytes currently retained.
    pub bytes: usize,
}

/// The bounded, plan-keyed reuse cache.
#[derive(Debug)]
pub struct ReuseCache {
    entries: HashMap<u64, CacheEntry>,
    capacity_bytes: usize,
    bytes: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    evictions: u64,
    subsumed_hits: u64,
    delta_applies: u64,
    delta_overflow_evictions: u64,
}

impl Default for ReuseCache {
    fn default() -> Self {
        ReuseCache::new(DEFAULT_CAPACITY_BYTES)
    }
}

impl ReuseCache {
    /// Create with an explicit byte budget.
    #[must_use]
    pub fn new(capacity_bytes: usize) -> Self {
        ReuseCache {
            entries: HashMap::new(),
            capacity_bytes,
            bytes: 0,
            clock: 0,
            hits: 0,
            misses: 0,
            invalidations: 0,
            evictions: 0,
            subsumed_hits: 0,
            delta_applies: 0,
            delta_overflow_evictions: 0,
        }
    }

    /// The byte budget.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Change the byte budget (evicts down to it immediately).
    pub fn set_capacity_bytes(&mut self, capacity_bytes: usize) {
        self.capacity_bytes = capacity_bytes;
        self.evict_to_fit(0);
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }

    /// Current counters.
    #[must_use]
    pub fn report(&self) -> CacheReport {
        CacheReport {
            hits: self.hits,
            misses: self.misses,
            invalidations: self.invalidations,
            evictions: self.evictions,
            subsumed_hits: self.subsumed_hits,
            delta_applies: self.delta_applies,
            delta_overflow_evictions: self.delta_overflow_evictions,
            entries: self.entries.len(),
            bytes: self.bytes,
        }
    }

    /// Is `entry` still valid against `live`? (The staleness rule in one
    /// place: epoch equal, every table still present, every stamp equal.)
    fn entry_fresh(entry: &CacheEntry, live: &dyn VersionSource) -> bool {
        if entry.epoch != live.catalog_epoch() {
            return false;
        }
        entry
            .tables
            .iter()
            .zip(&entry.stamps)
            .all(|(t, stamp)| live.table_versions(t).as_deref() == Some(stamp.as_slice()))
    }

    /// Would a lookup of `fingerprint` be served right now? Non-mutating
    /// (no counters move, stale entries stay resident) — the invariant
    /// checker's view.
    #[must_use]
    pub fn would_serve(&self, fp: u64, canonical: &str, live: &dyn VersionSource) -> bool {
        self.entries
            .get(&fp)
            .is_some_and(|e| e.canonical == canonical && Self::entry_fresh(e, live))
    }

    /// Look up a fingerprint, validating stamps against `live`. Stale or
    /// colliding entries are dropped (lazy invalidation) and count as
    /// misses.
    pub fn lookup(
        &mut self,
        fp: u64,
        canonical: &str,
        live: &dyn VersionSource,
    ) -> Option<Arc<TempList>> {
        match self.entries.get_mut(&fp) {
            Some(e) if e.canonical == canonical && Self::entry_fresh(e, live) => {
                self.hits += 1;
                self.clock += 1;
                e.hits += 1;
                e.last_used = self.clock;
                Some(Arc::clone(&e.rows))
            }
            Some(e) if e.canonical == canonical => {
                // Stale: some input changed since the rows were computed.
                self.bytes -= e.bytes;
                self.entries.remove(&fp);
                self.invalidations += 1;
                self.misses += 1;
                None
            }
            _ => {
                // Absent, or a fingerprint collision (kept: it belongs to
                // some other plan).
                self.misses += 1;
                None
            }
        }
    }

    /// Read an entry's rows without touching counters (the binder's path:
    /// substitution already accounted the hit this query).
    #[must_use]
    pub fn peek(&self, fp: u64, canonical: &str) -> Option<Arc<TempList>> {
        self.entries
            .get(&fp)
            .filter(|e| e.canonical == canonical)
            .map(|e| Arc::clone(&e.rows))
    }

    /// Is `entry`'s pending delta chain applicable right now: a
    /// maintainable selection whose chain, applied to its rows, would
    /// yield exactly the live table state (the chain's final version
    /// vector equals the live one — a write that bypassed the log
    /// breaks this and the entry falls back to invalidation).
    fn delta_ready(entry: &CacheEntry, live: &dyn VersionSource) -> bool {
        let Some(k) = &entry.key else { return false };
        k.maintainable
            && !entry.deltas.is_empty()
            && entry.tables.len() == 1
            && entry.epoch == live.catalog_epoch()
            && live.table_versions(&entry.tables[0]).as_deref()
                == Some(entry.delta_stamps.as_slice())
    }

    /// Would an exact lookup of `fp` be served *via delta patching*
    /// right now? Non-mutating — the invariant checker's view of the
    /// delta path.
    #[must_use]
    pub fn would_serve_delta(&self, fp: u64, canonical: &str, live: &dyn VersionSource) -> bool {
        self.entries.get(&fp).is_some_and(|e| {
            e.canonical == canonical && !Self::entry_fresh(e, live) && Self::delta_ready(e, live)
        })
    }

    /// Record one applied write against `table` into every hot
    /// maintainable entry over it. This is the delta-log append site:
    /// the database calls it from its write-apply path, immediately
    /// after the partition-version bump, passing the table's version
    /// vector as of after the write. Cold or unmaintainable entries are
    /// left to the usual lazy stamp-mismatch invalidation; chains that
    /// outgrow [`DELTA_BUDGET`] (or hit a relocation
    /// [`DeltaEvent::Barrier`]) evict their entry instead.
    pub fn note_write(&mut self, table: &str, event: DeltaEvent, versions_after: &[u64]) {
        let mut overflowed: Vec<u64> = Vec::new();
        let mut barred: Vec<u64> = Vec::new();
        for e in self.entries.values_mut() {
            let Some(k) = &e.key else { continue };
            if k.table != table || !k.maintainable || e.hits == 0 {
                continue;
            }
            if matches!(event, DeltaEvent::Barrier) {
                barred.push(e.fingerprint);
                continue;
            }
            if e.deltas.len() >= DELTA_BUDGET {
                overflowed.push(e.fingerprint);
                continue;
            }
            e.delta_seq += 1;
            e.deltas.push(DeltaRec {
                event,
                versions_after: versions_after.to_vec(),
            });
            e.delta_stamps = versions_after.to_vec();
        }
        for fp in overflowed {
            if let Some(e) = self.entries.remove(&fp) {
                self.bytes -= e.bytes;
                self.delta_overflow_evictions += 1;
            }
        }
        for fp in barred {
            if let Some(e) = self.entries.remove(&fp) {
                self.bytes -= e.bytes;
                self.invalidations += 1;
            }
        }
    }

    /// §3.3.4-style cost of serving a stale entry by patching: copy the
    /// cached pointers, fetch + re-test each delta, re-sort into
    /// physical order.
    fn delta_cost(rows: usize, pending: usize) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let n = rows as f64;
        #[allow(clippy::cast_precision_loss)]
        let d = pending as f64;
        #[allow(clippy::cast_precision_loss)]
        let sort_n = (rows + pending).max(2) as f64;
        n * DELTA_COPY_WEIGHT + d * DELTA_REC_WEIGHT + SORT_CMP_WEIGHT * sort_n * sort_n.log2()
    }

    /// The reuse decision for one cacheable subtree: weigh cached-exact
    /// (free), cached+delta, and cached-subsumed (+ re-filter) against
    /// `recompute` (the planner's §3.3.4 estimate for the cold subtree)
    /// and serve the cheapest, or `None` to recompute. Mutating: moves
    /// hit/miss/invalidation counters and drops unserviceable stale
    /// exact entries.
    pub fn probe(
        &mut self,
        fp: u64,
        canonical: &str,
        query: Option<&ProbeQuery<'_>>,
        recompute: f64,
        live: &dyn VersionSource,
    ) -> Option<Probe> {
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(&fp) {
            if e.canonical == canonical {
                if Self::entry_fresh(e, live) {
                    // A fresh precomputed result is §3.3.5's always-
                    // preferred access path: zero comparisons.
                    self.hits += 1;
                    e.hits += 1;
                    e.last_used = self.clock;
                    return Some(Probe {
                        mode: CachedMode::Exact,
                        rows_len: e.rows.len(),
                        cost: 0.0,
                    });
                }
                if Self::delta_ready(e, live) {
                    let cost = Self::delta_cost(e.rows.len(), e.deltas.len());
                    if cost < recompute {
                        self.hits += 1;
                        e.hits += 1;
                        e.last_used = self.clock;
                        return Some(Probe {
                            mode: CachedMode::Delta {
                                pending: e.deltas.len(),
                            },
                            rows_len: e.rows.len(),
                            cost,
                        });
                    }
                }
                // Stale beyond repair (or repair dearer than recompute).
                if let Some(e) = self.entries.remove(&fp) {
                    self.bytes -= e.bytes;
                    self.invalidations += 1;
                }
            }
        }
        // Subsumption: a fresh order-safe entry over the same
        // (table, attr) whose interval contains the query's answers by
        // re-filtering — one predicate test per cached row. Ties against
        // recompute prefer the cache (no build cost, §3.3.5).
        if let Some(q) = query.filter(|q| q.order_safe) {
            let mut best: Option<(u64, f64)> = None;
            for e in self.entries.values() {
                let Some(k) = &e.key else { continue };
                if !k.order_safe || k.table != q.table || k.attr != q.attr {
                    continue;
                }
                if !covers(&k.pred, q.pred) || !Self::entry_fresh(e, live) {
                    continue;
                }
                #[allow(clippy::cast_precision_loss)]
                let cost = e.rows.len() as f64;
                let better = match best {
                    None => true,
                    Some((_, c)) => cost < c,
                };
                if better {
                    best = Some((e.fingerprint, cost));
                }
            }
            if let Some((bfp, cost)) = best {
                // The candidate was found resident and keyed just above;
                // re-fetching through `get_mut` keeps this panic-free if
                // that ever stops holding (it degrades to a miss).
                if cost <= recompute {
                    if let Some(e) = self.entries.get_mut(&bfp) {
                        if let Some(pred) = e.key.as_ref().map(|k| k.pred.clone()) {
                            self.hits += 1;
                            self.subsumed_hits += 1;
                            e.hits += 1;
                            e.last_used = self.clock;
                            return Some(Probe {
                                mode: CachedMode::Subsumed {
                                    entry_fingerprint: e.fingerprint,
                                    entry_canonical: e.canonical.clone(),
                                    entry_pred: pred,
                                },
                                rows_len: e.rows.len(),
                                cost,
                            });
                        }
                    }
                }
            }
        }
        self.misses += 1;
        None
    }

    /// Snapshot a stale entry's rows + pending chain for a read-time
    /// patch (the binder's path for [`CachedMode::Delta`] nodes).
    #[must_use]
    pub fn peek_delta(&self, fp: u64, canonical: &str) -> Option<DeltaView> {
        self.entries
            .get(&fp)
            .filter(|e| e.canonical == canonical && !e.deltas.is_empty())
            .map(|e| DeltaView {
                rows: Arc::clone(&e.rows),
                deltas: e.deltas.clone(),
                seq: e.delta_seq,
                covered: e.delta_stamps.clone(),
            })
    }

    /// Write a completed read-time patch back: the entry becomes fresh
    /// at the version vector the chain covered, its chain drains. The
    /// write-back is dropped (patch counted, entry untouched) if any
    /// write raced past the captured sequence number — the next probe
    /// re-patches from consistent state.
    pub fn finish_delta_apply(
        &mut self,
        fp: u64,
        canonical: &str,
        seq: u64,
        rows: &TempList,
        covered: &[u64],
    ) {
        self.delta_applies += 1;
        let Some(e) = self.entries.get_mut(&fp) else {
            return;
        };
        if e.canonical != canonical || e.delta_seq != seq {
            return;
        }
        let new_bytes = entry_bytes(&e.canonical, &e.tables, &e.stamps, rows);
        self.bytes = self.bytes - e.bytes + new_bytes;
        e.bytes = new_bytes;
        e.rows = Arc::new(rows.clone());
        e.stamps = vec![covered.to_vec()];
        e.delta_stamps = covered.to_vec();
        e.deltas.clear();
        self.evict_to_fit(0);
    }

    /// Memoise `rows` under `ticket`. Oversized results (more than a
    /// quarter of the budget) are not retained; fingerprint collisions
    /// keep the cheaper-to-recompute loser out.
    pub fn insert(&mut self, ticket: &StoreTicket, rows: &TempList) {
        let bytes = entry_bytes(&ticket.canonical, &ticket.tables, &ticket.stamps, rows);
        if bytes > self.capacity_bytes / 4 {
            return;
        }
        if let Some(existing) = self.entries.get(&ticket.fingerprint) {
            if existing.canonical != ticket.canonical && existing.cost >= ticket.cost {
                return;
            }
            self.bytes -= existing.bytes;
            self.entries.remove(&ticket.fingerprint);
        }
        self.evict_to_fit(bytes);
        self.clock += 1;
        self.entries.insert(
            ticket.fingerprint,
            CacheEntry {
                fingerprint: ticket.fingerprint,
                canonical: ticket.canonical.clone(),
                tables: ticket.tables.clone(),
                stamps: ticket.stamps.clone(),
                epoch: ticket.epoch,
                rows: Arc::new(rows.clone()),
                cost: ticket.cost,
                bytes,
                hits: 0,
                last_used: self.clock,
                key: ticket.key.clone(),
                deltas: Vec::new(),
                delta_stamps: if ticket.key.is_some() {
                    ticket.stamps.first().cloned().unwrap_or_default()
                } else {
                    Vec::new()
                },
                delta_seq: 0,
            },
        );
        self.bytes += bytes;
    }

    /// Evict lowest-benefit entries until `incoming` more bytes fit.
    fn evict_to_fit(&mut self, incoming: usize) {
        while self.bytes + incoming > self.capacity_bytes && !self.entries.is_empty() {
            // Benefit per byte, scaled by observed hits; LRU tie-break.
            let victim = self
                .entries
                .values()
                .min_by(|a, b| {
                    let sa = score(a);
                    let sb = score(b);
                    sa.total_cmp(&sb).then(a.last_used.cmp(&b.last_used))
                })
                .map(|e| e.fingerprint);
            let Some(fp) = victim else { break };
            if let Some(e) = self.entries.remove(&fp) {
                self.bytes -= e.bytes;
                self.evictions += 1;
            }
        }
    }

    /// The resident entries, in no particular order (invariant checks).
    pub fn entries(&self) -> impl Iterator<Item = &CacheEntry> {
        self.entries.values()
    }

    /// Mutable access to resident entries — exists so negative tests can
    /// tamper with stamps/fingerprints and watch the checker object.
    pub fn entries_mut(&mut self) -> impl Iterator<Item = &mut CacheEntry> {
        self.entries.values_mut()
    }
}

/// Query-side shape [`ReuseCache::probe`] needs for subsumption:
/// present only when the probing subtree is a single-attribute
/// selection.
#[derive(Debug, Clone, Copy)]
pub struct ProbeQuery<'q> {
    /// The selected relation.
    pub table: &'q str,
    /// The selected attribute.
    pub attr: &'q str,
    /// The query's predicate interval.
    pub pred: &'q Predicate,
    /// The cold plan's access path is order-deterministic (not a hash
    /// lookup, whose bucket order a re-filtered tree/scan-ordered entry
    /// cannot reproduce).
    pub order_safe: bool,
}

/// A [`ReuseCache::probe`] decision: how to serve, how many cached rows
/// feed the serve, and its §3.3.4 cost (which becomes the substituted
/// node's comparison estimate).
#[derive(Debug, Clone)]
pub struct Probe {
    /// The serving alternative the cost comparison picked.
    pub mode: CachedMode,
    /// Cached rows feeding the serve (row estimate for the node).
    pub rows_len: usize,
    /// Estimated comparisons to serve this way.
    pub cost: f64,
}

/// Snapshot of a stale entry's patch inputs, taken under the cache lock
/// at bind time (see [`ReuseCache::peek_delta`]).
#[derive(Debug, Clone)]
pub struct DeltaView {
    /// The stale rows.
    pub rows: Arc<TempList>,
    /// The pending write log, in apply order.
    pub deltas: Vec<DeltaRec>,
    /// Entry write-sequence at snapshot time (write-back guard).
    pub seq: u64,
    /// Version vector the patched rows will be valid at.
    pub covered: Vec<u64>,
}

fn score(e: &CacheEntry) -> f64 {
    #[allow(clippy::cast_precision_loss)] // byte counts are far below 2^52
    let bytes = e.bytes.max(1) as f64;
    #[allow(clippy::cast_precision_loss)]
    let hits = e.hits as f64;
    // Pending maintenance debt discounts the benefit: a stale heavy
    // entry must pay its patch before it pays out again.
    #[allow(clippy::cast_precision_loss)]
    let debt = 1.0 + e.deltas.len() as f64;
    e.cost.max(1.0) * (1.0 + hits) / (bytes * debt)
}

/// Sum of `est_comparisons` over a subtree — the work a cache hit saves.
fn subtree_cost(node: &PlanNode) -> f64 {
    node.est_comparisons + node.children.iter().map(subtree_cost).sum::<f64>()
}

/// Substitute cache hits into `planned` (largest valid subtree wins) and
/// return store tickets, keyed by the *renumbered* node id, for every
/// cacheable subtree that missed. Ids are re-assigned pre-order, so the
/// plan stays executable and profilable afterwards.
pub fn apply_cache(
    planned: &mut PlannedQuery,
    cache: &mut ReuseCache,
    live: &dyn VersionSource,
) -> HashMap<NodeId, StoreTicket> {
    substitute(&mut planned.root, cache, live);
    planned.renumber();
    let mut tickets = HashMap::new();
    collect_tickets(&planned.root, live, &mut tickets);
    tickets
}

/// The probe shape of a plan node: only single-attribute selections
/// participate in subsumption matching.
fn probe_query_of(kind: &PlanNodeKind) -> Option<ProbeQuery<'_>> {
    if let PlanNodeKind::Select {
        table,
        attr,
        pred,
        path,
    } = kind
    {
        Some(ProbeQuery {
            table,
            attr,
            pred,
            order_safe: *path != SelectPath::HashLookup,
        })
    } else {
        None
    }
}

/// The structured reuse key of a plan node, for store tickets.
fn reuse_key_of(kind: &PlanNodeKind) -> Option<ReuseKey> {
    if let PlanNodeKind::Select {
        table,
        attr,
        pred,
        path,
    } = kind
    {
        Some(ReuseKey {
            table: table.clone(),
            attr: attr.clone(),
            pred: pred.clone(),
            order_safe: *path != SelectPath::HashLookup,
            maintainable: *path == SelectPath::SequentialScan,
        })
    } else {
        None
    }
}

fn substitute(node: &mut PlanNode, cache: &mut ReuseCache, live: &dyn VersionSource) {
    if cacheable(&node.kind) {
        if let Some(canon) = canonical_plan(node) {
            let fp = fingerprint(&canon);
            let recompute = subtree_cost(node);
            let query = probe_query_of(&node.kind);
            if let Some(p) = cache.probe(fp, &canon, query.as_ref(), recompute, live) {
                let tables = tables_of(node);
                let filters = absorbed_filters(node);
                let joins = absorbed_joins(node);
                #[allow(clippy::cast_precision_loss)]
                let est_rows = p.rows_len as f64;
                node.est_rows = est_rows;
                node.est_comparisons = p.cost;
                node.children.clear();
                node.kind = PlanNodeKind::Cached {
                    fingerprint: fp,
                    canonical: canon,
                    tables,
                    filters,
                    joins,
                    mode: p.mode,
                };
                return;
            }
        }
    }
    for c in &mut node.children {
        substitute(c, cache, live);
    }
}

fn collect_tickets(
    node: &PlanNode,
    live: &dyn VersionSource,
    out: &mut HashMap<NodeId, StoreTicket>,
) {
    if cacheable(&node.kind) {
        if let Some(canon) = canonical_plan(node) {
            let tables = tables_of(node);
            let stamps: Vec<Vec<u64>> = tables
                .iter()
                .map(|t| live.table_versions(t).unwrap_or_default())
                .collect();
            out.insert(
                node.id,
                StoreTicket {
                    fingerprint: fingerprint(&canon),
                    canonical: canon,
                    tables,
                    stamps,
                    epoch: live.catalog_epoch(),
                    cost: subtree_cost(node),
                    key: reuse_key_of(&node.kind),
                },
            );
        }
    }
    for c in &node.children {
        collect_tickets(c, live, out);
    }
}

/// Leaf operator serving a [`PlanNodeKind::Cached`] node: emits the
/// memoised rows without touching any relation.
pub struct CachedReadOp {
    /// Plan-node id (actuals slot).
    pub id: NodeId,
    /// The memoised rows (shared with the cache entry).
    pub rows: Arc<TempList>,
}

impl Operator for CachedReadOp {
    fn execute(&mut self, ctx: &mut ExecContext) -> Result<TempList, ExecError> {
        let t = Instant::now();
        let out = (*self.rows).clone();
        ctx.record(self.id, 0, out.len(), Snapshot::default(), t.elapsed());
        Ok(out)
    }
}

/// Leaf operator serving a [`CachedMode::Subsumed`] node: re-filters a
/// wider cached selection with the query's narrower predicate. The
/// entry is fresh and was computed by an order-deterministic path, so
/// the surviving subsequence is bit-identical to what the cold narrower
/// query would produce.
pub struct RefilterOp<'a> {
    /// Plan-node id (actuals slot).
    pub id: NodeId,
    /// The subsuming entry's rows (shared with the cache entry).
    pub rows: Arc<TempList>,
    /// The selected relation.
    pub rel: &'a Relation,
    /// Selected attribute index.
    pub attr: usize,
    /// The query's (narrower) predicate.
    pub pred: Predicate,
}

impl Operator for RefilterOp<'_> {
    fn execute(&mut self, ctx: &mut ExecContext) -> Result<TempList, ExecError> {
        let t = Instant::now();
        let rows_in = self.rows.len();
        let mut keep = Vec::with_capacity(rows_in);
        for tid in self.rows.column(0) {
            let v = self.rel.field(tid, self.attr)?;
            if self.pred.matches(&v) {
                keep.push(tid);
            }
        }
        let out = TempList::from_tids(keep);
        let stats = Snapshot {
            comparisons: rows_in as u64,
            ..Snapshot::default()
        };
        ctx.record(self.id, rows_in, out.len(), stats, t.elapsed());
        Ok(out)
    }
}

/// Leaf operator serving a [`CachedMode::Delta`] node: replays a stale
/// hot entry's pending write log over its cached rows, re-tests touched
/// tuples against the live relation, and restores the sequential-scan
/// output order by sorting on physical `TupleId`. On success the
/// patched rows are written back so the entry is fresh again.
pub struct DeltaApplyOp<'a> {
    /// Plan-node id (actuals slot).
    pub id: NodeId,
    /// The stale entry's rows (shared with the cache entry).
    pub rows: Arc<TempList>,
    /// The pending write log, in apply order.
    pub deltas: Vec<DeltaRec>,
    /// The selected relation.
    pub rel: &'a Relation,
    /// Selected attribute index.
    pub attr: usize,
    /// The entry's own predicate (touched tuples are re-tested with it).
    pub pred: Predicate,
    /// Where to write the patched result back.
    pub cache: &'a Mutex<ReuseCache>,
    /// The entry's cache key.
    pub fingerprint: u64,
    /// The entry's canonical form.
    pub canonical: String,
    /// Entry write-sequence captured at bind time (write-back guard).
    pub seq: u64,
    /// Version vector the patched rows are valid at.
    pub covered: Vec<u64>,
}

impl Operator for DeltaApplyOp<'_> {
    fn execute(&mut self, ctx: &mut ExecContext) -> Result<TempList, ExecError> {
        let t = Instant::now();
        let rows_in = self.rows.len();
        let mut live: HashSet<TupleId> = self.rows.column(0).into_iter().collect();
        let mut retested: u64 = 0;
        for rec in &self.deltas {
            match rec.event {
                DeltaEvent::Insert(tid) | DeltaEvent::Update(tid) => {
                    retested += 1;
                    // The membership test reads the *final* value: a tuple
                    // touched again later in the log gets re-decided then,
                    // and a slot freed later reads as an error here and
                    // simply doesn't qualify yet.
                    match self.rel.field(tid, self.attr) {
                        Ok(v) if self.pred.matches(&v) => {
                            live.insert(tid);
                        }
                        _ => {
                            live.remove(&tid);
                        }
                    }
                }
                DeltaEvent::Delete(tid) => {
                    live.remove(&tid);
                }
                // Barriers evict their entry at log time; a bound delta
                // node never carries one.
                DeltaEvent::Barrier => {}
            }
        }
        let mut tids: Vec<TupleId> = live.into_iter().collect();
        // Maintainable entries come from sequential scans, whose output
        // is physical (partition, slot) order — sorting restores it.
        tids.sort_unstable();
        let out = TempList::from_tids(tids);
        self.cache.lock().finish_delta_apply(
            self.fingerprint,
            &self.canonical,
            self.seq,
            &out,
            &self.covered,
        );
        let stats = Snapshot {
            comparisons: retested,
            ..Snapshot::default()
        };
        ctx.record(self.id, rows_in, out.len(), stats, t.elapsed());
        Ok(out)
    }
}

/// Transparent wrapper that memoises its child's output under a
/// [`StoreTicket`]. It has no plan node of its own — the child records
/// the actuals.
pub struct MemoizeOp<'a> {
    /// The wrapped operator.
    pub child: BoxedOperator<'a>,
    /// Where to store the result.
    pub cache: &'a Mutex<ReuseCache>,
    /// Key, stamps, and benefit score for the stored entry.
    pub ticket: StoreTicket,
}

impl Operator for MemoizeOp<'_> {
    fn execute(&mut self, ctx: &mut ExecContext) -> Result<TempList, ExecError> {
        let out = self.child.execute(ctx)?;
        self.cache.lock().insert(&self.ticket, &out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::cost::{JoinMethod, SelectPath};
    use mmdb_storage::{KeyValue, TupleId};

    /// Fixed version oracle for unit tests.
    struct MemVersions {
        tables: HashMap<String, Vec<u64>>,
        epoch: u64,
    }

    impl MemVersions {
        fn new(tables: &[(&str, &[u64])]) -> Self {
            MemVersions {
                tables: tables
                    .iter()
                    .map(|(t, v)| ((*t).to_string(), v.to_vec()))
                    .collect(),
                epoch: 0,
            }
        }
    }

    impl VersionSource for MemVersions {
        fn table_versions(&self, table: &str) -> Option<Vec<u64>> {
            self.tables.get(table).cloned()
        }
        fn catalog_epoch(&self) -> u64 {
            self.epoch
        }
    }

    fn leaf(kind: PlanNodeKind, est: f64) -> PlanNode {
        PlanNode {
            id: 0,
            kind,
            est_rows: est,
            est_comparisons: est,
            children: Vec::new(),
        }
    }

    fn select_node(table: &str, attr: &str, v: i64) -> PlanNode {
        leaf(
            PlanNodeKind::Select {
                table: table.to_string(),
                attr: attr.to_string(),
                pred: Predicate::Eq(KeyValue::Int(v)),
                path: SelectPath::SequentialScan,
            },
            10.0,
        )
    }

    fn join_node(outer: PlanNode, method: JoinMethod, inner_child: Option<PlanNode>) -> PlanNode {
        let mut children = vec![outer];
        children.extend(inner_child);
        PlanNode {
            id: 0,
            kind: PlanNodeKind::Join {
                method,
                source_table: "emp".to_string(),
                outer_attr: "dept_id".to_string(),
                inner_table: "dept".to_string(),
                inner_attr: "id".to_string(),
                src_col: 0,
                rejected: Vec::new(),
            },
            est_rows: 10.0,
            est_comparisons: 50.0,
            children,
        }
    }

    fn ticket_for(node: &PlanNode, live: &dyn VersionSource) -> StoreTicket {
        let canon = canonical_plan(node).unwrap();
        let tables = tables_of(node);
        let stamps = tables
            .iter()
            .map(|t| live.table_versions(t).unwrap_or_default())
            .collect();
        StoreTicket {
            fingerprint: fingerprint(&canon),
            canonical: canon,
            tables,
            stamps,
            epoch: live.catalog_epoch(),
            cost: subtree_cost(node),
            key: reuse_key_of(&node.kind),
        }
    }

    fn rows_of(n: u32) -> TempList {
        TempList::from_tids((0..n).map(|i| TupleId::new(0, i)).collect())
    }

    #[test]
    fn canonical_is_method_and_path_independent() {
        let a = join_node(
            select_node("emp", "age", 30),
            JoinMethod::TreeJoin,
            None, // index probe: no materialised inner
        );
        let b = join_node(
            select_node("emp", "age", 30),
            JoinMethod::HashJoin,
            Some(leaf(
                PlanNodeKind::Scan {
                    table: "dept".to_string(),
                },
                100.0,
            )),
        );
        assert_eq!(canonical_plan(&a), canonical_plan(&b));
        // Different predicate → different canonical.
        let c = join_node(select_node("emp", "age", 31), JoinMethod::TreeJoin, None);
        assert_ne!(canonical_plan(&a), canonical_plan(&c));
        assert_ne!(
            fingerprint(&canonical_plan(&a).unwrap()),
            fingerprint(&canonical_plan(&c).unwrap())
        );
    }

    #[test]
    fn tables_follow_column_order() {
        let j = join_node(select_node("emp", "age", 30), JoinMethod::TreeJoin, None);
        assert_eq!(tables_of(&j), vec!["emp".to_string(), "dept".into()]);
        assert_eq!(absorbed_filters(&j).len(), 1);
        assert_eq!(absorbed_joins(&j).len(), 1);
    }

    #[test]
    fn hit_then_stale_then_recompute() {
        let live = MemVersions::new(&[("emp", &[3, 7])]);
        let node = select_node("emp", "age", 30);
        let mut cache = ReuseCache::default();
        let t = ticket_for(&node, &live);
        assert!(cache.lookup(t.fingerprint, &t.canonical, &live).is_none());
        cache.insert(&t, &rows_of(4));
        let hit = cache.lookup(t.fingerprint, &t.canonical, &live).unwrap();
        assert_eq!(hit.len(), 4);
        assert!(cache.would_serve(t.fingerprint, &t.canonical, &live));

        // A write bumps a partition version: next lookup must miss and
        // drop the entry.
        let live2 = MemVersions::new(&[("emp", &[3, 8])]);
        assert!(!cache.would_serve(t.fingerprint, &t.canonical, &live2));
        assert!(cache.lookup(t.fingerprint, &t.canonical, &live2).is_none());
        let r = cache.report();
        assert_eq!(r.hits, 1);
        assert_eq!(r.invalidations, 1);
        assert_eq!(r.entries, 0);
        assert_eq!(r.bytes, 0);
    }

    #[test]
    fn partition_growth_is_a_version_change() {
        let live = MemVersions::new(&[("emp", &[3])]);
        let node = select_node("emp", "age", 30);
        let mut cache = ReuseCache::default();
        let t = ticket_for(&node, &live);
        cache.insert(&t, &rows_of(2));
        let grown = MemVersions::new(&[("emp", &[3, 1])]);
        assert!(cache.lookup(t.fingerprint, &t.canonical, &grown).is_none());
    }

    #[test]
    fn epoch_change_invalidates() {
        let live = MemVersions::new(&[("emp", &[1])]);
        let node = select_node("emp", "age", 30);
        let mut cache = ReuseCache::default();
        let t = ticket_for(&node, &live);
        cache.insert(&t, &rows_of(2));
        let mut live2 = MemVersions::new(&[("emp", &[1])]);
        live2.epoch = 1;
        assert!(!cache.would_serve(t.fingerprint, &t.canonical, &live2));
        assert!(cache.lookup(t.fingerprint, &t.canonical, &live2).is_none());
    }

    #[test]
    fn eviction_prefers_low_benefit_per_byte() {
        let live = MemVersions::new(&[("emp", &[1]), ("dept", &[1])]);
        // Each entry is ~490 bytes; four fit, the fifth forces eviction
        // (and 490 stays under the capacity/4 oversize limit).
        let mut cache = ReuseCache::new(2000);
        let cheap = select_node("emp", "age", 1);
        let mut t1 = ticket_for(&cheap, &live);
        t1.cost = 1.0;
        cache.insert(&t1, &rows_of(40));
        let dear = select_node("emp", "age", 2);
        let mut t2 = ticket_for(&dear, &live);
        t2.cost = 1_000_000.0;
        cache.insert(&t2, &rows_of(40));
        for v in 3..=5 {
            let mid = select_node("emp", "age", v);
            let mut t = ticket_for(&mid, &live);
            t.cost = 500.0;
            cache.insert(&t, &rows_of(40));
        }
        assert!(
            cache.lookup(t1.fingerprint, &t1.canonical, &live).is_none(),
            "low-benefit entry evicted"
        );
        assert!(cache.peek(t2.fingerprint, &t2.canonical).is_some());
        assert!(cache.report().evictions >= 1);
        assert!(cache.report().bytes <= cache.capacity_bytes());
    }

    #[test]
    fn oversized_results_are_not_retained() {
        let live = MemVersions::new(&[("emp", &[1])]);
        let mut cache = ReuseCache::new(1000);
        let t = ticket_for(&select_node("emp", "age", 1), &live);
        cache.insert(&t, &rows_of(10_000));
        assert_eq!(cache.report().entries, 0);
    }

    #[test]
    fn shrinking_capacity_evicts_down() {
        let live = MemVersions::new(&[("emp", &[1])]);
        let mut cache = ReuseCache::new(1 << 20);
        for v in 0..8 {
            let t = ticket_for(&select_node("emp", "age", v), &live);
            cache.insert(&t, &rows_of(50));
        }
        assert_eq!(cache.report().entries, 8);
        cache.set_capacity_bytes(1);
        assert_eq!(cache.report().entries, 0);
        assert_eq!(cache.report().bytes, 0);
    }

    // ---- semantic reuse: subsumption + delta maintenance ---------------

    fn range_select(table: &str, attr: &str, pred: Predicate, path: SelectPath) -> PlanNode {
        leaf(
            PlanNodeKind::Select {
                table: table.to_string(),
                attr: attr.to_string(),
                pred,
                path,
            },
            100.0,
        )
    }

    fn probe_of(
        node: &PlanNode,
        cache: &mut ReuseCache,
        live: &dyn VersionSource,
    ) -> Option<Probe> {
        let canon = canonical_plan(node).unwrap();
        let fp = fingerprint(&canon);
        let q = probe_query_of(&node.kind);
        cache.probe(fp, &canon, q.as_ref(), subtree_cost(node), live)
    }

    #[test]
    fn covers_honours_bound_strictness() {
        let k = |v: i64| KeyValue::Int(v);
        // x < 100 covers x < 50, not vice versa.
        assert!(covers(&Predicate::less(k(100)), &Predicate::less(k(50))));
        assert!(!covers(&Predicate::less(k(50)), &Predicate::less(k(100))));
        // Every interval covers itself.
        assert!(covers(&Predicate::less(k(50)), &Predicate::less(k(50))));
        assert!(covers(&Predicate::Eq(k(5)), &Predicate::Eq(k(5))));
        // >= 5 covers > 5; > 5 does not cover >= 5.
        let ge5 = Predicate::Range {
            lo: Bound::Included(k(5)),
            hi: Bound::Unbounded,
        };
        assert!(covers(&ge5, &Predicate::greater(k(5))));
        assert!(!covers(&Predicate::greater(k(5)), &ge5));
        // A range covers the degenerate Eq interval inside it.
        assert!(covers(
            &Predicate::between(k(1), k(9)),
            &Predicate::Eq(k(9))
        ));
        assert!(!covers(
            &Predicate::between(k(1), k(9)),
            &Predicate::Eq(k(10))
        ));
        // Bounded never covers unbounded on that side.
        assert!(!covers(&Predicate::less(k(50)), &Predicate::greater(k(60))));
        // No subsumption across key types.
        assert!(!covers(
            &Predicate::less(KeyValue::from("zzz")),
            &Predicate::less(k(50))
        ));
    }

    #[test]
    fn probe_serves_subsumed_entry_and_counts_it() {
        let live = MemVersions::new(&[("emp", &[1])]);
        let mut cache = ReuseCache::default();
        let wide = range_select(
            "emp",
            "age",
            Predicate::less(KeyValue::Int(100)),
            SelectPath::SequentialScan,
        );
        cache.insert(&ticket_for(&wide, &live), &rows_of(10));

        let narrow = range_select(
            "emp",
            "age",
            Predicate::less(KeyValue::Int(50)),
            SelectPath::SequentialScan,
        );
        let p = probe_of(&narrow, &mut cache, &live).expect("subsumed serve");
        match &p.mode {
            CachedMode::Subsumed {
                entry_canonical, ..
            } => assert_eq!(entry_canonical, "sel(emp.age < 100)"),
            other => panic!("expected subsumed mode, got {other:?}"),
        }
        assert_eq!(p.rows_len, 10);
        let r = cache.report();
        assert_eq!(r.hits, 1);
        assert_eq!(r.subsumed_hits, 1);

        // The reverse direction must not serve: cached narrow cannot
        // answer wide.
        cache.clear();
        cache.insert(&ticket_for(&narrow, &live), &rows_of(5));
        assert!(probe_of(&wide, &mut cache, &live).is_none());
    }

    #[test]
    fn hash_path_blocks_subsumption() {
        let live = MemVersions::new(&[("emp", &[1])]);
        let mut cache = ReuseCache::default();
        let wide = range_select(
            "emp",
            "age",
            Predicate::between(KeyValue::Int(0), KeyValue::Int(100)),
            SelectPath::SequentialScan,
        );
        cache.insert(&ticket_for(&wide, &live), &rows_of(10));
        // An Eq query the planner routed to a hash index returns rows in
        // bucket order — a re-filtered scan-ordered entry cannot serve it.
        let eq = range_select(
            "emp",
            "age",
            Predicate::Eq(KeyValue::Int(7)),
            SelectPath::HashLookup,
        );
        assert!(probe_of(&eq, &mut cache, &live).is_none());
    }

    #[test]
    fn subsumption_respects_cost_cutoff() {
        let live = MemVersions::new(&[("emp", &[1])]);
        let mut cache = ReuseCache::default();
        let wide = range_select(
            "emp",
            "age",
            Predicate::less(KeyValue::Int(100)),
            SelectPath::SequentialScan,
        );
        cache.insert(&ticket_for(&wide, &live), &rows_of(500));
        // Recompute estimate (est_comparisons = 100) is cheaper than
        // re-filtering 500 cached rows: the optimizer must recompute.
        let narrow = range_select(
            "emp",
            "age",
            Predicate::less(KeyValue::Int(50)),
            SelectPath::SequentialScan,
        );
        assert!(probe_of(&narrow, &mut cache, &live).is_none());
    }

    #[test]
    fn note_write_builds_chain_then_delta_serves() {
        let live = MemVersions::new(&[("emp", &[1])]);
        let node = range_select(
            "emp",
            "age",
            Predicate::less(KeyValue::Int(50)),
            SelectPath::SequentialScan,
        );
        let mut cache = ReuseCache::default();
        cache.insert(&ticket_for(&node, &live), &rows_of(8));
        // Make the entry hot (cold entries are not maintained).
        let p = probe_of(&node, &mut cache, &live).unwrap();
        assert!(matches!(p.mode, CachedMode::Exact));

        // A logged write bumps the version chain instead of invalidating.
        cache.note_write("emp", DeltaEvent::Insert(TupleId::new(0, 99)), &[2]);
        let live2 = MemVersions::new(&[("emp", &[2])]);
        let canon = canonical_plan(&node).unwrap();
        let fp = fingerprint(&canon);
        assert!(cache.would_serve_delta(fp, &canon, &live2));
        let p = probe_of(&node, &mut cache, &live2).expect("delta serve");
        assert!(matches!(p.mode, CachedMode::Delta { pending: 1 }));
        assert!(p.cost > 0.0);

        // The binder's snapshot + write-back round trip.
        let view = cache.peek_delta(fp, &canon).unwrap();
        assert_eq!(view.deltas.len(), 1);
        assert_eq!(view.covered, vec![2]);
        cache.finish_delta_apply(fp, &canon, view.seq, &rows_of(9), &view.covered);
        assert_eq!(cache.report().delta_applies, 1);
        // Patched entry is fresh at the new versions: exact serve again.
        let p = probe_of(&node, &mut cache, &live2).unwrap();
        assert!(matches!(p.mode, CachedMode::Exact));
        assert_eq!(p.rows_len, 9);
    }

    #[test]
    fn cold_entries_fall_back_to_invalidation() {
        let live = MemVersions::new(&[("emp", &[1])]);
        let node = range_select(
            "emp",
            "age",
            Predicate::less(KeyValue::Int(50)),
            SelectPath::SequentialScan,
        );
        let mut cache = ReuseCache::default();
        cache.insert(&ticket_for(&node, &live), &rows_of(8));
        // No probe in between: the entry has zero hits.
        cache.note_write("emp", DeltaEvent::Insert(TupleId::new(0, 99)), &[2]);
        let live2 = MemVersions::new(&[("emp", &[2])]);
        assert!(probe_of(&node, &mut cache, &live2).is_none());
        assert_eq!(cache.report().invalidations, 1);
    }

    #[test]
    fn delta_budget_overflow_evicts() {
        let live = MemVersions::new(&[("emp", &[1])]);
        let node = range_select(
            "emp",
            "age",
            Predicate::less(KeyValue::Int(50)),
            SelectPath::SequentialScan,
        );
        let mut cache = ReuseCache::default();
        cache.insert(&ticket_for(&node, &live), &rows_of(8));
        probe_of(&node, &mut cache, &live).unwrap();
        for i in 0..=DELTA_BUDGET as u64 {
            cache.note_write("emp", DeltaEvent::Update(TupleId::new(0, 1)), &[2 + i]);
        }
        assert_eq!(cache.report().entries, 0);
        assert_eq!(cache.report().delta_overflow_evictions, 1);
    }

    #[test]
    fn relocation_barrier_evicts_maintained_entry() {
        let live = MemVersions::new(&[("emp", &[1])]);
        let node = range_select(
            "emp",
            "age",
            Predicate::less(KeyValue::Int(50)),
            SelectPath::SequentialScan,
        );
        let mut cache = ReuseCache::default();
        cache.insert(&ticket_for(&node, &live), &rows_of(8));
        probe_of(&node, &mut cache, &live).unwrap();
        cache.note_write("emp", DeltaEvent::Update(TupleId::new(0, 1)), &[2]);
        cache.note_write("emp", DeltaEvent::Barrier, &[3]);
        assert_eq!(cache.report().entries, 0);
        assert_eq!(cache.report().invalidations, 1);
    }

    #[test]
    fn raced_writeback_is_dropped() {
        let live = MemVersions::new(&[("emp", &[1])]);
        let node = range_select(
            "emp",
            "age",
            Predicate::less(KeyValue::Int(50)),
            SelectPath::SequentialScan,
        );
        let mut cache = ReuseCache::default();
        cache.insert(&ticket_for(&node, &live), &rows_of(8));
        probe_of(&node, &mut cache, &live).unwrap();
        cache.note_write("emp", DeltaEvent::Update(TupleId::new(0, 1)), &[2]);
        let canon = canonical_plan(&node).unwrap();
        let fp = fingerprint(&canon);
        let view = cache.peek_delta(fp, &canon).unwrap();
        // A write races past the snapshot before the patch lands.
        cache.note_write("emp", DeltaEvent::Update(TupleId::new(0, 2)), &[3]);
        cache.finish_delta_apply(fp, &canon, view.seq, &rows_of(9), &view.covered);
        // Counted, but the stale-seq write-back did not clobber the chain.
        assert_eq!(cache.report().delta_applies, 1);
        let e = cache.entries().next().unwrap();
        assert_eq!(e.deltas.len(), 2);
        assert_eq!(e.rows.len(), 8);
        assert_eq!(e.delta_stamps, vec![3]);
    }

    #[test]
    fn unindexed_scan_entries_are_maintainable_tree_entries_not() {
        let live = MemVersions::new(&[("emp", &[1])]);
        let scan = range_select(
            "emp",
            "salary",
            Predicate::less(KeyValue::Int(50)),
            SelectPath::SequentialScan,
        );
        let tree = range_select(
            "emp",
            "age",
            Predicate::less(KeyValue::Int(50)),
            SelectPath::TreeLookup,
        );
        let ts = ticket_for(&scan, &live);
        let tt = ticket_for(&tree, &live);
        assert!(ts.key.as_ref().unwrap().maintainable);
        assert!(ts.key.as_ref().unwrap().order_safe);
        assert!(!tt.key.as_ref().unwrap().maintainable);
        assert!(tt.key.as_ref().unwrap().order_safe);
        // Joins carry no structured key.
        let j = join_node(select_node("emp", "age", 30), JoinMethod::TreeJoin, None);
        assert!(ticket_for(&j, &live).key.is_none());
    }
}
