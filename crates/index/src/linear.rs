//! Linear Hashing \[Lit80\] (§3.2).
//!
//! Litwin's scheme: buckets split in a fixed, linear order governed by a
//! split pointer, so no directory is needed beyond the bucket array. The
//! split/contract *criterion* is storage utilisation (used bytes ÷
//! available bytes), which is exactly what the paper blames for its poor
//! query-mix showing: *"Linear Hashing … was much slower because, trying
//! to maintain a particular storage utilization …, it did a significant
//! amount of data reorganization even though the number of elements was
//! relatively constant."*
//!
//! The paper's pathology comes from using a single set-point as both the
//! split and the contract criterion: a mixed insert/delete workload then
//! hovers on the threshold and every operation reorganises (measured here
//! as a ~5× per-op outlier in `index_insert_delete`). The table now keeps
//! the utilisation-driven *criterion* but separates the two thresholds
//! into a dead band ([`SPLIT_THRESHOLD`] / [`CONTRACT_THRESHOLD`]): growth
//! and shrink still track utilisation, while a constant-population
//! workload settles inside the band and stops restructuring. The
//! set-point pathology itself stays reproducible by narrowing the band —
//! see `mixed_workload_set_point_reproduces_paper_thrash`.

use crate::adapter::HashAdapter;
use crate::stats::{Counters, Snapshot};
use crate::traits::{IndexError, UnorderedIndex};
use std::cmp::Ordering;

/// Initial number of primary buckets.
const INITIAL_BUCKETS: usize = 4;
/// Utilisation above which an insert splits the next bucket. The paper's
/// Linear Hashing "tr[ied] to maintain a particular storage utilization"
/// with a *single* set-point — split and contract at the same value — so
/// a constant-population insert/delete mix reorganised on nearly every
/// operation. These defaults instead form a dead band: splits engage only
/// above 0.85 …
const SPLIT_THRESHOLD: f64 = 0.85;
/// … and contractions only below 0.60. A steady-state table sits inside
/// the band and never restructures; sustained growth or shrink still
/// drives utilisation through a threshold and reorganises as before. The
/// paper's set-point behaviour remains available through
/// [`LinearHash::with_thresholds`] (used by the thrash-reproduction test
/// and the Graph 2 figure notes).
const CONTRACT_THRESHOLD: f64 = 0.60;

struct Bucket<E> {
    items: Vec<E>,
}

/// A linear hash table with utilisation-driven growth.
pub struct LinearHash<A: HashAdapter> {
    adapter: A,
    buckets: Vec<Bucket<A::Entry>>,
    /// Doubling level: the table logically spans `INITIAL_BUCKETS * 2^level`.
    level: u32,
    /// Next bucket to split.
    split: usize,
    bucket_capacity: usize,
    len: usize,
    /// Cached sum of per-bucket page counts (each bucket occupies
    /// `ceil(len / capacity)` pages, minimum 1).
    total_pages: usize,
    /// Split when utilisation exceeds this.
    split_threshold: f64,
    /// Contract when utilisation falls below this.
    contract_threshold: f64,
    stats: Counters,
}

impl<A: HashAdapter> LinearHash<A> {
    /// Create with the given bucket ("node") capacity and the default
    /// [`SPLIT_THRESHOLD`] / [`CONTRACT_THRESHOLD`] dead band.
    pub fn new(adapter: A, bucket_capacity: usize) -> Self {
        Self::with_thresholds(
            adapter,
            bucket_capacity,
            SPLIT_THRESHOLD,
            CONTRACT_THRESHOLD,
        )
    }

    /// Create with explicit utilisation thresholds. Passing the same
    /// value for both reproduces the paper's single set-point — and with
    /// it the reorganisation thrash of §3.2 / Graph 2.
    pub fn with_thresholds(
        adapter: A,
        bucket_capacity: usize,
        split_threshold: f64,
        contract_threshold: f64,
    ) -> Self {
        let bucket_capacity = bucket_capacity.max(1);
        LinearHash {
            adapter,
            buckets: (0..INITIAL_BUCKETS)
                .map(|_| Bucket { items: Vec::new() })
                .collect(),
            level: 0,
            split: 0,
            bucket_capacity,
            len: 0,
            total_pages: INITIAL_BUCKETS,
            split_threshold,
            contract_threshold: contract_threshold.min(split_threshold),
            stats: Counters::default(),
        }
    }

    /// Number of primary buckets currently allocated.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    fn base(&self) -> usize {
        INITIAL_BUCKETS << self.level
    }

    fn address(&self, hash: u64) -> usize {
        let b = (hash % self.base() as u64) as usize;
        if b < self.split {
            (hash % (self.base() as u64 * 2)) as usize
        } else {
            b
        }
    }

    /// Pages needed for `n` items (primary page + overflow pages).
    fn pages_for(&self, n: usize) -> usize {
        n.div_ceil(self.bucket_capacity).max(1)
    }

    /// Pages occupied by a bucket (primary page + overflow pages).
    fn pages(&self, b: &Bucket<A::Entry>) -> usize {
        self.pages_for(b.items.len())
    }

    /// Adjust the cached page total for bucket `b` moving from `before`
    /// to `after` items.
    fn repage(&mut self, before: usize, after: usize) {
        self.total_pages = self.total_pages - self.pages_for(before) + self.pages_for(after);
    }

    /// Litwin's criterion: data bytes used ÷ data bytes available.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.len as f64 / (self.total_pages * self.bucket_capacity) as f64
    }

    fn split_one(&mut self, cx: A::Ctx<'_>) {
        self.stats.restructures(1);
        let new_index = self.buckets.len();
        debug_assert_eq!(new_index, self.base() + self.split);
        self.buckets.push(Bucket { items: Vec::new() });
        self.total_pages += 1;
        let old_items = std::mem::take(&mut self.buckets[self.split].items);
        let went = old_items.len();
        let wide = self.base() as u64 * 2;
        let mut stay = Vec::new();
        let mut go = Vec::new();
        for e in old_items {
            self.stats.hash_calls(1);
            self.stats.data_moves(1);
            if (self.adapter.hash_entry(cx, &e) % wide) as usize == self.split {
                stay.push(e);
            } else {
                go.push(e);
            }
        }
        self.buckets[self.split].items = stay;
        self.buckets[new_index].items = go;
        // Page accounting: the old bucket held all `went` items on its own
        // pages; the new bucket's page was counted when it was pushed.
        let stay_len = self.buckets[self.split].items.len();
        let go_len = self.buckets[new_index].items.len();
        self.total_pages = self.total_pages - self.pages_for(went) - 1
            + self.pages_for(stay_len)
            + self.pages_for(go_len);
        self.split += 1;
        if self.split == self.base() {
            self.level += 1;
            self.split = 0;
        }
    }

    fn contract_one(&mut self) {
        if self.buckets.len() <= INITIAL_BUCKETS {
            return;
        }
        self.stats.restructures(1);
        if self.split == 0 {
            self.level -= 1;
            self.split = self.base();
        }
        self.split -= 1;
        let Some(mut victim) = self.buckets.pop() else {
            return; // unreachable: guarded by the INITIAL_BUCKETS check above
        };
        debug_assert_eq!(self.buckets.len(), self.base() + self.split);
        self.stats.data_moves(victim.items.len() as u64);
        let survivor_before = self.buckets[self.split].items.len();
        self.total_pages -= self.pages_for(victim.items.len());
        self.buckets[self.split].items.append(&mut victim.items);
        let survivor_after = self.buckets[self.split].items.len();
        self.repage(survivor_before, survivor_after);
    }

    fn maybe_grow(&mut self, cx: A::Ctx<'_>) {
        while self.utilization() > self.split_threshold {
            self.split_one(cx);
        }
    }

    fn maybe_shrink(&mut self) {
        while self.buckets.len() > INITIAL_BUCKETS && self.utilization() < self.contract_threshold {
            self.contract_one();
        }
    }
}

impl<A: HashAdapter> UnorderedIndex<A> for LinearHash<A> {
    fn insert(&mut self, cx: A::Ctx<'_>, entry: A::Entry) {
        self.stats.hash_calls(1);
        let b = self.address(self.adapter.hash_entry(cx, &entry));
        let before = self.buckets[b].items.len();
        self.buckets[b].items.push(entry);
        self.repage(before, before + 1);
        self.stats.data_moves(1);
        self.len += 1;
        self.maybe_grow(cx);
    }

    fn insert_unique(&mut self, cx: A::Ctx<'_>, entry: A::Entry) -> Result<(), IndexError> {
        self.stats.hash_calls(1);
        let b = self.address(self.adapter.hash_entry(cx, &entry));
        for e in &self.buckets[b].items {
            self.stats.comparisons(1);
            if self.adapter.cmp_entries(cx, e, &entry) == Ordering::Equal {
                return Err(IndexError::DuplicateKey);
            }
        }
        let before = self.buckets[b].items.len();
        self.buckets[b].items.push(entry);
        self.repage(before, before + 1);
        self.stats.data_moves(1);
        self.len += 1;
        self.maybe_grow(cx);
        Ok(())
    }

    fn delete(&mut self, cx: A::Ctx<'_>, key: &A::Key) -> Option<A::Entry> {
        self.stats.hash_calls(1);
        let b = self.address(self.adapter.hash_key(key));
        self.stats.node_visits(1);
        for i in 0..self.buckets[b].items.len() {
            self.stats.comparisons(1);
            if self
                .adapter
                .cmp_entry_key(cx, &self.buckets[b].items[i], key)
                == Ordering::Equal
            {
                let before = self.buckets[b].items.len();
                let e = self.buckets[b].items.swap_remove(i);
                self.repage(before, before - 1);
                self.stats.data_moves(1);
                self.len -= 1;
                self.maybe_shrink();
                return Some(e);
            }
        }
        None
    }

    fn delete_entry(&mut self, cx: A::Ctx<'_>, entry: &A::Entry) -> bool {
        self.stats.hash_calls(1);
        let b = self.address(self.adapter.hash_entry(cx, entry));
        self.stats.node_visits(1);
        for i in 0..self.buckets[b].items.len() {
            self.stats.comparisons(1);
            if self.buckets[b].items[i] == *entry {
                let before = self.buckets[b].items.len();
                self.buckets[b].items.swap_remove(i);
                self.repage(before, before - 1);
                self.stats.data_moves(1);
                self.len -= 1;
                self.maybe_shrink();
                return true;
            }
        }
        false
    }

    fn search(&self, cx: A::Ctx<'_>, key: &A::Key) -> Option<A::Entry> {
        self.stats.hash_calls(1);
        let b = self.address(self.adapter.hash_key(key));
        self.stats.node_visits(1);
        for e in &self.buckets[b].items {
            self.stats.comparisons(1);
            if self.adapter.cmp_entry_key(cx, e, key) == Ordering::Equal {
                return Some(*e);
            }
        }
        None
    }

    fn search_all(&self, cx: A::Ctx<'_>, key: &A::Key, out: &mut Vec<A::Entry>) {
        self.stats.hash_calls(1);
        let b = self.address(self.adapter.hash_key(key));
        self.stats.node_visits(1);
        for e in &self.buckets[b].items {
            self.stats.comparisons(1);
            if self.adapter.cmp_entry_key(cx, e, key) == Ordering::Equal {
                out.push(*e);
            }
        }
    }

    fn scan(&self, visit: &mut dyn FnMut(&A::Entry)) {
        for b in &self.buckets {
            for e in &b.items {
                visit(e);
            }
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn storage_bytes(&self) -> usize {
        let mut total = std::mem::size_of::<Self>()
            + self.buckets.capacity() * std::mem::size_of::<Bucket<A::Entry>>();
        for b in &self.buckets {
            // Charge whole pages, as a paged implementation would.
            total += self.pages(b) * self.bucket_capacity * std::mem::size_of::<A::Entry>();
        }
        total
    }

    fn stats(&self) -> Snapshot {
        self.stats.snapshot()
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn validate(&self, cx: A::Ctx<'_>) -> Result<(), String> {
        if self.buckets.len() != self.base() + self.split {
            return Err(format!(
                "bucket count {} != base {} + split {}",
                self.buckets.len(),
                self.base(),
                self.split
            ));
        }
        let mut counted = 0usize;
        for (i, b) in self.buckets.iter().enumerate() {
            for e in &b.items {
                let a = self.address(self.adapter.hash_entry(cx, e));
                if a != i {
                    return Err(format!("entry in bucket {i} addresses to {a}"));
                }
            }
            counted += b.items.len();
        }
        if counted != self.len {
            return Err(format!("len {} but buckets hold {counted}", self.len));
        }
        let pages: usize = self.buckets.iter().map(|b| self.pages(b)).sum();
        if pages != self.total_pages {
            return Err(format!(
                "cached pages {} != actual {pages}",
                self.total_pages
            ));
        }
        Ok(())
    }
}

/// Raw structural access for the `mmdb-check` verification layer.
#[cfg(feature = "check")]
impl<A: HashAdapter> LinearHash<A> {
    /// Every bucket's items, in page order.
    #[must_use]
    pub fn raw_buckets(&self) -> Vec<crate::raw::BucketView<A::Entry>> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(bucket, b)| crate::raw::BucketView {
                bucket,
                entries: b.items.clone(),
                truncated: false,
            })
            .collect()
    }

    /// The split pointer (next bucket to split).
    #[must_use]
    pub fn raw_split(&self) -> usize {
        self.split
    }

    /// `INITIAL_BUCKETS * 2^level`, the base of the current doubling.
    #[must_use]
    pub fn raw_base(&self) -> usize {
        self.base()
    }

    /// The bucket an entry addresses to under the current split state.
    #[must_use]
    pub fn raw_address_of(&self, cx: A::Ctx<'_>, e: &A::Entry) -> usize {
        self.address(self.adapter.hash_entry(cx, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::NaturalAdapter;
    use crate::testkit::{self, DupAdapter};

    fn nat(cap: usize) -> LinearHash<NaturalAdapter<u64>> {
        LinearHash::new(NaturalAdapter::new(), cap)
    }

    #[test]
    fn empty() {
        let mut h = nat(4);
        assert_eq!(h.search((), &1), None);
        assert_eq!(h.delete((), &1), None);
        h.validate(()).unwrap();
    }

    #[test]
    fn grows_linearly_under_inserts() {
        let mut h = nat(8);
        for k in 0..5000u64 {
            h.insert((), k);
        }
        h.validate(()).unwrap();
        assert!(h.bucket_count() > 200, "buckets {}", h.bucket_count());
        for k in (0..5000u64).step_by(7) {
            assert_eq!(h.search((), &k), Some(k));
        }
        // Utilisation is maintained near the threshold.
        let u = h.utilization();
        assert!(u > 0.5 && u <= 0.85, "utilization {u}");
    }

    #[test]
    fn shrinks_after_deletes() {
        let mut h = nat(8);
        for k in 0..5000u64 {
            h.insert((), k);
        }
        let grown = h.bucket_count();
        for k in 0..4500u64 {
            assert_eq!(h.delete((), &k), Some(k));
        }
        h.validate(()).unwrap();
        assert!(
            h.bucket_count() < grown / 2,
            "should contract: {} vs {grown}",
            h.bucket_count()
        );
        for k in 4500..5000u64 {
            assert_eq!(h.search((), &k), Some(k));
        }
    }

    #[cfg(feature = "stats")]
    #[test]
    fn steady_state_mixed_workload_does_not_thrash() {
        // With the split/contract dead band, a constant-population
        // insert/delete mix settles inside the band: after a short
        // warm-up, no operation restructures.
        let mut h = nat(4);
        for k in 0..2000u64 {
            h.insert((), k);
        }
        // Warm-up: let any boundary-adjacent splits land.
        let mut rng = testkit::TestRng::new(31);
        for i in 0..500u64 {
            let _ = h.delete((), &(i % 2000));
            h.insert((), i % 2000);
            let _ = rng.below(1 << 30);
        }
        h.reset_stats();
        for i in 0..4000u64 {
            let _ = h.delete((), &(i % 2000));
            let k = 2000 + rng.below(1 << 30);
            h.insert((), k);
            let _ = h.delete((), &k);
            h.insert((), i % 2000);
        }
        let r = h.stats().restructures;
        assert_eq!(r, 0, "steady state must not reorganise, saw {r}");
        h.validate(()).unwrap();
        // Growth and shrink still restructure as before.
        h.reset_stats();
        for k in 10_000..14_000u64 {
            h.insert((), k);
        }
        assert!(h.stats().restructures > 0, "growth must split");
        h.reset_stats();
        for k in 10_000..14_000u64 {
            let _ = h.delete((), &k);
        }
        for k in 0..1500u64 {
            let _ = h.delete((), &k);
        }
        assert!(h.stats().restructures > 0, "shrink must contract");
        h.validate(()).unwrap();
    }

    #[cfg(feature = "stats")]
    #[test]
    fn mixed_workload_set_point_reproduces_paper_thrash() {
        // The paper's complaint (§3.2, Graph 2): with a single
        // utilisation set-point, constant population still reorganises
        // near-constantly.
        let mut h = LinearHash::with_thresholds(NaturalAdapter::new(), 4, 0.80, 0.80);
        for k in 0..2000u64 {
            h.insert((), k);
        }
        h.reset_stats();
        let mut rng = testkit::TestRng::new(31);
        for i in 0..4000u64 {
            let _ = h.delete((), &(i % 2000));
            let k = 2000 + rng.below(1 << 30);
            h.insert((), k);
            let _ = h.delete((), &k);
            h.insert((), i % 2000);
        }
        let r = h.stats().restructures;
        assert!(r > 0, "set-point table must keep reorganising, got none");
        h.validate(()).unwrap();
    }

    #[test]
    fn duplicates() {
        let mut h = LinearHash::new(DupAdapter, 4);
        for low in 0..100u64 {
            h.insert((), (2 << 16) | low);
        }
        h.validate(()).unwrap();
        let mut out = Vec::new();
        h.search_all((), &2, &mut out);
        assert_eq!(out.len(), 100);
        assert!(h.delete_entry((), &((2 << 16) | 42)));
        out.clear();
        h.search_all((), &2, &mut out);
        assert_eq!(out.len(), 99);
    }

    #[test]
    fn differential_vs_model() {
        for cap in [1usize, 4, 16] {
            let mut h = LinearHash::new(DupAdapter, cap);
            testkit::unordered_differential(&mut h, 0x71E + cap as u64, 5000, 300);
        }
    }

    #[test]
    fn scan_complete() {
        let mut h = nat(8);
        for k in 0..1000u64 {
            h.insert((), k);
        }
        let mut seen = Vec::new();
        h.scan(&mut |e| seen.push(*e));
        seen.sort_unstable();
        assert_eq!(seen, (0..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn insert_unique() {
        let mut h = LinearHash::new(DupAdapter, 4);
        h.insert_unique((), (9 << 16) | 1).unwrap();
        assert_eq!(
            h.insert_unique((), (9 << 16) | 2),
            Err(IndexError::DuplicateKey)
        );
    }
}
