//! The sorted-array index \[AHK85\] (§3.2).
//!
//! *"The array index structure was used to store ordered data. It is easy
//! to build and scan, but it is useful only as a read-only index because it
//! does not handle updates well."* — every update shifts half the array on
//! average, which is why the paper measured its query-mix performance at
//! two orders of magnitude worse than everything else.
//!
//! It has the minimum possible storage cost (the storage-cost baseline in
//! §3.2.2) and the fastest ordered scan — the property that makes the Sort
//! Merge join competitive for high-output joins (§3.3.4, Test 4).

use crate::adapter::Adapter;
use crate::sort;
use crate::stats::{Counters, Snapshot};
use crate::traits::{bound_ok_hi, bound_ok_lo, IndexError, OrderedIndex};
use std::cmp::Ordering;
use std::ops::Bound;

/// A sorted array of entries with pure binary search.
pub struct ArrayIndex<A: Adapter> {
    adapter: A,
    data: Vec<A::Entry>,
    stats: Counters,
}

impl<A: Adapter> ArrayIndex<A> {
    /// Create an empty array index.
    pub fn new(adapter: A) -> Self {
        ArrayIndex {
            adapter,
            data: Vec::new(),
            stats: Counters::default(),
        }
    }

    /// Build from an arbitrary slice of entries, then sort with the
    /// paper's quicksort/insertion-sort hybrid. This is exactly how the
    /// Sort Merge join constructs its inputs ("array indexes were built on
    /// both relations and then sorted").
    pub fn build_from(adapter: A, cx: A::Ctx<'_>, entries: &[A::Entry]) -> Self {
        let mut idx = ArrayIndex {
            adapter,
            data: entries.to_vec(),
            stats: Counters::default(),
        };
        idx.stats.data_moves(entries.len() as u64);
        let a = &idx.adapter;
        sort::quicksort(&mut idx.data, &idx.stats, |x, y| a.cmp_entries(cx, x, y));
        idx
    }

    /// Direct read-only access to the sorted entries (fast merge scans).
    #[must_use]
    pub fn as_slice(&self) -> &[A::Entry] {
        &self.data
    }

    /// Index of the first entry with key ≥ `key`.
    fn lower_bound(&self, cx: A::Ctx<'_>, key: &A::Key) -> usize {
        let mut lo = 0usize;
        let mut hi = self.data.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            self.stats.comparisons(1);
            if self.adapter.cmp_entry_key(cx, &self.data[mid], key) == Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Index of the first entry with key > `key`.
    fn upper_bound(&self, cx: A::Ctx<'_>, key: &A::Key) -> usize {
        let mut lo = 0usize;
        let mut hi = self.data.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            self.stats.comparisons(1);
            if self.adapter.cmp_entry_key(cx, &self.data[mid], key) == Ordering::Greater {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Position where `entry` would be inserted (after existing equals).
    fn insert_pos(&self, cx: A::Ctx<'_>, entry: &A::Entry) -> usize {
        let mut lo = 0usize;
        let mut hi = self.data.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            self.stats.comparisons(1);
            if self.adapter.cmp_entries(cx, &self.data[mid], entry) == Ordering::Greater {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

impl<A: Adapter> OrderedIndex<A> for ArrayIndex<A> {
    fn insert(&mut self, cx: A::Ctx<'_>, entry: A::Entry) {
        let pos = self.insert_pos(cx, &entry);
        // Every element after `pos` shifts — the paper's "half of the
        // array, on the average".
        self.stats.data_moves((self.data.len() - pos) as u64 + 1);
        self.data.insert(pos, entry);
    }

    fn insert_unique(&mut self, cx: A::Ctx<'_>, entry: A::Entry) -> Result<(), IndexError> {
        let pos = self.insert_pos(cx, &entry);
        if pos > 0 {
            self.stats.comparisons(1);
            if self.adapter.cmp_entries(cx, &self.data[pos - 1], &entry) == Ordering::Equal {
                return Err(IndexError::DuplicateKey);
            }
        }
        self.stats.data_moves((self.data.len() - pos) as u64 + 1);
        self.data.insert(pos, entry);
        Ok(())
    }

    fn delete(&mut self, cx: A::Ctx<'_>, key: &A::Key) -> Option<A::Entry> {
        let pos = self.lower_bound(cx, key);
        if pos < self.data.len() {
            self.stats.comparisons(1);
            if self.adapter.cmp_entry_key(cx, &self.data[pos], key) == Ordering::Equal {
                self.stats.data_moves((self.data.len() - pos) as u64);
                return Some(self.data.remove(pos));
            }
        }
        None
    }

    fn delete_entry(&mut self, cx: A::Ctx<'_>, entry: &A::Entry) -> bool {
        let mut pos = {
            // lower bound by entry key
            let mut lo = 0usize;
            let mut hi = self.data.len();
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                self.stats.comparisons(1);
                if self.adapter.cmp_entries(cx, &self.data[mid], entry) == Ordering::Less {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        while pos < self.data.len() {
            self.stats.comparisons(1);
            if self.adapter.cmp_entries(cx, &self.data[pos], entry) != Ordering::Equal {
                return false;
            }
            if self.data[pos] == *entry {
                self.stats.data_moves((self.data.len() - pos) as u64);
                self.data.remove(pos);
                return true;
            }
            pos += 1;
        }
        false
    }

    fn search(&self, cx: A::Ctx<'_>, key: &A::Key) -> Option<A::Entry> {
        let pos = self.lower_bound(cx, key);
        if pos < self.data.len() {
            self.stats.comparisons(1);
            if self.adapter.cmp_entry_key(cx, &self.data[pos], key) == Ordering::Equal {
                return Some(self.data[pos]);
            }
        }
        None
    }

    fn search_all(&self, cx: A::Ctx<'_>, key: &A::Key, out: &mut Vec<A::Entry>) {
        let lo = self.lower_bound(cx, key);
        let hi = self.upper_bound(cx, key);
        out.extend_from_slice(&self.data[lo..hi]);
    }

    fn range(
        &self,
        cx: A::Ctx<'_>,
        lo: Bound<&A::Key>,
        hi: Bound<&A::Key>,
        out: &mut Vec<A::Entry>,
    ) {
        let start = match lo {
            Bound::Unbounded => 0,
            Bound::Included(k) => self.lower_bound(cx, k),
            Bound::Excluded(k) => self.upper_bound(cx, k),
        };
        for e in &self.data[start..] {
            let ord_hi = match hi {
                Bound::Unbounded => Ordering::Less,
                Bound::Included(k) | Bound::Excluded(k) => {
                    self.stats.comparisons(1);
                    self.adapter.cmp_entry_key(cx, e, k)
                }
            };
            if !bound_ok_hi(ord_hi, &hi) {
                break;
            }
            debug_assert!(bound_ok_lo(Ordering::Equal, &Bound::Unbounded::<&A::Key>));
            out.push(*e);
        }
    }

    fn scan(&self, visit: &mut dyn FnMut(&A::Entry)) {
        for e in &self.data {
            visit(e);
        }
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn storage_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.data.capacity() * std::mem::size_of::<A::Entry>()
    }

    fn stats(&self) -> Snapshot {
        self.stats.snapshot()
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn validate(&self, cx: A::Ctx<'_>) -> Result<(), String> {
        for (i, w) in self.data.windows(2).enumerate() {
            if self.adapter.cmp_entries(cx, &w[0], &w[1]) == Ordering::Greater {
                return Err(format!("array not sorted at position {i}"));
            }
        }
        Ok(())
    }
}

/// Raw structural access for the `mmdb-check` verification layer.
#[cfg(feature = "check")]
impl<A: Adapter> ArrayIndex<A> {
    /// The adapter, for key comparisons during checking.
    #[must_use]
    pub fn raw_adapter(&self) -> &A {
        &self.adapter
    }

    /// Allocated capacity of the backing array (gap accounting: capacity
    /// minus length is the only admissible "gap" — the array itself must
    /// be dense and sorted).
    #[must_use]
    pub fn raw_capacity(&self) -> usize {
        self.data.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::NaturalAdapter;
    use crate::testkit::{self, DupAdapter};

    fn nat() -> ArrayIndex<NaturalAdapter<u64>> {
        ArrayIndex::new(NaturalAdapter::new())
    }

    #[test]
    fn empty_behaviour() {
        let mut idx = nat();
        assert!(idx.is_empty());
        assert_eq!(idx.search((), &7), None);
        assert_eq!(idx.delete((), &7), None);
        let mut out = Vec::new();
        idx.range((), Bound::Unbounded, Bound::Unbounded, &mut out);
        assert!(out.is_empty());
        idx.validate(()).unwrap();
    }

    #[test]
    fn insert_search_delete_roundtrip() {
        let mut idx = nat();
        for k in [5u64, 3, 9, 1, 7] {
            idx.insert((), k);
        }
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.search((), &7), Some(7));
        assert_eq!(idx.search((), &4), None);
        assert_eq!(idx.delete((), &3), Some(3));
        assert_eq!(idx.search((), &3), None);
        assert_eq!(idx.len(), 4);
        idx.validate(()).unwrap();
    }

    #[test]
    fn insert_unique_rejects_duplicates() {
        let mut idx = nat();
        idx.insert_unique((), 4).unwrap();
        assert_eq!(idx.insert_unique((), 4), Err(IndexError::DuplicateKey));
        idx.insert_unique((), 5).unwrap();
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn range_bounds() {
        let mut idx = nat();
        for k in 0..20u64 {
            idx.insert((), k);
        }
        let mut out = Vec::new();
        idx.range((), Bound::Included(&5), Bound::Excluded(&10), &mut out);
        assert_eq!(out, vec![5, 6, 7, 8, 9]);
        out.clear();
        idx.range((), Bound::Excluded(&5), Bound::Included(&10), &mut out);
        assert_eq!(out, vec![6, 7, 8, 9, 10]);
        out.clear();
        idx.range((), Bound::Unbounded, Bound::Excluded(&3), &mut out);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn build_from_sorts() {
        let entries = testkit::shuffled_unique_entries(1000, 99);
        let idx = ArrayIndex::build_from(DupAdapter, (), &entries);
        idx.validate(()).unwrap();
        assert_eq!(idx.len(), 1000);
        let mut sorted = entries;
        sorted.sort_unstable();
        assert_eq!(idx.as_slice(), &sorted[..]);
    }

    #[test]
    fn duplicates_search_all() {
        let mut idx = ArrayIndex::new(DupAdapter);
        idx.insert((), (5 << 16) | 1);
        idx.insert((), (5 << 16) | 2);
        idx.insert((), (5 << 16) | 3);
        idx.insert((), 6 << 16);
        let mut out = Vec::new();
        idx.search_all((), &5, &mut out);
        assert_eq!(out.len(), 3);
        assert!(idx.delete_entry((), &((5 << 16) | 2)));
        assert!(!idx.delete_entry((), &((5 << 16) | 2)));
        out.clear();
        idx.search_all((), &5, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn differential_vs_model() {
        let mut idx = ArrayIndex::new(DupAdapter);
        testkit::ordered_differential(&mut idx, 0xA11A, 4000, 200);
    }

    #[cfg(feature = "stats")]
    #[test]
    fn update_cost_is_linear_in_shift() {
        // The paper: "Every update requires moving half of the array, on
        // the average" — check data_moves grows with position.
        let mut idx = nat();
        for k in 0..1000u64 {
            idx.insert((), k * 2);
        }
        idx.reset_stats();
        idx.insert((), 0); // minimum: shifts the whole array
        let front = idx.stats().data_moves;
        idx.reset_stats();
        idx.insert((), 10_000); // maximum: shifts nothing
        let back = idx.stats().data_moves;
        assert!(front > 900, "front insert should shift ~1000, got {front}");
        assert!(back <= 2, "back insert should shift ~0, got {back}");
    }

    #[test]
    fn storage_is_minimal() {
        let entries = testkit::shuffled_unique_entries(10_000, 3);
        let idx = ArrayIndex::build_from(DupAdapter, (), &entries);
        let bytes = idx.storage_bytes();
        let payload = 10_000 * std::mem::size_of::<u64>();
        assert!(
            bytes < payload * 2,
            "array overhead should be small: {bytes}"
        );
    }
}
