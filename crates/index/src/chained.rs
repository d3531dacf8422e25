//! Chained Bucket Hashing \[AHU74, Knu73\] (§3.2).
//!
//! A fixed-size table of bucket chains. The paper used it "as the temporary
//! index structure for unordered data, as it has excellent performance for
//! static data" — it is the table the **Hash Join** builds on its inner
//! relation, and the structure originally intended for static indices in
//! the MM-DBMS.
//!
//! The table size is chosen once, at construction, and never changes:
//! search and update costs are excellent while the population matches the
//! table, and degrade (chains lengthen) if the population grows far past
//! it — the reason the paper classifies it "only a static structure".
//! Storage factor measured in the paper: ≈ 2.3 (one chain pointer per item
//! plus partly unused table slots).

use crate::adapter::HashAdapter;
use crate::stats::{Counters, Snapshot};
use crate::traits::{IndexError, UnorderedIndex};
use std::cmp::Ordering;

const NIL: u32 = u32::MAX;

struct ChainNode<E> {
    entry: E,
    next: u32,
}

/// A static chained-bucket hash table.
pub struct ChainedBucketHash<A: HashAdapter> {
    adapter: A,
    /// Bucket heads into the node arena.
    table: Vec<u32>,
    nodes: Vec<ChainNode<A::Entry>>,
    free: Vec<u32>,
    mask: u64,
    len: usize,
    stats: Counters,
}

impl<A: HashAdapter> ChainedBucketHash<A> {
    /// Create a table sized for an expected population of `expected`
    /// entries (table size = next power of two ≥ `expected`, so chains
    /// average ≤ 1 when the estimate is right).
    pub fn with_capacity(adapter: A, expected: usize) -> Self {
        let size = expected.next_power_of_two().max(8);
        ChainedBucketHash {
            adapter,
            table: vec![NIL; size],
            nodes: Vec::with_capacity(expected),
            free: Vec::new(),
            mask: (size - 1) as u64,
            len: 0,
            stats: Counters::default(),
        }
    }

    /// Number of buckets in the (fixed) table.
    #[must_use]
    pub fn table_size(&self) -> usize {
        self.table.len()
    }

    fn bucket_of_key(&self, key: &A::Key) -> usize {
        self.stats.hash_calls(1);
        (self.adapter.hash_key(key) & self.mask) as usize
    }

    fn bucket_of_entry(&self, cx: A::Ctx<'_>, e: &A::Entry) -> usize {
        self.stats.hash_calls(1);
        (self.adapter.hash_entry(cx, e) & self.mask) as usize
    }

    fn alloc(&mut self, entry: A::Entry, next: u32) -> u32 {
        let n = ChainNode { entry, next };
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = n;
            id
        } else {
            self.nodes.push(n);
            (self.nodes.len() - 1) as u32
        }
    }

    /// Average chain length over non-empty buckets (diagnostic).
    #[must_use]
    pub fn average_chain_length(&self) -> f64 {
        let used = self.table.iter().filter(|h| **h != NIL).count();
        if used == 0 {
            0.0
        } else {
            self.len as f64 / used as f64
        }
    }
}

impl<A: HashAdapter> UnorderedIndex<A> for ChainedBucketHash<A> {
    fn insert(&mut self, cx: A::Ctx<'_>, entry: A::Entry) {
        let b = self.bucket_of_entry(cx, &entry);
        let head = self.table[b];
        let id = self.alloc(entry, head);
        self.table[b] = id;
        self.stats.data_moves(1);
        self.len += 1;
    }

    fn insert_unique(&mut self, cx: A::Ctx<'_>, entry: A::Entry) -> Result<(), IndexError> {
        let b = self.bucket_of_entry(cx, &entry);
        let mut cur = self.table[b];
        while cur != NIL {
            self.stats.node_visits(1);
            self.stats.comparisons(1);
            if self
                .adapter
                .cmp_entries(cx, &self.nodes[cur as usize].entry, &entry)
                == Ordering::Equal
            {
                return Err(IndexError::DuplicateKey);
            }
            cur = self.nodes[cur as usize].next;
        }
        let head = self.table[b];
        let id = self.alloc(entry, head);
        self.table[b] = id;
        self.stats.data_moves(1);
        self.len += 1;
        Ok(())
    }

    fn delete(&mut self, cx: A::Ctx<'_>, key: &A::Key) -> Option<A::Entry> {
        let b = self.bucket_of_key(key);
        let mut prev = NIL;
        let mut cur = self.table[b];
        while cur != NIL {
            self.stats.node_visits(1);
            self.stats.comparisons(1);
            if self
                .adapter
                .cmp_entry_key(cx, &self.nodes[cur as usize].entry, key)
                == Ordering::Equal
            {
                let next = self.nodes[cur as usize].next;
                if prev == NIL {
                    self.table[b] = next;
                } else {
                    self.nodes[prev as usize].next = next;
                }
                let e = self.nodes[cur as usize].entry;
                self.free.push(cur);
                self.len -= 1;
                return Some(e);
            }
            prev = cur;
            cur = self.nodes[cur as usize].next;
        }
        None
    }

    fn delete_entry(&mut self, cx: A::Ctx<'_>, entry: &A::Entry) -> bool {
        let b = self.bucket_of_entry(cx, entry);
        let mut prev = NIL;
        let mut cur = self.table[b];
        while cur != NIL {
            self.stats.node_visits(1);
            self.stats.comparisons(1);
            if self.nodes[cur as usize].entry == *entry {
                let next = self.nodes[cur as usize].next;
                if prev == NIL {
                    self.table[b] = next;
                } else {
                    self.nodes[prev as usize].next = next;
                }
                self.free.push(cur);
                self.len -= 1;
                return true;
            }
            prev = cur;
            cur = self.nodes[cur as usize].next;
        }
        false
    }

    fn search(&self, cx: A::Ctx<'_>, key: &A::Key) -> Option<A::Entry> {
        let b = self.bucket_of_key(key);
        let mut cur = self.table[b];
        while cur != NIL {
            self.stats.node_visits(1);
            self.stats.comparisons(1);
            let n = &self.nodes[cur as usize];
            if self.adapter.cmp_entry_key(cx, &n.entry, key) == Ordering::Equal {
                return Some(n.entry);
            }
            cur = n.next;
        }
        None
    }

    fn search_all(&self, cx: A::Ctx<'_>, key: &A::Key, out: &mut Vec<A::Entry>) {
        let b = self.bucket_of_key(key);
        let mut cur = self.table[b];
        while cur != NIL {
            self.stats.node_visits(1);
            self.stats.comparisons(1);
            let n = &self.nodes[cur as usize];
            if self.adapter.cmp_entry_key(cx, &n.entry, key) == Ordering::Equal {
                out.push(n.entry);
            }
            cur = n.next;
        }
    }

    fn scan(&self, visit: &mut dyn FnMut(&A::Entry)) {
        for &head in &self.table {
            let mut cur = head;
            while cur != NIL {
                let n = &self.nodes[cur as usize];
                visit(&n.entry);
                cur = n.next;
            }
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn storage_bytes(&self) -> usize {
        // The table is real allocated structure; chain nodes are charged
        // per live node (the paper's C code malloc'd nodes individually).
        std::mem::size_of::<Self>()
            + self.table.capacity() * std::mem::size_of::<u32>()
            + self.nodes.len() * std::mem::size_of::<ChainNode<A::Entry>>()
            + self.free.len() * std::mem::size_of::<u32>()
    }

    fn stats(&self) -> Snapshot {
        self.stats.snapshot()
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn validate(&self, cx: A::Ctx<'_>) -> Result<(), String> {
        let mut count = 0usize;
        for (b, &head) in self.table.iter().enumerate() {
            let mut cur = head;
            let mut hops = 0usize;
            while cur != NIL {
                let n = &self.nodes[cur as usize];
                let expect = (self.adapter.hash_entry(cx, &n.entry) & self.mask) as usize;
                if expect != b {
                    return Err(format!("entry in bucket {b} hashes to {expect}"));
                }
                count += 1;
                hops += 1;
                if hops > self.nodes.len() {
                    return Err(format!("cycle in bucket {b}"));
                }
                cur = n.next;
            }
        }
        if count != self.len {
            return Err(format!("len {} but chains hold {count}", self.len));
        }
        Ok(())
    }
}

/// Raw structural access for the `mmdb-check` verification layer.
#[cfg(feature = "check")]
impl<A: HashAdapter> ChainedBucketHash<A> {
    /// Every bucket's chain, in chain order (walks are bounded by the
    /// arena size, so a cyclic chain is reported as `truncated`).
    #[must_use]
    pub fn raw_buckets(&self) -> Vec<crate::raw::BucketView<A::Entry>> {
        let bound = self.nodes.len();
        self.table
            .iter()
            .enumerate()
            .map(|(bucket, head)| {
                let mut entries = Vec::new();
                let mut cur = *head;
                let mut truncated = false;
                while cur != NIL {
                    if entries.len() >= bound {
                        truncated = true;
                        break;
                    }
                    let n = &self.nodes[cur as usize];
                    entries.push(n.entry);
                    cur = n.next;
                }
                crate::raw::BucketView {
                    bucket,
                    entries,
                    truncated,
                }
            })
            .collect()
    }

    /// The bucket an entry hashes home to.
    #[must_use]
    pub fn raw_home_bucket(&self, cx: A::Ctx<'_>, e: &A::Entry) -> usize {
        self.bucket_of_entry(cx, e)
    }

    /// Corruption hook (negative tests only): swap two bucket heads, so
    /// every entry in both chains lands in the wrong bucket.
    pub fn raw_swap_heads(&mut self, a: usize, b: usize) {
        self.table.swap(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::NaturalAdapter;
    use crate::testkit::{self, DupAdapter};

    fn nat(cap: usize) -> ChainedBucketHash<NaturalAdapter<u64>> {
        ChainedBucketHash::with_capacity(NaturalAdapter::new(), cap)
    }

    #[test]
    fn empty() {
        let mut h = nat(16);
        assert_eq!(h.search((), &1), None);
        assert_eq!(h.delete((), &1), None);
        assert!(h.is_empty());
        h.validate(()).unwrap();
    }

    #[test]
    fn insert_search_delete() {
        let mut h = nat(64);
        for k in 0..100u64 {
            h.insert((), k);
        }
        h.validate(()).unwrap();
        for k in 0..100u64 {
            assert_eq!(h.search((), &k), Some(k));
        }
        assert_eq!(h.search((), &100), None);
        for k in (0..100u64).step_by(2) {
            assert_eq!(h.delete((), &k), Some(k));
        }
        assert_eq!(h.len(), 50);
        h.validate(()).unwrap();
    }

    #[test]
    fn survives_overfill() {
        // 10× the expected population: chains lengthen but all operations
        // stay correct.
        let mut h = nat(16);
        for k in 0..1000u64 {
            h.insert((), k);
        }
        h.validate(()).unwrap();
        for k in (0..1000u64).step_by(13) {
            assert_eq!(h.search((), &k), Some(k));
        }
        assert!(h.average_chain_length() > 10.0);
    }

    #[test]
    fn duplicates() {
        let mut h = ChainedBucketHash::with_capacity(DupAdapter, 32);
        for low in 0..8u64 {
            h.insert((), (3 << 16) | low);
        }
        let mut out = Vec::new();
        h.search_all((), &3, &mut out);
        assert_eq!(out.len(), 8);
        assert!(h.delete_entry((), &((3 << 16) | 5)));
        assert!(!h.delete_entry((), &((3 << 16) | 5)));
        out.clear();
        h.search_all((), &3, &mut out);
        assert_eq!(out.len(), 7);
        h.validate(()).unwrap();
    }

    #[test]
    fn insert_unique_detects_duplicate_keys() {
        let mut h = ChainedBucketHash::with_capacity(DupAdapter, 32);
        h.insert_unique((), (3 << 16) | 1).unwrap();
        assert_eq!(
            h.insert_unique((), (3 << 16) | 2),
            Err(IndexError::DuplicateKey)
        );
        h.insert_unique((), 4 << 16).unwrap();
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn differential_vs_model() {
        let mut h = ChainedBucketHash::with_capacity(DupAdapter, 256);
        testkit::unordered_differential(&mut h, 0xC8A1, 5000, 300);
    }

    #[cfg(feature = "stats")]
    #[test]
    fn search_cost_is_constant() {
        let mut h = nat(40_000);
        for e in testkit::shuffled_unique_entries(30_000, 6) {
            h.insert((), e >> 16);
        }
        h.reset_stats();
        for k in (0..30_000u64).step_by(100) {
            assert!(h.search((), &k).is_some());
        }
        let s = h.stats();
        let per = s.comparisons as f64 / 300.0;
        assert!(
            per < 3.0,
            "chained-bucket search should be ~O(1), got {per}"
        );
        assert_eq!(s.hash_calls, 300);
    }

    #[test]
    fn storage_factor_near_paper() {
        // Paper: storage factor ≈ 2.3 over the array baseline.
        let mut h = ChainedBucketHash::with_capacity(DupAdapter, 30_000);
        for e in testkit::shuffled_unique_entries(30_000, 1) {
            h.insert((), e);
        }
        let payload = 30_000 * std::mem::size_of::<u64>();
        let factor = h.storage_bytes() as f64 / payload as f64;
        assert!(factor > 1.5 && factor < 3.5, "CBH storage factor {factor}");
    }

    #[test]
    fn scan_visits_everything() {
        let mut h = nat(128);
        for k in 0..500u64 {
            h.insert((), k);
        }
        let mut seen = Vec::new();
        h.scan(&mut |e| seen.push(*e));
        seen.sort_unstable();
        assert_eq!(seen, (0..500).collect::<Vec<u64>>());
    }
}
