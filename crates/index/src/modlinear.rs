//! Modified Linear Hashing \[LeC85\] (§3.2).
//!
//! The paper's main-memory adaptation of Linear Hashing: *"uses the basic
//! principles of Linear Hashing, but uses very small nodes in the
//! directory, single-item overflow buckets, and average overflow chain
//! length as the criteria to control directory growth."*
//!
//! Concretely:
//! * the directory is an array of chain heads;
//! * each chain node holds exactly **one** entry (the "Node Size" axis in
//!   Graphs 1–2 is the *target average chain length*, not a bucket
//!   capacity);
//! * the table splits the next bucket (plain linear-hashing order) whenever
//!   the average chain length exceeds the target, and contracts when it
//!   falls below half the target — population-driven, not
//!   utilisation-driven, so a static population causes **no**
//!   reorganisation (the fix for Linear Hashing's thrashing).
//!
//! The paper rates it "great" for search and update; its storage cost is
//! fair for chain length ≈ 2 (4 bytes of pointer per single-item node) and
//! improves as the target chain length grows.

use crate::adapter::HashAdapter;
use crate::stats::{Counters, Snapshot};
use crate::traits::{IndexError, UnorderedIndex};
use std::cmp::Ordering;

const NIL: u32 = u32::MAX;
const INITIAL_BUCKETS: usize = 4;

struct ChainNode<E> {
    entry: E,
    next: u32,
}

/// Modified Linear Hashing: single-item chain nodes, average-chain-length
/// growth control.
pub struct ModifiedLinearHash<A: HashAdapter> {
    adapter: A,
    /// Chain heads, one per bucket.
    directory: Vec<u32>,
    nodes: Vec<ChainNode<A::Entry>>,
    free: Vec<u32>,
    level: u32,
    split: usize,
    /// Target average chain length (the tuning knob).
    target_chain: f64,
    len: usize,
    stats: Counters,
}

impl<A: HashAdapter> ModifiedLinearHash<A> {
    /// Create with a target average chain length (≥ 1).
    pub fn new(adapter: A, target_chain: usize) -> Self {
        ModifiedLinearHash {
            adapter,
            directory: vec![NIL; INITIAL_BUCKETS],
            nodes: Vec::new(),
            free: Vec::new(),
            level: 0,
            split: 0,
            target_chain: target_chain.max(1) as f64,
            len: 0,
            stats: Counters::default(),
        }
    }

    /// Number of directory slots.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.directory.len()
    }

    /// Current average chain length.
    #[must_use]
    pub fn average_chain(&self) -> f64 {
        self.len as f64 / self.directory.len() as f64
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

    fn split_one(&mut self, cx: A::Ctx<'_>) {
        self.stats.restructures(1);
        let new_index = self.directory.len();
        debug_assert_eq!(new_index, self.base() + self.split);
        self.directory.push(NIL);
        let wide = self.base() as u64 * 2;
        let mut cur = self.directory[self.split];
        let mut stay = NIL;
        let mut go = NIL;
        while cur != NIL {
            let next = self.nodes[cur as usize].next;
            self.stats.hash_calls(1);
            self.stats.data_moves(1);
            let h = self.adapter.hash_entry(cx, &self.nodes[cur as usize].entry);
            if (h % wide) as usize == self.split {
                self.nodes[cur as usize].next = stay;
                stay = cur;
            } else {
                self.nodes[cur as usize].next = go;
                go = cur;
            }
            cur = next;
        }
        self.directory[self.split] = stay;
        self.directory[new_index] = go;
        self.split += 1;
        if self.split == self.base() {
            self.level += 1;
            self.split = 0;
        }
    }

    fn contract_one(&mut self) {
        if self.directory.len() <= INITIAL_BUCKETS {
            return;
        }
        self.stats.restructures(1);
        if self.split == 0 {
            self.level -= 1;
            self.split = self.base();
        }
        self.split -= 1;
        let Some(victim_head) = self.directory.pop() else {
            return; // unreachable: guarded by the INITIAL_BUCKETS check above
        };
        debug_assert_eq!(self.directory.len(), self.base() + self.split);
        // Prepend the victim chain onto its buddy.
        let mut cur = victim_head;
        while cur != NIL {
            let next = self.nodes[cur as usize].next;
            self.stats.data_moves(1);
            self.nodes[cur as usize].next = self.directory[self.split];
            self.directory[self.split] = cur;
            cur = next;
        }
    }

    fn maybe_grow(&mut self, cx: A::Ctx<'_>) {
        while self.average_chain() > self.target_chain {
            self.split_one(cx);
        }
    }

    fn maybe_shrink(&mut self) {
        while self.directory.len() > INITIAL_BUCKETS
            && self.average_chain() < self.target_chain / 2.0
        {
            self.contract_one();
        }
    }

    /// Bulk-load an **empty** table from entries with precomputed hashes:
    /// size the directory once from the known cardinality
    /// ([`crate::bulk::hash_directory_layout`]), then fill chains with no
    /// split/contract churn — every entry is hashed and chained exactly
    /// once, versus the O(n) re-hashing a split-as-you-go load performs.
    /// On a non-empty table this degrades to per-entry insertion.
    ///
    /// The resulting `(level, split)` state is exactly what incremental
    /// insertion would have reached, so later inserts and deletes resume
    /// the normal grow/shrink schedule. Chain order differs from the
    /// incremental prepend order (the structure gives no scan-order
    /// guarantee).
    pub fn bulk_fill_hashed(&mut self, cx: A::Ctx<'_>, entries: Vec<(u64, A::Entry)>) {
        if self.len != 0 {
            for (_, e) in entries {
                self.insert(cx, e);
            }
            return;
        }
        let layout =
            crate::bulk::hash_directory_layout(entries.len(), self.target_chain, INITIAL_BUCKETS);
        self.level = layout.level;
        self.split = layout.split;
        self.directory.clear();
        self.directory.resize(layout.directory_len, NIL);
        self.nodes.reserve(entries.len());
        self.stats.restructures(1);
        for (h, e) in entries {
            let b = self.address(h);
            let head = self.directory[b];
            let id = self.alloc(e, head);
            self.directory[b] = id;
            self.stats.data_moves(1);
            self.len += 1;
        }
    }

    /// [`Self::bulk_fill_hashed`] with the hashes computed here (one
    /// [`HashAdapter::hash_entry`] call per entry).
    pub fn bulk_fill(&mut self, cx: A::Ctx<'_>, entries: Vec<A::Entry>) {
        let hashed: Vec<(u64, A::Entry)> = entries
            .into_iter()
            .map(|e| {
                self.stats.hash_calls(1);
                (self.adapter.hash_entry(cx, &e), e)
            })
            .collect();
        self.bulk_fill_hashed(cx, hashed);
    }
}

impl<A: HashAdapter> UnorderedIndex<A> for ModifiedLinearHash<A> {
    fn insert(&mut self, cx: A::Ctx<'_>, entry: A::Entry) {
        self.stats.hash_calls(1);
        let b = self.address(self.adapter.hash_entry(cx, &entry));
        let head = self.directory[b];
        let id = self.alloc(entry, head);
        self.directory[b] = id;
        self.stats.data_moves(1);
        self.len += 1;
        self.maybe_grow(cx);
    }

    fn insert_unique(&mut self, cx: A::Ctx<'_>, entry: A::Entry) -> Result<(), IndexError> {
        self.stats.hash_calls(1);
        let b = self.address(self.adapter.hash_entry(cx, &entry));
        let mut cur = self.directory[b];
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
        let head = self.directory[b];
        let id = self.alloc(entry, head);
        self.directory[b] = id;
        self.stats.data_moves(1);
        self.len += 1;
        self.maybe_grow(cx);
        Ok(())
    }

    fn delete(&mut self, cx: A::Ctx<'_>, key: &A::Key) -> Option<A::Entry> {
        self.stats.hash_calls(1);
        let b = self.address(self.adapter.hash_key(key));
        let mut prev = NIL;
        let mut cur = self.directory[b];
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
                    self.directory[b] = next;
                } else {
                    self.nodes[prev as usize].next = next;
                }
                let e = self.nodes[cur as usize].entry;
                self.free.push(cur);
                self.len -= 1;
                self.maybe_shrink();
                return Some(e);
            }
            prev = cur;
            cur = self.nodes[cur as usize].next;
        }
        None
    }

    fn delete_entry(&mut self, cx: A::Ctx<'_>, entry: &A::Entry) -> bool {
        self.stats.hash_calls(1);
        let b = self.address(self.adapter.hash_entry(cx, entry));
        let mut prev = NIL;
        let mut cur = self.directory[b];
        while cur != NIL {
            self.stats.node_visits(1);
            self.stats.comparisons(1);
            if self.nodes[cur as usize].entry == *entry {
                let next = self.nodes[cur as usize].next;
                if prev == NIL {
                    self.directory[b] = next;
                } else {
                    self.nodes[prev as usize].next = next;
                }
                self.free.push(cur);
                self.len -= 1;
                self.maybe_shrink();
                return true;
            }
            prev = cur;
            cur = self.nodes[cur as usize].next;
        }
        false
    }

    fn search(&self, cx: A::Ctx<'_>, key: &A::Key) -> Option<A::Entry> {
        self.stats.hash_calls(1);
        let b = self.address(self.adapter.hash_key(key));
        let mut cur = self.directory[b];
        while cur != NIL {
            // Each single-item node costs a pointer traversal — the paper's
            // "this overhead is noticeable when the chain becomes long".
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
        self.stats.hash_calls(1);
        let b = self.address(self.adapter.hash_key(key));
        let mut cur = self.directory[b];
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
        for &head in &self.directory {
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
        std::mem::size_of::<Self>()
            + self.directory.capacity() * std::mem::size_of::<u32>()
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
        if self.directory.len() != self.base() + self.split {
            return Err(format!(
                "directory size {} != base {} + split {}",
                self.directory.len(),
                self.base(),
                self.split
            ));
        }
        let mut counted = 0usize;
        for (b, &head) in self.directory.iter().enumerate() {
            let mut cur = head;
            let mut hops = 0usize;
            while cur != NIL {
                let n = &self.nodes[cur as usize];
                let a = self.address(self.adapter.hash_entry(cx, &n.entry));
                if a != b {
                    return Err(format!("entry in bucket {b} addresses to {a}"));
                }
                counted += 1;
                hops += 1;
                if hops > self.nodes.len() {
                    return Err(format!("cycle in bucket {b}"));
                }
                cur = n.next;
            }
        }
        if counted != self.len {
            return Err(format!("len {} but chains hold {counted}", self.len));
        }
        Ok(())
    }
}

/// Raw structural access for the `mmdb-check` verification layer.
#[cfg(feature = "check")]
impl<A: HashAdapter> ModifiedLinearHash<A> {
    /// Every directory chain, in chain order (walks are bounded by the
    /// arena size, so a cyclic chain is reported as `truncated`).
    #[must_use]
    pub fn raw_chains(&self) -> Vec<crate::raw::BucketView<A::Entry>> {
        let bound = self.nodes.len();
        self.directory
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

    /// The directory slot an entry addresses to under the current split
    /// state (the split-pointer math the checker verifies).
    #[must_use]
    pub fn raw_address_of(&self, cx: A::Ctx<'_>, e: &A::Entry) -> usize {
        self.address(self.adapter.hash_entry(cx, e))
    }

    /// Corruption hook (negative tests only): swap two chain heads, so
    /// every entry in both chains lands in the wrong directory slot.
    pub fn raw_swap_heads(&mut self, a: usize, b: usize) {
        self.directory.swap(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::NaturalAdapter;
    use crate::testkit::{self, DupAdapter};

    fn nat(target: usize) -> ModifiedLinearHash<NaturalAdapter<u64>> {
        ModifiedLinearHash::new(NaturalAdapter::new(), target)
    }

    #[test]
    fn empty() {
        let mut h = nat(2);
        assert_eq!(h.search((), &1), None);
        assert_eq!(h.delete((), &1), None);
        h.validate(()).unwrap();
    }

    #[test]
    fn maintains_target_chain_length() {
        for target in [1usize, 2, 5, 20] {
            let mut h = nat(target);
            for k in 0..10_000u64 {
                h.insert((), k);
            }
            h.validate(()).unwrap();
            let avg = h.average_chain();
            assert!(avg <= target as f64 + 0.01, "target {target}: avg {avg}");
            assert!(
                avg > target as f64 * 0.4,
                "target {target}: avg {avg} too low"
            );
        }
    }

    #[test]
    fn shrinks_after_deletes() {
        let mut h = nat(2);
        for k in 0..8000u64 {
            h.insert((), k);
        }
        let grown = h.bucket_count();
        for k in 0..7500u64 {
            assert_eq!(h.delete((), &k), Some(k));
        }
        h.validate(()).unwrap();
        assert!(h.bucket_count() < grown / 4);
        for k in 7500..8000u64 {
            assert_eq!(h.search((), &k), Some(k));
        }
    }

    #[cfg(feature = "stats")]
    #[test]
    fn static_population_causes_no_reorganisation() {
        // The design goal vs. Linear Hashing: a steady population should
        // not thrash the directory.
        let mut h = nat(2);
        for k in 0..2000u64 {
            h.insert((), k);
        }
        h.reset_stats();
        for i in 0..4000u64 {
            let k = i % 2000;
            assert_eq!(h.delete((), &k), Some(k));
            h.insert((), k);
        }
        let r = h.stats().restructures;
        assert!(r <= 8, "expected near-zero reorganisation, got {r}");
    }

    #[test]
    fn duplicates() {
        let mut h = ModifiedLinearHash::new(DupAdapter, 2);
        for low in 0..64u64 {
            h.insert((), (8 << 16) | low);
        }
        h.validate(()).unwrap();
        let mut out = Vec::new();
        h.search_all((), &8, &mut out);
        assert_eq!(out.len(), 64);
        assert!(h.delete_entry((), &((8 << 16) | 33)));
        out.clear();
        h.search_all((), &8, &mut out);
        assert_eq!(out.len(), 63);
    }

    #[test]
    fn differential_vs_model() {
        for target in [1usize, 3, 10] {
            let mut h = ModifiedLinearHash::new(DupAdapter, target);
            testkit::unordered_differential(&mut h, 0x30D + target as u64, 5000, 300);
        }
    }

    #[cfg(feature = "stats")]
    #[test]
    fn long_chains_cost_node_visits() {
        // Graph 1: Modified Linear Hashing degrades as the (target) chain
        // grows because every data reference traverses a pointer.
        let per_search = |target: usize| -> f64 {
            let mut h = nat(target);
            for e in testkit::shuffled_unique_entries(30_000, 3) {
                h.insert((), e >> 16);
            }
            h.reset_stats();
            for k in (0..30_000u64).step_by(100) {
                assert!(h.search((), &k).is_some());
            }
            h.stats().node_visits as f64 / 300.0
        };
        let short = per_search(1);
        let long = per_search(50);
        assert!(
            long > short * 4.0,
            "long chains should cost more visits: {short} vs {long}"
        );
    }

    #[test]
    fn insert_unique() {
        let mut h = ModifiedLinearHash::new(DupAdapter, 2);
        h.insert_unique((), (5 << 16) | 1).unwrap();
        assert_eq!(
            h.insert_unique((), (5 << 16) | 7),
            Err(IndexError::DuplicateKey)
        );
    }

    #[test]
    fn scan_complete() {
        let mut h = nat(3);
        for k in 0..700u64 {
            h.insert((), k);
        }
        let mut seen = Vec::new();
        h.scan(&mut |e| seen.push(*e));
        seen.sort_unstable();
        assert_eq!(seen, (0..700).collect::<Vec<u64>>());
    }

    fn bulk_vs_incremental(entries: &[u64], target: usize) {
        let mut bulk = nat(target);
        bulk.bulk_fill((), entries.to_vec());
        bulk.validate(())
            .unwrap_or_else(|e| panic!("target {target}: {e}"));
        let mut incr = nat(target);
        for &e in entries {
            incr.insert((), e);
        }
        incr.validate(()).unwrap();
        // Same contents, same directory geometry as incremental growth.
        assert_eq!(bulk.len(), incr.len(), "target {target}");
        assert_eq!(
            bulk.bucket_count(),
            incr.bucket_count(),
            "target {target}: directory size differs from incremental growth"
        );
        let mut b = Vec::new();
        bulk.scan(&mut |e| b.push(*e));
        b.sort_unstable();
        let mut i = Vec::new();
        incr.scan(&mut |e| i.push(*e));
        i.sort_unstable();
        assert_eq!(b, i, "target {target}");
    }

    #[test]
    fn bulk_fill_matches_incremental_contents_and_geometry() {
        for target in [1usize, 2, 4] {
            for n in [0usize, 1, 4, 5, 63, 64, 65, 1000] {
                let entries: Vec<u64> = (0..n as u64).collect();
                bulk_vs_incremental(&entries, target);
            }
        }
    }

    #[cfg(feature = "stats")]
    #[test]
    fn bulk_fill_causes_one_restructure() {
        let mut h = nat(2);
        h.bulk_fill((), (0..10_000u64).collect());
        let snap = UnorderedIndex::stats(&h);
        assert_eq!(
            snap.restructures, 1,
            "pre-sized fill must not split incrementally"
        );
        assert_eq!(snap.hash_calls, 10_000, "one hash per entry");
    }

    #[test]
    fn bulk_fill_on_nonempty_falls_back_to_inserts() {
        let mut h = nat(2);
        for k in 0..100u64 {
            h.insert((), k);
        }
        h.bulk_fill((), (100..300u64).collect());
        h.validate(()).unwrap();
        assert_eq!(h.len(), 300);
        let mut seen = Vec::new();
        h.scan(&mut |e| seen.push(*e));
        seen.sort_unstable();
        assert_eq!(seen, (0..300).collect::<Vec<u64>>());
    }

    #[test]
    fn bulk_fill_then_mutate() {
        let mut h = nat(2);
        h.bulk_fill((), (0..1000u64).collect());
        for k in 0..1000u64 {
            if k % 2 == 0 {
                assert!(h.delete((), &k).is_some(), "delete {k}");
            }
        }
        for k in 1000..1200u64 {
            h.insert((), k);
        }
        h.validate(()).expect("after mutation");
        let mut seen = Vec::new();
        h.scan(&mut |e| seen.push(*e));
        seen.sort_unstable();
        let want: Vec<u64> = (0..1000u64)
            .filter(|k| k % 2 == 1)
            .chain(1000..1200)
            .collect();
        assert_eq!(seen, want);
    }
}
