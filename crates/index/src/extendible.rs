//! Extendible Hashing \[FNP79\] (§3.2).
//!
//! A directory of 2^`global_depth` bucket pointers; each bucket has a
//! `local_depth` and a fixed capacity (the "Node Size" axis of the
//! graphs). An overflowing bucket with `local_depth < global_depth` splits
//! in place; one with `local_depth == global_depth` forces the directory to
//! double.
//!
//! The paper's storage finding is reproduced by construction: *"Extendible
//! Hashing tended to use the largest amount of storage for small node
//! sizes (2, 4 and 6) … a small node size increased the probability that
//! some nodes would get more values than others, causing the directory to
//! double repeatedly."*
//!
//! Buckets are addressed by the **low** `global_depth` bits of the hash.
//! Entries whose keys are duplicates hash identically and can never be
//! separated by splitting; a bucket whose contents all share the incoming
//! entry's hash therefore overflows its nominal capacity instead of
//! splitting (duplicate chains are a data property, not a structure
//! failure).

use crate::adapter::HashAdapter;
use crate::stats::{Counters, Snapshot};
use crate::traits::{IndexError, UnorderedIndex};
use std::cmp::Ordering;

/// Hard ceiling on directory doubling (2^24 slots ≈ 64 MB of directory);
/// beyond it buckets simply overflow.
pub const MAX_GLOBAL_DEPTH: u32 = 24;

struct Bucket<E> {
    local_depth: u32,
    /// The low `local_depth` bits shared by every hash in this bucket.
    pattern: u64,
    items: Vec<E>,
}

/// An extendible hash table.
pub struct ExtendibleHash<A: HashAdapter> {
    adapter: A,
    /// Directory of bucket-arena indices, length 2^global_depth.
    directory: Vec<u32>,
    buckets: Vec<Bucket<A::Entry>>,
    global_depth: u32,
    bucket_capacity: usize,
    len: usize,
    stats: Counters,
}

impl<A: HashAdapter> ExtendibleHash<A> {
    /// Create with the given bucket capacity ("node size").
    pub fn new(adapter: A, bucket_capacity: usize) -> Self {
        let bucket_capacity = bucket_capacity.max(1);
        let buckets = vec![Bucket {
            local_depth: 0,
            pattern: 0,
            items: Vec::with_capacity(bucket_capacity),
        }];
        ExtendibleHash {
            adapter,
            directory: vec![0],
            buckets,
            global_depth: 0,
            bucket_capacity,
            len: 0,
            stats: Counters::default(),
        }
    }

    /// Current directory size (2^global_depth).
    #[must_use]
    pub fn directory_size(&self) -> usize {
        self.directory.len()
    }

    /// Current global depth.
    #[must_use]
    pub fn global_depth(&self) -> u32 {
        self.global_depth
    }

    /// Configured bucket capacity.
    #[must_use]
    pub fn bucket_capacity(&self) -> usize {
        self.bucket_capacity
    }

    fn dir_slot(&self, hash: u64) -> usize {
        (hash & ((self.directory.len() - 1) as u64)) as usize
    }

    fn bucket_for_hash(&self, hash: u64) -> u32 {
        self.directory[self.dir_slot(hash)]
    }

    fn double_directory(&mut self) {
        self.stats.restructures(1);
        let old = self.directory.clone();
        self.directory.extend_from_slice(&old);
        self.global_depth += 1;
    }

    /// Split bucket `b` (requires `local_depth < global_depth`): entries
    /// with the new distinguishing bit set move to a fresh bucket, and the
    /// directory slots addressing `b` through that bit are repointed
    /// (stride walk — the slots of a depth-`d` bucket with pattern `p` are
    /// exactly `p, p + 2^d, p + 2·2^d, …`).
    fn split_bucket(&mut self, cx: A::Ctx<'_>, b: u32) {
        self.stats.restructures(1);
        let old_depth = self.buckets[b as usize].local_depth;
        let pattern = self.buckets[b as usize].pattern;
        let new_depth = old_depth + 1;
        let bit = 1u64 << old_depth;
        let old_items = std::mem::take(&mut self.buckets[b as usize].items);
        let mut stay = Vec::with_capacity(self.bucket_capacity);
        let mut go = Vec::with_capacity(self.bucket_capacity);
        for e in old_items {
            self.stats.hash_calls(1);
            self.stats.data_moves(1);
            if self.adapter.hash_entry(cx, &e) & bit != 0 {
                go.push(e);
            } else {
                stay.push(e);
            }
        }
        self.buckets[b as usize].local_depth = new_depth;
        self.buckets[b as usize].items = stay;
        let new_id = self.buckets.len() as u32;
        self.buckets.push(Bucket {
            local_depth: new_depth,
            pattern: pattern | bit,
            items: go,
        });
        // Repoint: slots with the new bit set, among those matching the
        // old pattern.
        let stride = 1usize << new_depth;
        let mut slot = (pattern | bit) as usize;
        while slot < self.directory.len() {
            debug_assert_eq!(self.directory[slot], b);
            self.directory[slot] = new_id;
            slot += stride;
        }
    }

    /// Can splitting ever separate this entry from the bucket's current
    /// contents? Not if every resident hash equals the incoming hash.
    fn splittable(&self, cx: A::Ctx<'_>, b: u32, hash: u64) -> bool {
        self.buckets[b as usize]
            .items
            .iter()
            .any(|e| self.adapter.hash_entry(cx, e) != hash)
    }

    fn insert_hashed(&mut self, cx: A::Ctx<'_>, entry: A::Entry, hash: u64) {
        loop {
            let b = self.bucket_for_hash(hash);
            if self.buckets[b as usize].items.len() < self.bucket_capacity {
                self.buckets[b as usize].items.push(entry);
                self.stats.data_moves(1);
                self.len += 1;
                return;
            }
            if !self.splittable(cx, b, hash) {
                // All residents share the incoming hash (duplicate keys):
                // splitting can never help; overflow the bucket.
                self.buckets[b as usize].items.push(entry);
                self.stats.data_moves(1);
                self.len += 1;
                return;
            }
            let local = self.buckets[b as usize].local_depth;
            if local < self.global_depth {
                self.split_bucket(cx, b);
            } else if self.global_depth < MAX_GLOBAL_DEPTH {
                self.double_directory();
            } else {
                self.buckets[b as usize].items.push(entry);
                self.stats.data_moves(1);
                self.len += 1;
                return;
            }
        }
    }
}

impl<A: HashAdapter> UnorderedIndex<A> for ExtendibleHash<A> {
    fn insert(&mut self, cx: A::Ctx<'_>, entry: A::Entry) {
        self.stats.hash_calls(1);
        let hash = self.adapter.hash_entry(cx, &entry);
        self.insert_hashed(cx, entry, hash);
    }

    fn insert_unique(&mut self, cx: A::Ctx<'_>, entry: A::Entry) -> Result<(), IndexError> {
        self.stats.hash_calls(1);
        let hash = self.adapter.hash_entry(cx, &entry);
        let b = self.bucket_for_hash(hash);
        for e in &self.buckets[b as usize].items {
            self.stats.comparisons(1);
            if self.adapter.cmp_entries(cx, e, &entry) == Ordering::Equal {
                return Err(IndexError::DuplicateKey);
            }
        }
        self.insert_hashed(cx, entry, hash);
        Ok(())
    }

    fn delete(&mut self, cx: A::Ctx<'_>, key: &A::Key) -> Option<A::Entry> {
        self.stats.hash_calls(1);
        let hash = self.adapter.hash_key(key);
        let b = self.bucket_for_hash(hash);
        self.stats.node_visits(1);
        let bucket = &mut self.buckets[b as usize];
        for i in 0..bucket.items.len() {
            self.stats.comparisons(1);
            if self.adapter.cmp_entry_key(cx, &bucket.items[i], key) == Ordering::Equal {
                let e = bucket.items.swap_remove(i);
                self.stats.data_moves(1);
                self.len -= 1;
                return Some(e);
            }
        }
        None
    }

    fn delete_entry(&mut self, cx: A::Ctx<'_>, entry: &A::Entry) -> bool {
        self.stats.hash_calls(1);
        let hash = self.adapter.hash_entry(cx, entry);
        let b = self.bucket_for_hash(hash);
        self.stats.node_visits(1);
        let bucket = &mut self.buckets[b as usize];
        for i in 0..bucket.items.len() {
            self.stats.comparisons(1);
            if bucket.items[i] == *entry {
                bucket.items.swap_remove(i);
                self.stats.data_moves(1);
                self.len -= 1;
                return true;
            }
        }
        false
    }

    fn search(&self, cx: A::Ctx<'_>, key: &A::Key) -> Option<A::Entry> {
        self.stats.hash_calls(1);
        let hash = self.adapter.hash_key(key);
        let b = self.bucket_for_hash(hash);
        self.stats.node_visits(1);
        for e in &self.buckets[b as usize].items {
            self.stats.comparisons(1);
            if self.adapter.cmp_entry_key(cx, e, key) == Ordering::Equal {
                return Some(*e);
            }
        }
        None
    }

    fn search_all(&self, cx: A::Ctx<'_>, key: &A::Key, out: &mut Vec<A::Entry>) {
        self.stats.hash_calls(1);
        let hash = self.adapter.hash_key(key);
        let b = self.bucket_for_hash(hash);
        self.stats.node_visits(1);
        for e in &self.buckets[b as usize].items {
            self.stats.comparisons(1);
            if self.adapter.cmp_entry_key(cx, e, key) == Ordering::Equal {
                out.push(*e);
            }
        }
    }

    fn scan(&self, visit: &mut dyn FnMut(&A::Entry)) {
        // Each bucket appears in the directory 2^(global-local) times; scan
        // the bucket arena directly to visit entries exactly once.
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
            + self.directory.capacity() * std::mem::size_of::<u32>()
            + self.buckets.capacity() * std::mem::size_of::<Bucket<A::Entry>>();
        for b in &self.buckets {
            total += b.items.capacity() * std::mem::size_of::<A::Entry>();
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
        if self.directory.len() != 1usize << self.global_depth {
            return Err("directory size != 2^global_depth".into());
        }
        let mut counted = 0usize;
        let mut slots_seen = 0usize;
        for (id, b) in self.buckets.iter().enumerate() {
            if b.local_depth > self.global_depth {
                return Err(format!("bucket {id}: local depth exceeds global"));
            }
            let mask = (1u64 << b.local_depth) - 1;
            if b.pattern & !mask != 0 {
                return Err(format!("bucket {id}: pattern has high bits"));
            }
            // Every slot congruent to the pattern must point here.
            let stride = 1usize << b.local_depth;
            let mut slot = b.pattern as usize;
            while slot < self.directory.len() {
                if self.directory[slot] != id as u32 {
                    return Err(format!(
                        "slot {slot} should point to bucket {id}, points to {}",
                        self.directory[slot]
                    ));
                }
                slots_seen += 1;
                slot += stride;
            }
            for e in &b.items {
                if self.adapter.hash_entry(cx, e) & mask != b.pattern {
                    return Err(format!("bucket {id}: entry hashed elsewhere"));
                }
            }
            counted += b.items.len();
        }
        if slots_seen != self.directory.len() {
            return Err(format!(
                "buckets cover {slots_seen} slots, directory has {}",
                self.directory.len()
            ));
        }
        if counted != self.len {
            return Err(format!("len {} but buckets hold {counted}", self.len));
        }
        Ok(())
    }
}

/// Raw structural access for the `mmdb-check` verification layer.
#[cfg(feature = "check")]
impl<A: HashAdapter> ExtendibleHash<A> {
    /// The directory: bucket arena ids, length `2^global_depth`.
    #[must_use]
    pub fn raw_directory(&self) -> Vec<u32> {
        self.directory.clone()
    }

    /// Every bucket in the arena.
    #[must_use]
    pub fn raw_buckets(&self) -> Vec<crate::raw::ExtBucketView<A::Entry>> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(id, b)| crate::raw::ExtBucketView {
                id: id as u32,
                local_depth: b.local_depth,
                pattern: b.pattern,
                entries: b.items.clone(),
            })
            .collect()
    }

    /// The hash of an entry (directory addressing uses its low bits).
    #[must_use]
    pub fn raw_hash_of(&self, cx: A::Ctx<'_>, e: &A::Entry) -> u64 {
        self.adapter.hash_entry(cx, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::NaturalAdapter;
    use crate::testkit::{self, DupAdapter};

    fn nat(cap: usize) -> ExtendibleHash<NaturalAdapter<u64>> {
        ExtendibleHash::new(NaturalAdapter::new(), cap)
    }

    #[test]
    fn empty() {
        let mut h = nat(4);
        assert_eq!(h.search((), &9), None);
        assert_eq!(h.delete((), &9), None);
        h.validate(()).unwrap();
    }

    #[test]
    fn grows_directory_under_load() {
        let mut h = nat(4);
        for k in 0..1000u64 {
            h.insert((), k);
        }
        h.validate(()).unwrap();
        assert!(h.global_depth() >= 6, "depth {}", h.global_depth());
        for k in 0..1000u64 {
            assert_eq!(h.search((), &k), Some(k));
        }
    }

    #[test]
    fn small_nodes_inflate_directory() {
        // Paper §3.2.2: small node sizes cause repeated directory doubling.
        let mut small = nat(2);
        let mut large = nat(32);
        for e in testkit::shuffled_unique_entries(4000, 17) {
            small.insert((), e);
            large.insert((), e);
        }
        small.validate(()).unwrap();
        large.validate(()).unwrap();
        assert!(
            small.directory_size() > large.directory_size() * 4,
            "small {} vs large {}",
            small.directory_size(),
            large.directory_size()
        );
    }

    #[test]
    fn delete_and_research() {
        let mut h = nat(8);
        for k in 0..500u64 {
            h.insert((), k);
        }
        for k in (0..500u64).step_by(3) {
            assert_eq!(h.delete((), &k), Some(k));
        }
        h.validate(()).unwrap();
        for k in 0..500u64 {
            assert_eq!(h.search((), &k).is_some(), k % 3 != 0);
        }
    }

    #[test]
    fn extreme_duplication_overflows_gracefully() {
        let mut h = ExtendibleHash::new(DupAdapter, 2);
        // 500 entries with the same key — unsplittable; the directory must
        // NOT blow up chasing them.
        for low in 0..500u64 {
            h.insert((), (1 << 16) | low);
        }
        h.validate(()).unwrap();
        let mut out = Vec::new();
        h.search_all((), &1, &mut out);
        assert_eq!(out.len(), 500);
        assert!(
            h.directory_size() <= 8,
            "directory should stay small under pure duplication: {}",
            h.directory_size()
        );
    }

    #[test]
    fn insert_unique() {
        let mut h = ExtendibleHash::new(DupAdapter, 4);
        h.insert_unique((), (7 << 16) | 1).unwrap();
        assert_eq!(
            h.insert_unique((), (7 << 16) | 9),
            Err(IndexError::DuplicateKey)
        );
    }

    #[test]
    fn differential_vs_model() {
        for cap in [1usize, 2, 8, 32] {
            let mut h = ExtendibleHash::new(DupAdapter, cap);
            testkit::unordered_differential(&mut h, 0xE87 + cap as u64, 5000, 300);
        }
    }

    #[cfg(feature = "stats")]
    #[test]
    fn search_cost_constant() {
        let mut h = nat(16);
        for e in testkit::shuffled_unique_entries(30_000, 2) {
            h.insert((), e >> 16);
        }
        h.reset_stats();
        for k in (0..30_000u64).step_by(100) {
            assert!(h.search((), &k).is_some());
        }
        let per = h.stats().comparisons as f64 / 300.0;
        assert!(per < 16.0, "per-search comparisons {per} (≤ bucket size)");
    }

    #[test]
    fn scan_complete() {
        let mut h = nat(4);
        for k in 0..300u64 {
            h.insert((), k);
        }
        let mut seen = Vec::new();
        h.scan(&mut |e| seen.push(*e));
        seen.sort_unstable();
        assert_eq!(seen, (0..300).collect::<Vec<u64>>());
    }
}
