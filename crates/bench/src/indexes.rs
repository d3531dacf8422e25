//! A uniform driver over all eight §3.2 index structures, in the paper's
//! "main memory style" (entries are pointer-sized integers; the key is
//! reached through the entry).

use mmdb_index::adapter::NaturalAdapter;
use mmdb_index::traits::{OrderedIndex, UnorderedIndex};
use mmdb_index::{
    ArrayIndex, AvlTree, BTree, ChainedBucketHash, ExtendibleHash, LinearHash, ModifiedLinearHash,
    TTree, TTreeConfig,
};

type Nat = NaturalAdapter<u64>;

/// The eight structures of the index study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKindB {
    /// Sorted array \[AHK85\].
    Array,
    /// AVL tree \[AHU74\].
    Avl,
    /// Original B-Tree \[Com79\].
    BTree,
    /// T-Tree \[LeC85\] — the paper's contribution.
    TTree,
    /// Chained Bucket Hashing \[Knu73\].
    ChainedBucket,
    /// Extendible Hashing \[FNP79\].
    Extendible,
    /// Linear Hashing \[Lit80\].
    Linear,
    /// Modified Linear Hashing \[LeC85\].
    ModLinear,
}

impl IndexKindB {
    /// All structures, in the paper's presentation order.
    #[must_use]
    pub fn all() -> Vec<IndexKindB> {
        vec![
            IndexKindB::Array,
            IndexKindB::Avl,
            IndexKindB::BTree,
            IndexKindB::TTree,
            IndexKindB::ChainedBucket,
            IndexKindB::Extendible,
            IndexKindB::Linear,
            IndexKindB::ModLinear,
        ]
    }

    /// Order-preserving structures only.
    #[must_use]
    pub fn ordered() -> Vec<IndexKindB> {
        vec![
            IndexKindB::Array,
            IndexKindB::Avl,
            IndexKindB::BTree,
            IndexKindB::TTree,
        ]
    }

    /// Display name matching the paper's graph legends.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            IndexKindB::Array => "Array",
            IndexKindB::Avl => "AVL Tree",
            IndexKindB::BTree => "B Tree",
            IndexKindB::TTree => "T Tree",
            IndexKindB::ChainedBucket => "Chained Bucket Hash",
            IndexKindB::Extendible => "Extendible Hash",
            IndexKindB::Linear => "Linear Hash",
            IndexKindB::ModLinear => "Modified Linear Hash",
        }
    }

    /// Whether the "Node Size" axis applies (Array and AVL have none;
    /// Chained Bucket's table is sized by population).
    #[must_use]
    pub fn node_size_matters(&self) -> bool {
        !matches!(
            self,
            IndexKindB::Array | IndexKindB::Avl | IndexKindB::ChainedBucket
        )
    }

    /// Instantiate for `node_size` and an expected population (the latter
    /// sizes Chained Bucket Hashing's fixed table, as the paper did for
    /// its temporary join indexes).
    #[must_use]
    pub fn build(&self, node_size: usize, expected: usize) -> BenchIndex {
        match self {
            IndexKindB::Array => BenchIndex::Array(ArrayIndex::new(Nat::new())),
            IndexKindB::Avl => BenchIndex::Avl(AvlTree::new(Nat::new())),
            IndexKindB::BTree => BenchIndex::BTree(BTree::new(Nat::new(), node_size)),
            IndexKindB::TTree => BenchIndex::TTree(TTree::new(
                Nat::new(),
                TTreeConfig::with_node_size(node_size),
            )),
            IndexKindB::ChainedBucket => {
                BenchIndex::ChainedBucket(ChainedBucketHash::with_capacity(Nat::new(), expected))
            }
            IndexKindB::Extendible => {
                BenchIndex::Extendible(ExtendibleHash::new(Nat::new(), node_size))
            }
            IndexKindB::Linear => BenchIndex::Linear(LinearHash::new(Nat::new(), node_size)),
            IndexKindB::ModLinear => {
                BenchIndex::ModLinear(ModifiedLinearHash::new(Nat::new(), node_size))
            }
        }
    }
}

/// A built index, uniformly drivable.
pub enum BenchIndex {
    /// Sorted array.
    Array(ArrayIndex<Nat>),
    /// AVL tree.
    Avl(AvlTree<Nat>),
    /// B-Tree.
    BTree(BTree<Nat>),
    /// T-Tree.
    TTree(TTree<Nat>),
    /// Chained bucket hash.
    ChainedBucket(ChainedBucketHash<Nat>),
    /// Extendible hash.
    Extendible(ExtendibleHash<Nat>),
    /// Linear hash.
    Linear(LinearHash<Nat>),
    /// Modified linear hash.
    ModLinear(ModifiedLinearHash<Nat>),
}

impl BenchIndex {
    /// Insert a key.
    pub fn insert(&mut self, k: u64) {
        match self {
            BenchIndex::Array(i) => i.insert((), k),
            BenchIndex::Avl(i) => i.insert((), k),
            BenchIndex::BTree(i) => i.insert((), k),
            BenchIndex::TTree(i) => i.insert((), k),
            BenchIndex::ChainedBucket(i) => i.insert((), k),
            BenchIndex::Extendible(i) => i.insert((), k),
            BenchIndex::Linear(i) => i.insert((), k),
            BenchIndex::ModLinear(i) => i.insert((), k),
        }
    }

    /// Point search; true when found.
    pub fn search(&self, k: u64) -> bool {
        match self {
            BenchIndex::Array(i) => i.search((), &k).is_some(),
            BenchIndex::Avl(i) => i.search((), &k).is_some(),
            BenchIndex::BTree(i) => i.search((), &k).is_some(),
            BenchIndex::TTree(i) => i.search((), &k).is_some(),
            BenchIndex::ChainedBucket(i) => i.search((), &k).is_some(),
            BenchIndex::Extendible(i) => i.search((), &k).is_some(),
            BenchIndex::Linear(i) => i.search((), &k).is_some(),
            BenchIndex::ModLinear(i) => i.search((), &k).is_some(),
        }
    }

    /// Delete one entry with key `k`; true when something was removed.
    pub fn delete(&mut self, k: u64) -> bool {
        match self {
            BenchIndex::Array(i) => i.delete((), &k).is_some(),
            BenchIndex::Avl(i) => i.delete((), &k).is_some(),
            BenchIndex::BTree(i) => i.delete((), &k).is_some(),
            BenchIndex::TTree(i) => i.delete((), &k).is_some(),
            BenchIndex::ChainedBucket(i) => i.delete((), &k).is_some(),
            BenchIndex::Extendible(i) => i.delete((), &k).is_some(),
            BenchIndex::Linear(i) => i.delete((), &k).is_some(),
            BenchIndex::ModLinear(i) => i.delete((), &k).is_some(),
        }
    }

    /// Range scan `[lo, hi]` for order-preserving structures; `None` for
    /// hash structures (they cannot serve ranges).
    pub fn range_count(&self, lo: u64, hi: u64) -> Option<usize> {
        use std::ops::Bound;
        let (lo, hi) = (Bound::Included(&lo), Bound::Included(&hi));
        let mut out = Vec::new();
        match self {
            BenchIndex::Array(i) => i.range((), lo, hi, &mut out),
            BenchIndex::Avl(i) => i.range((), lo, hi, &mut out),
            BenchIndex::BTree(i) => i.range((), lo, hi, &mut out),
            BenchIndex::TTree(i) => i.range((), lo, hi, &mut out),
            _ => return None,
        }
        Some(out.len())
    }

    /// Bytes of memory occupied.
    pub fn storage_bytes(&self) -> usize {
        match self {
            BenchIndex::Array(i) => i.storage_bytes(),
            BenchIndex::Avl(i) => i.storage_bytes(),
            BenchIndex::BTree(i) => i.storage_bytes(),
            BenchIndex::TTree(i) => i.storage_bytes(),
            BenchIndex::ChainedBucket(i) => i.storage_bytes(),
            BenchIndex::Extendible(i) => i.storage_bytes(),
            BenchIndex::Linear(i) => i.storage_bytes(),
            BenchIndex::ModLinear(i) => i.storage_bytes(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            BenchIndex::Array(i) => i.len(),
            BenchIndex::Avl(i) => i.len(),
            BenchIndex::BTree(i) => i.len(),
            BenchIndex::TTree(i) => i.len(),
            BenchIndex::ChainedBucket(i) => i.len(),
            BenchIndex::Extendible(i) => i.len(),
            BenchIndex::Linear(i) => i.len(),
            BenchIndex::ModLinear(i) => i.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Deterministically shuffled unique keys `0..n` (multiplied out so hash
/// and comparison behaviour is realistic).
#[must_use]
pub fn shuffled_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n as u64).collect();
    let mut x = seed.max(1);
    for i in (1..v.len()).rev() {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let j = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_structure_round_trips() {
        for kind in IndexKindB::all() {
            let mut idx = kind.build(8, 512);
            let keys = shuffled_keys(512, 7);
            for k in &keys {
                idx.insert(*k);
            }
            assert_eq!(idx.len(), 512, "{}", kind.name());
            for k in keys.iter().step_by(7) {
                assert!(idx.search(*k), "{}: missing {k}", kind.name());
            }
            assert!(!idx.search(10_000), "{}", kind.name());
            for k in keys.iter().take(100) {
                assert!(idx.delete(*k), "{}", kind.name());
            }
            assert_eq!(idx.len(), 412, "{}", kind.name());
            assert!(idx.storage_bytes() > 412 * 8, "{}", kind.name());
        }
    }

    #[test]
    fn range_only_on_ordered() {
        for kind in IndexKindB::all() {
            let mut idx = kind.build(8, 128);
            for k in 0..100 {
                idx.insert(k);
            }
            let r = idx.range_count(10, 19);
            if IndexKindB::ordered().contains(&kind) {
                assert_eq!(r, Some(10), "{}", kind.name());
            } else {
                assert_eq!(r, None, "{}", kind.name());
            }
        }
    }

    #[test]
    fn shuffled_keys_is_a_permutation() {
        let mut k = shuffled_keys(1000, 3);
        k.sort_unstable();
        assert_eq!(k, (0..1000).collect::<Vec<u64>>());
        assert_ne!(shuffled_keys(1000, 3)[..10], shuffled_keys(1000, 4)[..10]);
    }
}
