//! Shared differential-testing machinery for index structures.
//!
//! Every index is checked against a trivially-correct model (a sorted
//! `Vec`) under long randomized operation sequences, with `validate()`
//! (full structural-invariant check) run throughout. The paper did the
//! moral equivalent with operation counters; we go further and check the
//! *contents*.

use crate::adapter::{mix64, Adapter, HashAdapter};
use crate::traits::{OrderedIndex, UnorderedIndex};
use std::cmp::Ordering;
use std::ops::Bound;

/// Adapter whose key is the high 48 bits of the entry: distinct entries can
/// share a key, exercising duplicate handling and `delete_entry`.
#[derive(Debug, Default, Clone, Copy)]
pub struct DupAdapter;

/// Extract the key (high bits) of a [`DupAdapter`] entry.
pub fn dup_key(e: u64) -> u64 {
    e >> 16
}

impl Adapter for DupAdapter {
    type Entry = u64;
    type Key = u64;
    type Ctx<'c> = ();

    fn cmp_entries(&self, (): (), a: &u64, b: &u64) -> Ordering {
        dup_key(*a).cmp(&dup_key(*b))
    }

    fn cmp_entry_key(&self, (): (), e: &u64, key: &u64) -> Ordering {
        dup_key(*e).cmp(key)
    }
}

impl HashAdapter for DupAdapter {
    fn hash_entry(&self, (): (), e: &u64) -> u64 {
        mix64(dup_key(*e))
    }

    fn hash_key(&self, key: &u64) -> u64 {
        mix64(*key)
    }
}

/// Tiny deterministic RNG (xorshift*) so unit tests don't need `rand`.
pub struct TestRng(u64);

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng(seed.max(1))
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Reference model: a Vec of entries sorted by [`DupAdapter`] key, with
/// multiset semantics for duplicate keys.
#[derive(Default)]
pub struct Model {
    entries: Vec<u64>,
}

impl Model {
    pub fn insert(&mut self, e: u64) {
        let pos = self.entries.partition_point(|x| dup_key(*x) <= dup_key(e));
        self.entries.insert(pos, e);
    }

    pub fn contains_key(&self, k: u64) -> bool {
        self.entries.iter().any(|e| dup_key(*e) == k)
    }

    pub fn delete_entry(&mut self, e: u64) -> bool {
        if let Some(pos) = self.entries.iter().position(|x| *x == e) {
            self.entries.remove(pos);
            true
        } else {
            false
        }
    }

    pub fn search_all(&self, k: u64) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .entries
            .iter()
            .copied()
            .filter(|e| dup_key(*e) == k)
            .collect();
        v.sort_unstable();
        v
    }

    pub fn range(&self, lo: u64, hi: u64) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .entries
            .iter()
            .copied()
            .filter(|e| (lo..=hi).contains(&dup_key(*e)))
            .collect();
        v.sort_unstable();
        v
    }

    pub fn all_sorted(&self) -> Vec<u64> {
        let mut v = self.entries.clone();
        v.sort_unstable();
        v
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn pick(&self, rng: &mut TestRng) -> Option<u64> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.entries[rng.below(self.entries.len() as u64) as usize])
        }
    }
}

fn assert_sorted_by_key(v: &[u64], ctx: &str) {
    for w in v.windows(2) {
        assert!(
            dup_key(w[0]) <= dup_key(w[1]),
            "{ctx}: scan out of order: {} then {}",
            w[0],
            w[1]
        );
    }
}

/// Drive an ordered index and the model through `steps` randomized
/// operations, cross-checking everything after every `check_every` steps.
pub fn ordered_differential<I>(index: &mut I, seed: u64, steps: usize, key_space: u64)
where
    I: OrderedIndex<DupAdapter> + ?Sized,
{
    let mut rng = TestRng::new(seed);
    let mut model = Model::default();
    for step in 0..steps {
        let roll = rng.below(100);
        if roll < 40 {
            // Insert (possibly duplicate key).
            let e = (rng.below(key_space) << 16) | rng.below(1 << 16);
            index.insert((), e);
            model.insert(e);
        } else if roll < 50 {
            // insert_unique
            let e = (rng.below(key_space) << 16) | rng.below(1 << 16);
            let k = dup_key(e);
            let expect_dup = model.contains_key(k);
            match index.insert_unique((), e) {
                Ok(()) => {
                    assert!(
                        !expect_dup,
                        "step {step}: insert_unique accepted duplicate {k}"
                    );
                    model.insert(e);
                }
                Err(_) => assert!(
                    expect_dup,
                    "step {step}: insert_unique rejected fresh key {k}"
                ),
            }
        } else if roll < 65 {
            // Delete by key.
            let k = rng.below(key_space);
            let got = index.delete((), &k);
            match got {
                Some(e) => {
                    assert_eq!(
                        dup_key(e),
                        k,
                        "step {step}: delete returned wrong-key entry"
                    );
                    assert!(
                        model.delete_entry(e),
                        "step {step}: delete invented entry {e}"
                    );
                }
                None => assert!(
                    !model.contains_key(k),
                    "step {step}: delete missed existing key {k}"
                ),
            }
        } else if roll < 72 {
            // Delete a specific (existing) entry.
            if let Some(e) = model.pick(&mut rng) {
                assert!(
                    index.delete_entry((), &e),
                    "step {step}: delete_entry lost {e}"
                );
                model.delete_entry(e);
            }
        } else if roll < 74 {
            // Delete a non-existent entry.
            let e = u64::MAX - rng.below(1000);
            assert_eq!(index.delete_entry((), &e), model.delete_entry(e));
        } else if roll < 86 {
            // Point search.
            let k = rng.below(key_space);
            let got = index.search((), &k);
            match got {
                Some(e) => {
                    assert_eq!(dup_key(e), k);
                    assert!(model.contains_key(k));
                }
                None => assert!(!model.contains_key(k), "step {step}: search missed key {k}"),
            }
            // search_all multiset check.
            let mut all = Vec::new();
            index.search_all((), &k, &mut all);
            all.sort_unstable();
            assert_eq!(all, model.search_all(k), "step {step}: search_all({k})");
        } else if roll < 94 {
            // Range query.
            let a = rng.below(key_space);
            let b = rng.below(key_space);
            let (lo, hi) = (a.min(b), a.max(b));
            let mut out = Vec::new();
            index.range((), Bound::Included(&lo), Bound::Included(&hi), &mut out);
            assert_sorted_by_key(&out, &format!("step {step} range"));
            out.sort_unstable();
            assert_eq!(out, model.range(lo, hi), "step {step}: range [{lo},{hi}]");
        } else {
            // Full scan.
            let mut out = Vec::new();
            index.scan(&mut |e| out.push(*e));
            assert_sorted_by_key(&out, &format!("step {step} scan"));
            out.sort_unstable();
            assert_eq!(out, model.all_sorted(), "step {step}: scan");
        }
        assert_eq!(index.len(), model.len(), "step {step}: len");
        if step % 64 == 0 {
            if let Err(e) = index.validate(()) {
                panic!("step {step}: invariant violated: {e}");
            }
        }
    }
    index.validate(()).expect("final validate");
    let mut out = Vec::new();
    index.scan(&mut |e| out.push(*e));
    out.sort_unstable();
    assert_eq!(out, model.all_sorted(), "final contents");
}

/// Same as [`ordered_differential`] but for hash (unordered) indices.
pub fn unordered_differential<I>(index: &mut I, seed: u64, steps: usize, key_space: u64)
where
    I: UnorderedIndex<DupAdapter> + ?Sized,
{
    let mut rng = TestRng::new(seed);
    let mut model = Model::default();
    for step in 0..steps {
        let roll = rng.below(100);
        if roll < 45 {
            let e = (rng.below(key_space) << 16) | rng.below(1 << 16);
            index.insert((), e);
            model.insert(e);
        } else if roll < 55 {
            let e = (rng.below(key_space) << 16) | rng.below(1 << 16);
            let k = dup_key(e);
            let expect_dup = model.contains_key(k);
            match index.insert_unique((), e) {
                Ok(()) => {
                    assert!(!expect_dup, "step {step}: insert_unique accepted duplicate");
                    model.insert(e);
                }
                Err(_) => assert!(expect_dup, "step {step}: insert_unique rejected fresh key"),
            }
        } else if roll < 72 {
            let k = rng.below(key_space);
            match index.delete((), &k) {
                Some(e) => {
                    assert_eq!(dup_key(e), k);
                    assert!(model.delete_entry(e), "step {step}: delete invented entry");
                }
                None => assert!(!model.contains_key(k), "step {step}: delete missed {k}"),
            }
        } else if roll < 78 {
            if let Some(e) = model.pick(&mut rng) {
                assert!(
                    index.delete_entry((), &e),
                    "step {step}: delete_entry lost {e}"
                );
                model.delete_entry(e);
            }
        } else {
            let k = rng.below(key_space);
            match index.search((), &k) {
                Some(e) => {
                    assert_eq!(dup_key(e), k);
                    assert!(model.contains_key(k));
                }
                None => assert!(!model.contains_key(k), "step {step}: search missed {k}"),
            }
            let mut all = Vec::new();
            index.search_all((), &k, &mut all);
            all.sort_unstable();
            assert_eq!(all, model.search_all(k), "step {step}: search_all({k})");
        }
        assert_eq!(index.len(), model.len(), "step {step}: len");
        if step % 64 == 0 {
            if let Err(e) = index.validate(()) {
                panic!("step {step}: invariant violated: {e}");
            }
        }
    }
    index.validate(()).expect("final validate");
    let mut out = Vec::new();
    index.scan(&mut |e| out.push(*e));
    out.sort_unstable();
    assert_eq!(out, model.all_sorted(), "final contents");
}

/// Bulk-load helper: n entries with unique keys, shuffled deterministically.
pub fn shuffled_unique_entries(n: usize, seed: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n as u64).map(|k| k << 16).collect();
    let mut rng = TestRng::new(seed);
    for i in (1..v.len()).rev() {
        let j = rng.below((i + 1) as u64) as usize;
        v.swap(i, j);
    }
    v
}
