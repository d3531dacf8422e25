//! Property tests: every index structure, driven over relations through
//! tuple-pointer adapters (the §2.2 configuration), stays equivalent to a
//! model under arbitrary operation sequences; and the T-Tree's whole-node
//! range emission agrees with the entry-at-a-time scan.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmdb_exec::Predicate;
use mmdb_index::adapter::Adapter;
use mmdb_index::traits::{OrderedIndex, UnorderedIndex};
use mmdb_index::{
    ArrayIndex, AvlTree, BTree, ChainedBucketHash, ExtendibleHash, LinearHash, ModifiedLinearHash,
    TTree, TTreeConfig,
};
use mmdb_storage::{
    AttrAdapter, AttrType, KeyValue, OwnedValue, PartitionConfig, Relation, Schema, TupleId, Value,
};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    DeleteKey(i64),
    Search(i64),
    Range(i64, i64),
}

fn ops_strategy(n: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => (-40i64..40).prop_map(Op::Insert),
            2 => (-40i64..40).prop_map(Op::DeleteKey),
            2 => (-40i64..40).prop_map(Op::Search),
            1 => ((-40i64..40), (-40i64..40)).prop_map(|(a, b)| Op::Range(a.min(b), a.max(b))),
        ],
        0..n,
    )
}

/// Model: multiset of keys → count, plus a tuple-id pool per key.
#[derive(Default)]
struct Model {
    by_key: BTreeMap<i64, Vec<TupleId>>,
}

impl Model {
    fn len(&self) -> usize {
        self.by_key.values().map(Vec::len).sum()
    }
}

fn key_of(rel: &Relation, tid: TupleId) -> i64 {
    match rel.field(tid, 0).unwrap() {
        Value::Int(i) => i,
        _ => unreachable!(),
    }
}

macro_rules! drive {
    ($idx:expr, $rel:expr, $ops:expr) => {{
        let idx = &mut $idx;
        let rel = &mut $rel;
        let mut model = Model::default();
        for op in $ops {
            match op {
                Op::Insert(k) => {
                    let tid = rel.insert(&[OwnedValue::Int(*k)]).unwrap();
                    idx.insert(rel, tid);
                    model.by_key.entry(*k).or_default().push(tid);
                }
                Op::DeleteKey(k) => {
                    let got = idx.delete(rel, &KeyValue::Int(*k));
                    let entry = model.by_key.get_mut(k);
                    match (got, entry) {
                        (Some(tid), Some(pool)) => {
                            prop_assert_eq!(key_of(rel, tid), *k);
                            let pos = pool.iter().position(|t| *t == tid).expect("tid in model");
                            pool.remove(pos);
                            if pool.is_empty() {
                                model.by_key.remove(k);
                            }
                            // Keep relation in sync: tuple removed.
                            rel.delete(tid).unwrap();
                        }
                        (None, None) => {}
                        (None, Some(pool)) if pool.is_empty() => {}
                        (got, entry) => {
                            let pool_size = entry.map(|p| p.len());
                            prop_assert!(
                                false,
                                "delete({}) => {:?} but model had {:?}",
                                k,
                                got,
                                pool_size
                            );
                        }
                    }
                }
                Op::Search(k) => {
                    let got = idx.search(rel, &KeyValue::Int(*k));
                    let expect = model.by_key.get(k).map_or(0, Vec::len);
                    prop_assert_eq!(got.is_some(), expect > 0, "search({})", k);
                    let mut all = Vec::new();
                    idx.search_all(rel, &KeyValue::Int(*k), &mut all);
                    prop_assert_eq!(all.len(), expect, "search_all({})", k);
                }
                Op::Range(_, _) => { /* handled in the ordered macro */ }
            }
            prop_assert_eq!(idx.len(), model.len());
            // Check-after-op: with the verification layer on, re-derive
            // every structural invariant after every single operation.
            #[cfg(all(feature = "check", debug_assertions))]
            mmdb_check::DeepCheck::deep_check(&*idx, rel)
                .into_result()
                .map_err(TestCaseError::fail)?;
        }
        idx.validate(rel).map_err(|e| TestCaseError::fail(e))?;
        #[cfg(all(feature = "check", debug_assertions))]
        mmdb_check::DeepCheck::deep_check(&*idx, rel)
            .into_result()
            .map_err(TestCaseError::fail)?;
        model
    }};
}

macro_rules! drive_ordered {
    ($idx:expr, $rel:expr, $ops:expr) => {{
        let model = drive!($idx, $rel, $ops);
        // Ordered extras: full scan sorted + range correctness.
        let mut scanned: Vec<i64> = Vec::new();
        $idx.scan(&mut |t| scanned.push(key_of(&$rel, *t)));
        let mut expect: Vec<i64> = model
            .by_key
            .iter()
            .flat_map(|(k, pool)| std::iter::repeat(*k).take(pool.len()))
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(&scanned, &expect, "ordered scan");
        for op in $ops {
            if let Op::Range(lo, hi) = op {
                let mut out = Vec::new();
                $idx.range(
                    &$rel,
                    std::ops::Bound::Included(&KeyValue::Int(*lo)),
                    std::ops::Bound::Included(&KeyValue::Int(*hi)),
                    &mut out,
                );
                let expect_n: usize = model
                    .by_key
                    .range(*lo..=*hi)
                    .map(|(_, pool)| pool.len())
                    .sum();
                prop_assert_eq!(out.len(), expect_n, "range [{}, {}]", lo, hi);
            }
        }
    }};
}

/// A relation plus its index adapter. Each index operation borrows the
/// relation for its duration, and relation mutations borrow it mutably
/// in between — exactly how `mmdb_core::Database` wires a table's
/// indexes to its relation.
fn fresh_rel() -> (Relation, AttrAdapter) {
    let rel = Relation::new(
        "t",
        Schema::of(&[("k", AttrType::Int)]),
        PartitionConfig::default(),
    );
    (rel, AttrAdapter::new(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn ttree_model_equivalence(ops in ops_strategy(120), ns in 1usize..12) {
        let (mut rel, adapter) = fresh_rel();
        let mut idx = TTree::new(adapter, TTreeConfig::with_node_size(ns));
        drive_ordered!(idx, rel, &ops);
    }

    #[test]
    fn btree_model_equivalence(ops in ops_strategy(120), ns in 2usize..12) {
        let (mut rel, adapter) = fresh_rel();
        let mut idx = BTree::new(adapter, ns);
        drive_ordered!(idx, rel, &ops);
    }

    #[test]
    fn avl_model_equivalence(ops in ops_strategy(120)) {
        let (mut rel, adapter) = fresh_rel();
        let mut idx = AvlTree::new(adapter);
        drive_ordered!(idx, rel, &ops);
    }

    #[test]
    fn array_model_equivalence(ops in ops_strategy(80)) {
        let (mut rel, adapter) = fresh_rel();
        let mut idx = ArrayIndex::new(adapter);
        drive_ordered!(idx, rel, &ops);
    }

    #[test]
    fn chained_model_equivalence(ops in ops_strategy(120)) {
        let (mut rel, adapter) = fresh_rel();
        let mut idx = ChainedBucketHash::with_capacity(adapter, 32);
        drive!(idx, rel, &ops);
    }

    #[test]
    fn extendible_model_equivalence(ops in ops_strategy(120), cap in 1usize..8) {
        let (mut rel, adapter) = fresh_rel();
        let mut idx = ExtendibleHash::new(adapter, cap);
        drive!(idx, rel, &ops);
    }

    #[test]
    fn linear_model_equivalence(ops in ops_strategy(120), cap in 1usize..8) {
        let (mut rel, adapter) = fresh_rel();
        let mut idx = LinearHash::new(adapter, cap);
        drive!(idx, rel, &ops);
    }

    #[test]
    fn modlinear_model_equivalence(ops in ops_strategy(120), chain in 1usize..6) {
        let (mut rel, adapter) = fresh_rel();
        let mut idx = ModifiedLinearHash::new(adapter, chain);
        drive!(idx, rel, &ops);
    }
}

/// [`AttrAdapter`] with `key_tag_exact` left at its default `false`: the
/// reference a range scan must agree with, entry for entry and comparison
/// for comparison.
struct InexactTags(AttrAdapter);

impl Adapter for InexactTags {
    type Entry = TupleId;
    type Key = KeyValue;
    type Ctx<'c> = &'c Relation;
    fn cmp_entries(&self, rel: &Relation, a: &TupleId, b: &TupleId) -> Ordering {
        self.0.cmp_entries(rel, a, b)
    }
    fn cmp_entry_key(&self, rel: &Relation, e: &TupleId, key: &KeyValue) -> Ordering {
        self.0.cmp_entry_key(rel, e, key)
    }
    fn entry_tag(&self, rel: &Relation, e: &TupleId) -> u64 {
        self.0.entry_tag(rel, e)
    }
    fn key_tag(&self, rel: &Relation, key: &KeyValue) -> u64 {
        self.0.key_tag(rel, key)
    }
}

/// Strings that often share their first 8 bytes (equal, inexact tags).
/// Bounds also take keys of the other attribute's type, which compare by
/// type rank.
fn tag_str() -> impl Strategy<Value = String> {
    prop_oneof![
        2 => "[ab]{0,3}".prop_map(|s| format!("prefix00{s}")),
        1 => "[a-c]{0,9}",
    ]
}

/// Integer keys, now and then at the ends of the domain (whose tags are
/// the ends of the tag order).
fn int_key() -> impl Strategy<Value = KeyValue> {
    prop_oneof![
        6 => (-8i64..8).prop_map(KeyValue::Int),
        1 => Just(KeyValue::Int(i64::MIN)),
        1 => Just(KeyValue::Int(i64::MAX)),
    ]
}

fn tag_bound<S>(key: impl Fn() -> S) -> impl Strategy<Value = std::ops::Bound<KeyValue>>
where
    S: Strategy<Value = KeyValue> + 'static,
{
    use std::ops::Bound;
    prop_oneof![
        2 => key().prop_map(Bound::Included),
        2 => key().prop_map(Bound::Excluded),
        1 => Just(Bound::Unbounded),
    ]
}

fn as_ref(b: &std::ops::Bound<KeyValue>) -> std::ops::Bound<&KeyValue> {
    use std::ops::Bound;
    match b {
        Bound::Included(k) => Bound::Included(k),
        Bound::Excluded(k) => Bound::Excluded(k),
        Bound::Unbounded => Bound::Unbounded,
    }
}

fn range_with_stats<A>(
    t: &mut TTree<A>,
    rel: &Relation,
    lo: &std::ops::Bound<KeyValue>,
    hi: &std::ops::Bound<KeyValue>,
) -> (Vec<TupleId>, u64)
where
    A: for<'c> Adapter<Entry = TupleId, Key = KeyValue, Ctx<'c> = &'c Relation>,
{
    t.reset_stats();
    let mut out = Vec::new();
    t.range(rel, as_ref(lo), as_ref(hi), &mut out);
    (out, t.stats().comparisons)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ttree_whole_node_range_matches_entrywise(
        rows in prop::collection::vec((tag_str(), -8i64..8), 0..160),
        deletes in prop::collection::vec(0usize..160, 0..40),
        node in 1usize..10,
        bounds in prop::collection::vec(
            (
                tag_bound(|| prop_oneof![5 => tag_str().prop_map(KeyValue::Str), 1 => int_key()]),
                tag_bound(|| prop_oneof![5 => tag_str().prop_map(KeyValue::Str), 1 => int_key()]),
                tag_bound(|| prop_oneof![5 => int_key(), 1 => tag_str().prop_map(KeyValue::Str)]),
                tag_bound(|| prop_oneof![5 => int_key(), 1 => tag_str().prop_map(KeyValue::Str)]),
            ),
            1..8,
        ),
    ) {
        let mut rel = Relation::new(
            "t",
            Schema::of(&[("name", AttrType::Str), ("v", AttrType::Int)]),
            PartitionConfig::default(),
        );
        let tids: Vec<TupleId> = rows
            .iter()
            .map(|(s, v)| rel.insert(&[OwnedValue::Str(s.clone()), OwnedValue::Int(*v)]).unwrap())
            .collect();
        for attr in [0usize, 1] {
            let mut fast = TTree::new(AttrAdapter::new(attr), TTreeConfig::with_node_size(node));
            let mut reference = TTree::new(
                InexactTags(AttrAdapter::new(attr)),
                TTreeConfig::with_node_size(node),
            );
            for t in &tids {
                fast.insert(&rel, *t);
                reference.insert(&rel, *t);
            }
            for d in &deletes {
                if let Some(t) = tids.get(*d) {
                    fast.delete_entry(&rel, t);
                    reference.delete_entry(&rel, t);
                }
            }
            for (lo0, hi0, lo1, hi1) in &bounds {
                let (lo, hi) = if attr == 0 { (lo0, hi0) } else { (lo1, hi1) };
                for (lo, hi) in [(lo, hi), (hi, lo), (&std::ops::Bound::Unbounded, hi)] {
                    let got = range_with_stats(&mut fast, &rel, lo, hi);
                    let want = range_with_stats(&mut reference, &rel, lo, hi);
                    prop_assert_eq!(&got, &want, "attr {} range {:?}..{:?}", attr, lo, hi);
                    // And both are the in-order entries inside the bounds.
                    let pred = Predicate::Range { lo: lo.clone(), hi: hi.clone() };
                    let inside: Vec<TupleId> = fast
                        .iter()
                        .filter(|t| pred.matches(&rel.field(*t, attr).unwrap()))
                        .collect();
                    prop_assert_eq!(&got.0, &inside);
                }
            }
        }
    }
}
