//! Property test: every join method computes exactly the reference
//! equijoin, over arbitrary value multisets (duplicates, skew, partial
//! overlap, empty sides).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmdb_exec::{
    hash_join, nested_loops_join, sort_merge_join, tree_join, tree_merge_join, JoinSide,
};
use mmdb_index::traits::OrderedIndex;
use mmdb_index::{TTree, TTreeConfig};
use mmdb_storage::{
    AttrAdapter, AttrType, OwnedValue, PartitionConfig, Relation, Schema, TupleId, Value,
};
use proptest::prelude::*;

fn rel_with_values(name: &str, values: &[i64]) -> (Relation, Vec<TupleId>) {
    let schema = Schema::of(&[("pk", AttrType::Int), ("jcol", AttrType::Int)]);
    let mut rel = Relation::new(name, schema, PartitionConfig::default());
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

fn reference(outer: &[i64], inner: &[i64]) -> Vec<(usize, usize)> {
    let mut by_val: std::collections::HashMap<i64, Vec<usize>> = std::collections::HashMap::new();
    for (j, v) in inner.iter().enumerate() {
        by_val.entry(*v).or_default().push(j);
    }
    let mut out = Vec::new();
    for (i, v) in outer.iter().enumerate() {
        if let Some(js) = by_val.get(v) {
            out.extend(js.iter().map(|j| (i, *j)));
        }
    }
    out.sort_unstable();
    out
}

fn normalize(
    pairs: &mmdb_storage::TempList,
    outer: &Relation,
    inner: &Relation,
) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = pairs
        .iter()
        .map(|row| {
            let o = match outer.field(row[0], 0).unwrap() {
                Value::Int(i) => i as usize,
                _ => unreachable!(),
            };
            let i = match inner.field(row[1], 0).unwrap() {
                Value::Int(i) => i as usize,
                _ => unreachable!(),
            };
            (o, i)
        })
        .collect();
    out.sort_unstable();
    out
}

fn values_strategy(max_len: usize) -> impl Strategy<Value = Vec<i64>> {
    // Small key space forces heavy duplication and overlap.
    prop::collection::vec(-8i64..8, 0..max_len)
}

/// Suffixes appended to a shared 8-byte prefix: the sort kernels' order
/// tags (first 8 bytes, big-endian) collide on every pair of these keys.
const SUFFIXES: [&str; 6] = ["", "a", "b", "ab", "z", "zz"];

fn rel_with_strings(name: &str, values: &[String]) -> (Relation, Vec<TupleId>) {
    let schema = Schema::of(&[("pk", AttrType::Int), ("jcol", AttrType::Str)]);
    let mut rel = Relation::new(name, schema, PartitionConfig::default());
    let tids = values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            rel.insert(&[OwnedValue::Int(i as i64), OwnedValue::Str(v.clone())])
                .unwrap()
        })
        .collect();
    (rel, tids)
}

fn reference_str(outer: &[String], inner: &[String]) -> Vec<(usize, usize)> {
    let mut by_val: std::collections::HashMap<&str, Vec<usize>> = std::collections::HashMap::new();
    for (j, v) in inner.iter().enumerate() {
        by_val.entry(v).or_default().push(j);
    }
    let mut out = Vec::new();
    for (i, v) in outer.iter().enumerate() {
        if let Some(js) = by_val.get(v.as_str()) {
            out.extend(js.iter().map(|j| (i, *j)));
        }
    }
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_methods_equal_reference(
        ov in values_strategy(60),
        iv in values_strategy(60),
        node_size in 1usize..20,
    ) {
        let (orel, otids) = rel_with_values("o", &ov);
        let (irel, itids) = rel_with_values("i", &iv);
        let outer = JoinSide::new(&orel, 1, &otids);
        let inner = JoinSide::new(&irel, 1, &itids);
        let expect = reference(&ov, &iv);

        let mut oidx = TTree::new(
            AttrAdapter::new(1),
            TTreeConfig::with_node_size(node_size),
        );
        for t in &otids { oidx.insert(&orel, *t); }
        let mut iidx = TTree::new(
            AttrAdapter::new(1),
            TTreeConfig::with_node_size(node_size),
        );
        for t in &itids { iidx.insert(&irel, *t); }
        oidx.validate(&orel).unwrap();
        iidx.validate(&irel).unwrap();

        let nl = nested_loops_join(outer, inner).unwrap();
        prop_assert_eq!(normalize(&nl.pairs, &orel, &irel), expect.clone());
        let hj = hash_join(outer, inner).unwrap();
        prop_assert_eq!(normalize(&hj.pairs, &orel, &irel), expect.clone());
        let tj = tree_join(outer, &irel, &iidx).unwrap();
        prop_assert_eq!(normalize(&tj.pairs, &orel, &irel), expect.clone());
        let sm = sort_merge_join(outer, inner).unwrap();
        prop_assert_eq!(normalize(&sm.pairs, &orel, &irel), expect.clone());
        let tm = tree_merge_join(&orel, 1, &oidx, &irel, 1, &iidx).unwrap();
        prop_assert_eq!(normalize(&tm.pairs, &orel, &irel), expect);
    }

    #[test]
    fn ineq_join_equals_brute_force(
        ov in values_strategy(25),
        iv in values_strategy(25),
    ) {
        use mmdb_exec::{tree_ineq_join, IneqOp};
        let (orel, otids) = rel_with_values("o", &ov);
        let (irel, itids) = rel_with_values("i", &iv);
        let outer = JoinSide::new(&orel, 1, &otids);
        let inner = JoinSide::new(&irel, 1, &itids);
        let mut iidx = TTree::new(
            AttrAdapter::new(1),
            TTreeConfig::with_node_size(4),
        );
        for t in &itids { iidx.insert(&irel, *t); }
        for (op, f) in [
            (IneqOp::Less, (|i: i64, o: i64| i < o) as fn(i64, i64) -> bool),
            (IneqOp::LessEq, |i, o| i <= o),
            (IneqOp::Greater, |i, o| i > o),
            (IneqOp::GreaterEq, |i, o| i >= o),
        ] {
            let out = tree_ineq_join(outer, inner, &iidx, op).unwrap();
            let mut expect = Vec::new();
            for (oi, o) in ov.iter().enumerate() {
                for (ii, i) in iv.iter().enumerate() {
                    if f(*i, *o) {
                        expect.push((oi, ii));
                    }
                }
            }
            expect.sort_unstable();
            prop_assert_eq!(normalize(&out.pairs, &orel, &irel), expect);
        }
    }

    #[test]
    fn string_keys_with_colliding_tags_agree_with_reference(
        osuf in prop::collection::vec(0usize..SUFFIXES.len(), 0..40),
        isuf in prop::collection::vec(0usize..SUFFIXES.len(), 0..40),
    ) {
        // Every key shares an 8-byte prefix, so every sort tag collides
        // and the tag-sorting kernels must fall back to full string
        // comparison for order, equality, and dedup.
        let ov: Vec<String> = osuf.iter().map(|i| format!("prefix00{}", SUFFIXES[*i])).collect();
        let iv: Vec<String> = isuf.iter().map(|i| format!("prefix00{}", SUFFIXES[*i])).collect();
        let (orel, otids) = rel_with_strings("o", &ov);
        let (irel, itids) = rel_with_strings("i", &iv);
        let outer = JoinSide::new(&orel, 1, &otids);
        let inner = JoinSide::new(&irel, 1, &itids);
        let expect = reference_str(&ov, &iv);
        let sm = sort_merge_join(outer, inner).unwrap();
        prop_assert_eq!(normalize(&sm.pairs, &orel, &irel), expect.clone());
        let hj = hash_join(outer, inner).unwrap();
        prop_assert_eq!(normalize(&hj.pairs, &orel, &irel), expect.clone());
        let nl = nested_loops_join(outer, inner).unwrap();
        prop_assert_eq!(normalize(&nl.pairs, &orel, &irel), expect);

        // Dedup over the same colliding tags: sort path == hash path.
        use mmdb_exec::{project_hash, project_sort};
        use mmdb_storage::{OutputField, ResultDescriptor, TempList};
        let list = TempList::from_tids(otids.clone());
        let desc = ResultDescriptor::new(vec![OutputField::new(0, 1, "jcol")]);
        let h = project_hash(&list, &desc, &[&orel]).unwrap();
        let s = project_sort(&list, &desc, &[&orel]).unwrap();
        let mut distinct = ov.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(h.rows.len(), distinct.len());
        prop_assert_eq!(s.rows.len(), distinct.len());
    }

    #[test]
    fn projection_methods_agree(vals in values_strategy(120)) {
        use mmdb_exec::{project_hash, project_sort};
        use mmdb_storage::{OutputField, ResultDescriptor, TempList};
        let (rel, tids) = rel_with_values("p", &vals);
        let list = TempList::from_tids(tids);
        let desc = ResultDescriptor::new(vec![OutputField::new(0, 1, "jcol")]);
        let h = project_hash(&list, &desc, &[&rel]).unwrap();
        let s = project_sort(&list, &desc, &[&rel]).unwrap();
        #[cfg(all(feature = "check", debug_assertions))]
        for rows in [&h.rows, &s.rows] {
            mmdb_check::storage_checks::check_templist(rows, &desc, &[&rel])
                .into_result()
                .map_err(TestCaseError::fail)?;
        }
        let mut distinct: Vec<i64> = vals.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(h.rows.len(), distinct.len());
        prop_assert_eq!(s.rows.len(), distinct.len());
        // The surviving values are exactly the distinct set.
        let mut got: Vec<i64> = h.rows.iter().map(|r| {
            match rel.field(r[0], 1).unwrap() {
                Value::Int(i) => i,
                _ => unreachable!(),
            }
        }).collect();
        got.sort_unstable();
        prop_assert_eq!(got, distinct);
    }
}

/// The run-formation sort quicksorts 16,384-entry (256 KiB of 16-byte
/// pairs) runs and d-ary-merges them; inputs below that size exercise
/// only the single-run path. This input spans three runs (including a
/// short final run), so the heap merge, run exhaustion, and cross-run
/// group detection all engage.
#[test]
fn sort_merge_and_dedup_across_multiple_sort_runs() {
    const N: usize = 36_000;
    // A fixed permutation of 0..N (7919 is coprime to 36_000), so the
    // runs' value ranges interleave heavily and no run drains in one go.
    let ov: Vec<i64> = (0..N).map(|i| ((i * 7919) % N) as i64).collect();
    // Inner hits every 50th key exactly once.
    let iv: Vec<i64> = (0..N as i64 / 50).map(|i| i * 50).collect();
    let (orel, otids) = rel_with_values("o", &ov);
    let (irel, itids) = rel_with_values("i", &iv);
    let outer = JoinSide::new(&orel, 1, &otids);
    let inner = JoinSide::new(&irel, 1, &itids);
    let sm = sort_merge_join(outer, inner).unwrap();
    assert_eq!(normalize(&sm.pairs, &orel, &irel), reference(&ov, &iv));

    // Dedup across the same run boundaries: every value appears 4× in a
    // permuted order, so equal keys land in different sort runs.
    use mmdb_exec::{project_hash, project_sort};
    use mmdb_storage::{OutputField, ResultDescriptor, TempList};
    let dv: Vec<i64> = (0..N).map(|i| ((i * 7919) % N) as i64 / 4).collect();
    let (drel, dtids) = rel_with_values("d", &dv);
    let list = TempList::from_tids(dtids);
    let desc = ResultDescriptor::new(vec![OutputField::new(0, 1, "jcol")]);
    let h = project_hash(&list, &desc, &[&drel]).unwrap();
    let s = project_sort(&list, &desc, &[&drel]).unwrap();
    assert_eq!(h.rows.len(), N / 4);
    assert_eq!(s.rows.len(), N / 4);
}
