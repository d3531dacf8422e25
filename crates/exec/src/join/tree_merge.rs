//! Tree Merge join (§3.3.2) and ordered non-equijoins (§3.3.5).
//!
//! *"For the Tree Merge tests, we built T Tree indices on the join columns
//! of each relation, and then performed a merge join using these indices.
//! However, we do not report the T Tree construction times in our tests —
//! it turns out that the T Merge algorithm is only a viable alternative if
//! the indices already exist."*
//!
//! Cost model (§3.3.4 Test 1): ≈ |R1| + 2·|R2| comparisons — the cheapest
//! of all methods when both indices pre-exist, and the overall winner in
//! Tests 1, 2, 5 and much of 3.

use super::{hash::probe_key, merge_join_cursors, JoinOutput, JoinSide};
use crate::error::ExecError;
use mmdb_index::traits::OrderedIndex;
use mmdb_index::TTree;
use mmdb_storage::{AttrAdapter, KeyValue, Relation, TempList};
use std::cmp::Ordering;

/// Join by merging two **existing** T-Tree indices in key order. No build
/// cost is charged (the paper's accounting); the returned stats cover only
/// the merge comparisons.
pub fn tree_merge_join(
    outer_rel: &Relation,
    outer_attr: usize,
    outer_index: &TTree<AttrAdapter>,
    inner_rel: &Relation,
    inner_attr: usize,
    inner_index: &TTree<AttrAdapter>,
) -> Result<JoinOutput, ExecError> {
    let counters = mmdb_index::stats::Counters::default();
    let pairs = merge_join_cursors(
        outer_index.cursor(),
        inner_index.cursor(),
        super::Access::new_for(outer_rel, outer_attr),
        super::Access::new_for(inner_rel, inner_attr),
        &counters,
    )?;
    Ok(JoinOutput {
        pairs,
        stats: counters.snapshot(),
    })
}

/// Inequality operators for [`tree_ineq_join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IneqOp {
    /// Match inner values `<` the outer value.
    Less,
    /// Match inner values `≤` the outer value.
    LessEq,
    /// Match inner values `>` the outer value.
    Greater,
    /// Match inner values `≥` the outer value.
    GreaterEq,
}

/// An ordered non-equijoin through the inner T-Tree (§3.3.5:
/// *"Non-equijoins other than 'not equals' can make use of ordering of
/// the data, so the Tree Join should be used for such (<, ≤, >, ≥)
/// joins"*). For each outer tuple, emits `(outer, inner)` for every inner
/// tuple whose join value stands in `op` relation to the outer value.
pub fn tree_ineq_join(
    outer: JoinSide<'_>,
    inner: JoinSide<'_>,
    inner_index: &TTree<AttrAdapter>,
    op: IneqOp,
) -> Result<JoinOutput, ExecError> {
    let counters = mmdb_index::stats::Counters::default();
    let before = inner_index.stats();
    let mut out = TempList::new(2);
    for &ot in outer.tids {
        let ov = outer.value(ot)?;
        let Some(key) = probe_key(&ov) else { continue };
        match op {
            IneqOp::Greater | IneqOp::GreaterEq => {
                // Start at the lower bound; for strict '>', skip the equal
                // run first.
                for it in inner_index.iter_from(inner.rel, &key) {
                    if op == IneqOp::Greater {
                        counters.comparisons(1);
                        if cmp_inner(&inner, it, &key)? == Ordering::Equal {
                            continue;
                        }
                    }
                    out.push_pair(ot, it)?;
                }
            }
            IneqOp::Less | IneqOp::LessEq => {
                // Ordered scan from the smallest value up to the bound.
                for it in inner_index.iter() {
                    counters.comparisons(1);
                    let ord = cmp_inner(&inner, it, &key)?;
                    let keep = match op {
                        IneqOp::Less => ord == Ordering::Less,
                        _ => ord != Ordering::Greater,
                    };
                    if !keep {
                        break;
                    }
                    out.push_pair(ot, it)?;
                }
            }
        }
    }
    Ok(JoinOutput {
        pairs: out,
        stats: counters
            .snapshot()
            .plus(&inner_index.stats().since(&before)),
    })
}

/// Ordering of the inner tuple's join value relative to `key`.
fn cmp_inner(
    inner: &JoinSide<'_>,
    it: mmdb_storage::TupleId,
    key: &KeyValue,
) -> Result<Ordering, ExecError> {
    Ok(key.cmp_value(&inner.value(it)?))
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::*;
    use mmdb_index::traits::OrderedIndex;
    use mmdb_index::TTreeConfig;
    use mmdb_storage::TupleId;

    fn build_index(rel: &Relation, attr: usize, tids: &[TupleId]) -> TTree<AttrAdapter> {
        let mut t = TTree::new(AttrAdapter::new(attr), TTreeConfig::with_node_size(16));
        for tid in tids {
            t.insert(rel, *tid);
        }
        t
    }

    #[test]
    fn matches_reference() {
        let ov = random_values(350, 40, 12);
        let iv = random_values(250, 40, 13);
        let (orel, otids) = rel_with_values("o", &ov);
        let (irel, itids) = rel_with_values("i", &iv);
        let oidx = build_index(&orel, 1, &otids);
        let iidx = build_index(&irel, 1, &itids);
        let out = tree_merge_join(&orel, 1, &oidx, &irel, 1, &iidx).unwrap();
        assert_eq!(
            normalize(&out.pairs, &orel, &irel),
            expected_pairs(&ov, &iv)
        );
    }

    #[cfg(feature = "stats")]
    #[test]
    fn merge_cost_is_linear() {
        // §3.3.4 Test 1: ≈ |R1| + 2·|R2| comparisons on unique keys.
        let n = 8192usize;
        let ov: Vec<i64> = (0..n as i64).collect();
        let iv: Vec<i64> = (0..n as i64).collect();
        let (orel, otids) = rel_with_values("o", &ov);
        let (irel, itids) = rel_with_values("i", &iv);
        let oidx = build_index(&orel, 1, &otids);
        let iidx = build_index(&irel, 1, &itids);
        let out = tree_merge_join(&orel, 1, &oidx, &irel, 1, &iidx).unwrap();
        let c = out.stats.comparisons as f64;
        // Each unique key costs one alignment compare plus group-boundary
        // compares on both sides: ~4 per key, still linear (vs the sort
        // methods' n·log n and nested loops' n²).
        let bound = 4.5 * n as f64;
        assert!(c < bound, "merge comparisons {c} should be ~4n < {bound}");
        assert_eq!(out.len(), n);
    }

    #[test]
    fn empty_tree_sides() {
        let (orel, otids) = rel_with_values("o", &[1, 2]);
        let (irel, _) = rel_with_values("i", &[]);
        let oidx = build_index(&orel, 1, &otids);
        let iidx = build_index(&irel, 1, &[]);
        let out = tree_merge_join(&orel, 1, &oidx, &irel, 1, &iidx).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn ineq_joins_match_brute_force() {
        let ov = vec![3i64, 7, 12];
        let iv = vec![1i64, 3, 5, 7, 7, 9, 12, 15];
        let (orel, otids) = rel_with_values("o", &ov);
        let (irel, itids) = rel_with_values("i", &iv);
        let iidx = build_index(&irel, 1, &itids);
        let outer = JoinSide::new(&orel, 1, &otids);
        let inner = JoinSide::new(&irel, 1, &itids);

        for (op, pred) in [
            (
                IneqOp::Less,
                Box::new(|i: i64, o: i64| i < o) as Box<dyn Fn(i64, i64) -> bool>,
            ),
            (IneqOp::LessEq, Box::new(|i, o| i <= o)),
            (IneqOp::Greater, Box::new(|i, o| i > o)),
            (IneqOp::GreaterEq, Box::new(|i, o| i >= o)),
        ] {
            let out = tree_ineq_join(outer, inner, &iidx, op).unwrap();
            let mut expect = Vec::new();
            for (oi, o) in ov.iter().enumerate() {
                for (ii, i) in iv.iter().enumerate() {
                    if pred(*i, *o) {
                        expect.push((oi, ii));
                    }
                }
            }
            expect.sort_unstable();
            assert_eq!(normalize(&out.pairs, &orel, &irel), expect, "op {op:?}");
        }
    }
}
