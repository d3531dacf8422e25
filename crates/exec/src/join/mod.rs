//! The join methods of §3.3.2.
//!
//! *"we implemented and measured the performance of a total of five join
//! algorithms: Nested Loops, a simple main-memory version of a nested
//! loops join with no index; Hash Join and Tree Join, two variants of the
//! nested loops join that use indices; and Sort Merge and Tree Merge, two
//! variants of the sort-merge join method."* Plus the §2.1 **precomputed
//! join** through foreign-key tuple pointers, which "would beat each of
//! the join methods in every case, because the joining tuples have already
//! been paired" (§3.3.5).
//!
//! Every method takes tuple-pointer inputs and produces an arity-2
//! [`TempList`] of `(outer, inner)` pairs — the paper's Figure 1 result
//! lists. Operation counters are returned alongside, reproducing the
//! §3.1 validation methodology.

mod hash;
mod nested;
mod precomputed;
mod sort_merge;
mod tree;
mod tree_merge;

pub use hash::hash_join;
pub use nested::{nested_loops_join, theta_nested_loops_join, ThetaOp};
pub use precomputed::precomputed_join;
pub(crate) use sort_merge::run_entries;
pub use sort_merge::sort_merge_join;
pub use tree::tree_join;
pub use tree_merge::{tree_ineq_join, tree_merge_join, IneqOp};

use crate::error::ExecError;
use mmdb_index::stats::{Counters, Snapshot};
use mmdb_storage::{Relation, StorageError, TempList, TupleId, Value};
use std::cmp::Ordering;

/// One side of a join: a relation, its join attribute, and the
/// participating tuples (typically all of them, or a prior selection's
/// temp list column).
#[derive(Clone, Copy)]
pub struct JoinSide<'a> {
    /// The relation.
    pub rel: &'a Relation,
    /// Join-column attribute index.
    pub attr: usize,
    /// Participating tuple ids.
    pub tids: &'a [TupleId],
}

impl<'a> JoinSide<'a> {
    /// Construct a join side.
    #[must_use]
    pub fn new(rel: &'a Relation, attr: usize, tids: &'a [TupleId]) -> Self {
        JoinSide { rel, attr, tids }
    }

    /// Number of participating tuples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tids.len()
    }

    /// True when no tuples participate.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tids.is_empty()
    }

    /// Extract this side's join value for a tuple.
    pub fn value(&self, tid: TupleId) -> Result<Value<'a>, StorageError> {
        self.rel.field(tid, self.attr)
    }
}

/// A `(relation, attribute)` value accessor without a tuple list.
#[derive(Clone, Copy)]
pub(crate) struct Access<'a> {
    rel: &'a Relation,
    attr: usize,
}

impl<'a> Access<'a> {
    pub(crate) fn new_for(rel: &'a Relation, attr: usize) -> Self {
        Access { rel, attr }
    }

    pub(crate) fn value(&self, tid: TupleId) -> Result<Value<'a>, StorageError> {
        self.rel.field(tid, self.attr)
    }
}

/// A join result: the pair list plus the operation counters accumulated
/// while producing it.
#[derive(Debug)]
pub struct JoinOutput {
    /// `(outer, inner)` tuple-pointer pairs.
    pub pairs: TempList,
    /// Comparisons / data moves / hash calls performed.
    pub stats: Snapshot,
}

impl JoinOutput {
    /// Number of result rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when the join produced nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// A rewindable key-ordered cursor over tuple pointers — the scan
/// interface the merge join needs. Implemented by sorted-array slices
/// (contiguous, cheap to re-scan) and by T-Tree cursors (node chains,
/// pointer-chasing to re-scan) — the very difference §3.3.4 Test 4
/// measures: *"the array index can be scanned faster than the T Tree
/// index"*.
pub(crate) trait MergeCursor {
    /// Saved position type.
    type Mark: Copy;
    /// The tuple under the cursor.
    fn peek(&self) -> Option<TupleId>;
    /// Move forward one entry.
    fn advance(&mut self);
    /// Save the position.
    fn mark(&self) -> Self::Mark;
    /// Restore a saved position.
    fn rewind(&mut self, mark: Self::Mark);
}

/// Cursor over a sorted slice (the array index scan). Production Sort
/// Merge now sorts tag pairs and merges them directly (see
/// [`sort_merge`]); this cursor remains as the simplest [`MergeCursor`]
/// for exercising the shared kernel in tests.
#[cfg(test)]
pub(crate) struct SliceCursor<'a> {
    slice: &'a [TupleId],
    pos: usize,
}

#[cfg(test)]
impl<'a> SliceCursor<'a> {
    pub(crate) fn new(slice: &'a [TupleId]) -> Self {
        SliceCursor { slice, pos: 0 }
    }
}

#[cfg(test)]
impl MergeCursor for SliceCursor<'_> {
    type Mark = usize;

    fn peek(&self) -> Option<TupleId> {
        self.slice.get(self.pos).copied()
    }

    fn advance(&mut self) {
        self.pos += 1;
    }

    fn mark(&self) -> usize {
        self.pos
    }

    fn rewind(&mut self, mark: usize) {
        self.pos = mark;
    }
}

impl<A> MergeCursor for mmdb_index::TTreeCursor<'_, A>
where
    A: mmdb_index::adapter::Adapter<Entry = TupleId>,
{
    type Mark = mmdb_index::TTreeMark;

    fn peek(&self) -> Option<TupleId> {
        mmdb_index::TTreeCursor::peek(self)
    }

    fn advance(&mut self) {
        mmdb_index::TTreeCursor::advance(self);
    }

    fn mark(&self) -> Self::Mark {
        mmdb_index::TTreeCursor::mark(self)
    }

    fn rewind(&mut self, mark: Self::Mark) {
        mmdb_index::TTreeCursor::rewind(self, mark);
    }
}

/// The merge-join kernel \[BlE77\] shared by Sort Merge and Tree Merge.
///
/// Classic mark/rewind formulation: when a group of equal keys matches,
/// the inner cursor rewinds to the group start for **every** matching
/// outer tuple — the group is re-scanned through the index structure
/// itself (no side buffer), so the structures' relative scan costs show
/// up in high-duplicate joins exactly as in the paper's Tests 4–5.
pub(crate) fn merge_join_cursors<'a>(
    mut left: impl MergeCursor,
    mut right: impl MergeCursor,
    la: Access<'a>,
    ra: Access<'a>,
    counters: &Counters,
) -> Result<TempList, ExecError> {
    let mut out = TempList::new(2);
    while let (Some(lt), Some(rt)) = (left.peek(), right.peek()) {
        let lv = la.value(lt)?;
        let rv = ra.value(rt)?;
        counters.comparisons(1);
        match lv.total_cmp(&rv) {
            Ordering::Less => left.advance(),
            Ordering::Greater => right.advance(),
            Ordering::Equal => {
                let group_val = rv;
                let group_start = right.mark();
                // For each outer tuple in the equal run, re-scan the inner
                // group from its start. Pairs accumulate in a group-local
                // list and move into the result with one bulk append.
                let mut group_pairs = TempList::new(2);
                'outer: loop {
                    let Some(lt) = left.peek() else { break 'outer };
                    right.rewind(group_start);
                    while let Some(grt) = right.peek() {
                        counters.comparisons(1);
                        if ra.value(grt)?.total_cmp(&group_val) != Ordering::Equal {
                            break;
                        }
                        group_pairs.push_pair(lt, grt)?;
                        right.advance();
                    }
                    left.advance();
                    match left.peek() {
                        Some(next_lt) => {
                            counters.comparisons(1);
                            if la.value(next_lt)?.total_cmp(&group_val) != Ordering::Equal {
                                break 'outer;
                            }
                        }
                        None => break 'outer,
                    }
                }
                out.append(group_pairs)?;
                // `right` is already positioned past the group.
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
pub(crate) mod fixtures {
    //! Shared join-test fixtures: small relations with controlled value
    //! multisets, and a trivially correct reference join.

    use mmdb_storage::{AttrType, OwnedValue, PartitionConfig, Relation, Schema, TupleId, Value};
    use std::collections::HashMap;

    /// Build a `(pk, jcol)` relation holding exactly `values`.
    pub fn rel_with_values(name: &str, values: &[i64]) -> (Relation, Vec<TupleId>) {
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

    /// Reference implementation: all (outer, inner) pairs with equal join
    /// values, as a sorted multiset of `(outer_pk, inner_pk)`.
    pub fn expected_pairs(outer: &[i64], inner: &[i64]) -> Vec<(usize, usize)> {
        let mut by_val: HashMap<i64, Vec<usize>> = HashMap::new();
        for (j, v) in inner.iter().enumerate() {
            by_val.entry(*v).or_default().push(j);
        }
        let mut out = Vec::new();
        for (i, v) in outer.iter().enumerate() {
            if let Some(js) = by_val.get(v) {
                for j in js {
                    out.push((i, *j));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Convert a join result to sorted `(outer_pk, inner_pk)` pairs using
    /// the `pk` column (attribute 0) of both relations.
    pub fn normalize(
        pairs: &mmdb_storage::TempList,
        outer: &Relation,
        inner: &Relation,
    ) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = pairs
            .iter()
            .map(|row| {
                let o = match outer.field(row[0], 0).unwrap() {
                    Value::Int(i) => i as usize,
                    _ => panic!("pk must be int"),
                };
                let i = match inner.field(row[1], 0).unwrap() {
                    Value::Int(i) => i as usize,
                    _ => panic!("pk must be int"),
                };
                (o, i)
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Deterministic pseudo-random value list with duplicates.
    pub fn random_values(n: usize, key_space: i64, seed: u64) -> Vec<i64> {
        let mut x = seed.max(1);
        (0..n)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % key_space as u64) as i64
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;

    #[test]
    fn merge_kernel_handles_empty_sides() {
        let (rel, tids) = rel_with_values("r", &[1, 2, 3]);
        let a = Access { rel: &rel, attr: 1 };
        let c = Counters::default();
        let empty: Vec<TupleId> = vec![];
        let out = merge_join_cursors(SliceCursor::new(&tids), SliceCursor::new(&empty), a, a, &c)
            .unwrap();
        assert!(out.is_empty());
        let out = merge_join_cursors(SliceCursor::new(&empty), SliceCursor::new(&tids), a, a, &c)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn merge_kernel_cross_products_duplicate_groups() {
        // left: 1,2,2,3   right: 2,2,2,3 — sorted inputs.
        let (lrel, ltids) = rel_with_values("l", &[1, 2, 2, 3]);
        let (rrel, rtids) = rel_with_values("r", &[2, 2, 2, 3]);
        let la = Access {
            rel: &lrel,
            attr: 1,
        };
        let ra = Access {
            rel: &rrel,
            attr: 1,
        };
        let c = Counters::default();
        let out = merge_join_cursors(
            SliceCursor::new(&ltids),
            SliceCursor::new(&rtids),
            la,
            ra,
            &c,
        )
        .unwrap();
        // 2 left × 3 right for value 2 (6 pairs) + 1×1 for value 3.
        assert_eq!(out.len(), 7);
        let got = normalize(&out, &lrel, &rrel);
        assert_eq!(got, expected_pairs(&[1, 2, 2, 3], &[2, 2, 2, 3]));
    }

    #[test]
    fn join_side_value_access() {
        let (rel, tids) = rel_with_values("r", &[10, 20]);
        let side = JoinSide::new(&rel, 1, &tids);
        assert_eq!(side.len(), 2);
        assert!(!side.is_empty());
        assert_eq!(side.value(tids[1]).unwrap(), Value::Int(20));
    }
}
