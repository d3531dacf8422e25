//! Sort Merge join (§3.3.2), cache-conscious edition.
//!
//! *"For the Sort Merge algorithm tested here, array indexes were built on
//! both relations and then sorted."* The paper sorts tuple pointers and
//! re-dereferences a tuple for every comparison; on a modern memory
//! hierarchy those derefs are the cost. This implementation instead sorts
//! compact `(order-tag, row-index)` pairs — 16 bytes each — extracted with
//! **one** dereference per tuple, using [`run_sort`]: quicksort runs sized
//! to stay L2-resident, then merge the runs through a cache-resident d-ary
//! heap (the DPG design). The monotone u64 tags decide almost every
//! comparison without touching tuple memory; only tag ties (shared 8-byte
//! string prefixes) fall back to a full value comparison.
//!
//! Cost model (§3.3.4 Test 1):
//! ≈ |R1|·log₂|R1| + |R2|·log₂|R2| + (|R1| + |R2|) — the sort dominates,
//! but each comparison is now an L1-resident integer compare, which is why
//! the re-fit planner constants weight Sort Merge's sort term below a
//! value comparison (see `plan::cost::SORT_CMP_WEIGHT`).

use super::{JoinOutput, JoinSide};
use crate::error::ExecError;
use mmdb_index::sort::run_sort;
use mmdb_index::stats::Counters;
use mmdb_storage::{value_order_tag, TempList, TupleId, Value};
use std::cmp::Ordering;

/// Bytes of one sort run. 256 KiB of `(tag, row)` pairs fits comfortably
/// in a per-core L2 slice alongside the input scan, so each quicksorted
/// run is formed without round-trips to memory.
pub(crate) const SORT_RUN_BYTES: usize = 256 * 1024;

/// Entries of type `T` per L2-resident run.
// mmdb-lint: allow(panic-path) — the divisor is size_of::<T>().max(1), never zero
pub(crate) fn run_entries<T>() -> usize {
    (SORT_RUN_BYTES / std::mem::size_of::<T>().max(1)).max(2)
}

/// One join side sorted by join value: compact `(tag, row-index)` entries
/// (the sort's working set) plus the values extracted during the single
/// tagging pass (consulted only on tag ties and for group equality).
pub(crate) struct TaggedSide<'a> {
    /// `(order tag, index into the side's tid slice)`, sorted by
    /// `(tag, value, index)`.
    pub entries: Vec<(u64, u32)>,
    /// `values[i]` is the join value of the side's `tids[i]`.
    pub values: Vec<Value<'a>>,
    /// True when the tag is *exact* for this side — injective and
    /// order-identical to the value (a homogeneous integer or pointer
    /// column) — so tag comparisons alone decide order and equality.
    pub exact_tags: bool,
}

/// Extract and sort one side. One tuple dereference per entry; the sort
/// itself runs over the compact pair array. Ties on the (monotone but
/// lossy) tag fall back to the real value, and equal values order by row
/// index, so the result is fully deterministic.
// mmdb-lint: allow(panic-path) — `vals[e.1]` indexes are the enumerate positions 0..n stored in `entries`, and `values` holds exactly n elements built in the same loop
pub(crate) fn sort_side<'a>(
    side: JoinSide<'a>,
    counters: &Counters,
) -> Result<TaggedSide<'a>, ExecError> {
    let n = side.len();
    let mut values: Vec<Value<'a>> = Vec::with_capacity(n);
    let mut entries: Vec<(u64, u32)> = Vec::with_capacity(n);
    let mut all_int = true;
    let mut all_ptr = true;
    for (i, t) in side.tids.iter().enumerate() {
        let v = side.value(*t)?;
        match v {
            Value::Int(_) => all_ptr = false,
            Value::Ptr(_) => all_int = false,
            _ => {
                all_int = false;
                all_ptr = false;
            }
        }
        entries.push((value_order_tag(&v), i as u32));
        values.push(v);
    }
    counters.data_moves(n as u64);
    let exact_tags = all_int || all_ptr;
    let run_len = run_entries::<(u64, u32)>();
    if exact_tags {
        run_sort(&mut entries, run_len, counters, &mut |a, b| {
            a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1))
        });
    } else {
        let vals = &values;
        run_sort(&mut entries, run_len, counters, &mut |a, b| {
            a.0.cmp(&b.0)
                .then_with(|| vals[a.1 as usize].total_cmp(&vals[b.1 as usize]))
                .then_with(|| a.1.cmp(&b.1))
        });
    }
    Ok(TaggedSide {
        entries,
        values,
        exact_tags,
    })
}

/// Merge two tagged sides: linear two-pointer scan, equal-value groups
/// cross-producted directly from the sorted entry arrays (no cursor
/// rewinding — the group bounds are found once and iterated in place).
// mmdb-lint: allow(panic-path) — `le[i]`/`re[j]` are guarded by the loop condition i < le.len() && j < re.len(); group ends gi/gj are bounds-checked before each extension; entry row indices were built as 0..len over the same tids/values arrays
pub(crate) fn merge_join_tagged(
    left: &TaggedSide<'_>,
    right: &TaggedSide<'_>,
    ltids: &[TupleId],
    rtids: &[TupleId],
    counters: &Counters,
) -> Result<TempList, ExecError> {
    let mut out = TempList::new(2);
    let le = &left.entries;
    let re = &right.entries;
    // With exact tags on both sides (homogeneous int/ptr join columns —
    // the common case), order and equality are decided by the u64 tags
    // alone and the merge never touches the value arrays.
    let exact = left.exact_tags && right.exact_tags;
    let (mut i, mut j) = (0usize, 0usize);
    while i < le.len() && j < re.len() {
        counters.comparisons(1);
        let ord = if exact {
            le[i].0.cmp(&re[j].0)
        } else {
            le[i].0.cmp(&re[j].0).then_with(|| {
                left.values[le[i].1 as usize].total_cmp(&right.values[re[j].1 as usize])
            })
        };
        match ord {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                // Equal values share a tag, so each group is contiguous;
                // extend both group ends by value (or exact-tag) equality.
                let tag = le[i].0;
                let mut gi = i + 1;
                while gi < le.len() {
                    counters.comparisons(1);
                    let eq = if exact {
                        le[gi].0 == tag
                    } else {
                        left.values[le[gi].1 as usize].total_cmp(&left.values[le[i].1 as usize])
                            == Ordering::Equal
                    };
                    if !eq {
                        break;
                    }
                    gi += 1;
                }
                let mut gj = j + 1;
                while gj < re.len() {
                    counters.comparisons(1);
                    let eq = if exact {
                        re[gj].0 == tag
                    } else {
                        right.values[re[gj].1 as usize].total_cmp(&right.values[re[j].1 as usize])
                            == Ordering::Equal
                    };
                    if !eq {
                        break;
                    }
                    gj += 1;
                }
                for l in &le[i..gi] {
                    for r in &re[j..gj] {
                        out.push_pair(ltids[l.1 as usize], rtids[r.1 as usize])?;
                    }
                }
                i = gi;
                j = gj;
            }
        }
    }
    Ok(out)
}

/// Join by tag-sorting both sides and merging the sorted entry arrays.
/// Build + sort costs are included in the returned stats (the paper always
/// charges them for Sort Merge).
pub fn sort_merge_join(outer: JoinSide<'_>, inner: JoinSide<'_>) -> Result<JoinOutput, ExecError> {
    let counters = Counters::default();
    let o = sort_side(outer, &counters)?;
    let i = sort_side(inner, &counters)?;
    let pairs = merge_join_tagged(&o, &i, outer.tids, inner.tids, &counters)?;
    Ok(JoinOutput {
        pairs,
        stats: counters.snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::*;

    #[test]
    fn matches_reference() {
        let ov = random_values(350, 70, 10);
        let iv = random_values(250, 70, 11);
        let (orel, otids) = rel_with_values("o", &ov);
        let (irel, itids) = rel_with_values("i", &iv);
        let out = sort_merge_join(
            JoinSide::new(&orel, 1, &otids),
            JoinSide::new(&irel, 1, &itids),
        )
        .unwrap();
        assert_eq!(
            normalize(&out.pairs, &orel, &irel),
            expected_pairs(&ov, &iv)
        );
    }

    #[test]
    fn empty_sides() {
        let (rel, tids) = rel_with_values("r", &[1, 2, 3]);
        let empty: Vec<mmdb_storage::TupleId> = vec![];
        assert!(sort_merge_join(
            JoinSide::new(&rel, 1, &empty),
            JoinSide::new(&rel, 1, &tids)
        )
        .unwrap()
        .is_empty());
    }

    #[test]
    fn heavy_duplication_full_cross_product() {
        // 100 × 100 identical keys → 10,000 output pairs.
        let ov = vec![42i64; 100];
        let iv = vec![42i64; 100];
        let (orel, otids) = rel_with_values("o", &ov);
        let (irel, itids) = rel_with_values("i", &iv);
        let out = sort_merge_join(
            JoinSide::new(&orel, 1, &otids),
            JoinSide::new(&irel, 1, &itids),
        )
        .unwrap();
        assert_eq!(out.len(), 10_000);
    }

    #[test]
    fn string_keys_with_shared_prefixes_resolve_tag_ties() {
        // All keys share an 8-byte prefix, so every tag collides and the
        // sort + merge must fall back to full string comparison.
        use mmdb_storage::{AttrType, OwnedValue, PartitionConfig, Relation, Schema};
        let mk = |name: &str, suffixes: &[&str]| {
            let schema = Schema::of(&[("pk", AttrType::Int), ("s", AttrType::Str)]);
            let mut rel = Relation::new(name, schema, PartitionConfig::default());
            let tids: Vec<_> = suffixes
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    rel.insert(&[
                        OwnedValue::Int(i as i64),
                        OwnedValue::Str(format!("prefix00{s}")),
                    ])
                    .unwrap()
                })
                .collect();
            (rel, tids)
        };
        let (orel, otids) = mk("o", &["b", "a", "c", "a", ""]);
        let (irel, itids) = mk("i", &["a", "c", "c", "z", ""]);
        let out = sort_merge_join(
            JoinSide::new(&orel, 1, &otids),
            JoinSide::new(&irel, 1, &itids),
        )
        .unwrap();
        // o values: b a c a ""  /  i values: a c c z ""
        // matches: o1-i0, o3-i0, o2-i1, o2-i2, o4-i4 → 5 pairs.
        assert_eq!(out.len(), 5);
        let got = normalize(&out.pairs, &orel, &irel);
        assert_eq!(got, vec![(1, 0), (2, 1), (2, 2), (3, 0), (4, 4)]);
    }

    #[test]
    fn output_is_deterministic_and_index_ordered_within_groups() {
        // Equal keys must pair in row order on both sides regardless of
        // how the unstable per-run quicksort permuted them.
        let ov = vec![7i64, 7, 7];
        let iv = vec![7i64, 7];
        let (orel, otids) = rel_with_values("o", &ov);
        let (irel, itids) = rel_with_values("i", &iv);
        let out = sort_merge_join(
            JoinSide::new(&orel, 1, &otids),
            JoinSide::new(&irel, 1, &itids),
        )
        .unwrap();
        let rows: Vec<Vec<mmdb_storage::TupleId>> = out.pairs.iter().map(|r| r.to_vec()).collect();
        let mut expect = Vec::new();
        for o in &otids {
            for i in &itids {
                expect.push(vec![*o, *i]);
            }
        }
        assert_eq!(rows, expect);
    }

    #[cfg(feature = "stats")]
    #[test]
    fn sort_cost_dominates_on_key_joins() {
        // §3.3.4 Test 1: Sort Merge pays ~n log n in the builds.
        let n = 4096usize;
        let ov: Vec<i64> = (0..n as i64).rev().collect();
        let iv: Vec<i64> = (0..n as i64).collect();
        let (orel, otids) = rel_with_values("o", &ov);
        let (irel, itids) = rel_with_values("i", &iv);
        let out = sort_merge_join(
            JoinSide::new(&orel, 1, &otids),
            JoinSide::new(&irel, 1, &itids),
        )
        .unwrap();
        let nlogn = 2.0 * (n as f64) * (n as f64).log2();
        let c = out.stats.comparisons as f64;
        assert!(c > nlogn * 0.5, "comparisons {c} vs 2nlogn {nlogn}");
    }
}
