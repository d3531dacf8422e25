//! Projection and duplicate elimination (§3.4).
//!
//! *"much of the work of the projection phase of a query is implicitly
//! done by specifying the attributes in the form of result descriptors …
//! the only step requiring any significant processing is the final
//! operation of removing duplicates."*
//!
//! Two candidate methods, both implemented here:
//! * **Hashing** \[DKO84\] — the winner: a chained table of size |R|/2,
//!   duplicates "discarded as they are encountered", so heavy duplication
//!   *speeds it up* (Graph 12);
//! * **Sort Scan** \[BBD83\] — sort compact `(order-tag, row)` pairs with
//!   the cache-conscious run sort, scan, drop adjacent equals;
//!   O(|R| log |R|) regardless of duplicates.

use crate::error::ExecError;
use mmdb_index::sort;
use mmdb_index::stats::{Counters, Snapshot};
use mmdb_storage::{value_hash, Relation, ResultDescriptor, TempList, Value};
use std::cmp::Ordering;

/// A deduplicated projection result plus its operation counters.
#[derive(Debug)]
pub struct ProjectOutput {
    /// Surviving rows (tuple pointers only — width reduction still never
    /// happens; the descriptor defines the visible fields).
    pub rows: TempList,
    /// Comparisons / hash calls performed.
    pub stats: Snapshot,
}

/// Materialize the projected field values of row `i` (borrowed) into a
/// reused scratch buffer (cleared first) — the
/// dedup loops call this once per row and once per chain visit, so the
/// buffer turns two allocations per visited row into zero.
fn row_values_into<'a>(
    list: &TempList,
    i: usize,
    desc: &ResultDescriptor,
    sources: &[&'a Relation],
    out: &mut Vec<Value<'a>>,
) -> Result<(), ExecError> {
    Ok(list.materialize_row_into(i, desc, sources, out)?)
}

fn rows_equal(a: &[Value<'_>], b: &[Value<'_>], counters: &Counters) -> bool {
    for (x, y) in a.iter().zip(b) {
        counters.comparisons(1);
        if x.total_cmp(y) != Ordering::Equal {
            return false;
        }
    }
    true
}

fn rows_cmp(a: &[Value<'_>], b: &[Value<'_>], counters: &Counters) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        counters.comparisons(1);
        let c = x.total_cmp(y);
        if c != Ordering::Equal {
            return c;
        }
    }
    Ordering::Equal
}

fn hash_row(vals: &[Value<'_>], counters: &Counters) -> u64 {
    counters.hash_calls(1);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in vals {
        h ^= value_hash(v);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Duplicate elimination by hashing \[DKO84\].
///
/// The table is sized at |R|/2 ("the hash table size was always chosen to
/// be |R|/2"). Each row's projected values are hashed; on collision the
/// values are compared; duplicates are dropped immediately, so the table
/// never holds more than the distinct rows.
pub fn project_hash(
    list: &TempList,
    desc: &ResultDescriptor,
    sources: &[&Relation],
) -> Result<ProjectOutput, ExecError> {
    project_hash_sized(list, desc, sources, (list.len() / 2).max(8))
}

/// [`project_hash`] with an explicit table size (the |R|/2 choice is
/// ablated in the benchmarks).
// mmdb-lint: allow(panic-path) — `heads[bucket]` is masked with table_size - 1 (a power of two >= 8); `kept[cur]`/`next[cur]` chain ids are only ever pushed as kept.len(), so cur != u32::MAX implies cur < kept.len() == next.len()
pub fn project_hash_sized(
    list: &TempList,
    desc: &ResultDescriptor,
    sources: &[&Relation],
    table_size: usize,
) -> Result<ProjectOutput, ExecError> {
    let counters = Counters::default();
    let n = list.len();
    let table_size = table_size.next_power_of_two().max(8);
    let mask = (table_size - 1) as u64;
    // Chains of row indices into `list`.
    let mut heads = vec![u32::MAX; table_size];
    let mut next: Vec<u32> = Vec::with_capacity(n.min(1024));
    let mut kept: Vec<u32> = Vec::with_capacity(n.min(1024));
    let mut out = TempList::with_capacity(list.arity(), n.min(1024));
    let mut vals: Vec<Value<'_>> = Vec::with_capacity(desc.width());
    let mut other: Vec<Value<'_>> = Vec::with_capacity(desc.width());
    'rows: for i in 0..n {
        row_values_into(list, i, desc, sources, &mut vals)?;
        let h = hash_row(&vals, &counters);
        let bucket = (h & mask) as usize;
        let mut cur = heads[bucket];
        while cur != u32::MAX {
            counters.node_visits(1);
            let j = kept[cur as usize] as usize;
            row_values_into(list, j, desc, sources, &mut other)?;
            if rows_equal(&vals, &other, &counters) {
                continue 'rows; // duplicate: discard as encountered
            }
            cur = next[cur as usize];
        }
        // New distinct row.
        let id = kept.len() as u32;
        kept.push(i as u32);
        next.push(heads[bucket]);
        heads[bucket] = id;
        out.push(list.row(i))?;
    }
    Ok(ProjectOutput {
        rows: out,
        stats: counters.snapshot(),
    })
}

/// Duplicate elimination by Sort Scan \[BBD83\]: sort `(tag, row)` pairs
/// with the cache-conscious run sort, then scan dropping adjacent
/// duplicates.
///
/// The projected values are materialized once into a single flat
/// row-major buffer (one allocation, not one per row) and summarized by
/// the first column's monotone order tag; the sort works over compact
/// 16-byte pairs and touches the value buffer only on tag ties. Equal
/// rows order by row index, so the surviving (first) row of each
/// duplicate group is deterministic.
// mmdb-lint: allow(panic-path) — `flat[i*w..(i+1)*w]` row slices are in bounds because flat holds exactly n*w values (w per row, appended once per row) and every row index i < n comes from `entries`, built as 0..n
pub fn project_sort(
    list: &TempList,
    desc: &ResultDescriptor,
    sources: &[&Relation],
) -> Result<ProjectOutput, ExecError> {
    let counters = Counters::default();
    let n = list.len();
    let w = desc.width();
    // Flat row-major value buffer: row i is flat[i*w .. (i+1)*w].
    let mut flat: Vec<Value<'_>> = Vec::with_capacity(n * w);
    let mut scratch: Vec<Value<'_>> = Vec::with_capacity(w);
    // The order tag is *exact* (injective and order-identical to the
    // value) for a single integer or pointer column — the common dedup
    // shape — letting the sort and the adjacent-equality scan run
    // entirely over the compact pairs, never touching the value buffer.
    let mut all_int = w == 1;
    let mut all_ptr = w == 1;
    for i in 0..n {
        row_values_into(list, i, desc, sources, &mut scratch)?;
        match scratch.first() {
            Some(Value::Int(_)) => all_ptr = false,
            Some(Value::Ptr(_)) => all_int = false,
            _ => {
                all_int = false;
                all_ptr = false;
            }
        }
        flat.append(&mut scratch);
    }
    let exact_tags = all_int || all_ptr;
    let row = |i: u32| &flat[i as usize * w..(i as usize + 1) * w];
    let mut entries: Vec<(u64, u32)> = (0..n as u32)
        .map(|i| {
            let tag = row(i).first().map_or(0, mmdb_storage::value_order_tag);
            (tag, i)
        })
        .collect();
    let run_len = crate::join::run_entries::<(u64, u32)>();
    if exact_tags {
        sort::run_sort(&mut entries, run_len, &counters, &mut |a, b| {
            a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1))
        });
    } else {
        sort::run_sort(&mut entries, run_len, &counters, &mut |a, b| {
            a.0.cmp(&b.0)
                .then_with(|| rows_cmp(row(a.1), row(b.1), &counters))
                .then_with(|| a.1.cmp(&b.1))
        });
    }
    let mut out = TempList::with_capacity(list.arity(), n.min(1024));
    let mut prev: Option<(u64, u32)> = None;
    for &(tag, i) in &entries {
        let dup = match prev {
            Some((ptag, p)) => {
                if exact_tags {
                    counters.comparisons(1);
                    ptag == tag
                } else {
                    ptag == tag && rows_equal(row(p), row(i), &counters)
                }
            }
            None => false,
        };
        if !dup {
            out.push(list.row(i as usize))?;
            prev = Some((tag, i));
        }
    }
    Ok(ProjectOutput {
        rows: out,
        stats: counters.snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_storage::{AttrType, OutputField, OwnedValue, PartitionConfig, Schema, TupleId};

    fn single_col(values: &[i64]) -> (Relation, TempList) {
        let mut r = Relation::new(
            "r",
            Schema::of(&[("val", AttrType::Int)]),
            PartitionConfig::default(),
        );
        let tids: Vec<TupleId> = values
            .iter()
            .map(|v| r.insert(&[OwnedValue::Int(*v)]).unwrap())
            .collect();
        (r, TempList::from_tids(tids))
    }

    fn desc1() -> ResultDescriptor {
        ResultDescriptor::new(vec![OutputField::new(0, 0, "val")])
    }

    fn distinct_values(rows: &TempList, rel: &Relation) -> Vec<i64> {
        let mut out: Vec<i64> = rows
            .iter()
            .map(|r| match rel.field(r[0], 0).unwrap() {
                Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn hash_dedup_removes_duplicates() {
        let (rel, list) = single_col(&[3, 1, 3, 2, 1, 1, 9]);
        let out = project_hash(&list, &desc1(), &[&rel]).unwrap();
        assert_eq!(distinct_values(&out.rows, &rel), vec![1, 2, 3, 9]);
    }

    #[test]
    fn sort_dedup_removes_duplicates() {
        let (rel, list) = single_col(&[3, 1, 3, 2, 1, 1, 9]);
        let out = project_sort(&list, &desc1(), &[&rel]).unwrap();
        assert_eq!(distinct_values(&out.rows, &rel), vec![1, 2, 3, 9]);
    }

    #[test]
    fn both_methods_agree_on_random_input() {
        let values: Vec<i64> = (0..2000).map(|i| (i * 37) % 500).collect();
        let (rel, list) = single_col(&values);
        let h = project_hash(&list, &desc1(), &[&rel]).unwrap();
        let s = project_sort(&list, &desc1(), &[&rel]).unwrap();
        assert_eq!(
            distinct_values(&h.rows, &rel),
            distinct_values(&s.rows, &rel)
        );
        assert_eq!(h.rows.len(), 500);
    }

    #[test]
    fn no_duplicates_keeps_everything() {
        let values: Vec<i64> = (0..300).collect();
        let (rel, list) = single_col(&values);
        let h = project_hash(&list, &desc1(), &[&rel]).unwrap();
        assert_eq!(h.rows.len(), 300);
        let s = project_sort(&list, &desc1(), &[&rel]).unwrap();
        assert_eq!(s.rows.len(), 300);
    }

    #[test]
    fn empty_input() {
        let (rel, list) = single_col(&[]);
        assert!(project_hash(&list, &desc1(), &[&rel])
            .unwrap()
            .rows
            .is_empty());
        assert!(project_sort(&list, &desc1(), &[&rel])
            .unwrap()
            .rows
            .is_empty());
    }

    #[test]
    fn multi_column_projection_dedup() {
        // Two-column rows: dedup on (a mod 3, b mod 2) patterns.
        let mut r = Relation::new(
            "r",
            Schema::of(&[("a", AttrType::Int), ("b", AttrType::Str)]),
            PartitionConfig::default(),
        );
        let mut tids = Vec::new();
        for i in 0..60i64 {
            tids.push(
                r.insert(&[
                    OwnedValue::Int(i % 3),
                    OwnedValue::Str(if i % 2 == 0 { "x".into() } else { "y".into() }),
                ])
                .unwrap(),
            );
        }
        let list = TempList::from_tids(tids);
        let desc = ResultDescriptor::new(vec![
            OutputField::new(0, 0, "a"),
            OutputField::new(0, 1, "b"),
        ]);
        let h = project_hash(&list, &desc, &[&r]).unwrap();
        let s = project_sort(&list, &desc, &[&r]).unwrap();
        assert_eq!(h.rows.len(), 6, "3 × 2 distinct combinations");
        assert_eq!(s.rows.len(), 6);
    }

    #[cfg(feature = "stats")]
    #[test]
    fn duplicates_speed_up_hashing_but_not_sorting() {
        // Graph 12's mechanism: with many duplicates the hash table holds
        // fewer rows (shorter chains), while the sort still sorts |R|.
        let all_dup: Vec<i64> = vec![7; 4000];
        let no_dup: Vec<i64> = (0..4000).collect();
        let (rel_d, list_d) = single_col(&all_dup);
        let (rel_u, list_u) = single_col(&no_dup);
        let h_dup = project_hash(&list_d, &desc1(), &[&rel_d]).unwrap().stats;
        let h_uni = project_hash(&list_u, &desc1(), &[&rel_u]).unwrap().stats;
        // Dedup-heavy input does ~1 comparison/row (against the single
        // kept row); unique input does ~0 (empty buckets) — both tiny.
        // The sort tells the real story:
        let s_dup = project_sort(&list_d, &desc1(), &[&rel_d]).unwrap().stats;
        assert!(
            s_dup.comparisons > h_dup.comparisons * 2,
            "sorting {} vs hashing {}",
            s_dup.comparisons,
            h_dup.comparisons
        );
        let _ = h_uni;
    }
}
