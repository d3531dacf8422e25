//! §3.3.5's untested claim, tested: *"Intuitively, [the precomputed join]
//! would beat each of the join methods in every case, because the joining
//! tuples have already been paired."*
//!
//! We build the paper's §2.1 Employee⋈Department scenario twice over —
//! once joining on a stored `dept_id` integer with every conventional
//! method, once following the foreign-key tuple pointer — and time all
//! five.

use crate::figure::{fmt_secs, Figure, Scale};
use crate::time_best;
use mmdb_exec::{
    hash_join, precomputed_join, sort_merge_join, tree_join, tree_merge_join, JoinSide,
};
use mmdb_index::traits::OrderedIndex;
use mmdb_index::{TTree, TTreeConfig};
use mmdb_storage::{AttrAdapter, AttrType, OwnedValue, PartitionConfig, Relation, Schema, TupleId};

/// Build the scenario: `dept(name, id)` with `n/10` rows and
/// `emp(name, dept_id, dept_ptr)` with `n` rows.
fn build(n: usize) -> (Relation, Vec<TupleId>, Relation, Vec<TupleId>) {
    let mut dept = Relation::new(
        "dept",
        Schema::of(&[("name", AttrType::Str), ("id", AttrType::Int)]),
        PartitionConfig::default(),
    );
    let n_dept = (n / 10).max(1);
    let dtids: Vec<TupleId> = (0..n_dept)
        .map(|i| {
            dept.insert(&[
                OwnedValue::Str(format!("dept{i}")),
                OwnedValue::Int(i as i64),
            ])
            .unwrap()
        })
        .collect();
    let mut emp = Relation::new(
        "emp",
        Schema::of(&[
            ("name", AttrType::Str),
            ("dept_id", AttrType::Int),
            ("dept_ptr", AttrType::Ptr),
        ]),
        PartitionConfig::default(),
    );
    let etids: Vec<TupleId> = (0..n)
        .map(|i| {
            let d = i % n_dept;
            emp.insert(&[
                OwnedValue::Str(format!("emp{i}")),
                OwnedValue::Int(d as i64),
                OwnedValue::Ptr(Some(dtids[d])),
            ])
            .unwrap()
        })
        .collect();
    (dept, dtids, emp, etids)
}

/// Run the comparison.
#[must_use]
pub fn run(scale: Scale) -> Figure {
    let n = scale.apply(30_000, 500);
    let (dept, dtids, emp, etids) = build(n);
    let outer = JoinSide::new(&emp, 1, &etids); // join on dept_id
    let inner = JoinSide::new(&dept, 1, &dtids);
    let ptr_side = JoinSide::new(&emp, 2, &etids); // the FK pointer

    let mut e_idx = TTree::new(AttrAdapter::new(1), TTreeConfig::with_node_size(30));
    for t in &etids {
        e_idx.insert(&emp, *t);
    }
    let mut d_idx = TTree::new(AttrAdapter::new(1), TTreeConfig::with_node_size(30));
    for t in &dtids {
        d_idx.insert(&dept, *t);
    }

    let (pc, pc_secs) = time_best(3, || precomputed_join(ptr_side).expect("precomputed"));
    let (hj, hj_secs) = time_best(3, || hash_join(outer, inner).expect("hash"));
    let (tj, tj_secs) = time_best(3, || tree_join(outer, &dept, &d_idx).expect("tree"));
    let (sm, sm_secs) = time_best(3, || sort_merge_join(outer, inner).expect("sort merge"));
    let (tm, tm_secs) = time_best(3, || {
        tree_merge_join(&emp, 1, &e_idx, &dept, 1, &d_idx).expect("tree merge")
    });
    assert_eq!(pc.len(), hj.len());
    assert_eq!(pc.len(), tj.len());
    assert_eq!(pc.len(), sm.len());
    assert_eq!(pc.len(), tm.len());

    let mut fig = Figure::new(
        "precomputed",
        &format!(
            "Precomputed join vs every method (|emp| = {n}, |dept| = {})",
            n / 10
        ),
        &["method", "seconds", "output_rows"],
    );
    for (name, secs) in [
        ("Precomputed (FK pointer)", pc_secs),
        ("Tree Merge", tm_secs),
        ("Hash Join", hj_secs),
        ("Tree Join", tj_secs),
        ("Sort Merge", sm_secs),
    ] {
        fig.push_row(vec![name.to_string(), fmt_secs(secs), pc.len().to_string()]);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Timing-shape assertion — meaningful only with optimized code.
    #[cfg(not(debug_assertions))]
    #[test]
    fn precomputed_beats_every_method() {
        let fig = run(Scale(0.2));
        let pre = fig.cell_f64(0, 1);
        for row in 1..fig.rows.len() {
            let other = fig.cell_f64(row, 1);
            assert!(
                pre < other,
                "precomputed ({pre}) must beat {} ({other})",
                fig.rows[row][0]
            );
        }
    }

    #[test]
    fn all_methods_agree_on_output() {
        let fig = run(Scale(0.05));
        let rows0 = &fig.rows[0][2];
        for row in &fig.rows {
            assert_eq!(&row[2], rows0);
        }
    }
}
