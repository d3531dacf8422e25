//! Graphs 4–9 — the six join tests of §3.3.3.
//!
//! Every test times the four practical methods under the paper's
//! accounting rules:
//! * **Hash Join** — *includes* building the chained-bucket table on the
//!   inner relation;
//! * **Tree Join** — probes a pre-existing T-Tree (build untimed);
//! * **Sort Merge** — *includes* building and sorting both array indexes;
//! * **Tree Merge** — merges two pre-existing T-Trees (builds untimed).

use crate::figure::{fmt_secs, Figure, Scale};
use crate::time_best;
use mmdb_exec::{hash_join, sort_merge_join, tree_join, tree_merge_join, JoinSide};
use mmdb_index::traits::OrderedIndex;
use mmdb_index::{TTree, TTreeConfig};
use mmdb_storage::AttrAdapter;
use mmdb_workload::relations::build_matching_relation;
use mmdb_workload::{build_join_relation, JoinRelation, RelationSpec};

/// Timed results for one relation composition.
#[derive(Debug, Clone, Copy)]
pub struct MethodTimes {
    /// Hash Join seconds (build + probe).
    pub hash: f64,
    /// Tree Join seconds (probe only).
    pub tree: f64,
    /// Sort Merge seconds (build + sort + merge).
    pub sort: f64,
    /// Tree Merge seconds (merge only).
    pub merge: f64,
    /// Result rows produced (all methods must agree).
    pub rows: usize,
}

/// T-Tree node size used for the join experiments' indices.
const JOIN_NODE_SIZE: usize = 30;

/// Time all four methods over `outer ⋈ inner` on their `jcol` columns.
#[must_use]
pub fn time_methods(outer: &JoinRelation, inner: &JoinRelation) -> MethodTimes {
    let o = JoinSide::new(&outer.relation, JoinRelation::JCOL, &outer.tids);
    let i = JoinSide::new(&inner.relation, JoinRelation::JCOL, &inner.tids);

    // Pre-existing indices (builds untimed, per the paper).
    let mut oidx = TTree::new(
        AttrAdapter::new(JoinRelation::JCOL),
        TTreeConfig::with_node_size(JOIN_NODE_SIZE),
    );
    for t in &outer.tids {
        oidx.insert(&outer.relation, *t);
    }
    let mut iidx = TTree::new(
        AttrAdapter::new(JoinRelation::JCOL),
        TTreeConfig::with_node_size(JOIN_NODE_SIZE),
    );
    for t in &inner.tids {
        iidx.insert(&inner.relation, *t);
    }

    // Best of 2 runs per method (sub-50ms cells are scheduler-noisy).
    let (hj, hash) = time_best(2, || hash_join(o, i).expect("hash join"));
    let (tj, tree) = time_best(2, || {
        tree_join(o, &inner.relation, &iidx).expect("tree join")
    });
    let (sj, sort) = time_best(2, || sort_merge_join(o, i).expect("sort merge"));
    let (mj, merge) = time_best(2, || {
        tree_merge_join(
            &outer.relation,
            JoinRelation::JCOL,
            &oidx,
            &inner.relation,
            JoinRelation::JCOL,
            &iidx,
        )
        .expect("tree merge")
    });
    assert_eq!(hj.len(), tj.len(), "hash vs tree join row counts");
    assert_eq!(hj.len(), sj.len(), "hash vs sort merge row counts");
    assert_eq!(hj.len(), mj.len(), "hash vs tree merge row counts");
    MethodTimes {
        hash,
        tree,
        sort,
        merge,
        rows: hj.len(),
    }
}

fn push_times(fig: &mut Figure, x: String, t: MethodTimes) {
    fig.push_row(vec![
        x,
        fmt_secs(t.hash),
        fmt_secs(t.tree),
        fmt_secs(t.sort),
        fmt_secs(t.merge),
        t.rows.to_string(),
    ]);
}

const COLS: &[&str] = &[
    "x",
    "Hash Join",
    "Tree Join",
    "Sort Merge",
    "Tree Merge",
    "output_rows",
];

/// Graph 4 — Join Test 1: vary cardinality, |R1| = |R2|, unique keys,
/// 100% semijoin selectivity.
#[must_use]
pub fn graph4(scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "graph4",
        "Join Test 1 — Vary Cardinality (|R1| = |R2|, x = tuples)",
        COLS,
    );
    for frac in [0.25, 0.5, 0.75, 1.0] {
        let n = scale.apply((30_000.0 * frac) as usize, 200);
        let outer = build_join_relation("r1", &RelationSpec::unique(n, 41));
        let inner = build_matching_relation("r2", &RelationSpec::unique(n, 42), &outer, 100.0);
        let t = time_methods(&outer, &inner);
        push_times(&mut fig, n.to_string(), t);
    }
    fig
}

/// Graph 5 — Join Test 2: vary inner cardinality |R2| = 1–100% of |R1|.
#[must_use]
pub fn graph5(scale: Scale) -> Figure {
    let n1 = scale.apply(30_000, 400);
    let mut fig = Figure::new(
        "graph5",
        &format!("Join Test 2 — Vary Inner Cardinality (|R1| = {n1}, x = |R2| % of |R1|)"),
        COLS,
    );
    let outer = build_join_relation("r1", &RelationSpec::unique(n1, 51));
    for pct in [1.0, 25.0, 50.0, 75.0, 100.0] {
        let n2 = ((n1 as f64 * pct / 100.0) as usize).max(10);
        let inner = build_matching_relation("r2", &RelationSpec::unique(n2, 52), &outer, 100.0);
        let t = time_methods(&outer, &inner);
        push_times(&mut fig, format!("{pct:.0}"), t);
    }
    fig
}

/// Graph 6 — Join Test 3: vary outer cardinality |R1| = 1–100% of |R2|.
#[must_use]
pub fn graph6(scale: Scale) -> Figure {
    let n2 = scale.apply(30_000, 400);
    let mut fig = Figure::new(
        "graph6",
        &format!("Join Test 3 — Vary Outer Cardinality (|R2| = {n2}, x = |R1| % of |R2|)"),
        COLS,
    );
    let inner = build_join_relation("r2", &RelationSpec::unique(n2, 61));
    for pct in [1.0, 25.0, 50.0, 75.0, 100.0] {
        let n1 = ((n2 as f64 * pct / 100.0) as usize).max(10);
        let outer = build_matching_relation("r1", &RelationSpec::unique(n1, 62), &inner, 100.0);
        let t = time_methods(&outer, &inner);
        push_times(&mut fig, format!("{pct:.0}"), t);
    }
    fig
}

/// How R2 relates to R1 in the duplicate sweeps. The paper's skewed test
/// drew R2's values from R1's *tuples* (correlated skew, inflating the
/// output — its Graph 7 reaches thousands of seconds); the uniform test
/// used "a uniform distribution of R1 values" (decorrelated).
#[derive(Clone, Copy)]
enum InnerConstruction {
    Correlated,
    Uniform,
}

fn vary_duplicates(
    id: &str,
    title: &str,
    sigma: f64,
    construction: InnerConstruction,
    scale: Scale,
) -> Figure {
    let n = scale.apply(20_000, 400);
    let mut fig = Figure::new(id, title, COLS);
    for dup in [0.0, 25.0, 50.0, 75.0, 90.0] {
        let outer = build_join_relation(
            "r1",
            &RelationSpec {
                cardinality: n,
                duplicate_pct: dup,
                sigma,
                seed: 71,
            },
        );
        let inner = match construction {
            InnerConstruction::Correlated => {
                mmdb_workload::build_correlated_relation("r2", n, &outer, 72)
            }
            InnerConstruction::Uniform => build_matching_relation(
                "r2",
                &RelationSpec {
                    cardinality: n,
                    duplicate_pct: dup,
                    sigma,
                    seed: 72,
                },
                &outer,
                100.0,
            ),
        };
        let t = time_methods(&outer, &inner);
        push_times(&mut fig, format!("{dup:.0}"), t);
    }
    fig
}

/// Graph 7 — Join Test 4: vary duplicate percentage, skewed (σ = 0.1).
#[must_use]
pub fn graph7(scale: Scale) -> Figure {
    vary_duplicates(
        "graph7",
        "Join Test 4 — Vary Duplicates, Skewed σ=0.1, correlated R2 (x = dup %, |R|=20k)",
        0.1,
        InnerConstruction::Correlated,
        scale,
    )
}

/// Graph 8 — Join Test 5: vary duplicate percentage, uniform (σ = 0.8).
#[must_use]
pub fn graph8(scale: Scale) -> Figure {
    vary_duplicates(
        "graph8",
        "Join Test 5 — Vary Duplicates, Uniform σ=0.8 (x = dup %, |R|=20k)",
        0.8,
        InnerConstruction::Uniform,
        scale,
    )
}

/// Graph 9 — Join Test 6: vary semijoin selectivity (|R|=30k, 50%
/// duplicates, uniform distribution).
#[must_use]
pub fn graph9(scale: Scale) -> Figure {
    let n = scale.apply(30_000, 400);
    let mut fig = Figure::new(
        "graph9",
        &format!("Join Test 6 — Vary Semijoin Selectivity (|R| = {n}, 50% dup, x = % matching)"),
        COLS,
    );
    let outer = build_join_relation(
        "r1",
        &RelationSpec {
            cardinality: n,
            duplicate_pct: 50.0,
            sigma: 0.8,
            seed: 91,
        },
    );
    for sel in [1.0, 25.0, 50.0, 75.0, 100.0] {
        let inner = build_matching_relation(
            "r2",
            &RelationSpec {
                cardinality: n,
                duplicate_pct: 50.0,
                sigma: 0.8,
                seed: 92,
            },
            &outer,
            sel,
        );
        let t = time_methods(&outer, &inner);
        push_times(&mut fig, format!("{sel:.0}"), t);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph4_smoke_and_method_agreement() {
        // `time_methods` asserts all four methods return identical row
        // counts; the unique-key 100%-selectivity join must return |R|.
        let fig = graph4(Scale(0.02));
        assert_eq!(fig.rows.len(), 4);
        let n: f64 = fig.rows[3][0].parse().unwrap();
        assert_eq!(fig.cell_f64(3, fig.col("output_rows")), n);
    }

    /// Timing-shape assertion — meaningful only with optimized code.
    #[cfg(not(debug_assertions))]
    #[test]
    fn graph6_small_outer_favours_tree_join() {
        let fig = graph6(Scale(0.2)); // |R2| = 6000
                                      // First row: |R1| = 1% of |R2|.
        let tree = fig.cell_f64(0, fig.col("Tree Join"));
        let hash = fig.cell_f64(0, fig.col("Hash Join"));
        assert!(
            tree < hash,
            "tiny outer: tree join {tree} should beat hash join {hash} (which must build the table)"
        );
    }

    #[test]
    fn graph7_duplicates_grow_output() {
        let fig = graph7(Scale(0.05));
        let first = fig.cell_f64(0, fig.col("output_rows"));
        let last = fig.cell_f64(fig.rows.len() - 1, fig.col("output_rows"));
        assert!(
            last > first * 3.0,
            "skewed duplicates should inflate output: {first} → {last}"
        );
    }

    #[test]
    fn graph9_selectivity_grows_output() {
        let fig = graph9(Scale(0.05));
        let lo = fig.cell_f64(0, fig.col("output_rows"));
        let hi = fig.cell_f64(fig.rows.len() - 1, fig.col("output_rows"));
        assert!(hi > lo * 10.0, "selectivity sweep: {lo} → {hi}");
    }
}
