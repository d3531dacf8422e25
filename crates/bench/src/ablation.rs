//! Ablations of the design choices DESIGN.md §5 calls out:
//!
//! 1. T-Tree min/max occupancy slack (§3.2.1's "one or two items").
//! 2. The quicksort→insertion-sort cutoff (footnote 6's tuned value, 10).
//! 3. The |R|/2 dedup hash-table size \[DKO84\].
//!
//! §2.2's pointers-instead-of-values indexing is not swept here: the
//! kernel baseline's `index_search/T Tree` (inline `u64` keys) and
//! `ttree_attr_search/int/*` (tuple-pointer entries) already measure it
//! at the same cardinality and node size.

use crate::figure::{fmt_secs, Figure, Scale};
use crate::indexes::shuffled_keys;
use crate::time_best;
use mmdb_exec::project_hash_sized;
use mmdb_index::adapter::NaturalAdapter;
use mmdb_index::sort::quicksort_with_cutoff;
use mmdb_index::stats::Counters;
use mmdb_index::traits::OrderedIndex;
use mmdb_index::{TTree, TTreeConfig};
use mmdb_storage::{OutputField, ResultDescriptor, TempList};
use mmdb_workload::{build_single_column, RelationSpec};

/// Run all three ablations.
#[must_use]
pub fn run(scale: Scale) -> Vec<Figure> {
    vec![ttree_slack(scale), sort_cutoff(scale), dedup_divisor(scale)]
}

/// Insert n keys into a node-size-20 T-Tree, then run n churn operations
/// alternating a delete of a stored key with an insert of a fresh one,
/// for each `max_count - min_count` slack.
fn ttree_slack(scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "ablation_ttree_slack",
        "T-Tree occupancy slack (x = max - min count; n inserts, then n alternating deletes and fresh inserts)",
        &["x", "secs", "rotations"],
    );
    let n = scale.apply(20_000, 200);
    let keys = shuffled_keys(n, 1);
    let ops = shuffled_keys(n, 2);
    for slack in [0usize, 1, 2, 4, 8] {
        let (rotations, secs) = time_best(3, || {
            let mut t = TTree::new(
                NaturalAdapter::<u64>::new(),
                TTreeConfig {
                    max_count: 20,
                    slack,
                },
            );
            for k in &keys {
                t.insert(*k);
            }
            for pair in ops.chunks_exact(2) {
                t.delete(&pair[0]);
                t.insert(pair[1] + n as u64);
            }
            assert_eq!(t.len(), n);
            t.stats().rotations
        });
        fig.push_row(vec![
            slack.to_string(),
            fmt_secs(secs),
            rotations.to_string(),
        ]);
    }
    fig
}

/// Sort n shuffled keys with each quicksort→insertion-sort cutoff
/// (footnote 6's tuning experiment).
fn sort_cutoff(scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "ablation_sort_cutoff",
        "Quicksort insertion-sort cutoff (x = cutoff; sort of n shuffled u64 keys)",
        &["x", "secs", "comparisons"],
    );
    let data = shuffled_keys(scale.apply(50_000, 500), 3);
    for cutoff in [0usize, 2, 5, 10, 20, 50] {
        let (comparisons, secs) = time_best(3, || {
            let mut v = data.clone();
            let stats = Counters::default();
            quicksort_with_cutoff(&mut v, cutoff, &stats, &mut |a, b| a.cmp(b));
            assert!(v.windows(2).all(|w| w[0] <= w[1]));
            stats.snapshot().comparisons
        });
        fig.push_row(vec![
            cutoff.to_string(),
            fmt_secs(secs),
            comparisons.to_string(),
        ]);
    }
    fig
}

/// Hash duplicate elimination over n tuples (30% duplicates) with the
/// table sized |R| / divisor; the paper fixed the divisor at 2.
fn dedup_divisor(scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "ablation_dedup_divisor",
        "Dedup hash-table size (x = divisor of |R|; 30% duplicates)",
        &["x", "secs", "comparisons", "distinct_rows"],
    );
    let n = scale.apply(20_000, 200);
    let (rel, tids) = build_single_column(
        "p",
        &RelationSpec {
            cardinality: n,
            duplicate_pct: 30.0,
            sigma: 0.8,
            seed: 4,
        },
    );
    let list = TempList::from_tids(tids);
    let desc = ResultDescriptor::new(vec![OutputField::new(0, 0, "val")]);
    for divisor in [1usize, 2, 4, 8, 16] {
        let (out, secs) = time_best(3, || {
            project_hash_sized(&list, &desc, &[&rel], n / divisor).expect("dedup")
        });
        fig.push_row(vec![
            divisor.to_string(),
            fmt_secs(secs),
            out.stats.comparisons.to_string(),
            out.rows.len().to_string(),
        ]);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_sweeps_with_consistent_counters() {
        let figs = run(Scale(0.05));
        let ids: Vec<&str> = figs.iter().map(|f| f.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "ablation_ttree_slack",
                "ablation_sort_cutoff",
                "ablation_dedup_divisor"
            ]
        );
        let (slack, cutoff, dedup) = (&figs[0], &figs[1], &figs[2]);
        assert_eq!(slack.rows.len(), 5);
        assert_eq!(cutoff.rows.len(), 6);
        assert_eq!(dedup.rows.len(), 5);

        // Slack is what spares rotations (§3.2.1).
        let rot = slack.col("rotations");
        let first = slack.cell_f64(0, rot);
        let last = slack.cell_f64(slack.rows.len() - 1, rot);
        assert!(first > 0.0);
        assert!(
            last < first,
            "slack 8 rotated {last} times, slack 0 {first}"
        );

        // Every table size finds the same distinct rows; the smallest
        // table's longer chains cost the most comparisons.
        let distinct = dedup.col("distinct_rows");
        assert!(dedup
            .rows
            .iter()
            .all(|r| r[distinct] == dedup.rows[0][distinct]));
        let cmp = dedup.col("comparisons");
        assert!(dedup.cell_f64(dedup.rows.len() - 1, cmp) > dedup.cell_f64(0, cmp));
    }
}
