//! The planner's cost vocabulary (§4 and §3.3.4): which access paths and
//! join methods exist, and what each costs in comparisons.
//!
//! The paper's conclusion: *"query optimization in MM-DBMS should be
//! simpler than in conventional database systems, as the cost formulas
//! are less complicated … there is a more definite ordering of
//! preference: a hash lookup (exact match only) is always faster than a
//! tree lookup which is always faster than a sequential scan; a
//! precomputed join is always faster than the other join methods; and a
//! Tree Merge join is nearly always preferred when the T Tree indices
//! already exist."*
//!
//! Selection follows that order directly ([`choose_select_path`]). Join
//! methods are chosen by the planner as the cost minimum of
//! [`estimated_comparisons`] over the feasible methods; this module holds
//! the only copy of those formulas. §3.3.5's second exception (Sort Merge
//! for joins whose duplicate percentage and semijoin selectivity are both
//! high) is not implemented: the catalog keeps no duplicate or semijoin
//! statistics that could trigger it.

/// What indices exist on a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexAvailability {
    /// A T-Tree (order-preserving) index already exists.
    pub ttree: bool,
    /// A hash index already exists.
    pub hash: bool,
}

impl IndexAvailability {
    /// No indices at all.
    #[must_use]
    pub fn none() -> Self {
        IndexAvailability {
            ttree: false,
            hash: false,
        }
    }
}

/// Selection access paths, in the §4 preference order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectPath {
    /// Hash lookup (exact match only) — always fastest.
    HashLookup,
    /// Tree lookup — point or range.
    TreeLookup,
    /// Sequential scan through an unrelated index.
    SequentialScan,
}

/// Pick the access path for a selection.
///
/// `exact_match` is true for equality predicates; range predicates can
/// never use a hash index.
#[must_use]
pub fn choose_select_path(avail: IndexAvailability, exact_match: bool) -> SelectPath {
    if exact_match && avail.hash {
        SelectPath::HashLookup
    } else if avail.ttree {
        SelectPath::TreeLookup
    } else {
        SelectPath::SequentialScan
    }
}

/// Join methods (§3.3.2 + §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinMethod {
    /// Follow foreign-key tuple pointers (§2.1).
    Precomputed,
    /// Merge two existing T-Trees.
    TreeMerge,
    /// Probe an existing T-Tree on the inner relation.
    TreeJoin,
    /// Build a chained-bucket table on the inner relation and probe it.
    HashJoin,
    /// Build and sort array indexes on both sides, then merge.
    SortMerge,
    /// O(N²) scan — never chosen, present for completeness.
    NestedLoops,
}

/// The fixed hash-probe cost `k` of §3.3.4 Test 1 ("much smaller than
/// log₂(|R2|) but larger than 2"), in comparison units.
pub const HASH_PROBE_COST: f64 = 3.0;

/// Weight of one Sort Merge *sort* comparison relative to the generic
/// comparison unit the other formulas count in.
///
/// The paper's §3.3.4 formula charges the sort's `n·log₂ n` at full
/// price because its Sort Merge sorts tuple pointers and dereferences a
/// tuple per comparison. The cache-conscious kernel sorts compact
/// `(u64 tag, row)` pairs in L2-sized runs instead, so a sort comparison
/// is an L1-resident integer compare while Tree Join and Hash Join
/// comparisons still chase tuple pointers. Re-fit against the measured
/// quick-mode kernels at 4k×4k (`BENCH_baseline.json`):
/// sort_merge/hash_join ≈ 2.3×, and sort_merge now runs *faster* than
/// tree_join. With this weight the model gives SortMerge ≈ 11.6 units/row
/// vs HashJoin 5 and TreeJoin 13 at 4k — both ratios in line with the
/// measurements (the paper's full-price model had SortMerge at 2×
/// TreeJoin, inverting the real ordering).
pub const SORT_CMP_WEIGHT: f64 = 0.4;

/// `log₂ x`, floored at one comparison.
pub(crate) fn lg(x: f64) -> f64 {
    if x > 1.0 {
        x.log2()
    } else {
        1.0
    }
}

/// §3.3.4's comparison-count estimate for joining `outer_card` outer
/// tuples to `inner_card` inner tuples with `method` (build costs
/// included where the paper charges them). `inner_hash` says a hash index
/// already exists on the inner join column, which spares Hash Join its
/// build.
#[must_use]
pub fn estimated_comparisons(
    method: JoinMethod,
    outer_card: usize,
    inner_card: usize,
    inner_hash: bool,
) -> f64 {
    let r1 = outer_card as f64;
    let r2 = inner_card as f64;
    match method {
        JoinMethod::Precomputed => r1,
        JoinMethod::TreeMerge => r1 + 2.0 * r2,
        JoinMethod::TreeJoin => r1 + r1 * lg(r2),
        JoinMethod::HashJoin => {
            // Probe cost |R1|·k plus the build (hash one entry per
            // inner tuple) unless a hash index already exists.
            let build = if inner_hash { 0.0 } else { r2 };
            r1 + r1 * HASH_PROBE_COST + build
        }
        JoinMethod::SortMerge => {
            // Tag-pair run sort: the n·log n comparisons are cheap
            // integer compares (see [`SORT_CMP_WEIGHT`]); the final
            // merge still walks both inputs at full price.
            SORT_CMP_WEIGHT * (r1 * lg(r1) + r2 * lg(r2)) + r1 + r2
        }
        JoinMethod::NestedLoops => r1 * r2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(method: JoinMethod, outer_card: usize, inner_card: usize) -> f64 {
        estimated_comparisons(method, outer_card, inner_card, false)
    }

    #[test]
    fn select_path_preference_order() {
        let all = IndexAvailability {
            ttree: true,
            hash: true,
        };
        let ttree_only = IndexAvailability {
            ttree: true,
            hash: false,
        };
        assert_eq!(choose_select_path(all, true), SelectPath::HashLookup);
        // Hash indices cannot serve range predicates.
        assert_eq!(choose_select_path(all, false), SelectPath::TreeLookup);
        assert_eq!(choose_select_path(ttree_only, true), SelectPath::TreeLookup);
        assert_eq!(
            choose_select_path(IndexAvailability::none(), true),
            SelectPath::SequentialScan
        );
    }

    #[test]
    fn formula_values() {
        // One hand-computed value per method at |R1| = 1,024, |R2| = 4,096
        // (lg = 10 and 12).
        assert_eq!(cost(JoinMethod::Precomputed, 1_024, 4_096), 1_024.0);
        assert_eq!(cost(JoinMethod::TreeMerge, 1_024, 4_096), 9_216.0);
        assert_eq!(cost(JoinMethod::TreeJoin, 1_024, 4_096), 13_312.0);
        assert_eq!(cost(JoinMethod::HashJoin, 1_024, 4_096), 8_192.0);
        assert_eq!(
            cost(JoinMethod::SortMerge, 1_024, 4_096),
            SORT_CMP_WEIGHT * 59_392.0 + 5_120.0
        );
        assert_eq!(cost(JoinMethod::NestedLoops, 1_024, 4_096), 4_194_304.0);
        // An existing hash index removes exactly the build term.
        assert_eq!(
            estimated_comparisons(JoinMethod::HashJoin, 1_024, 4_096, true),
            4_096.0
        );
    }

    #[test]
    fn cost_formulas_reproduce_test1_ordering() {
        // Graph 4's ordering at |R1| = |R2| = 30k, with one deliberate
        // departure: the cache-conscious tag sort moves Sort Merge below
        // Tree Join (the paper's pointer-sorting Sort Merge was the
        // slowest fair method; ours measures faster than Tree Join, and
        // the re-fit [`SORT_CMP_WEIGHT`] model agrees):
        // TreeMerge < HashJoin < SortMerge < TreeJoin ≪ NestedLoops.
        let tm = cost(JoinMethod::TreeMerge, 30_000, 30_000);
        let hj = cost(JoinMethod::HashJoin, 30_000, 30_000);
        let tj = cost(JoinMethod::TreeJoin, 30_000, 30_000);
        let sm = cost(JoinMethod::SortMerge, 30_000, 30_000);
        let nl = cost(JoinMethod::NestedLoops, 30_000, 30_000);
        assert!(tm < hj, "{tm} < {hj}");
        assert!(hj < sm, "{hj} < {sm}");
        assert!(sm < tj, "{sm} < {tj}");
        assert!(tj < nl / 100.0, "{tj} ≪ {nl}");
    }

    #[test]
    fn refit_sort_merge_tracks_measured_kernel_ratios() {
        // The quick-mode bench at 4k×4k measures sort_merge ≈ 1.9–2.7×
        // hash_join; the re-fit model must land in that band (the paper's
        // full-price sort term put it at 5.2×).
        let ratio =
            cost(JoinMethod::SortMerge, 4_096, 4_096) / cost(JoinMethod::HashJoin, 4_096, 4_096);
        assert!(
            (1.5..=3.0).contains(&ratio),
            "sort_merge/hash_join model ratio {ratio}"
        );
    }

    #[test]
    fn test3_crossover_tree_join_vs_hash_join_costs() {
        // Graph 6's shape: for small |R1| Tree Join is cheaper than Hash
        // Join (which must build a 30k-entry table); as |R1| grows, Hash
        // Join wins.
        assert!(
            cost(JoinMethod::TreeJoin, 1_000, 30_000) < cost(JoinMethod::HashJoin, 1_000, 30_000)
        );
        assert!(
            cost(JoinMethod::HashJoin, 30_000, 30_000) < cost(JoinMethod::TreeJoin, 30_000, 30_000)
        );
    }
}
