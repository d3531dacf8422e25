//! Tree Join (§3.3.2).
//!
//! *"The Tree Join uses an existing T Tree index on the inner relation to
//! find matching tuples. We do not include the possibility of building a
//! T Tree on the inner relation for the join because it turns out to be a
//! viable alternative only if the T tree already exists as a regular
//! index."*
//!
//! Cost model (§3.3.4 Test 1): ≈ |R1| + |R1|·log₂(|R2|) comparisons.
//! Test 3 found it the best method when |R1| is small relative to an
//! indexed |R2| ("this algorithm behaves like a simple selection when
//! |R1| contains few tuples"); Test 6 shows its sensitivity to semijoin
//! selectivity (successful searches pay for the duplicate scan phase,
//! unsuccessful ones return early).

use super::{hash::probe_key, JoinOutput, JoinSide};
use crate::error::ExecError;
use mmdb_index::traits::OrderedIndex;
use mmdb_index::TTree;
use mmdb_storage::{AttrAdapter, Relation, TempList};

/// Join by probing an **existing** T-Tree index on the inner relation once
/// per outer tuple. The index's own counters (accumulated during the
/// probes) are returned; since the index pre-exists, no build cost
/// appears — mirroring the paper's accounting. `inner_rel` is the
/// relation the index covers, borrowed for all probes.
pub fn tree_join(
    outer: JoinSide<'_>,
    inner_rel: &Relation,
    inner_index: &TTree<AttrAdapter>,
) -> Result<JoinOutput, ExecError> {
    let before = inner_index.stats();
    let mut out = TempList::new(2);
    let mut matches = Vec::new();
    for &ot in outer.tids {
        let ov = outer.value(ot)?;
        if let Some(key) = probe_key(&ov) {
            matches.clear();
            inner_index.search_all(inner_rel, &key, &mut matches);
            for &it in &matches {
                out.push_pair(ot, it)?;
            }
        }
    }
    Ok(JoinOutput {
        pairs: out,
        stats: inner_index.stats().since(&before),
    })
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::*;
    use mmdb_index::TTreeConfig;

    fn build_index(
        rel: &Relation,
        attr: usize,
        tids: &[mmdb_storage::TupleId],
    ) -> TTree<AttrAdapter> {
        let mut t = TTree::new(AttrAdapter::new(attr), TTreeConfig::with_node_size(16));
        for tid in tids {
            t.insert(rel, *tid);
        }
        t
    }

    #[test]
    fn matches_reference() {
        let ov = random_values(400, 60, 8);
        let iv = random_values(300, 60, 9);
        let (orel, otids) = rel_with_values("o", &ov);
        let (irel, itids) = rel_with_values("i", &iv);
        let idx = build_index(&irel, 1, &itids);
        let out = tree_join(JoinSide::new(&orel, 1, &otids), &irel, &idx).unwrap();
        assert_eq!(
            normalize(&out.pairs, &orel, &irel),
            expected_pairs(&ov, &iv)
        );
    }

    #[test]
    fn empty_outer() {
        let (irel, itids) = rel_with_values("i", &[1, 2, 3]);
        let (orel, _) = rel_with_values("o", &[]);
        let idx = build_index(&irel, 1, &itids);
        let empty: Vec<mmdb_storage::TupleId> = vec![];
        let out = tree_join(JoinSide::new(&orel, 1, &empty), &irel, &idx).unwrap();
        assert!(out.is_empty());
    }

    #[cfg(feature = "stats")]
    #[test]
    fn probe_cost_grows_with_inner_size() {
        // §3.3.4: tree probes cost ~log2(|R2|), unlike hash probes.
        let per_probe = |inner_n: usize| -> f64 {
            let ov: Vec<i64> = (0..200).map(|i| i * 7 % inner_n as i64).collect();
            let iv: Vec<i64> = (0..inner_n as i64).collect();
            let (orel, otids) = rel_with_values("o", &ov);
            let (irel, itids) = rel_with_values("i", &iv);
            let idx = build_index(&irel, 1, &itids);
            let out = tree_join(JoinSide::new(&orel, 1, &otids), &irel, &idx).unwrap();
            out.stats.comparisons as f64 / 200.0
        };
        let small = per_probe(500);
        let large = per_probe(30_000);
        assert!(
            large > small + 3.0,
            "tree probe cost should grow with |R2|: {small} vs {large}"
        );
    }

    #[test]
    fn duplicate_inner_values_all_found() {
        let iv = vec![5, 5, 5, 7, 7, 9];
        let ov = vec![5, 7, 9, 11];
        let (orel, otids) = rel_with_values("o", &ov);
        let (irel, itids) = rel_with_values("i", &iv);
        let idx = build_index(&irel, 1, &itids);
        let out = tree_join(JoinSide::new(&orel, 1, &otids), &irel, &idx).unwrap();
        assert_eq!(out.len(), 3 + 2 + 1);
        assert_eq!(
            normalize(&out.pairs, &orel, &irel),
            expected_pairs(&ov, &iv)
        );
    }
}
