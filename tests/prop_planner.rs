//! Property tests for the cost-based planner: over random workloads,
//! the planned execution returns the same rows as every forced join
//! method and as naive predicate placement, and the chosen join method
//! never estimates more comparisons than any alternative the planner
//! rejected.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmdb_core::{Database, IndexKind, QueryOutput};
use mmdb_exec::{JoinMethod, Predicate};
use mmdb_storage::{AttrType, KeyValue, OwnedValue, Schema};
use proptest::prelude::*;

/// Three tables with T-Trees on every join attribute, loaded from the
/// generated value vectors. `r1.jcol` joins `r2.jcol`; `r2.jcol` joins
/// `r3.jcol` (chained).
fn build_db(r1: &[i64], r2: &[i64], r3: &[i64]) -> Database {
    let mut db = Database::in_memory();
    for t in ["r1", "r2", "r3"] {
        db.create_table(
            t,
            Schema::of(&[("pk", AttrType::Int), ("jcol", AttrType::Int)]),
        )
        .unwrap();
        db.create_index(&format!("{t}_pk"), t, "pk", IndexKind::TTree)
            .unwrap();
        db.create_index(&format!("{t}_jcol"), t, "jcol", IndexKind::TTree)
            .unwrap();
    }
    let mut txn = db.begin();
    for (t, vals) in [("r1", r1), ("r2", r2), ("r3", r3)] {
        for (i, v) in vals.iter().enumerate() {
            db.insert(
                &mut txn,
                t,
                vec![OwnedValue::Int(i as i64), OwnedValue::Int(*v)],
            )
            .unwrap();
        }
    }
    db.commit(txn).unwrap();
    db
}

/// Canonical multiset of output rows for order-insensitive comparison.
fn canonical(out: &QueryOutput) -> Vec<String> {
    let mut rows: Vec<String> = out.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

fn values_strategy(max_len: usize) -> impl Strategy<Value = Vec<i64>> {
    // Small key space forces duplication and overlap across tables.
    prop::collection::vec(-6i64..6, 1..max_len)
}

/// Methods that stay feasible on any shape this workload produces (no
/// pointer fields; every join attribute T-Tree indexed, inners never
/// filtered — so TreeJoin is feasible too).
const FORCIBLE: [JoinMethod; 4] = [
    JoinMethod::HashJoin,
    JoinMethod::SortMerge,
    JoinMethod::NestedLoops,
    JoinMethod::TreeJoin,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn planned_equals_forced_and_serial(
        v1 in values_strategy(30),
        v2 in values_strategy(30),
        v3 in values_strategy(30),
        lo in -6i64..6,
    ) {
        let db = build_db(&v1, &v2, &v3);
        let query = || {
            db.query("r1")
                .filter("jcol", Predicate::greater(KeyValue::Int(lo)))
                .join("jcol", "r2", "jcol")
                .join_from("r2", "jcol", "r3", "jcol")
                .project(&[("r1", "pk"), ("r2", "pk"), ("r3", "pk")])
        };

        let planned = query().run().unwrap();
        let want = canonical(&planned);

        // Every forced method yields the same multiset of rows.
        for m in FORCIBLE {
            let forced = query().force_join_method(m).run().unwrap();
            prop_assert_eq!(canonical(&forced), want.clone(), "{:?}", m);
        }

        // Naive as-written placement agrees too.
        let naive = query().pushdown(false).reorder(false).run().unwrap();
        prop_assert_eq!(canonical(&naive), want.clone());

        // The chosen method never estimates more comparisons than any
        // rejected alternative.
        for join in planned.profile.joins() {
            for (m, est) in &join.rejected {
                prop_assert!(
                    join.est_comparisons <= *est,
                    "{:?} (est {}) lost to rejected {:?} (est {}) in {}",
                    join.method,
                    join.est_comparisons,
                    m,
                    est,
                    join.label
                );
            }
        }
    }
}
