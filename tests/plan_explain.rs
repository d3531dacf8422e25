//! Golden-file tests for the two-phase planner's explain output: one
//! exact snapshot per §3.3 join method, plus a filter-pushdown case and
//! a join-reordering case whose plans demonstrably differ from naive
//! placement while producing identical results.
//!
//! Execution is serial, so the actual comparison counts are
//! deterministic and the full estimates-vs-actuals rendering can be
//! snapshotted, not just the plan shape.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmdb_core::{Database, IndexKind, QueryOutput};
use mmdb_exec::{JoinMethod, Predicate};
use mmdb_storage::{AttrType, KeyValue, OwnedValue, Schema};

/// dept(dname, id) — T-Tree on id; 3 rows.
/// emp(ename, age, dept_id, dept_ptr) — T-Trees on age and dept_id, a
/// §2.1 pointer FK to dept; 5 rows.
/// orders(oid, dept_id) — no index on the join column; 60 rows.
fn fixture() -> Database {
    let mut db = Database::in_memory();
    db.create_table(
        "dept",
        Schema::of(&[("dname", AttrType::Str), ("id", AttrType::Int)]),
    )
    .unwrap();
    db.create_index("dept_id", "dept", "id", IndexKind::TTree)
        .unwrap();
    db.create_table(
        "emp",
        Schema::of(&[
            ("ename", AttrType::Str),
            ("age", AttrType::Int),
            ("dept_id", AttrType::Int),
            ("dept_ptr", AttrType::Ptr),
        ]),
    )
    .unwrap();
    db.create_index("emp_age", "emp", "age", IndexKind::TTree)
        .unwrap();
    db.create_index("emp_dept", "emp", "dept_id", IndexKind::TTree)
        .unwrap();
    db.create_table(
        "orders",
        Schema::of(&[("oid", AttrType::Int), ("dept_id", AttrType::Int)]),
    )
    .unwrap();
    // An index on oid only: the join column dept_id stays unindexed.
    db.create_index("orders_oid", "orders", "oid", IndexKind::TTree)
        .unwrap();

    let mut txn = db.begin();
    for (d, i) in [("Toy", 1i64), ("Shoe", 2), ("Linen", 3)] {
        db.insert(&mut txn, "dept", vec![d.into(), i.into()])
            .unwrap();
    }
    let dept_tids = db.commit(txn).unwrap();

    let mut txn = db.begin();
    for (e, a, d) in [
        ("Dave", 24i64, 1i64),
        ("Suzan", 70, 1),
        ("Yaman", 54, 2),
        ("Jane", 71, 2),
        ("Cindy", 22, 3),
    ] {
        db.insert(
            &mut txn,
            "emp",
            vec![
                e.into(),
                a.into(),
                d.into(),
                OwnedValue::Ptr(Some(dept_tids[(d - 1) as usize])),
            ],
        )
        .unwrap();
    }
    for i in 0..60i64 {
        db.insert(&mut txn, "orders", vec![i.into(), (i % 3 + 1).into()])
            .unwrap();
    }
    db.commit(txn).unwrap();
    db
}

fn sorted_rows(out: &QueryOutput) -> Vec<String> {
    let mut rows: Vec<String> = out.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

#[test]
fn golden_tree_merge() {
    let db = fixture();
    let out = db
        .query("emp")
        .join("dept_id", "dept", "id")
        .project(&[("emp", "ename"), ("dept", "dname")])
        .run()
        .unwrap();
    assert_eq!(out.rows.len(), 5);
    assert_eq!(
        out.profile.render(),
        "\
project [emp.ename, dept.dname]  [est_rows=5 act_rows=5 est_cmp=0 act_cmp=0]
  join[TreeMerge] emp.dept_id = dept.id  [est_rows=5 act_rows=5 est_cmp=11 act_cmp=16]
      rejected: TreeJoin est_cmp=13, HashJoin est_cmp=23, SortMerge est_cmp=15, NestedLoops est_cmp=15
    scan emp  [est_rows=5 act_rows=5 est_cmp=0 act_cmp=0]
"
    );
}

#[test]
fn golden_tree_join() {
    let db = fixture();
    let out = db
        .query("emp")
        .filter("age", Predicate::greater(KeyValue::Int(60)))
        .join("dept_id", "dept", "id")
        .project(&[("emp", "ename"), ("dept", "dname")])
        .run()
        .unwrap();
    assert_eq!(out.rows.len(), 2);
    assert_eq!(
        out.profile.render(),
        "\
project [emp.ename, dept.dname]  [est_rows=2 act_rows=2 est_cmp=0 act_cmp=0]
  join[TreeJoin] emp.dept_id = dept.id  [est_rows=2 act_rows=2 est_cmp=5 act_cmp=8]
      rejected: HashJoin est_cmp=11, SortMerge est_cmp=8, NestedLoops est_cmp=6
    select emp.age > 60 via TreeLookup  [est_rows=2 act_rows=2 est_cmp=2 act_cmp=4]
"
    );
}

#[test]
fn golden_hash_join() {
    let db = fixture();
    // orders.dept_id carries no index, so the §3.3.4 formulas decide
    // between the list-based methods: hashing wins at these sizes.
    let out = db
        .query("emp")
        .join("dept_id", "orders", "dept_id")
        .project(&[("emp", "ename"), ("orders", "oid")])
        .run()
        .unwrap();
    assert_eq!(out.rows.len(), 100);
    assert_eq!(
        out.profile.render(),
        "\
project [emp.ename, orders.oid]  [est_rows=5 act_rows=100 est_cmp=0 act_cmp=0]
  join[HashJoin] emp.dept_id = orders.dept_id  [est_rows=5 act_rows=100 est_cmp=80 act_cmp=100]
      rejected: SortMerge est_cmp=211, NestedLoops est_cmp=300
    scan emp  [est_rows=5 act_rows=5 est_cmp=0 act_cmp=0]
    scan orders  [est_rows=60 act_rows=60 est_cmp=0 act_cmp=0]
"
    );
}

#[test]
fn golden_precomputed() {
    let db = fixture();
    let out = db
        .query("emp")
        .join("dept_ptr", "dept", "id")
        .project(&[("emp", "ename"), ("dept", "dname")])
        .run()
        .unwrap();
    assert_eq!(out.rows.len(), 5);
    assert_eq!(
        out.profile.render(),
        "\
project [emp.ename, dept.dname]  [est_rows=5 act_rows=5 est_cmp=0 act_cmp=0]
  join[Precomputed] emp.dept_ptr = dept.id  [est_rows=5 act_rows=5 est_cmp=5 act_cmp=0]
      rejected: TreeJoin est_cmp=13, HashJoin est_cmp=23, SortMerge est_cmp=15, NestedLoops est_cmp=15
    scan emp  [est_rows=5 act_rows=5 est_cmp=0 act_cmp=0]
"
    );
}

#[test]
fn golden_forced_sort_merge() {
    let db = fixture();
    let out = db
        .query("emp")
        .join("dept_id", "dept", "id")
        .project(&[("emp", "ename"), ("dept", "dname")])
        .force_join_method(JoinMethod::SortMerge)
        .run()
        .unwrap();
    assert_eq!(out.rows.len(), 5);
    assert_eq!(
        out.profile.render(),
        "\
project [emp.ename, dept.dname]  [est_rows=5 act_rows=5 est_cmp=0 act_cmp=0]
  join[SortMerge] emp.dept_id = dept.id  [est_rows=5 act_rows=5 est_cmp=15 act_cmp=15]
      rejected: TreeMerge est_cmp=11, TreeJoin est_cmp=13, HashJoin est_cmp=23, NestedLoops est_cmp=15
    scan emp  [est_rows=5 act_rows=5 est_cmp=0 act_cmp=0]
    scan dept  [est_rows=3 act_rows=3 est_cmp=0 act_cmp=0]
"
    );
}

#[test]
fn golden_forced_nested_loops() {
    let db = fixture();
    let out = db
        .query("emp")
        .join("dept_id", "dept", "id")
        .project(&[("emp", "ename"), ("dept", "dname")])
        .force_join_method(JoinMethod::NestedLoops)
        .run()
        .unwrap();
    assert_eq!(out.rows.len(), 5);
    assert_eq!(
        out.profile.render(),
        "\
project [emp.ename, dept.dname]  [est_rows=5 act_rows=5 est_cmp=0 act_cmp=0]
  join[NestedLoops] emp.dept_id = dept.id  [est_rows=5 act_rows=5 est_cmp=15 act_cmp=15]
      rejected: TreeMerge est_cmp=11, TreeJoin est_cmp=13, HashJoin est_cmp=23, SortMerge est_cmp=15
    scan emp  [est_rows=5 act_rows=5 est_cmp=0 act_cmp=0]
    scan dept  [est_rows=3 act_rows=3 est_cmp=0 act_cmp=0]
"
    );
}

#[test]
fn golden_pushdown_changes_the_plan_not_the_answer() {
    let db = fixture();
    let q = |pushdown: bool| {
        db.query("emp")
            .join("dept_id", "dept", "id")
            .filter_on("dept", "dname", Predicate::Eq(KeyValue::from("Shoe")))
            .project(&[("emp", "ename")])
            .pushdown(pushdown)
            .reorder(pushdown)
            .run()
            .unwrap()
    };
    let pushed = q(true);
    let naive = q(false);
    assert_eq!(
        pushed.profile.render(),
        "\
project [emp.ename]  [est_rows=1 act_rows=2 est_cmp=0 act_cmp=0]
  join[NestedLoops] emp.dept_id = dept.id  [est_rows=1 act_rows=2 est_cmp=0 act_cmp=5]
      rejected: HashJoin est_cmp=20, SortMerge est_cmp=10
    scan emp  [est_rows=5 act_rows=5 est_cmp=0 act_cmp=0]
    select dept.dname = \"Shoe\" via SequentialScan  [est_rows=0 act_rows=1 est_cmp=3 act_cmp=3]
"
    );
    assert_eq!(
        naive.profile.render(),
        "\
project [emp.ename]  [est_rows=1 act_rows=2 est_cmp=0 act_cmp=0]
  filter dept.dname = \"Shoe\"  [est_rows=1 act_rows=2 est_cmp=5 act_cmp=5]
    join[TreeMerge] emp.dept_id = dept.id  [est_rows=5 act_rows=5 est_cmp=11 act_cmp=16]
        rejected: TreeJoin est_cmp=13, HashJoin est_cmp=23, SortMerge est_cmp=15, NestedLoops est_cmp=15
      scan emp  [est_rows=5 act_rows=5 est_cmp=0 act_cmp=0]
"
    );
    assert_ne!(pushed.profile.render(), naive.profile.render());
    assert_eq!(sorted_rows(&pushed), sorted_rows(&naive));
    assert_eq!(
        sorted_rows(&pushed),
        vec!["[Str(\"Jane\")]", "[Str(\"Yaman\")]"]
    );
}

#[test]
fn golden_reorder_changes_the_plan_not_the_answer() {
    let db = fixture();
    // Written order joins the costlier inner (emp) first; the greedy
    // planner flips to the cheaper dept join.
    let q = |reorder: bool| {
        db.query("orders")
            .join("dept_id", "emp", "dept_id")
            .join_from("orders", "dept_id", "dept", "id")
            .project(&[("orders", "oid"), ("emp", "ename"), ("dept", "dname")])
            .reorder(reorder)
            .run()
            .unwrap()
    };
    let reordered = q(true);
    let written = q(false);
    assert_eq!(
        reordered.profile.render(),
        "\
project [orders.oid, emp.ename, dept.dname]  [est_rows=60 act_rows=100 est_cmp=0 act_cmp=0]
  join[TreeJoin] orders.dept_id = emp.dept_id  [est_rows=60 act_rows=100 est_cmp=199 act_cmp=300]
      rejected: HashJoin est_cmp=245, SortMerge est_cmp=211, NestedLoops est_cmp=300
    join[TreeJoin] orders.dept_id = dept.id  [est_rows=60 act_rows=60 est_cmp=155 act_cmp=220]
        rejected: HashJoin est_cmp=243, SortMerge est_cmp=207, NestedLoops est_cmp=180
      scan orders  [est_rows=60 act_rows=60 est_cmp=0 act_cmp=0]
"
    );
    assert_eq!(
        written.profile.render(),
        "\
project [orders.oid, emp.ename, dept.dname]  [est_rows=60 act_rows=100 est_cmp=0 act_cmp=0]
  join[TreeJoin] orders.dept_id = dept.id  [est_rows=60 act_rows=100 est_cmp=155 act_cmp=220]
      rejected: HashJoin est_cmp=243, SortMerge est_cmp=207, NestedLoops est_cmp=180
    join[TreeJoin] orders.dept_id = emp.dept_id  [est_rows=60 act_rows=100 est_cmp=199 act_cmp=300]
        rejected: HashJoin est_cmp=245, SortMerge est_cmp=211, NestedLoops est_cmp=300
      scan orders  [est_rows=60 act_rows=60 est_cmp=0 act_cmp=0]
"
    );
    assert_ne!(reordered.profile.render(), written.profile.render());
    assert_eq!(sorted_rows(&reordered), sorted_rows(&written));
    assert_eq!(reordered.rows.len(), 100);
}

#[test]
fn explain_round_trips_estimates_and_actuals() {
    let db = fixture();
    let q = || {
        db.query("emp")
            .filter("age", Predicate::greater(KeyValue::Int(60)))
            .join("dept_id", "dept", "id")
            .join_from("dept", "id", "orders", "dept_id")
            .project(&[("emp", "ename"), ("orders", "oid")])
    };
    let explained = q().explain().unwrap();
    let out = q().run().unwrap();
    let executed = out.profile.render();
    // Same plan, same estimates: stripping the actuals from the executed
    // rendering reproduces the explain text exactly.
    let strip = |s: &str| {
        s.lines()
            .map(|l| {
                let mut l = l.to_string();
                if let Some(i) = l.find(" act_rows=") {
                    let j = l[i..].find(" est_cmp=").unwrap() + i;
                    l.replace_range(i..j, " act_rows=-");
                }
                if let Some(i) = l.find(" act_cmp=") {
                    let j = l[i..].find(']').unwrap() + i;
                    l.replace_range(i..j, " act_cmp=-");
                }
                l
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&executed), strip(&explained));
    assert_eq!(strip(&explained), explained.trim_end_matches('\n'));
    // The executed profile carries both sides for every operator.
    for op in &out.profile.ops {
        assert!(op.executed, "{}", op.label);
    }
    assert!(executed.contains("act_rows="));
    assert!(!executed.contains("act_rows=-"));
}
