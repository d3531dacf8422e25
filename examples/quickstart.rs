//! Quickstart: create a database, load data, and run the three §4 query
//! shapes — an indexed selection, a range selection, and a join.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout)]

use mmdb_core::{Database, IndexKind};
use mmdb_exec::Predicate;
use mmdb_storage::{AttrType, KeyValue, OwnedValue, Schema};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::in_memory();

    // Schema: every relation needs at least one index before DML (§2.1:
    // "all access to a relation is through an index").
    db.create_table(
        "employee",
        Schema::of(&[
            ("name", AttrType::Str),
            ("id", AttrType::Int),
            ("age", AttrType::Int),
            ("dept_id", AttrType::Int),
        ]),
    )?;
    db.create_index("emp_id", "employee", "id", IndexKind::Hash)?;
    db.create_index("emp_age", "employee", "age", IndexKind::TTree)?;
    db.create_index("emp_dept", "employee", "dept_id", IndexKind::TTree)?;

    db.create_table(
        "department",
        Schema::of(&[("name", AttrType::Str), ("id", AttrType::Int)]),
    )?;
    db.create_index("dept_id", "department", "id", IndexKind::TTree)?;

    // Load the paper's Figure 1 data in one transaction.
    let mut txn = db.begin();
    for (name, id) in [
        ("Toy", 459i64),
        ("Shoe", 409),
        ("Linen", 411),
        ("Paint", 455),
    ] {
        db.insert(&mut txn, "department", vec![name.into(), id.into()])?;
    }
    for (name, id, age, dept) in [
        ("Dave", 23i64, 24i64, 459i64),
        ("Suzan", 12, 27, 459),
        ("Yaman", 44, 54, 411),
        ("Jane", 43, 47, 411),
        ("Cindy", 22, 22, 409),
    ] {
        db.insert(
            &mut txn,
            "employee",
            vec![name.into(), id.into(), age.into(), dept.into()],
        )?;
    }
    db.commit(txn)?;

    // 1. Exact-match selection → hash lookup (the fastest §4 path).
    let by_id = Predicate::Eq(KeyValue::Int(44));
    let hit = db.select("employee", "id", &by_id)?;
    println!(
        "select id = 44: {:?}",
        db.fetch("employee", &hit.column(0), &["name", "age"])?
    );
    print!("{}", db.query("employee").filter("id", by_id).explain()?);

    // 2. Range selection → T-Tree lookup.
    let by_age = Predicate::between(KeyValue::Int(25), KeyValue::Int(50));
    let mid_age = db.select("employee", "age", &by_age)?;
    println!("select 25 <= age <= 50:");
    for row in db.fetch("employee", &mid_age.column(0), &["name", "age"])? {
        println!("  {row:?}");
    }
    print!("{}", db.query("employee").filter("age", by_age).explain()?);

    // 3. Join: both sides have T-Trees → the planner picks Tree Merge.
    let result = db
        .query("employee")
        .join("dept_id", "department", "id")
        .project(&[("employee", "name"), ("department", "name")])
        .run()?;
    let join = result.profile.joins()[0];
    println!("{}:", join.label);
    for row in &result.rows {
        println!("  {:?} works in {:?}", row[0], row[1]);
    }
    println!(
        "(join did {} comparisons for {} result rows)",
        join.stats.comparisons,
        result.rows.len()
    );

    // Update through a transaction; indexes follow automatically.
    let dave = db
        .select("employee", "id", &Predicate::Eq(KeyValue::Int(23)))?
        .column(0)[0];
    let mut txn = db.begin();
    db.update(&mut txn, "employee", dave, "age", OwnedValue::Int(25))?;
    db.commit(txn)?;
    let aged = db.select("employee", "age", &Predicate::Eq(KeyValue::Int(25)))?;
    println!(
        "after update: age-25 employees = {:?}",
        db.fetch("employee", &aged.column(0), &["name"])?
    );

    // The same join behind a filter, with the executed plan's profile.
    let result = db
        .query("employee")
        .filter("age", Predicate::greater(KeyValue::Int(25)))
        .join("dept_id", "department", "id")
        .project(&[("employee", "name"), ("department", "name")])
        .run()?;
    println!("query pipeline ({:?}):", result.columns);
    for line in result.profile.render().lines() {
        println!("  plan: {line}");
    }
    for row in &result.rows {
        println!("  {row:?}");
    }

    Ok(())
}
