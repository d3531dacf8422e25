//! One of the paper's §1 motivating applications: relational storage for
//! program information (Linton's program-development databases,
//! Horwitz/Teitelbaum's language-based editors).
//!
//! We load a call graph of a small "program" into relations and answer
//! browser-style queries: who calls `parse`, what does `main` reach,
//! which functions are dead code — all through the MM-DBMS query paths.
//!
//! ```sh
//! cargo run --example program_browser
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout)]

use mmdb_core::{Database, IndexKind};
use mmdb_exec::Predicate;
use mmdb_storage::{AttrType, KeyValue, OwnedValue, Schema};
use std::collections::{HashSet, VecDeque};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::in_memory();

    db.create_table(
        "function",
        Schema::of(&[
            ("name", AttrType::Str),
            ("id", AttrType::Int),
            ("file", AttrType::Str),
            ("loc", AttrType::Int),
        ]),
    )?;
    db.create_index("fn_name", "function", "name", IndexKind::Hash)?;
    db.create_index("fn_id", "function", "id", IndexKind::TTree)?;
    db.create_index("fn_loc", "function", "loc", IndexKind::TTree)?;

    db.create_table(
        "calls",
        Schema::of(&[("caller", AttrType::Int), ("callee", AttrType::Int)]),
    )?;
    db.create_index("calls_caller", "calls", "caller", IndexKind::TTree)?;
    db.create_index("calls_callee", "calls", "callee", IndexKind::TTree)?;

    // A small compiler-shaped program.
    let functions: &[(&str, i64, &str, i64)] = &[
        ("main", 0, "main.c", 42),
        ("parse", 1, "parse.c", 310),
        ("lex", 2, "lex.c", 180),
        ("typecheck", 3, "types.c", 240),
        ("codegen", 4, "gen.c", 505),
        ("optimize", 5, "opt.c", 220),
        ("emit", 6, "gen.c", 90),
        ("error", 7, "util.c", 30),
        ("dead_helper", 8, "util.c", 55),
    ];
    let edges: &[(i64, i64)] = &[
        (0, 1), // main → parse
        (0, 3), // main → typecheck
        (0, 4), // main → codegen
        (1, 2), // parse → lex
        (1, 7), // parse → error
        (3, 7),
        (4, 5),
        (4, 6),
        (5, 6),
        (2, 7),
    ];
    let mut txn = db.begin();
    for (name, id, file, loc) in functions {
        db.insert(
            &mut txn,
            "function",
            vec![(*name).into(), (*id).into(), (*file).into(), (*loc).into()],
        )?;
    }
    for (a, b) in edges {
        db.insert(&mut txn, "calls", vec![(*a).into(), (*b).into()])?;
    }
    db.commit(txn)?;

    let fn_id = |db: &Database, name: &str| -> i64 {
        let hit = db
            .select("function", "name", &Predicate::Eq(KeyValue::from(name)))
            .unwrap();
        match db.fetch("function", &hit.column(0), &["id"]).unwrap()[0][0] {
            OwnedValue::Int(i) => i,
            _ => unreachable!(),
        }
    };
    let fn_name = |db: &Database, id: i64| -> String {
        let hit = db
            .select("function", "id", &Predicate::Eq(KeyValue::Int(id)))
            .unwrap();
        match &db.fetch("function", &hit.column(0), &["name"]).unwrap()[0][0] {
            OwnedValue::Str(s) => s.clone(),
            _ => unreachable!(),
        }
    };

    // 1. Who calls `error`? (selection on the callee index)
    let err = fn_id(&db, "error");
    let callers = db.select("calls", "callee", &Predicate::Eq(KeyValue::Int(err)))?;
    let mut names: Vec<String> = db
        .fetch("calls", &callers.column(0), &["caller"])?
        .into_iter()
        .map(|row| match row[0] {
            OwnedValue::Int(i) => fn_name(&db, i),
            _ => unreachable!(),
        })
        .collect();
    names.sort();
    println!("callers of error(): {names:?}");

    // 2. Transitive closure from main: BFS, each frontier expansion is an
    //    indexed selection (this is the access pattern language editors
    //    need to be fast).
    let main_id = fn_id(&db, "main");
    let mut reached: HashSet<i64> = HashSet::new();
    let mut queue = VecDeque::from([main_id]);
    while let Some(f) = queue.pop_front() {
        if !reached.insert(f) {
            continue;
        }
        let out = db.select("calls", "caller", &Predicate::Eq(KeyValue::Int(f)))?;
        for row in db.fetch("calls", &out.column(0), &["callee"])? {
            if let OwnedValue::Int(callee) = row[0] {
                if !reached.contains(&callee) {
                    queue.push_back(callee);
                }
            }
        }
    }
    println!(
        "main() reaches {} of {} functions",
        reached.len(),
        functions.len()
    );

    // 3. Dead code: functions never called and not reachable from main.
    let mut dead = Vec::new();
    for (name, id, _, _) in functions {
        if *id == main_id {
            continue;
        }
        let callers = db.select("calls", "callee", &Predicate::Eq(KeyValue::Int(*id)))?;
        if callers.is_empty() {
            dead.push((*name).to_string());
        }
    }
    println!("never-called functions: {dead:?}");
    assert_eq!(dead, vec!["dead_helper".to_string()]);

    // 4. A join: list (caller name, callee name) pairs via the planner's
    //    chosen method, plus big-function filtering through the T-Tree.
    let edges = db
        .query("calls")
        .join("callee", "function", "id")
        .project(&[("calls", "caller"), ("function", "name")])
        .run()?;
    println!(
        "call edges joined to functions ({}): {} rows",
        edges.profile.joins()[0].label,
        edges.rows.len()
    );
    let big = db.select("function", "loc", &Predicate::greater(KeyValue::Int(200)))?;
    let mut big_names: Vec<String> = db
        .fetch("function", &big.column(0), &["name"])?
        .into_iter()
        .map(|r| match &r[0] {
            OwnedValue::Str(s) => s.clone(),
            _ => unreachable!(),
        })
        .collect();
    big_names.sort();
    println!("functions over 200 LoC: {big_names:?}");
    Ok(())
}
