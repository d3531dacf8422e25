//! Planner-accuracy smoke: does the cost model's choice actually win on
//! the wall clock?
//!
//! Two workloads straddle the TreeJoin/HashJoin crossover of the §3.3.4
//! comparison formulas: a small outer probing a large indexed inner
//! (TreeJoin territory) and a large outer against a small inner (hash
//! territory). A third sits in the §3.3.5 exception-1 band — the outer a
//! third of the inner's size, a T-Tree on the inner join column only —
//! where the paper's `|R1| < |R2|/2` rule of thumb says Tree Join and the
//! formulas say Hash Join. Each feasible method runs forced several times; the
//! planner's pick must land within `TOLERANCE` of the fastest measured
//! method, or the process exits non-zero. Results land in
//! `results/planner_accuracy.csv`.
//!
//! ```sh
//! cargo run --release --example planner_accuracy
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout)]

use mmdb_core::{Database, IndexKind, QueryBuilder};
use mmdb_exec::JoinMethod;
use mmdb_recovery::MemDisk;
use mmdb_storage::{AttrType, OwnedValue, Schema};
use std::time::Instant;

/// Accept the planner's pick if it is within this factor of the fastest
/// measured method (wall clocks are noisy; the cost model is counting
/// comparisons, not cache misses).
const TOLERANCE: f64 = 1.5;
const RUNS: usize = 3;

fn build_db(outer_n: usize, inner_n: usize, outer_jcol_indexed: bool) -> Database {
    let mut db = Database::in_memory();
    for t in ["outer", "inner"] {
        db.create_table(
            t,
            Schema::of(&[("pk", AttrType::Int), ("jcol", AttrType::Int)]),
        )
        .unwrap();
        db.create_index(&format!("{t}_pk"), t, "pk", IndexKind::TTree)
            .unwrap();
        if t == "inner" || outer_jcol_indexed {
            db.create_index(&format!("{t}_jcol"), t, "jcol", IndexKind::TTree)
                .unwrap();
        }
    }
    let mut txn = db.begin();
    for (t, n) in [("outer", outer_n), ("inner", inner_n)] {
        for i in 0..n {
            // Deterministic key mixing: roughly uniform join values with
            // partial overlap between the two sides.
            let v = ((i as i64).wrapping_mul(2_654_435_761) >> 8) % (inner_n as i64).max(1);
            db.insert(
                &mut txn,
                t,
                vec![OwnedValue::Int(i as i64), OwnedValue::Int(v)],
            )
            .unwrap();
        }
    }
    db.commit(txn).unwrap();
    db
}

fn query(db: &Database) -> QueryBuilder<'_, MemDisk> {
    db.query("outer")
        .join("jcol", "inner", "jcol")
        .project(&[("outer", "pk"), ("inner", "pk")])
}

fn time_ms(db: &Database, method: Option<JoinMethod>) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut rows = 0;
    for _ in 0..RUNS {
        let q = match method {
            Some(m) => query(db).force_join_method(m),
            None => query(db),
        };
        let t0 = Instant::now();
        let out = q.run().unwrap();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        best = best.min(ms);
        rows = out.rows.len();
    }
    (best, rows)
}

fn main() {
    let workloads = [
        ("small_outer_large_inner", 500usize, 30_000usize, true),
        ("large_outer_small_inner", 30_000, 1_000, true),
        ("third_outer_inner_index_only", 10_000, 30_000, false),
    ];
    let methods = [
        JoinMethod::TreeMerge,
        JoinMethod::TreeJoin,
        JoinMethod::HashJoin,
        JoinMethod::SortMerge,
    ];

    let mut csv = String::from("workload,method,est_comparisons,elapsed_ms,chosen,fastest\n");
    let mut failed = false;

    for (name, outer_n, inner_n, outer_jcol_indexed) in workloads {
        let db = build_db(outer_n, inner_n, outer_jcol_indexed);

        // What does the planner pick, and what does it estimate?
        let planned = query(&db).run().unwrap();
        let joins = planned.profile.joins();
        let chosen = joins[0].method.unwrap();
        let mut estimates: Vec<(JoinMethod, f64)> = vec![(chosen, joins[0].est_comparisons)];
        estimates.extend(joins[0].rejected.iter().copied());

        // Measure every method, forced.
        let mut measured: Vec<(JoinMethod, f64)> = Vec::new();
        let mut expect_rows = None;
        for m in methods {
            if m == JoinMethod::TreeMerge && !outer_jcol_indexed {
                continue; // infeasible without the outer T-Tree
            }
            let (ms, rows) = time_ms(&db, Some(m));
            if let Some(r) = expect_rows {
                assert_eq!(r, rows, "{name}: {m:?} changed the answer");
            }
            expect_rows = Some(rows);
            measured.push((m, ms));
        }
        let (fastest, fastest_ms) = measured
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        let chosen_ms = measured
            .iter()
            .find(|(m, _)| *m == chosen)
            .map(|(_, ms)| *ms)
            .unwrap_or(f64::INFINITY);

        for (m, ms) in &measured {
            let est = estimates
                .iter()
                .find(|(em, _)| em == m)
                .map(|(_, e)| e.round() as u64)
                .unwrap_or(0);
            csv.push_str(&format!(
                "{name},{m:?},{est},{ms:.3},{},{}\n",
                *m == chosen,
                *m == fastest
            ));
        }

        let ok = chosen_ms <= fastest_ms * TOLERANCE;
        println!(
            "{name}: planner chose {chosen:?} ({chosen_ms:.2} ms), fastest {fastest:?} \
             ({fastest_ms:.2} ms) -> {}",
            if ok { "OK" } else { "VIOLATION" }
        );
        if !ok {
            failed = true;
        }
    }

    std::fs::create_dir_all("results").unwrap();
    std::fs::write("results/planner_accuracy.csv", &csv).unwrap();
    println!("wrote results/planner_accuracy.csv");

    if failed {
        eprintln!(
            "planner accuracy violation: the chosen method was more than \
             {TOLERANCE}x slower than the fastest"
        );
        std::process::exit(1);
    }
}
