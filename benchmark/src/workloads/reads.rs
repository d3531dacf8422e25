//! The two read-only workloads: `point_read` (locks, latch and index
//! descent do the work) and its mirror image `report_read` (planner,
//! operators and row materialisation do).

use super::Phase;
use crate::dataset::{
    count_and_checksum, id_eq, int_between, Bench, Model, Res, RowHash, Sess, AGE_LO, AGE_SPAN,
    DEPTS, SALARY_SPAN,
};
use crate::store::CountingStore;
use mmdb_core::{Database, QueryBuilder, QueryOutput, Txn, TxnError};
use mmdb_exec::Predicate;
use mmdb_storage::{OwnedValue, TupleId};

pub const RANGE_ROWS: i64 = 20;
const SALARY_BAND: i64 = 5000;

/// `select_values(emp.id <pred>, attrs)` inside `txn`. Untraced, it is that
/// one call. Traced, it is the same three steps `select_values` is made of
/// (`Session::read` around `Database::select` + `fetch`), with a clock
/// read between them: the time before the closure runs is the S-locking
/// of every `emp` partition plus the wait for the engine latch.
pub fn select_by_id(
    session: &Sess,
    txn: &mut Txn,
    ph: &mut Phase,
    op: u64,
    pred: &Predicate,
    attrs: &[&str],
) -> Result<Vec<Vec<OwnedValue>>, TxnError> {
    if !ph.tr.on() {
        return session.select_values(txn, "emp", "id", pred, attrs);
    }
    let called = ph.tr.now();
    let mut marks = [0u64; 3];
    let tr = &ph.tr;
    let rows = session.read(txn, &["emp"], |db| {
        marks[0] = tr.now();
        let tids = db.select("emp", "id", pred)?;
        marks[1] = tr.now();
        let flat: Vec<TupleId> = tids.iter().map(|row| row[0]).collect();
        let rows = db.fetch("emp", &flat, attrs)?;
        marks[2] = tr.now();
        Ok(rows)
    });
    let returned = ph.tr.now();
    ph.tr.span(op, "engine.read_call", called, returned);
    if marks[2] != 0 {
        ph.tr.span(op, "lock.acquire_shared", called, marks[0]);
        ph.tr.span(op, "index.select", marks[0], marks[1]);
        ph.tr.span(op, "storage.fetch", marks[1], marks[2]);
    }
    rows
}

/// Are `rows` exactly the `(ename, salary)` pairs in `want`, in any order?
/// `None` as a wanted salary accepts any value in the salary domain (a row
/// another client may be updating).
pub fn rows_match(rows: &[Vec<OwnedValue>], want: &mut [(&str, Option<i64>)]) -> bool {
    if rows.len() != want.len() {
        return false;
    }
    let mut got = Vec::with_capacity(rows.len());
    for r in rows {
        match r.as_slice() {
            [OwnedValue::Str(e), OwnedValue::Int(s)] => got.push((e.as_str(), *s)),
            _ => return false,
        }
    }
    got.sort_unstable();
    want.sort_unstable();
    got.iter().zip(want.iter()).all(|((ge, gs), (we, ws))| {
        ge == we && ws.map_or((0..SALARY_SPAN).contains(gs), |w| w == *gs)
    })
}

/// One read transaction of the point/range mix: `begin → select → commit`.
/// `expect(lo, hi)` gives the wanted rows for ids `lo..=hi`.
pub fn read_txn<'m>(
    session: &Sess,
    ph: &mut Phase,
    key: i64,
    range: bool,
    expect: impl FnOnce(i64, i64) -> Vec<(&'m str, Option<i64>)>,
) {
    let hi = if range { key + RANGE_ROWS - 1 } else { key };
    let pred = if range {
        int_between(key, hi)
    } else {
        id_eq(key)
    };
    let op = ph.begin_op();
    let t0 = ph.tr.now();
    let mut txn = session.begin();
    ph.txns += 1;
    let t1 = ph.tr.mark();
    let rows = select_by_id(session, &mut txn, ph, op, &pred, &["ename", "salary"]);
    let t2 = ph.tr.mark();
    let committed = session.commit(txn);
    let t3 = ph.tr.now();
    ph.tr.span(op, "engine.begin", t0, t1);
    ph.tr.span(op, "engine.commit", t2, t3);
    ph.end_op(op, t0, t3);
    match (rows, committed) {
        (Ok(rows), Ok(_)) => {
            if !rows_match(&rows, &mut expect(key, hi)) {
                ph.fail(|| format!("emp.id in {key}..={hi}: wrong rows {rows:?}"));
            }
        }
        (Err(e), _) | (_, Err(e)) => ph.fail(|| format!("emp.id in {key}..={hi}: {e}")),
    }
}

pub fn model_rows(model: &Model, lo: i64, hi: i64) -> Vec<(&str, Option<i64>)> {
    model
        .emp
        .range(lo..=hi)
        .map(|(_, r)| (r.ename.as_str(), Some(r.salary)))
        .collect()
}

/// 1 client; 90% point selects and 10% 20-row ranges on `emp.id`, keys
/// uniform over the whole table.
pub fn point_read(mut bench: Bench, mut ph: Phase) -> Res<(Bench, Vec<Phase>)> {
    if ph.fault == super::Fault::Expectation {
        if let Some(row) = bench.model.emp.values_mut().next() {
            row.salary += 1;
        }
    }
    let session = bench.engine.session();
    let n = bench.model.loaded;
    while ph.running() {
        let key = ph.rng.below(n);
        let range = ph.rng.below(10) == 0;
        read_txn(&session, &mut ph, key, range, |lo, hi| {
            model_rows(&bench.model, lo, hi)
        });
    }
    drop(session);
    Ok((bench, vec![ph]))
}

/// What the three report queries must return, worked out from the model
/// once (the workload never writes): row count and order-independent
/// checksum per query parameter.
struct ReportOracle {
    /// `(salary, row hash of (ename, salary))`, ascending, with running
    /// checksums: a salary band is a difference of two prefixes.
    by_salary: Vec<i64>,
    salary_prefix: Vec<u64>,
    /// Per age: rows, Σ hash of `(ename, dname)`, and the `dept_id`s seen.
    age_rows: Vec<usize>,
    age_join_sum: Vec<u64>,
    age_depts: Vec<Vec<bool>>,
}

impl ReportOracle {
    fn new(model: &Model) -> Self {
        let mut salaried: Vec<(i64, u64)> = model
            .emp
            .values()
            .map(|r| {
                (
                    r.salary,
                    RowHash::new().str(&r.ename).int(r.salary).finish(),
                )
            })
            .collect();
        salaried.sort_unstable();
        let mut salary_prefix = vec![0u64; salaried.len() + 1];
        for (i, (_, h)) in salaried.iter().enumerate() {
            salary_prefix[i + 1] = salary_prefix[i].wrapping_add(*h);
        }
        let ages = AGE_SPAN as usize;
        let mut o = ReportOracle {
            by_salary: salaried.iter().map(|(s, _)| *s).collect(),
            salary_prefix,
            age_rows: vec![0; ages],
            age_join_sum: vec![0; ages],
            age_depts: vec![vec![false; DEPTS as usize]; ages],
        };
        for r in model.emp.values() {
            let a = (r.age - AGE_LO) as usize;
            let dname = &model.dept[r.dept_id as usize];
            o.age_rows[a] += 1;
            o.age_join_sum[a] =
                o.age_join_sum[a].wrapping_add(RowHash::new().str(&r.ename).str(dname).finish());
            o.age_depts[a][r.dept_id as usize] = true;
        }
        o
    }

    fn salary_band(&self, lo: i64, hi: i64) -> (usize, u64) {
        let a = self.by_salary.partition_point(|s| *s < lo);
        let b = self.by_salary.partition_point(|s| *s <= hi);
        (
            b - a,
            self.salary_prefix[b].wrapping_sub(self.salary_prefix[a]),
        )
    }

    /// Ages `age` and `age + 1` joined to `dept`.
    fn age_join(&self, age: i64) -> (usize, u64) {
        let a = (age - AGE_LO) as usize;
        (
            self.age_rows[a] + self.age_rows[a + 1],
            self.age_join_sum[a].wrapping_add(self.age_join_sum[a + 1]),
        )
    }

    fn age_distinct_depts(&self, age: i64) -> (usize, u64) {
        let a = (age - AGE_LO) as usize;
        let (mut n, mut sum) = (0, 0u64);
        for d in 0..DEPTS as usize {
            if self.age_depts[a][d] || self.age_depts[a + 1][d] {
                n += 1;
                sum = sum.wrapping_add(RowHash::new().int(d as i64).finish());
            }
        }
        (n, sum)
    }
}

/// Fold one query's `OpProfile`s into the phase's totals and lay its
/// children under an `exec.query` span. `plan_ns` was measured by planning
/// the same query (`explain`) just before the op; materialisation is what
/// `run()` took beyond planning and the operators.
fn account_query(
    ph: &mut Phase,
    op: u64,
    start_ns: u64,
    end_ns: u64,
    plan_ns: u64,
    out: &QueryOutput,
) {
    let mut parts: Vec<(&'static str, u64)> = vec![("exec.plan", plan_ns)];
    let e = &mut ph.exec;
    e.queries += 1;
    e.plan_ns += plan_ns;
    for p in out.profile.ops.iter().filter(|p| p.executed) {
        let ns = p.elapsed.as_nanos() as u64;
        let name = if p.label.starts_with("join") {
            e.join_ns += ns;
            "exec.join"
        } else if p.label.starts_with("project") || p.label.starts_with("distinct") {
            e.project_ns += ns;
            "exec.project"
        } else {
            e.scan_ns += ns;
            "exec.scan"
        };
        e.rows_in += p.rows_in as u64;
        e.comparisons += p.stats.comparisons;
        parts.push((name, ns));
    }
    e.rows_out += out.rows.len() as u64;
    let attributed: u64 = parts.iter().map(|p| p.1).sum();
    let materialise = (end_ns - start_ns).saturating_sub(attributed);
    e.materialise_ns += materialise;
    e.rows_materialised += out.rows.len() as u64;
    parts.push(("storage.materialise", materialise));
    ph.tr.span(op, "exec.query", start_ns, end_ns);
    ph.tr.lay(op, start_ns, &parts);
}

/// The three report queries, in the order a transaction runs them.
fn report_query(
    db: &Database<CountingStore>,
    which: usize,
    lo: i64,
    age: i64,
) -> QueryBuilder<'_, CountingStore> {
    let slice = int_between(age, age + 1);
    match which {
        0 => db
            .query("emp")
            .filter("salary", int_between(lo, lo + SALARY_BAND))
            .project(&[("emp", "ename"), ("emp", "salary")]),
        1 => db
            .query("emp")
            .filter("age", slice)
            .join("dept_id", "dept", "id")
            .project(&[("emp", "ename"), ("dept", "dname")]),
        _ => db
            .query("emp")
            .filter("age", slice)
            .project(&[("emp", "dept_id")])
            .distinct(),
    }
}

/// 1 client; each read-only transaction runs three `QueryBuilder` queries
/// inside one `Session::read`: scan + project on the unindexed `salary`,
/// a T-Tree range on `age` joined to `dept`, and `distinct dept_id` of the
/// same age slice.
pub fn report_read(bench: Bench, mut ph: Phase) -> Res<(Bench, Vec<Phase>)> {
    let oracle = ReportOracle::new(&bench.model);
    let session = bench.engine.session();
    while ph.running() {
        let lo = ph.rng.below(SALARY_SPAN - SALARY_BAND);
        let age = AGE_LO + ph.rng.below(AGE_SPAN - 1);

        let mut plan_ns = [0u64; 3];
        if ph.tr.on() {
            bench.engine.with_db(|db| -> Res<()> {
                for (which, ns) in plan_ns.iter_mut().enumerate() {
                    let t = ph.tr.now();
                    report_query(db, which, lo, age).explain()?;
                    *ns = ph.tr.now() - t;
                }
                Ok(())
            })?;
        }

        let op = ph.begin_op();
        let t0 = ph.tr.now();
        let mut txn = session.begin();
        ph.txns += 1;
        let t1 = ph.tr.mark();
        let mut marks = [0u64; 4];
        let tr = &ph.tr;
        let result = session.read(&mut txn, &["emp", "dept"], |db| {
            marks[0] = tr.mark();
            let mut outs = Vec::with_capacity(3);
            for which in 0..3 {
                outs.push(report_query(db, which, lo, age).run()?);
                marks[which + 1] = tr.mark();
            }
            Ok(outs)
        });
        let t2 = ph.tr.mark();
        let committed = session.commit(txn);
        let t3 = ph.tr.now();
        ph.tr.span(op, "engine.begin", t0, t1);
        ph.tr.span(op, "engine.read_call", t1, t2);
        ph.tr.span(op, "engine.commit", t2, t3);
        ph.end_op(op, t0, t3);

        match (result, committed) {
            (Ok(outs), Ok(_)) => {
                if ph.tr.on() {
                    ph.tr.span(op, "lock.acquire_shared", t1, marks[0]);
                    for (i, out) in outs.iter().enumerate() {
                        account_query(&mut ph, op, marks[i], marks[i + 1], plan_ns[i], out);
                    }
                }
                let want = [
                    oracle.salary_band(lo, lo + SALARY_BAND),
                    oracle.age_join(age),
                    oracle.age_distinct_depts(age),
                ];
                for (i, out) in outs.iter().enumerate() {
                    if count_and_checksum(&out.rows) != Some(want[i]) {
                        ph.fail(|| {
                            format!(
                                "report query {i} (salary {lo}.., age {age}..): {} rows, want {}",
                                out.rows.len(),
                                want[i].0
                            )
                        });
                        break;
                    }
                }
            }
            (Err(e), _) | (_, Err(e)) => ph.fail(|| format!("report txn: {e}")),
        }
    }
    drop(session);
    Ok((bench, vec![ph]))
}
