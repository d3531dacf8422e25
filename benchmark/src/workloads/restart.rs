//! `restart`: crash and recover the loaded database over and over. One op
//! is one `recover_with` call; everything around it (the commits since the
//! last restart, half a fuzzy checkpoint) only sets the stage. It is the
//! durability check: after every restart each write acknowledged since the
//! previous one must be readable.

use super::{EngineCounters, Fault, Phase};
use crate::dataset::{id_eq, Bench, EmpRow, Res, AGE_LO, AGE_SPAN, EMP_ATTRS, SALARY_SPAN};
use mmdb_core::TxnEngine;
use mmdb_exec::ExecConfig;
use mmdb_storage::OwnedValue;

const UPDATES_PER_CYCLE: usize = 200;
const INSERTS_PER_CYCLE: usize = 20;
/// `dept` and the first partitions of `emp` are wanted first after a crash.
const WORKING_SET_EMP_PARTITIONS: u32 = 16;

pub fn restart(bench: Bench, mut ph: Phase) -> Res<(Bench, Vec<Phase>)> {
    let Bench {
        mut engine,
        mut model,
        store,
    } = bench;
    let loaded = model.loaded;
    let mut lose_next_write = ph.fault == Fault::LostWrite;
    while ph.running() {
        // Stage: commits the restart will have to bring back.
        let before = EngineCounters::read(&engine);
        let session = engine.session();
        let mut touched = Vec::with_capacity(UPDATES_PER_CYCLE + INSERTS_PER_CYCLE);
        for i in 0..UPDATES_PER_CYCLE {
            let id = ph.rng.below(loaded);
            let (attr, value) = if i % 2 == 0 {
                ("salary", ph.rng.below(SALARY_SPAN))
            } else {
                ("age", AGE_LO + ph.rng.below(AGE_SPAN))
            };
            let row = model
                .emp
                .get_mut(&id)
                .ok_or("restart: the model lost a loaded row")?;
            let mut txn = session.begin();
            ph.txns += 1;
            session.update(&mut txn, "emp", row.tid, attr, OwnedValue::Int(value))?;
            if std::mem::take(&mut lose_next_write) {
                session.abort(txn);
            } else {
                session.commit(txn)?;
            }
            if attr == "salary" {
                row.salary = value;
            } else {
                row.age = value;
            }
            ph.write_commits += 1;
            ph.user_bytes += 8;
            touched.push(id);
        }
        for _ in 0..INSERTS_PER_CYCLE {
            let id = model.fresh_id();
            let mut row = EmpRow::generate(&mut ph.rng, id);
            let mut txn = session.begin();
            ph.txns += 1;
            session.insert(&mut txn, "emp", row.values(id))?;
            let tids = session.commit(txn)?;
            let [tid] = tids.as_slice() else {
                return Err("restart: an insert commit did not return one tid".into());
            };
            row.tid = *tid;
            ph.write_commits += 1;
            ph.user_bytes += row.user_bytes();
            model.emp.insert(id, row);
            touched.push(id);
        }
        drop(session);

        // A fuzzy checkpoint that the crash interrupts half way.
        let t = ph.tr.now();
        let checkpoint = engine.with_db(|db| -> Res<_> {
            let mut cp = db.checkpoint_begin();
            for _ in 0..cp.remaining() / 2 {
                cp.step(db)?;
            }
            Ok(cp.report())
        })?;
        ph.restart.checkpoint_ns += ph.tr.now() - t;
        ph.restart.checkpoint_images += checkpoint.images_written as u64;
        let after = EngineCounters::read(&engine);
        ph.engine.add_since(&after, &before);

        // The op: lose the memory-resident database, then restart from the
        // stable log buffer, the log device and the disk copy alone.
        let db = engine
            .into_inner()
            .ok_or("restart: a session outlived its cycle")?;
        let (dept_parts, emp_parts) = (
            db.with_relation("dept", |r| r.partition_count())? as u32,
            db.with_relation("emp", |r| r.partition_count())? as u32,
        );
        let working_set: Vec<(&str, u32)> = (0..dept_parts)
            .map(|p| ("dept", p))
            .chain((0..emp_parts.min(WORKING_SET_EMP_PARTITIONS)).map(|p| ("emp", p)))
            .collect();
        let reads_before = store.snapshot().reads;
        let crashed = db.crash();
        let op = ph.begin_op();
        let t0 = ph.tr.now();
        let (db, report) = crashed.recover_with(&working_set, ExecConfig::default())?;
        let t1 = ph.tr.now();
        ph.end_op(op, t0, t1);
        engine = TxnEngine::new(db);

        let tm = report.timings;
        let ns = |d: std::time::Duration| d.as_nanos() as u64;
        ph.tr.lay(
            op,
            t0,
            &[
                ("recovery.catalog", ns(tm.catalog)),
                ("recovery.working_set", ns(tm.working_set)),
                ("recovery.background", ns(tm.background)),
                ("index.rebuild", ns(tm.index_rebuild)),
            ],
        );
        let r = &mut ph.restart;
        r.restarts += 1;
        r.catalog_ns += ns(tm.catalog);
        r.working_set_ns += ns(tm.working_set);
        r.background_ns += ns(tm.background);
        r.index_rebuild_ns += ns(tm.index_rebuild);
        r.index_entries += report
            .index_stats
            .iter()
            .map(|s| s.entries as u64)
            .sum::<u64>();
        r.index_task_ns += report
            .index_stats
            .iter()
            .map(|s| ns(s.elapsed))
            .sum::<u64>();
        r.disk_reads += store.snapshot().reads - reads_before;

        // Durability: every write acknowledged in this cycle, by value.
        let session = engine.session();
        let mut lost = Vec::new();
        for id in &touched {
            let want = &model.emp[id];
            let mut txn = session.begin();
            let rows = session.select_values(&mut txn, "emp", "id", &id_eq(*id), &EMP_ATTRS)?;
            session.commit(txn)?;
            if !matches!(rows.as_slice(), [row] if want.matches(*id, row)) {
                lost.push(format!("emp.id = {id}: {rows:?}"));
            }
        }
        if !lost.is_empty() {
            ph.fail(|| {
                format!(
                    "restart lost {} acknowledged writes, first {}",
                    lost.len(),
                    lost[0]
                )
            });
        }
    }
    Ok((
        Bench {
            engine,
            model,
            store,
        },
        vec![ph],
    ))
}
