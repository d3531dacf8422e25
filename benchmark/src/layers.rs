//! Per-layer measurements that spans around public calls cannot give,
//! taken on the same loaded database right after a traced workload:
//!
//! * **ladders** repeat the workload's op one layer lower (a `Session`
//!   transaction, then `Database::select` + `fetch` under `with_db`, then
//!   `select` alone), so that differences isolate a layer;
//! * **probes** time a layer's public functions stand-alone on inputs of
//!   the workload's shape (a lock manager of its own, a log buffer and
//!   device of their own, this database's partition images).
//!
//! Every figure is a median over `REPS` (or `COMMIT_REPS`) repetitions.

use crate::dataset::{id_eq, int_between, Bench, Res, Rng};
use crate::stats::{median_ns, Metrics};
use crate::workloads::RANGE_ROWS;
use mmdb_lock::{LockManager, LockMode, LockTarget};
use mmdb_recovery::{LogDevice, MemDisk, PartitionKey, StableLogBuffer};
use mmdb_storage::{OwnedValue, Partition, TupleId};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 2000;
const COMMIT_REPS: usize = 300;
const IMAGE_REPS: usize = 64;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// `a - b` in ns, signed: a rung that comes out cheaper than the one
/// below it is a finding, not something to clamp away.
fn diff_ns(a: u64, b: u64) -> f64 {
    a as f64 - b as f64
}

pub fn battery(bench: &Bench, rng: &mut Rng, m: &mut Metrics) -> Res<()> {
    let engine = &bench.engine;
    let session = engine.session();
    // Rows that every workload leaves in place.
    let keys: Vec<i64> = {
        let all: Vec<i64> = bench.model.emp.keys().copied().collect();
        (0..REPS)
            .map(|_| all[rng.below(all.len() as i64) as usize])
            .collect()
    };

    // Ladder, top rung: the point_read transaction through a Session.
    let mut session_txn = Vec::with_capacity(REPS);
    for k in &keys {
        let t = Instant::now();
        let mut txn = session.begin();
        let rows =
            session.select_values(&mut txn, "emp", "id", &id_eq(*k), &["ename", "salary"])?;
        session.commit(txn)?;
        session_txn.push(ns_since(t));
        black_box(rows);
    }
    // Middle rung: the same select + fetch with no transaction around it.
    // Bottom rung: the select alone.
    let (mut select_fetch, mut select_eq, mut select_range) = (
        Vec::with_capacity(REPS),
        Vec::with_capacity(REPS),
        Vec::with_capacity(REPS),
    );
    engine.with_db(|db| -> Res<()> {
        for k in &keys {
            let t = Instant::now();
            let tids = db.select("emp", "id", &id_eq(*k))?;
            let flat: Vec<TupleId> = tids.iter().map(|r| r[0]).collect();
            black_box(db.fetch("emp", &flat, &["ename", "salary"])?);
            select_fetch.push(ns_since(t));

            let t = Instant::now();
            black_box(db.select("emp", "id", &id_eq(*k))?);
            select_eq.push(ns_since(t));

            let t = Instant::now();
            let rows = db.select("emp", "id", &int_between(*k, *k + RANGE_ROWS - 1))?;
            select_range.push(ns_since(t) / rows.len().max(1) as u64);
            black_box(rows);
        }
        Ok(())
    })?;
    let session_txn = median_ns(&mut session_txn);
    let select_fetch = median_ns(&mut select_fetch);
    let select_eq = median_ns(&mut select_eq);
    m.insert(
        "engine.session_overhead_us",
        (diff_ns(session_txn, select_fetch) / 1e3, "us"),
    );
    m.insert("index.select_eq_ns", (select_eq as f64, "ns"));
    m.insert(
        "index.select_range_ns_per_row",
        (median_ns(&mut select_range) as f64, "ns"),
    );
    m.insert("storage.fetch_ns", (diff_ns(select_fetch, select_eq), "ns"));

    // Lock probe: what a table read costs the lock manager alone — S-lock
    // every partition plus the append fence, then release.
    let partitions = engine.with_db(|db| db.with_relation("emp", |r| r.partition_count()))? as u32;
    let locks = LockManager::default();
    let (mut table_s, mut one_x) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for i in 0..REPS as u32 {
        let t = Instant::now();
        let txn = locks.begin();
        for p in 0..=partitions {
            locks.lock(txn, LockTarget::new(1, p), LockMode::Shared)?;
        }
        locks.release_all(txn);
        table_s.push(ns_since(t));

        let t = Instant::now();
        let txn = locks.begin();
        locks.lock(txn, LockTarget::new(1, i % partitions), LockMode::Exclusive)?;
        locks.release_all(txn);
        one_x.push(ns_since(t));
    }
    m.insert("lock.table_s_lock_us", (us(median_ns(&mut table_s)), "us"));
    m.insert("lock.x_lock_us", (us(median_ns(&mut one_x)), "us"));

    // Storage and recovery probes on this database's own partition images.
    let (mut image, mut decode, mut log_append, mut device_cycle) = (
        Vec::with_capacity(IMAGE_REPS),
        Vec::with_capacity(IMAGE_REPS),
        Vec::with_capacity(IMAGE_REPS),
        Vec::with_capacity(IMAGE_REPS),
    );
    let mut buffer = StableLogBuffer::new();
    let mut device = LogDevice::new();
    let mut disk = MemDisk::new();
    for i in 0..IMAGE_REPS as u32 {
        let p = rng.below(i64::from(partitions)) as u32;
        let t = Instant::now();
        let bytes = engine.with_db(|db| db.with_relation("emp", |r| r.partition_image(p)))??;
        image.push(ns_since(t));

        let t = Instant::now();
        black_box(Partition::try_from_bytes(&bytes)?);
        decode.push(ns_since(t));

        let key = PartitionKey::new(1, p);
        let t = Instant::now();
        buffer.log(u64::from(i), key, bytes);
        buffer.commit(u64::from(i));
        log_append.push(ns_since(t));

        let t = Instant::now();
        device.poll(&mut buffer);
        device.flush(&mut disk)?;
        device_cycle.push(ns_since(t));
    }
    let image = median_ns(&mut image);
    let log_append = median_ns(&mut log_append);
    let device_cycle = median_ns(&mut device_cycle);
    m.insert("storage.partition_image_us", (us(image), "us"));
    m.insert(
        "storage.partition_decode_us",
        (us(median_ns(&mut decode)), "us"),
    );
    m.insert("recovery.log_append_us", (us(log_append), "us"));
    m.insert("recovery.device_cycle_us", (us(device_cycle), "us"));

    // Commit ladder: the same single-row update commit on an unindexed and
    // on an indexed column (each row is given the value it already holds,
    // which the engine applies and logs like any other); the difference is
    // index maintenance, and what the probes above do not explain is the
    // engine's own.
    let (mut commit_salary, mut commit_age) = (
        Vec::with_capacity(COMMIT_REPS),
        Vec::with_capacity(COMMIT_REPS),
    );
    for k in keys.iter().take(COMMIT_REPS) {
        let row = &bench.model.emp[k];
        for (attr, value, into) in [
            ("salary", row.salary, &mut commit_salary),
            ("age", row.age, &mut commit_age),
        ] {
            let mut txn = session.begin();
            session.update(&mut txn, "emp", row.tid, attr, OwnedValue::Int(value))?;
            let t = Instant::now();
            session.commit(txn)?;
            into.push(ns_since(t));
        }
    }
    let commit_salary = median_ns(&mut commit_salary);
    let commit_age = median_ns(&mut commit_age);
    m.insert(
        "index.maintain_us",
        (diff_ns(commit_age, commit_salary) / 1e3, "us"),
    );
    m.insert(
        "engine.commit_residual_us",
        (
            diff_ns(commit_salary, image + log_append + device_cycle) / 1e3,
            "us",
        ),
    );
    Ok(())
}
