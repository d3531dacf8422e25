//! The one dataset every workload runs on, generated from `--seed`, and the
//! `BTreeMap` model of it that the oracle checks the engine against.
//!
//! `dept(dname Str, id Int)`: 1,000 rows, Hash index on `id`.
//! `emp(ename Str, id Int, age Int, dept_id Int, salary Int)`: `--rows`
//! rows (200,000 by default: ~165 partitions, ~10 MB of images, larger
//! than L2), T-Trees on `id` and `age`, loaded in 1,000-row commits.

use crate::store::{CountingStore, StoreCounters};
use mmdb_core::{Database, IndexKind, Session, TxnEngine};
use mmdb_exec::Predicate;
use mmdb_storage::{AttrType, KeyValue, OwnedValue, Schema, TupleId};
use std::collections::BTreeMap;
use std::sync::Arc;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;
pub type Engine = TxnEngine<CountingStore>;
pub type Sess = Session<CountingStore>;

pub const DEPTS: i64 = 1000;
pub const AGE_LO: i64 = 20;
pub const AGE_SPAN: i64 = 60;
pub const SALARY_SPAN: i64 = 100_000;
pub const LOAD_BATCH: usize = 1000;
pub const EMP_ATTRS: [&str; 5] = ["ename", "id", "age", "dept_id", "salary"];

/// SplitMix64: the benchmark's only source of randomness, so that the same
/// seed gives the same inputs on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: i64) -> i64 {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as i64
    }

    /// A stream of its own for client `i`, so clients do not share draws.
    pub fn fork(&self, i: u64) -> Rng {
        let mut r = Rng(self.0 ^ (i + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmpRow {
    pub ename: String,
    pub age: i64,
    pub dept_id: i64,
    pub salary: i64,
    /// Stable tuple pointer the insert commit returned (null until then);
    /// updates and deletes address the row through it.
    pub tid: TupleId,
}

impl EmpRow {
    /// Draw the attribute values of employee `id`.
    pub fn generate(rng: &mut Rng, id: i64) -> EmpRow {
        let mut ename = format!("e{id:07}");
        for _ in 0..rng.below(9) {
            ename.push((b'a' + rng.below(26) as u8) as char);
        }
        EmpRow {
            ename,
            age: AGE_LO + rng.below(AGE_SPAN),
            dept_id: rng.below(DEPTS),
            salary: rng.below(SALARY_SPAN),
            tid: TupleId::null(),
        }
    }

    /// The row as the engine takes it, in `EMP_ATTRS` order.
    pub fn values(&self, id: i64) -> Vec<OwnedValue> {
        vec![
            OwnedValue::Str(self.ename.clone()),
            OwnedValue::Int(id),
            OwnedValue::Int(self.age),
            OwnedValue::Int(self.dept_id),
            OwnedValue::Int(self.salary),
        ]
    }

    /// Is `row` (in `EMP_ATTRS` order, as the engine returned it) this row?
    pub fn matches(&self, id: i64, row: &[OwnedValue]) -> bool {
        matches!(row, [OwnedValue::Str(e), OwnedValue::Int(i), OwnedValue::Int(a), OwnedValue::Int(d), OwnedValue::Int(s)]
            if *e == self.ename && *i == id && *a == self.age && *d == self.dept_id && *s == self.salary)
    }

    pub fn user_bytes(&self) -> u64 {
        self.ename.len() as u64 + 4 * 8
    }
}

/// What the oracle believes the database holds.
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub emp: BTreeMap<i64, EmpRow>,
    /// `dname` by `dept.id`; never written after the load.
    pub dept: Vec<String>,
    /// Ids `0..loaded` are the rows of the initial load; no workload
    /// deletes them.
    pub loaded: i64,
    /// Next unused `emp.id`.
    pub next_id: i64,
}

impl Model {
    /// Bytes of live attribute values: the "user data" that space and
    /// write costs are read against.
    pub fn live_bytes(&self) -> u64 {
        let emp: u64 = self.emp.values().map(EmpRow::user_bytes).sum();
        let dept: u64 = self.dept.iter().map(|d| d.len() as u64 + 8).sum();
        emp + dept
    }

    pub fn fresh_id(&mut self) -> i64 {
        self.next_id += 1;
        self.next_id - 1
    }
}

/// A loaded database with its model and the counters of its disk copy.
pub struct Bench {
    pub engine: Engine,
    pub model: Model,
    pub store: Arc<StoreCounters>,
}

/// Build the dataset through the public API: schema, indexes, a load in
/// 1,000-row commits, then the first checkpoint. Engine defaults
/// everywhere (`ExecConfig::default()`, default `PartitionConfig`, reuse
/// cache off, log device run at every group commit).
pub fn setup(seed: u64, rows: usize) -> Res<Bench> {
    let (store, counters) = CountingStore::new();
    let mut db = Database::with_disk(store);
    db.create_table(
        "dept",
        Schema::of(&[("dname", AttrType::Str), ("id", AttrType::Int)]),
    )?;
    db.create_index("dept_id", "dept", "id", IndexKind::Hash)?;
    db.create_table(
        "emp",
        Schema::of(&[
            ("ename", AttrType::Str),
            ("id", AttrType::Int),
            ("age", AttrType::Int),
            ("dept_id", AttrType::Int),
            ("salary", AttrType::Int),
        ]),
    )?;
    db.create_index("emp_id", "emp", "id", IndexKind::TTree)?;
    db.create_index("emp_age", "emp", "age", IndexKind::TTree)?;

    let engine = TxnEngine::new(db);
    let session = engine.session();
    let mut rng = Rng::new(seed);
    let mut model = Model::default();

    let mut txn = session.begin();
    for id in 0..DEPTS {
        let dname = format!("dept-{id:04}-{:04x}", rng.below(1 << 16));
        session.insert(
            &mut txn,
            "dept",
            vec![OwnedValue::Str(dname.clone()), OwnedValue::Int(id)],
        )?;
        model.dept.push(dname);
    }
    session.commit(txn)?;

    let mut id = 0i64;
    while (id as usize) < rows {
        let batch = LOAD_BATCH.min(rows - id as usize);
        let mut txn = session.begin();
        let mut pending = Vec::with_capacity(batch);
        for _ in 0..batch {
            let row = EmpRow::generate(&mut rng, id);
            session.insert(&mut txn, "emp", row.values(id))?;
            pending.push((id, row));
            id += 1;
        }
        let tids = session.commit(txn)?;
        if tids.len() != pending.len() {
            return Err(format!(
                "load commit returned {} tids for {batch} inserts",
                tids.len()
            )
            .into());
        }
        for ((id, mut row), tid) in pending.into_iter().zip(tids) {
            row.tid = tid;
            model.emp.insert(id, row);
        }
    }
    model.loaded = id;
    model.next_id = id;
    engine.with_db(|db| db.checkpoint())?;
    Ok(Bench {
        engine,
        model,
        store: counters,
    })
}

pub fn id_eq(id: i64) -> Predicate {
    Predicate::Eq(KeyValue::Int(id))
}

pub fn int_between(lo: i64, hi: i64) -> Predicate {
    Predicate::between(KeyValue::Int(lo), KeyValue::Int(hi))
}

/// 64-bit FNV-1a over a row's values, finished with a SplitMix64 round so
/// that a wrapping sum of row hashes is a usable order-independent
/// checksum.
#[derive(Debug, Clone, Copy)]
pub struct RowHash(u64);

impl RowHash {
    pub fn new() -> Self {
        RowHash(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(mut self, b: &[u8]) -> Self {
        for x in b {
            self.0 = (self.0 ^ u64::from(*x)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    pub fn int(self, i: i64) -> Self {
        self.bytes(&[0]).bytes(&i.to_le_bytes())
    }

    pub fn str(self, s: &str) -> Self {
        self.bytes(&[1])
            .bytes(&(s.len() as u64).to_le_bytes())
            .bytes(s.as_bytes())
    }

    pub fn finish(self) -> u64 {
        Rng(self.0).next_u64()
    }

    /// Hash of a row the engine returned; `None` for a value type the
    /// dataset never holds.
    pub fn of_row(row: &[OwnedValue]) -> Option<u64> {
        let mut h = RowHash::new();
        for v in row {
            h = match v {
                OwnedValue::Int(i) => h.int(*i),
                OwnedValue::Str(s) => h.str(s),
                _ => return None,
            };
        }
        Some(h.finish())
    }
}

/// `(row count, wrapping sum of row hashes)` of an engine result.
pub fn count_and_checksum(rows: &[Vec<OwnedValue>]) -> Option<(usize, u64)> {
    let mut sum = 0u64;
    for r in rows {
        sum = sum.wrapping_add(RowHash::of_row(r)?);
    }
    Some((rows.len(), sum))
}

/// Compare the whole database with the whole model: every live `emp` and
/// `dept` row by value and by tuple pointer, nothing missing, nothing
/// extra, and every index structurally valid with one entry per row.
/// Returns the problems found, empty when the two agree.
pub fn verify_all(engine: &Engine, model: &Model) -> Res<Vec<String>> {
    let mut problems = Vec::new();
    engine.with_db(|db| -> Res<()> {
        if let Err(e) = db.validate_indexes() {
            problems.push(format!("validate_indexes: {e}"));
        }
        let tids = db.tids("emp")?;
        if tids.len() != model.emp.len() {
            problems.push(format!(
                "emp holds {} rows, model {}",
                tids.len(),
                model.emp.len()
            ));
        }
        // In slices, so that checking does not raise the peak memory the
        // workload itself needed.
        for chunk in tids.chunks(8192) {
            let rows = db.fetch("emp", chunk, &EMP_ATTRS)?;
            for (tid, row) in chunk.iter().zip(&rows) {
                let ok = match row.get(1) {
                    Some(OwnedValue::Int(id)) => model
                        .emp
                        .get(id)
                        .is_some_and(|want| want.tid == *tid && want.matches(*id, row)),
                    _ => false,
                };
                if !ok && problems.len() < 8 {
                    problems.push(format!(
                        "emp row at {tid:?} is {row:?}, not what the model holds"
                    ));
                }
            }
        }
        // Through the index too: a row the scan sees but the index lost
        // would otherwise pass.
        for (id, want) in model.emp.iter().step_by(97) {
            let got = db.select("emp", "id", &id_eq(*id))?;
            if got.len() != 1 || got.iter().next().map(|r| r[0]) != Some(want.tid) {
                problems.push(format!("emp.id = {id} not found through emp_id"));
            }
        }
        let dept_tids = db.tids("dept")?;
        let dept_rows = db.fetch("dept", &dept_tids, &["dname", "id"])?;
        let mut seen = vec![false; model.dept.len()];
        for row in &dept_rows {
            match (row.first(), row.get(1)) {
                (Some(OwnedValue::Str(d)), Some(OwnedValue::Int(id)))
                    if model.dept.get(*id as usize) == Some(d) =>
                {
                    seen[*id as usize] = true;
                }
                _ => problems.push(format!("dept row {row:?} is not in the model")),
            }
        }
        if dept_rows.len() != model.dept.len() || seen.contains(&false) {
            problems.push(format!(
                "dept holds {} rows, model {}",
                dept_rows.len(),
                model.dept.len()
            ));
        }
        Ok(())
    })?;
    Ok(problems)
}

/// Space cost: bytes of partition images per byte of live user data.
pub fn image_bytes_per_user_byte(engine: &Engine, model: &Model) -> Res<f64> {
    let mut image_bytes = 0u64;
    engine.with_db(|db| -> Res<()> {
        for table in ["dept", "emp"] {
            image_bytes += db.with_relation(table, |rel| -> Res<u64> {
                let mut sum = 0u64;
                for p in 0..rel.partition_count() as u32 {
                    sum += rel.partition_image(p)?.len() as u64;
                }
                Ok(sum)
            })??;
        }
        Ok(())
    })?;
    Ok(image_bytes as f64 / model.live_bytes() as f64)
}
