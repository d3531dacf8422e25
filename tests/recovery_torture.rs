//! Crash-recovery torture suite: deterministic fault injection against
//! the full `Database` stack.
//!
//! Every test here drives a seeded, scripted workload (inserts, updates,
//! deletes, aborts, log-device flushes, fuzzy checkpoint steps) over a
//! [`FaultyDisk`] that injects I/O errors, torn writes, and power cuts
//! at deterministic points. After the crash the database restarts via
//! `RecoveryManager::restart` (through `CrashedDatabase::recover`) and
//! must be tuple-for-tuple equal to the committed prefix of the
//! workload.
//!
//! Every failure panics with the seed (and crash point) that produced
//! it. To replay a single seed bit-for-bit:
//!
//! ```text
//! MMDB_TORTURE_SEED=<seed> cargo test --test recovery_torture torture_across_seeds -- --nocapture
//! ```
//!
//! `MMDB_TORTURE_SEEDS=<n>` widens or narrows the seed sweep (default
//! 64, the CI configuration).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmdb_core::{Checkpointer, Database, DbError, IndexKind, TxnEngine, TxnError};
use mmdb_exec::{ExecConfig, Predicate};
use mmdb_recovery::{
    FaultCounters, FaultPlan, FaultyDisk, MemDisk, PartitionKey, RecoveryManager, SplitMix64,
    StableStore,
};
use mmdb_storage::{AttrType, KeyValue, OwnedValue, Schema, TupleId};
use std::collections::BTreeMap;

/// Aborted transactions insert keys at or above this offset, so any key
/// in this range surviving restart is leaked uncommitted work.
const ABORT_BASE: i64 = 1_000_000;

/// Database-level operations per scripted run.
const SCRIPT_LEN: u64 = 28;

/// Salt separating the workload RNG stream from the fault schedule
/// (both derive from the same printed seed).
const SCRIPT_SALT: u64 = 0x5c7e_a11e_d00d_f00d;

/// Salt for deriving the crash point in the seed-sweep test.
const CRASH_SALT: u64 = 0x0dd0_c0ff_ee15_bad0;

struct RunStats {
    counters: FaultCounters,
    /// Injected errors the workload survived without crashing.
    transient_errors: u64,
    committed_rows: usize,
}

/// Run one scripted workload under `plan`, crash (at the injected power
/// cut, or at end of script), heal the hardware, restart, and check the
/// recovered database against the committed model.
///
/// Error strings are prefixed so callers can distinguish outcomes:
/// * `SETUP:` — the harness itself failed (always a test bug);
/// * `RESTART:` — recovery refused to come up (expected when a torn
///   image is the freshest surviving copy);
/// * `EQUIVALENCE:` — recovery *silently* diverged from the committed
///   prefix (never acceptable).
fn run_torture(seed: u64, plan: FaultPlan) -> Result<RunStats, String> {
    let (disk, handle) = FaultyDisk::new(MemDisk::new(), plan);
    let mut db = Database::with_disk(disk);
    // DDL runs on reliable hardware (the fault plan is not yet armed):
    // the torture target is the logging/checkpoint/restart path, not
    // catalog bootstrap.
    db.create_table(
        "t",
        Schema::of(&[("k", AttrType::Int), ("v", AttrType::Int)]),
    )
    .map_err(|e| format!("SETUP: seed {seed}: create_table: {e}"))?;
    db.create_index("t_k", "t", "k", IndexKind::TTree)
        .map_err(|e| format!("SETUP: seed {seed}: create_index: {e}"))?;
    handle.arm();

    let mut rng = SplitMix64::new(seed.wrapping_add(SCRIPT_SALT));
    // Committed truth: key -> (tid, value).
    let mut model: BTreeMap<i64, (TupleId, i64)> = BTreeMap::new();
    let mut next_key: i64 = 0;
    let mut transient_errors = 0u64;
    let mut ckpt: Option<Checkpointer> = None;

    // Resolve an I/O error from a disk-touching op: a power cut ends the
    // workload (true = crash now); anything else is a transient fault
    // the workload rides through.
    macro_rules! crashed_on {
        ($res:expr) => {
            match $res {
                Ok(_) => false,
                Err(_) if !handle.is_powered() => true,
                Err(_) => {
                    transient_errors += 1;
                    false
                }
            }
        };
    }

    'script: for _ in 0..SCRIPT_LEN {
        match rng.next_u64() % 100 {
            // Commit a batch of fresh inserts. Commits touch only the
            // (volatile-resident) stable log buffer — never the faulty
            // disk — so they cannot fail.
            0..=24 => {
                let n = 1 + rng.next_u64() % 4;
                let mut txn = db.begin();
                let mut fresh = Vec::new();
                for _ in 0..n {
                    let k = next_key;
                    next_key += 1;
                    db.insert(
                        &mut txn,
                        "t",
                        vec![OwnedValue::Int(k), OwnedValue::Int(k * 10)],
                    )
                    .map_err(|e| format!("SETUP: seed {seed}: insert: {e}"))?;
                    fresh.push(k);
                }
                let tids = db
                    .commit(txn)
                    .map_err(|e| format!("SETUP: seed {seed}: commit: {e}"))?;
                for (k, tid) in fresh.into_iter().zip(tids) {
                    model.insert(k, (tid, k * 10));
                }
            }
            // Commit an update of one existing row.
            25..=39 => {
                if model.is_empty() {
                    continue;
                }
                let pick = (rng.next_u64() as usize) % model.len();
                let (&k, &(tid, _)) = model.iter().nth(pick).unwrap();
                let v = (rng.next_u64() % 100_000) as i64;
                let mut txn = db.begin();
                db.update(&mut txn, "t", tid, "v", OwnedValue::Int(v))
                    .map_err(|e| format!("SETUP: seed {seed}: update: {e}"))?;
                db.commit(txn)
                    .map_err(|e| format!("SETUP: seed {seed}: commit update: {e}"))?;
                model.insert(k, (tid, v));
            }
            // Commit a delete of one existing row.
            40..=47 => {
                if model.is_empty() {
                    continue;
                }
                let pick = (rng.next_u64() as usize) % model.len();
                let (&k, &(tid, _)) = model.iter().nth(pick).unwrap();
                let mut txn = db.begin();
                db.delete(&mut txn, "t", tid)
                    .map_err(|e| format!("SETUP: seed {seed}: delete: {e}"))?;
                db.commit(txn)
                    .map_err(|e| format!("SETUP: seed {seed}: commit delete: {e}"))?;
                model.remove(&k);
            }
            // Stage a mess (inserts, maybe an update of live data) and
            // abort it — §2.4: the log entries are removed, no undo.
            48..=60 => {
                let mut txn = db.begin();
                let n = 1 + rng.next_u64() % 3;
                for _ in 0..n {
                    let k = ABORT_BASE + (rng.next_u64() % 10_000) as i64;
                    db.insert(&mut txn, "t", vec![OwnedValue::Int(k), OwnedValue::Int(-1)])
                        .map_err(|e| format!("SETUP: seed {seed}: abort-insert: {e}"))?;
                }
                if !model.is_empty() {
                    let pick = (rng.next_u64() as usize) % model.len();
                    let (_, &(tid, _)) = model.iter().nth(pick).unwrap();
                    db.update(&mut txn, "t", tid, "v", OwnedValue::Int(-7))
                        .map_err(|e| format!("SETUP: seed {seed}: abort-update: {e}"))?;
                }
                db.abort(txn);
            }
            // Full log-device cycle: pull committed records, flush
            // partition images to the (faulty) disk copy.
            61..=76 => {
                if crashed_on!(db.run_log_device()) {
                    break 'script;
                }
            }
            // One fuzzy checkpoint step, interleaved with everything
            // else. A transient failure leaves the partition on the
            // work list; the next step retries it.
            77..=90 => {
                if ckpt.is_none() {
                    ckpt = Some(db.checkpoint_begin());
                }
                let c = ckpt.as_mut().unwrap();
                match c.step(&mut db) {
                    Ok(None) => ckpt = None,
                    Ok(Some(_)) => {}
                    Err(_) if !handle.is_powered() => break 'script,
                    Err(_) => transient_errors += 1,
                }
            }
            // Sharp checkpoint: catalog + every dirty partition at once.
            _ => {
                if crashed_on!(db.checkpoint()) {
                    break 'script;
                }
            }
        }
    }

    // Crash — either we hit the injected power cut above or we pull the
    // plug at end of script. Volatile state vanishes; buffer, device,
    // and disk survive. `heal` models replacing the bad hardware before
    // restart (the surviving bytes, torn or not, are kept as-is).
    let committed_rows = model.len();
    let crashed = db.crash();
    // Snapshot before heal(): heal clears the power_cut flag.
    let counters = handle.counters();
    handle.heal();
    // Restart through the parallel replay path with a seed-derived dop,
    // so the sweep exercises serial (dop 1) and fanned-out restarts
    // alike — recovery must be bit-identical either way.
    let dop = 1 + (seed % 4) as usize;
    let (db2, _report) = crashed
        .recover_with(&[("t", 0)], ExecConfig::with_dop(dop))
        .map_err(|e| format!("RESTART: seed {seed}: {e}"))?;
    verify_equivalence(seed, &db2, &model)?;
    Ok(RunStats {
        counters,
        transient_errors,
        committed_rows,
    })
}

/// Assert the recovered database is tuple-for-tuple the committed model.
fn verify_equivalence<S: StableStore>(
    seed: u64,
    db: &Database<S>,
    model: &BTreeMap<i64, (TupleId, i64)>,
) -> Result<(), String> {
    let n = db
        .len("t")
        .map_err(|e| format!("EQUIVALENCE: seed {seed}: len: {e}"))?;
    if n != model.len() {
        return Err(format!(
            "EQUIVALENCE: seed {seed}: recovered {n} rows, committed prefix has {}",
            model.len()
        ));
    }
    db.validate_indexes()
        .map_err(|e| format!("EQUIVALENCE: seed {seed}: index validation after redo: {e}"))?;
    for (k, (_tid, v)) in model {
        let hits = db
            .select("t", "k", &Predicate::Eq(KeyValue::Int(*k)))
            .map_err(|e| format!("EQUIVALENCE: seed {seed}: select k={k}: {e}"))?;
        if hits.len() != 1 {
            return Err(format!(
                "EQUIVALENCE: seed {seed}: key {k} matched {} rows, want 1",
                hits.len()
            ));
        }
        let row = db
            .fetch("t", &hits.column(0), &["v"])
            .map_err(|e| format!("EQUIVALENCE: seed {seed}: fetch k={k}: {e}"))?;
        if row[0][0] != OwnedValue::Int(*v) {
            return Err(format!(
                "EQUIVALENCE: seed {seed}: key {k} recovered {:?}, committed value {v}",
                row[0][0]
            ));
        }
    }
    let ghosts = db
        .select("t", "k", &Predicate::greater(KeyValue::Int(ABORT_BASE - 1)))
        .map_err(|e| format!("EQUIVALENCE: seed {seed}: ghost scan: {e}"))?;
    if !ghosts.is_empty() {
        return Err(format!(
            "EQUIVALENCE: seed {seed}: {} aborted tuples leaked into recovery",
            ghosts.len()
        ));
    }
    #[cfg(feature = "check")]
    db.deep_check()
        .into_result()
        .map_err(|e| format!("EQUIVALENCE: seed {seed}: deep check after redo:\n{e}"))?;
    Ok(())
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// The CI sweep: N seeds (default 64), each with a seed-derived power
/// cut and a 5% per-op error rate. Any failure names its seed.
#[test]
fn torture_across_seeds() {
    let n = env_u64("MMDB_TORTURE_SEEDS").unwrap_or(64);
    let seeds: Vec<u64> = match env_u64("MMDB_TORTURE_SEED") {
        Some(one) => vec![one],
        None => (0..n).collect(),
    };
    let mut crashed_runs = 0u64;
    for &seed in &seeds {
        let crash_at = SplitMix64::new(seed.wrapping_add(CRASH_SALT)).next_u64() % 24;
        let plan = FaultPlan::seeded(seed, 50).with_crash_at(crash_at);
        match run_torture(seed, plan) {
            Ok(stats) => {
                if stats.counters.power_cut {
                    crashed_runs += 1;
                }
            }
            Err(msg) => panic!(
                "recovery torture failed under seed {seed} (power cut at write #{crash_at}): \
                 {msg}\n  replay: MMDB_TORTURE_SEED={seed} cargo test --test recovery_torture \
                 torture_across_seeds -- --nocapture"
            ),
        }
    }
    // The sweep must actually exercise mid-flight power cuts, not just
    // end-of-script crashes.
    if seeds.len() >= 16 {
        assert!(
            crashed_runs >= seeds.len() as u64 / 4,
            "only {crashed_runs}/{} runs reached their injected power cut — \
             fault schedule is not biting",
            seeds.len()
        );
    }
}

/// Exhaustive crash-point sweep: for a handful of base seeds, first run
/// the script fault-free to learn how many disk writes it performs,
/// then crash at *every* write index in turn.
#[test]
fn torture_crashes_at_every_write_point() {
    for seed in [1u64, 7, 23] {
        let clean = run_torture(seed, FaultPlan::none())
            .unwrap_or_else(|m| panic!("fault-free run must pass (seed {seed}): {m}"));
        let writes = clean.counters.writes;
        assert!(
            writes > 0,
            "seed {seed}: script performed no disk writes — sweep is vacuous"
        );
        assert_eq!(clean.transient_errors, 0);
        for crash_at in 0..writes {
            let plan = FaultPlan::seeded(seed, 0).with_crash_at(crash_at);
            if let Err(msg) = run_torture(seed, plan) {
                panic!("crash at write #{crash_at}/{writes} not recovered (seed {seed}): {msg}");
            }
        }
    }
}

/// A silent tear (the disk acks a prefix-only write) at every write
/// index must end in one of two acceptable states: full equivalence
/// (the tear was masked by a fresher surviving copy) or an explicit
/// `RESTART` corruption diagnostic. Silent divergence is the one
/// forbidden outcome.
#[test]
fn silent_tears_never_silently_diverge() {
    let mut detected = 0u64;
    let mut masked = 0u64;
    for seed in [3u64, 11] {
        let clean = run_torture(seed, FaultPlan::none())
            .unwrap_or_else(|m| panic!("fault-free run must pass (seed {seed}): {m}"));
        for tear_at in 0..clean.counters.writes {
            let plan = FaultPlan::seeded(seed, 0).with_silent_tear_at(tear_at);
            match run_torture(seed, plan) {
                Ok(_) => masked += 1,
                Err(msg) if msg.starts_with("RESTART:") => {
                    assert!(
                        msg.contains("corrupt") || msg.contains("catalog"),
                        "seed {seed}, tear at write #{tear_at}: restart failed but not \
                         with a corruption diagnostic: {msg}"
                    );
                    detected += 1;
                }
                Err(msg) => panic!(
                    "seed {seed}, tear at write #{tear_at}: torn write caused silent \
                     divergence instead of detection: {msg}"
                ),
            }
        }
    }
    // Masking must actually occur in the sweep; the *detected* outcome
    // is pinned down deterministically by
    // `torn_partition_image_is_detected_with_diagnostics` below, since
    // whether a given tear is masked depends on whether later commits
    // re-log the partition.
    assert!(masked > 0, "no tear was ever masked by fresher log layers");
    let _ = detected;
}

/// Deterministic negative test: tear the very first partition-image
/// flush, leave the torn image as the only copy, and demand a precise
/// `CorruptPartition` diagnostic at restart — not a silent redo.
#[test]
fn torn_partition_image_is_detected_with_diagnostics() {
    let plan = FaultPlan::seeded(99, 0).with_silent_tear_at(0);
    let (disk, handle) = FaultyDisk::new(MemDisk::new(), plan);
    let mut db = Database::with_disk(disk);
    db.create_table(
        "t",
        Schema::of(&[("k", AttrType::Int), ("v", AttrType::Int)]),
    )
    .unwrap();
    db.create_index("t_k", "t", "k", IndexKind::TTree).unwrap();
    handle.arm();
    let mut txn = db.begin();
    db.insert(&mut txn, "t", vec![OwnedValue::Int(1), OwnedValue::Int(10)])
        .unwrap();
    db.commit(txn).unwrap();
    // Flush "succeeds" but the disk kept only a prefix; the device and
    // buffer drop their (fresher) copies on the crash that follows, so
    // the torn image is all restart has.
    db.run_log_device().unwrap();
    assert_eq!(handle.counters().torn_writes, 1);
    let crashed = db.crash();
    handle.heal();
    let err = crashed
        .recover(&[("t", 0)])
        .err()
        .expect("restart must refuse a torn partition image");
    match &err {
        DbError::CorruptPartition {
            table,
            partition,
            source,
        } => {
            assert_eq!(table, "t");
            assert_eq!(*partition, 0);
            assert!(
                source.to_string().contains("truncated"),
                "diagnostic should say what the decoder rejected: {source}"
            );
        }
        other => panic!("want CorruptPartition, got: {other}"),
    }
    let msg = err.to_string();
    assert!(
        msg.contains("t.p0") && msg.contains("refusing to redo"),
        "diagnostic must name the image and the refusal: {msg}"
    );
}

/// Same discipline for the catalog: if *every* shadow slot is torn,
/// restart must fail with a catalog decode diagnostic, never read
/// garbage. (DDL runs armed here: write #0 persists epoch 1 to one
/// slot, write #1 persists epoch 2 to the other — tear both.)
#[test]
fn torn_catalog_is_detected_at_restart() {
    let plan = FaultPlan::seeded(7, 0)
        .with_silent_tear_at(0)
        .with_silent_tear_at(1);
    let (disk, handle) = FaultyDisk::new(MemDisk::new(), plan);
    let mut db = Database::with_disk(disk);
    handle.arm();
    db.create_table("t", Schema::of(&[("k", AttrType::Int)]))
        .unwrap();
    db.create_index("t_k", "t", "k", IndexKind::TTree).unwrap();
    assert_eq!(handle.counters().torn_writes, 2);
    let crashed = db.crash();
    handle.heal();
    match crashed.recover(&[("t", 0)]) {
        Err(DbError::Catalog(m)) => {
            assert!(
                m.contains("truncated") || m.contains("magic"),
                "catalog diagnostic should name the decode failure: {m}"
            );
        }
        Err(other) => panic!("want Catalog error, got: {other}"),
        Ok(_) => panic!("restart decoded a torn catalog without complaint"),
    }
}

/// The shadow-slot scheme at work: tearing one catalog persist (the
/// checkpoint's re-persist) must be masked by the other slot's intact
/// previous epoch — this exact scenario was unrecoverable before
/// catalog writes were double-buffered.
#[test]
fn torn_catalog_slot_is_masked_by_shadow_slot() {
    let plan = FaultPlan::seeded(7, 0).with_silent_tear_at(0);
    let (disk, handle) = FaultyDisk::new(MemDisk::new(), plan);
    let mut db = Database::with_disk(disk);
    db.create_table("t", Schema::of(&[("k", AttrType::Int)]))
        .unwrap();
    db.create_index("t_k", "t", "k", IndexKind::TTree).unwrap();
    let mut txn = db.begin();
    db.insert(&mut txn, "t", vec![OwnedValue::Int(1)]).unwrap();
    db.commit(txn).unwrap();
    handle.arm();
    // Checkpoint: catalog re-persist (write #0) is silently torn, the
    // partition image write that follows succeeds.
    db.checkpoint().unwrap();
    assert_eq!(handle.counters().torn_writes, 1);
    let crashed = db.crash();
    handle.heal();
    let (db2, _) = crashed
        .recover(&[("t", 0)])
        .expect("shadow slot must mask a single torn catalog write");
    assert_eq!(db2.len("t").unwrap(), 1);
    let hits = db2
        .select("t", "k", &Predicate::Eq(KeyValue::Int(1)))
        .unwrap();
    assert_eq!(hits.len(), 1);
}

/// A catalog write that fails must not advance the shadow epoch: the
/// retry (here the checkpoint's re-persist) then goes to the slot that
/// failed, and tearing it leaves the other slot's acknowledged epoch —
/// with its index — intact.
#[test]
fn failed_catalog_write_keeps_the_intact_slot() {
    let plan = FaultPlan::seeded(7, 0).with_fail_at(&[0]).with_crash_at(1);
    let (disk, handle) = FaultyDisk::new(MemDisk::new(), plan);
    let mut db = Database::with_disk(disk);
    db.create_table("a", Schema::of(&[("k", AttrType::Int)]))
        .unwrap();
    db.create_index("a_k", "a", "k", IndexKind::TTree).unwrap();
    handle.arm();
    // Write #0 fails transiently; write #1, the checkpoint's catalog
    // re-persist, tears and cuts the power.
    assert!(db
        .create_table("b", Schema::of(&[("k", AttrType::Int)]))
        .is_err());
    assert!(db.checkpoint().is_err());
    assert_eq!(handle.counters().torn_writes, 1);
    let crashed = db.crash();
    handle.heal();
    let (db2, report) = crashed.recover(&[("a", 0)]).unwrap();
    assert_eq!(report.indexes_rebuilt, 1, "acknowledged a_k survives");
    assert_eq!(report.index_stats[0].name, "a_k");
    assert!(matches!(db2.len("b"), Err(DbError::NoSuchTable(_))));
    db2.validate_indexes().unwrap();
}

/// DDL whose catalog write fails is rolled back in memory: the table or
/// index does not exist, and the same DDL succeeds once the disk heals.
#[test]
fn failed_ddl_is_rolled_back_and_retryable() {
    let plan = FaultPlan::seeded(7, 0).with_fail_at(&[0, 1]);
    let (disk, handle) = FaultyDisk::new(MemDisk::new(), plan);
    let mut db = Database::with_disk(disk);
    let schema = Schema::of(&[("k", AttrType::Int)]);
    db.create_table("a", schema.clone()).unwrap();
    handle.arm();
    assert!(db.create_table("b", schema.clone()).is_err());
    assert!(matches!(db.len("b"), Err(DbError::NoSuchTable(_))));
    assert!(db.create_index("a_k", "a", "k", IndexKind::TTree).is_err());
    // No index on `a` is live, so inserts into it are still refused.
    let mut txn = db.begin();
    assert!(matches!(
        db.insert(&mut txn, "a", vec![OwnedValue::Int(1)]),
        Err(DbError::MissingIndex(_))
    ));
    db.abort(txn);
    handle.heal();
    db.create_table("b", schema).unwrap();
    db.create_index("a_k", "a", "k", IndexKind::TTree).unwrap();
    let mut txn = db.begin();
    db.insert(&mut txn, "a", vec![OwnedValue::Int(1)]).unwrap();
    db.commit(txn).unwrap();
    db.validate_indexes().unwrap();
    let (db2, report) = db.crash().recover(&[("a", 0)]).unwrap();
    assert_eq!(db2.len("b").unwrap(), 0);
    assert_eq!(report.indexes_rebuilt, 1);
    assert_eq!(
        db2.select("a", "k", &Predicate::Eq(KeyValue::Int(1)))
            .unwrap()
            .len(),
        1
    );
}

/// Replaying the same seed must reproduce the run bit-for-bit: same op
/// counts, same injected faults, same fault schedule digest, same
/// committed row count.
#[test]
fn same_seed_replays_bit_for_bit() {
    let mk_plan = || FaultPlan::seeded(42, 120).with_crash_at(5);
    let a = run_torture(42, mk_plan()).expect("seed 42 must recover");
    let b = run_torture(42, mk_plan()).expect("seed 42 must recover on replay");
    assert_eq!(
        a.counters, b.counters,
        "fault schedule (including digest) must be identical across replays"
    );
    assert_eq!(a.transient_errors, b.transient_errors);
    assert_eq!(a.committed_rows, b.committed_rows);
}

// ---------------------------------------------------------------------
// Buggy-recovery-manager negative test: the torture harness must catch
// a manager that redoes uncommitted records, mirroring the explorer's
// buggy-lock-manager pattern in `mmdb-check`.
// ---------------------------------------------------------------------

/// The redo-recovery surface the manager-level harness scripts against.
trait RedoRecovery {
    fn log(&mut self, txn: u64, key: PartitionKey, image: Vec<u8>);
    fn commit(&mut self, txn: u64);
    fn abort(&mut self, txn: u64);
    fn flush(&mut self);
    fn crash(&mut self);
    fn recovered_images(&self) -> BTreeMap<PartitionKey, Vec<u8>>;
}

impl RedoRecovery for RecoveryManager<MemDisk> {
    fn log(&mut self, txn: u64, key: PartitionKey, image: Vec<u8>) {
        self.log_update(txn, key, image);
    }
    fn commit(&mut self, txn: u64) {
        RecoveryManager::commit(self, txn);
    }
    fn abort(&mut self, txn: u64) {
        RecoveryManager::abort(self, txn);
    }
    fn flush(&mut self) {
        self.run_log_device().expect("MemDisk flush cannot fail");
    }
    fn crash(&mut self) {
        self.crash_volatile();
    }
    fn recovered_images(&self) -> BTreeMap<PartitionKey, Vec<u8>> {
        self.restart(&[])
            .expect("MemDisk restart cannot fail")
            .into_iter()
            .map(|(k, img, _phase)| (k, img))
            .collect()
    }
}

/// A deliberately broken manager: at crash time it "helpfully" commits
/// every still-staged transaction before losing volatile state —
/// exactly the bug redo-only logging exists to rule out (§2.4 removes
/// aborted/uncommitted entries instead of redoing them).
struct BuggyManager {
    inner: RecoveryManager<MemDisk>,
    in_flight: Vec<u64>,
}

impl BuggyManager {
    fn new() -> Self {
        BuggyManager {
            inner: RecoveryManager::new(MemDisk::new()),
            in_flight: Vec::new(),
        }
    }
}

impl RedoRecovery for BuggyManager {
    fn log(&mut self, txn: u64, key: PartitionKey, image: Vec<u8>) {
        if !self.in_flight.contains(&txn) {
            self.in_flight.push(txn);
        }
        self.inner.log_update(txn, key, image);
    }
    fn commit(&mut self, txn: u64) {
        self.in_flight.retain(|&t| t != txn);
        self.inner.commit(txn);
    }
    fn abort(&mut self, txn: u64) {
        self.in_flight.retain(|&t| t != txn);
        self.inner.abort(txn);
    }
    fn flush(&mut self) {
        self.inner
            .run_log_device()
            .expect("MemDisk flush cannot fail");
    }
    fn crash(&mut self) {
        // THE BUG: staged (uncommitted) records get redone.
        for txn in std::mem::take(&mut self.in_flight) {
            self.inner.commit(txn);
        }
        self.inner.crash_volatile();
    }
    fn recovered_images(&self) -> BTreeMap<PartitionKey, Vec<u8>> {
        self.inner.recovered_images()
    }
}

/// Scripted manager-level torture: returns `Err(message-with-seed)` if
/// the recovered images diverge from the committed model.
fn run_manager_script<R: RedoRecovery>(seed: u64, mgr: &mut R) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed.wrapping_add(SCRIPT_SALT));
    // Model of committed truth: key -> (lsn, image); freshest LSN wins,
    // exactly the `recover_image` layering rule.
    let mut lsn = 0u64;
    let mut staged: BTreeMap<u64, Vec<(PartitionKey, u64, Vec<u8>)>> = BTreeMap::new();
    let mut committed: BTreeMap<PartitionKey, (u64, Vec<u8>)> = BTreeMap::new();
    // Partition write locks: the manager's contract assumes the strict
    // 2PL the lock manager enforces above it — a partition staged by one
    // in-flight transaction is not written by another until that
    // transaction commits or aborts (so per-partition log order equals
    // commit order).
    let mut owner: BTreeMap<PartitionKey, u64> = BTreeMap::new();
    for step in 0..40u64 {
        match rng.next_u64() % 10 {
            0..=4 => {
                let txn = rng.next_u64() % 3;
                let start = rng.next_u64() % 4;
                let free = (0..4u64).map(|i| ((start + i) % 4) as u32).find(|p| {
                    owner
                        .get(&PartitionKey::new(0, *p))
                        .is_none_or(|&holder| holder == txn)
                });
                let Some(p) = free else {
                    continue; // every partition locked by someone else
                };
                let key = PartitionKey::new(0, p);
                owner.insert(key, txn);
                // Unique payload per log record so any resurrected
                // uncommitted record is distinguishable.
                let image = vec![seed as u8, step as u8, txn as u8, 0xA5];
                staged
                    .entry(txn)
                    .or_default()
                    .push((key, lsn, image.clone()));
                lsn += 1;
                mgr.log(txn, key, image);
            }
            5..=6 => {
                let txn = rng.next_u64() % 3;
                for (key, l, img) in staged.remove(&txn).unwrap_or_default() {
                    match committed.get(&key) {
                        Some(&(have, _)) if have > l => {}
                        _ => {
                            committed.insert(key, (l, img));
                        }
                    }
                }
                owner.retain(|_, holder| *holder != txn);
                mgr.commit(txn);
            }
            7 => {
                let txn = rng.next_u64() % 3;
                staged.remove(&txn);
                owner.retain(|_, holder| *holder != txn);
                mgr.abort(txn);
            }
            _ => mgr.flush(),
        }
    }
    mgr.crash();
    let recovered = mgr.recovered_images();
    let want: BTreeMap<PartitionKey, Vec<u8>> = committed
        .into_iter()
        .map(|(k, (_l, img))| (k, img))
        .collect();
    if recovered != want {
        return Err(format!(
            "seed {seed}: recovered images diverge from committed model\n  recovered: \
             {recovered:?}\n  committed: {want:?}"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Concurrent-commit torture: group commits from several sessions racing
// the same FaultyDisk power cut. Durability lives in the stable log
// buffer (§2.4), so every commit that returned `Ok` before the plug is
// pulled — and nothing else — must survive restart.
// ---------------------------------------------------------------------

/// Committer sessions racing each other and the fault schedule.
const CONCURRENT_THREADS: usize = 3;

/// Transactions each committer session runs.
const TXNS_PER_SESSION: usize = 4;

/// Salt separating the concurrent committers' RNG streams from the
/// scripted single-threaded workload above.
const CONCURRENT_SALT: u64 = 0x9d2c_5680_ca11_ab1e;

/// Run `CONCURRENT_THREADS` sessions against one [`TxnEngine`] over a
/// faulty disk, each committing (or aborting) seeded insert batches and
/// occasionally racing a log-device cycle or checkpoint into the mix.
/// Then crash, heal, restart, and check the recovered table holds
/// exactly the rows whose commits returned `Ok`.
fn run_concurrent_torture(seed: u64, plan: FaultPlan) -> Result<FaultCounters, String> {
    let (disk, handle) = FaultyDisk::new(MemDisk::new(), plan);
    let mut db = Database::with_disk(disk);
    db.create_table(
        "ct",
        Schema::of(&[("k", AttrType::Int), ("v", AttrType::Int)]),
    )
    .map_err(|e| format!("SETUP: seed {seed}: create_table: {e}"))?;
    db.create_index("ct_k", "ct", "k", IndexKind::TTree)
        .map_err(|e| format!("SETUP: seed {seed}: create_index: {e}"))?;
    handle.arm();

    let engine = TxnEngine::new(db);
    let (sink, results) = std::sync::mpsc::channel::<(i64, i64)>();
    let mut workers = Vec::new();
    for t in 0..CONCURRENT_THREADS {
        let e = engine.clone();
        let sink = sink.clone();
        workers.push(std::thread::spawn(move || -> Result<(), String> {
            let session = e.session();
            let mut rng = SplitMix64::new(
                seed.wrapping_add(CONCURRENT_SALT)
                    .wrapping_mul(2 * t as u64 + 1),
            );
            for i in 0..TXNS_PER_SESSION {
                // Key space is partitioned per (thread, txn) so commits
                // never collide on a key and the committed set is
                // unambiguous regardless of interleaving.
                let base = ((t * TXNS_PER_SESSION + i) * 8) as i64;
                let n = 1 + rng.next_u64() % 3;
                let doomed = rng.next_u64().is_multiple_of(4);
                let mut txn = session.begin();
                let mut staged = Vec::new();
                for j in 0..n {
                    let k = if doomed {
                        ABORT_BASE + base + j as i64
                    } else {
                        base + j as i64
                    };
                    let v = (rng.next_u64() % 100_000) as i64;
                    session
                        .insert(&mut txn, "ct", vec![OwnedValue::Int(k), OwnedValue::Int(v)])
                        .map_err(|e| format!("SETUP: seed {seed}: thread {t}: insert: {e}"))?;
                    staged.push((k, v));
                }
                if doomed {
                    session.abort(txn);
                } else {
                    match session.commit(txn) {
                        Ok(_) => {
                            for kv in staged {
                                let _ = sink.send(kv);
                            }
                        }
                        // A victim commits nothing and leaves no trace.
                        Err(TxnError::Deadlock) => {}
                        Err(e) => {
                            return Err(format!("SETUP: seed {seed}: thread {t}: commit: {e}"))
                        }
                    }
                }
                // Race device cycles and checkpoints into the commit
                // stream. Both touch the faulty disk; any error (the
                // power cut included) is survivable because durability
                // is the marker in the stable log buffer, not the disk.
                if rng.next_u64().is_multiple_of(3) {
                    e.with_db(|db| {
                        let _ = db.run_log_device();
                    });
                }
                if rng.next_u64().is_multiple_of(4) {
                    e.with_db(|db| {
                        let _ = db.checkpoint();
                    });
                }
            }
            Ok(())
        }));
    }
    drop(sink);
    for w in workers {
        w.join()
            .map_err(|_| format!("SETUP: seed {seed}: committer thread panicked"))??;
    }
    let committed: BTreeMap<i64, i64> = results.iter().collect();

    let db = engine
        .into_inner()
        .ok_or_else(|| format!("SETUP: seed {seed}: engine still shared after join"))?;
    let counters = handle.counters();
    let crashed = db.crash();
    handle.heal();
    // Seed-derived dop, as in the scripted sweep: half the seeds restart
    // through the parallel replay path.
    let dop = 1 + (seed % 4) as usize;
    let (db2, _report) = crashed
        .recover_with(&[("ct", 0)], ExecConfig::with_dop(dop))
        .map_err(|e| format!("RESTART: seed {seed}: {e}"))?;

    let rows = db2
        .len("ct")
        .map_err(|e| format!("EQUIVALENCE: seed {seed}: len: {e}"))?;
    if rows != committed.len() {
        return Err(format!(
            "EQUIVALENCE: seed {seed}: recovered {rows} rows, {} commits returned Ok",
            committed.len()
        ));
    }
    db2.validate_indexes()
        .map_err(|e| format!("EQUIVALENCE: seed {seed}: index validation after redo: {e}"))?;
    for (k, v) in &committed {
        let hits = db2
            .select("ct", "k", &Predicate::Eq(KeyValue::Int(*k)))
            .map_err(|e| format!("EQUIVALENCE: seed {seed}: select k={k}: {e}"))?;
        if hits.len() != 1 {
            return Err(format!(
                "EQUIVALENCE: seed {seed}: committed key {k} matched {} rows, want 1",
                hits.len()
            ));
        }
        let row = db2
            .fetch("ct", &hits.column(0), &["v"])
            .map_err(|e| format!("EQUIVALENCE: seed {seed}: fetch k={k}: {e}"))?;
        if row[0][0] != OwnedValue::Int(*v) {
            return Err(format!(
                "EQUIVALENCE: seed {seed}: key {k} recovered {:?}, committed value {v}",
                row[0][0]
            ));
        }
    }
    let ghosts = db2
        .select(
            "ct",
            "k",
            &Predicate::greater(KeyValue::Int(ABORT_BASE - 1)),
        )
        .map_err(|e| format!("EQUIVALENCE: seed {seed}: ghost scan: {e}"))?;
    if !ghosts.is_empty() {
        return Err(format!(
            "EQUIVALENCE: seed {seed}: {} aborted tuples leaked into recovery",
            ghosts.len()
        ));
    }
    Ok(counters)
}

/// The concurrent sweep: N seeds (default 64, shared with the scripted
/// sweep's env knobs), each with a seed-derived power cut racing the
/// group-commit stream from three sessions.
#[test]
fn concurrent_commit_torture_across_seeds() {
    let n = env_u64("MMDB_TORTURE_SEEDS").unwrap_or(64);
    let seeds: Vec<u64> = match env_u64("MMDB_TORTURE_SEED") {
        Some(one) => vec![one],
        None => (0..n).collect(),
    };
    let mut cut_runs = 0u64;
    for &seed in &seeds {
        let crash_at = SplitMix64::new(seed.wrapping_add(CRASH_SALT)).next_u64() % 32;
        let plan = FaultPlan::seeded(seed, 50).with_crash_at(crash_at);
        match run_concurrent_torture(seed, plan) {
            Ok(counters) => {
                if counters.power_cut {
                    cut_runs += 1;
                }
            }
            Err(msg) => panic!(
                "concurrent commit torture failed under seed {seed} (power cut at write \
                 #{crash_at}): {msg}\n  replay: MMDB_TORTURE_SEED={seed} cargo test --test \
                 recovery_torture concurrent_commit_torture_across_seeds -- --nocapture"
            ),
        }
    }
    // The sweep must actually race commits against mid-flight power
    // cuts, not just run fault-free.
    if seeds.len() >= 16 {
        assert!(
            cut_runs >= seeds.len() as u64 / 4,
            "only {cut_runs}/{} runs reached their injected power cut — fault schedule \
             is not biting",
            seeds.len()
        );
    }
}

#[test]
fn buggy_recovery_manager_is_caught_and_replayable() {
    // The real manager survives the whole sweep.
    for seed in 0..64u64 {
        let mut mgr = RecoveryManager::new(MemDisk::new());
        run_manager_script(seed, &mut mgr)
            .unwrap_or_else(|m| panic!("correct manager failed torture: {m}"));
    }
    // The buggy one is caught, the failure names its seed, and the seed
    // replays to the identical failure.
    let caught: Vec<(u64, String)> = (0..64u64)
        .filter_map(|seed| {
            let mut mgr = BuggyManager::new();
            run_manager_script(seed, &mut mgr).err().map(|m| (seed, m))
        })
        .collect();
    assert!(
        !caught.is_empty(),
        "a manager that redoes uncommitted records slipped through 64 seeds"
    );
    let (seed, first_msg) = &caught[0];
    assert!(
        first_msg.contains(&format!("seed {seed}")),
        "failure message must carry the seed for replay: {first_msg}"
    );
    let mut replay = BuggyManager::new();
    let replay_msg = run_manager_script(*seed, &mut replay)
        .expect_err("replaying the failing seed must fail again");
    assert_eq!(
        &replay_msg, first_msg,
        "same seed must reproduce the identical failure bit-for-bit"
    );
}
