//! Deterministic fault injection for the disk copy.
//!
//! [`FaultyDisk`] interposes on every [`StableStore`] operation with a
//! seeded splitmix64 schedule (the same seeding discipline as the
//! `mmdb-check` interleaving explorer): a given `(seed, plan)` pair
//! produces the identical fault schedule on every run, bit for bit, so a
//! failing torture seed is a complete reproduction recipe.
//!
//! Injectable faults:
//!
//! * **Transient `io::Error`s** — randomly (per-mille rate over every
//!   operation) or deterministically (`fail_at` write indices). The
//!   underlying store is untouched; the caller may retry.
//! * **Torn writes** — a write persists only a seeded prefix of the
//!   image, modelling a non-atomic store interrupted mid-transfer.
//!   Combined with a crash point (`crash_at`) the tear is reported as an
//!   error; as a *silent* tear (`silent_tear_at`) the write reports
//!   success, modelling a disk that lies — restart must detect it.
//! * **Crash points** — a panic-free "power cut" at a chosen write: the
//!   disk state freezes and every subsequent operation fails until
//!   [`FaultHandle::heal`] restores power.
//!
//! Every decision is folded into a running `schedule_digest`, so two runs
//! can assert they experienced the exact same fault schedule.

use crate::disk::StableStore;
use crate::log::PartitionKey;
use std::io;
use std::sync::{Arc, Mutex, PoisonError};

/// The splitmix64 stream (identical constants to the `mmdb-check`
/// explorer) used to derive per-operation fault decisions from a seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed the stream.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// What faults a [`FaultyDisk`] injects. Write indices (`crash_at`,
/// `silent_tear_at`, `fail_at`) count *write operations* (partition
/// images and metadata blobs) since [`FaultHandle::arm`]; the per-mille
/// error rate applies to every operation, reads included.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for every derived decision (error rolls, tear lengths).
    pub seed: u64,
    /// Probability (0..=1000) that any operation fails transiently.
    pub error_per_mille: u16,
    /// Power cut at this write index: the write tears (a seeded prefix
    /// persists), the operation errors, and the disk freezes.
    pub crash_at: Option<u64>,
    /// Tear these writes (a seeded prefix persists) but report success —
    /// a lying disk. Restart must detect the corruption.
    pub silent_tear_at: Vec<u64>,
    /// Deterministic transient failures at these write indices.
    pub fail_at: Vec<u64>,
}

impl FaultPlan {
    /// No faults at all: the disk is transparent (conformance baseline).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A seeded plan with a transient-error rate but no crash point.
    #[must_use]
    pub fn seeded(seed: u64, error_per_mille: u16) -> Self {
        FaultPlan {
            seed,
            error_per_mille,
            ..FaultPlan::default()
        }
    }

    /// Add a power cut at the given write index.
    #[must_use]
    pub fn with_crash_at(mut self, write_index: u64) -> Self {
        self.crash_at = Some(write_index);
        self
    }

    /// Add a silent tear at the given write index (may be repeated).
    #[must_use]
    pub fn with_silent_tear_at(mut self, write_index: u64) -> Self {
        self.silent_tear_at.push(write_index);
        self
    }

    /// Add deterministic transient failures at these write indices.
    #[must_use]
    pub fn with_fail_at(mut self, write_indices: &[u64]) -> Self {
        self.fail_at = write_indices.to_vec();
        self
    }
}

/// Operation/fault counters, readable through [`FaultHandle::counters`].
/// `schedule_digest` folds every fault decision (operation index + fault
/// kind + tear length) into one value: equal digests mean two runs saw
/// the bit-for-bit identical fault schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Every store operation observed while armed.
    pub ops: u64,
    /// Write operations (images + metadata) while armed.
    pub writes: u64,
    /// Read operations (images + metadata + key listings) while armed.
    pub reads: u64,
    /// Transient errors injected (random + deterministic).
    pub injected_errors: u64,
    /// Torn writes performed (crash tears + silent tears).
    pub torn_writes: u64,
    /// True once a crash point fired; cleared by [`FaultHandle::heal`].
    pub power_cut: bool,
    /// Digest of the fault schedule (see type docs).
    pub schedule_digest: u64,
}

#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    armed: bool,
    powered: bool,
    counters: FaultCounters,
}

impl FaultState {
    fn digest(&mut self, op: u64, kind: u64, extra: u64) {
        let mut h = SplitMix64::new(
            self.counters
                .schedule_digest
                .wrapping_add(op)
                .wrapping_add(kind.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_add(extra),
        );
        self.counters.schedule_digest = h.next_u64();
    }
}

/// What one gated operation should do.
enum Admit {
    /// Perform the operation against the inner store.
    Pass,
    /// Fail without touching the inner store.
    Deny(io::Error),
    /// Write only `keep` bytes of the image; report success (lying disk).
    TearSilent { keep_roll: u64 },
    /// Write only `keep` bytes, then freeze the disk and report the cut.
    TearAndCut { keep_roll: u64 },
}

/// Shared handle to a [`FaultyDisk`]'s fault state: arm or heal the disk
/// and read its counters — including after the database owning the disk
/// has crashed.
#[derive(Debug, Clone)]
pub struct FaultHandle {
    state: Arc<Mutex<FaultState>>,
}

impl FaultHandle {
    /// Start injecting faults (operations before arming pass through
    /// uncounted — lets tests run DDL/setup on a reliable disk).
    pub fn arm(&self) {
        self.state.lock().unwrap_or_else(fail_stop).armed = true;
    }

    /// Restore power and stop injecting faults entirely: the torn/frozen
    /// disk state is preserved, but every subsequent operation succeeds
    /// if the underlying store does (models replacing the failing
    /// hardware before restart).
    pub fn heal(&self) {
        let mut s = self.state.lock().unwrap_or_else(fail_stop);
        s.armed = false;
        s.powered = true;
        s.counters.power_cut = false;
    }

    /// False after a crash point fired (and before [`FaultHandle::heal`]).
    #[must_use]
    pub fn is_powered(&self) -> bool {
        self.state.lock().unwrap_or_else(fail_stop).powered
    }

    /// Snapshot of the operation/fault counters.
    #[must_use]
    pub fn counters(&self) -> FaultCounters {
        self.state.lock().unwrap_or_else(fail_stop).counters.clone()
    }
}

/// A [`StableStore`] that injects seeded faults in front of any backend.
#[derive(Debug)]
pub struct FaultyDisk<S> {
    inner: S,
    state: Arc<Mutex<FaultState>>,
}

impl<S: StableStore> FaultyDisk<S> {
    /// Wrap `inner` with a fault plan. Faults fire only after
    /// [`FaultHandle::arm`].
    pub fn new(inner: S, plan: FaultPlan) -> (Self, FaultHandle) {
        let state = Arc::new(Mutex::new(FaultState {
            plan,
            armed: false,
            powered: true,
            counters: FaultCounters::default(),
        }));
        let handle = FaultHandle {
            state: Arc::clone(&state),
        };
        (FaultyDisk { inner, state }, handle)
    }

    /// The wrapped store (tests inspecting frozen disk state).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Per-operation gate: decides pass/deny/tear from the plan and the
    /// seeded stream, updating counters and the schedule digest.
    fn gate(&self, is_write: bool) -> Admit {
        let mut s = self.state.lock().unwrap_or_else(fail_stop);
        if !s.powered {
            return Admit::Deny(power_cut_error());
        }
        if !s.armed {
            return Admit::Pass;
        }
        let op = s.counters.ops;
        s.counters.ops += 1;
        let write_index = s.counters.writes;
        if is_write {
            s.counters.writes += 1;
        } else {
            s.counters.reads += 1;
        }
        // One derived stream per operation: decision order is fixed, so
        // the schedule depends only on (seed, op index).
        let mut rng = SplitMix64::new(
            s.plan
                .seed
                .wrapping_add(op.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        let error_roll = rng.next_u64() % 1000;
        let keep_roll = rng.next_u64();
        if is_write && s.plan.crash_at == Some(write_index) {
            s.counters.torn_writes += 1;
            s.counters.power_cut = true;
            s.powered = false;
            s.digest(op, 1, keep_roll);
            return Admit::TearAndCut { keep_roll };
        }
        if is_write && s.plan.silent_tear_at.contains(&write_index) {
            s.counters.torn_writes += 1;
            s.digest(op, 2, keep_roll);
            return Admit::TearSilent { keep_roll };
        }
        if is_write && s.plan.fail_at.contains(&write_index) {
            s.counters.injected_errors += 1;
            s.digest(op, 3, 0);
            return Admit::Deny(injected_error(s.plan.seed, op));
        }
        if u64::from(s.plan.error_per_mille) > error_roll {
            s.counters.injected_errors += 1;
            s.digest(op, 4, 0);
            return Admit::Deny(injected_error(s.plan.seed, op));
        }
        s.digest(op, 0, 0);
        Admit::Pass
    }

    /// Length of the surviving prefix of a torn write: a seeded strict
    /// prefix (never the full image; empty images stay empty).
    fn tear_len(image_len: usize, keep_roll: u64) -> usize {
        if image_len == 0 {
            0
        } else {
            (keep_roll % image_len as u64) as usize
        }
    }
}

/// Poison handler for the shared fault state. Only the bookkeeping in
/// this module runs under it, so poison means that bookkeeping panicked:
/// re-raise (fail-stop) rather than inject from a half-updated schedule.
fn fail_stop<G>(_: PoisonError<G>) -> G {
    panic!("fault state poisoned: the fault injector panicked while holding it")
}

fn power_cut_error() -> io::Error {
    io::Error::other("injected power cut: disk is offline until healed")
}

fn injected_error(seed: u64, op: u64) -> io::Error {
    io::Error::other(format!("injected transient fault (seed {seed}, op {op})"))
}

impl<S: StableStore> StableStore for FaultyDisk<S> {
    fn write(&mut self, key: PartitionKey, image: &[u8]) -> io::Result<()> {
        match self.gate(true) {
            Admit::Pass => self.inner.write(key, image),
            Admit::Deny(e) => Err(e),
            Admit::TearSilent { keep_roll } => {
                let keep = Self::tear_len(image.len(), keep_roll);
                self.inner.write(key, &image[..keep])
            }
            Admit::TearAndCut { keep_roll } => {
                let keep = Self::tear_len(image.len(), keep_roll);
                self.inner.write(key, &image[..keep])?;
                Err(power_cut_error())
            }
        }
    }

    fn read(&self, key: PartitionKey) -> io::Result<Option<Vec<u8>>> {
        match self.gate(false) {
            Admit::Pass => self.inner.read(key),
            Admit::Deny(e) => Err(e),
            // Tears apply to writes only; unreachable for reads.
            Admit::TearSilent { .. } | Admit::TearAndCut { .. } => self.inner.read(key),
        }
    }

    fn keys(&self) -> io::Result<Vec<PartitionKey>> {
        match self.gate(false) {
            Admit::Pass => self.inner.keys(),
            Admit::Deny(e) => Err(e),
            Admit::TearSilent { .. } | Admit::TearAndCut { .. } => self.inner.keys(),
        }
    }

    fn write_meta(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        match self.gate(true) {
            Admit::Pass => self.inner.write_meta(name, bytes),
            Admit::Deny(e) => Err(e),
            Admit::TearSilent { keep_roll } => {
                let keep = Self::tear_len(bytes.len(), keep_roll);
                self.inner.write_meta(name, &bytes[..keep])
            }
            Admit::TearAndCut { keep_roll } => {
                let keep = Self::tear_len(bytes.len(), keep_roll);
                self.inner.write_meta(name, &bytes[..keep])?;
                Err(power_cut_error())
            }
        }
    }

    fn read_meta(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match self.gate(false) {
            Admit::Pass => self.inner.read_meta(name),
            Admit::Deny(e) => Err(e),
            Admit::TearSilent { .. } | Admit::TearAndCut { .. } => self.inner.read_meta(name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn k(p: u32) -> PartitionKey {
        PartitionKey::new(0, p)
    }

    #[test]
    fn unarmed_disk_is_transparent_and_uncounted() {
        let (mut d, h) = FaultyDisk::new(MemDisk::new(), FaultPlan::seeded(1, 1000));
        d.write(k(0), &[1, 2, 3]).unwrap();
        assert_eq!(d.read(k(0)).unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(h.counters().ops, 0);
    }

    #[test]
    fn every_op_fails_at_rate_1000() {
        let (mut d, h) = FaultyDisk::new(MemDisk::new(), FaultPlan::seeded(7, 1000));
        h.arm();
        assert!(d.write(k(0), &[1]).is_err());
        assert!(d.read(k(0)).is_err());
        assert!(d.keys().is_err());
        assert!(d.write_meta("m", b"x").is_err());
        assert!(d.read_meta("m").is_err());
        let c = h.counters();
        assert_eq!(c.injected_errors, 5);
        assert_eq!(c.writes, 2);
        assert_eq!(c.reads, 3);
        assert!(!c.power_cut);
    }

    #[test]
    fn crash_point_tears_the_write_and_freezes_the_disk() {
        let (mut d, h) = FaultyDisk::new(MemDisk::new(), FaultPlan::seeded(3, 0).with_crash_at(1));
        h.arm();
        d.write(k(0), &[9; 64]).unwrap(); // write 0: clean
        let err = d.write(k(1), &[7; 64]).unwrap_err(); // write 1: power cut
        assert!(err.to_string().contains("power cut"), "{err}");
        assert!(!h.is_powered());
        assert!(h.counters().power_cut);
        assert_eq!(h.counters().torn_writes, 1);
        // Frozen: everything fails, including reads.
        assert!(d.read(k(0)).is_err());
        assert!(d.write(k(2), &[1]).is_err());
        // The torn image is a strict prefix.
        let torn = d.inner().read(k(1)).unwrap().unwrap();
        assert!(torn.len() < 64);
        assert!(torn.iter().all(|b| *b == 7));
        // Healing restores service; frozen state is preserved.
        h.heal();
        assert_eq!(d.read(k(0)).unwrap(), Some(vec![9; 64]));
        assert_eq!(d.read(k(1)).unwrap().unwrap(), torn);
    }

    #[test]
    fn silent_tear_reports_success_but_corrupts() {
        let (mut d, h) = FaultyDisk::new(
            MemDisk::new(),
            FaultPlan::seeded(5, 0).with_silent_tear_at(0),
        );
        h.arm();
        d.write(k(0), &[4; 32]).unwrap(); // lies
        assert!(h.is_powered());
        assert_eq!(h.counters().torn_writes, 1);
        let stored = d.read(k(0)).unwrap().unwrap();
        assert!(stored.len() < 32, "silent tear must lose bytes");
    }

    #[test]
    fn deterministic_fail_at_write_indices() {
        let (mut d, h) = FaultyDisk::new(
            MemDisk::new(),
            FaultPlan::seeded(2, 0).with_fail_at(&[0, 2]),
        );
        h.arm();
        assert!(d.write(k(0), &[1]).is_err());
        assert!(d.write(k(0), &[1]).is_ok());
        assert!(d.write_meta("m", b"x").is_err());
        assert!(d.write_meta("m", b"x").is_ok());
        assert_eq!(h.counters().injected_errors, 2);
    }

    #[test]
    fn same_seed_same_schedule_digest() {
        let run = |seed: u64| {
            let (mut d, h) = FaultyDisk::new(MemDisk::new(), FaultPlan::seeded(seed, 300));
            h.arm();
            for i in 0..50u32 {
                let _ = d.write(k(i % 4), &[i as u8; 16]);
                let _ = d.read(k(i % 4));
            }
            h.counters()
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a, b, "identical seed must replay bit-for-bit");
        assert!(
            a.injected_errors > 0,
            "rate 300/1000 over 100 ops must fire"
        );
        let c = run(12);
        assert_ne!(
            a.schedule_digest, c.schedule_digest,
            "different seeds should diverge"
        );
    }
}
