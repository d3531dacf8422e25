//! Lock-order fixtures: ordered and out-of-order acquisition, plus a
//! latch held across (and one dropped before) a lock-manager re-entry.

pub struct LockManager;

impl LockManager {
    pub fn acquire(&self, _target: u32) {}
    pub fn lock_catalog(&self) {}
    pub fn lock_relation(&self) {}
}

pub struct Latch;

pub struct LatchGuard;

impl Latch {
    pub fn lock(&self) -> LatchGuard {
        LatchGuard
    }
}

/// Clean: catalog before partition.
pub fn ordered(m: &LockManager) {
    m.lock_catalog();
    m.acquire(1);
}

/// SEEDED VIOLATION (lock-order): partition before relation.
pub fn unordered(m: &LockManager) {
    m.acquire(1);
    m.lock_relation();
}

/// SEEDED VIOLATION (lock-order): latch held across `acquire`.
pub fn latch_across(l: &Latch, m: &LockManager) {
    let g = l.lock();
    m.acquire(2);
    drop(g);
}

/// Clean: latch dropped before the re-entry.
pub fn latch_dropped(l: &Latch, m: &LockManager) {
    let g = l.lock();
    drop(g);
    m.acquire(3);
}

/// Clean: the latch dies with its inner block before the re-entry.
pub fn latch_scoped(l: &Latch, m: &LockManager) {
    {
        let _g = l.lock();
    }
    m.acquire(4);
}

// Transaction-context fixtures: raw acquisition outside the context
// functions, and lock release racing an unflushed commit record.

pub struct TxnLocks;

impl TxnLocks {
    pub fn lock(&self, _txn: u64, _target: u32) {}
    pub fn release_all(&self, _txn: u64) {}
    pub fn log_update(&self, _txn: u64) {}
    pub fn mark_committed(&self, _txn: u64) {}
}

/// Clean: the designated context function may acquire raw locks.
pub fn acquire(m: &TxnLocks) {
    m.lock(1, 2);
}

/// SEEDED VIOLATION (lock-order): raw acquisition outside the context.
pub fn sneaky_acquire(m: &TxnLocks) {
    m.lock(1, 2);
}

/// Clean: commit marker logged before the locks go.
pub fn commit_in_order(m: &TxnLocks) {
    m.log_update(7);
    m.mark_committed(7);
    m.release_all(7);
}

/// SEEDED VIOLATION (lock-order): locks released while the staged
/// commit record is unflushed.
pub fn early_release(m: &TxnLocks) {
    m.log_update(7);
    m.release_all(7);
    m.mark_committed(7);
}

impl Latch {
    /// SEEDED VIOLATION (lock-order): latch held across a raw
    /// acquisition, even inside a context function (named `acquire`).
    pub fn acquire(&self, m: &TxnLocks) {
        let g = self.lock();
        m.lock(1, 2);
        drop(g);
    }
}
