//! The disk copy the benchmark runs on: a `MemDisk` that counts what the
//! recovery layer sends to and asks from it. Latencies are therefore the
//! sandbox's, not a device's; the counts are what a device would see.

use mmdb_recovery::{MemDisk, PartitionKey, StableStore};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Totals since the store was created. Statistics only: nothing is
/// published through them, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct StoreCounters {
    writes: AtomicU64,
    write_bytes: AtomicU64,
    reads: AtomicU64,
    /// Time inside `write`/`write_meta`, taken only while `timed` is set.
    write_ns: AtomicU64,
    timed: AtomicBool,
}

/// A copy of the totals, for taking differences around a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreSnapshot {
    pub writes: u64,
    pub write_bytes: u64,
    pub reads: u64,
    pub write_ns: u64,
}

impl StoreSnapshot {
    pub fn since(&self, earlier: &StoreSnapshot) -> StoreSnapshot {
        StoreSnapshot {
            writes: self.writes - earlier.writes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            reads: self.reads - earlier.reads,
            write_ns: self.write_ns - earlier.write_ns,
        }
    }
}

impl StoreCounters {
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            writes: self.writes.load(Relaxed),
            write_bytes: self.write_bytes.load(Relaxed),
            reads: self.reads.load(Relaxed),
            write_ns: self.write_ns.load(Relaxed),
        }
    }

    /// Time every write from now on (traced runs only).
    pub fn time_writes(&self, on: bool) {
        self.timed.store(on, Relaxed);
    }

    fn count_write<R>(&self, bytes: usize, f: impl FnOnce() -> R) -> R {
        self.writes.fetch_add(1, Relaxed);
        self.write_bytes.fetch_add(bytes as u64, Relaxed);
        if !self.timed.load(Relaxed) {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.write_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        r
    }
}

#[derive(Debug)]
pub struct CountingStore {
    inner: MemDisk,
    counters: Arc<StoreCounters>,
}

impl CountingStore {
    pub fn new() -> (Self, Arc<StoreCounters>) {
        let counters = Arc::new(StoreCounters::default());
        let store = CountingStore {
            inner: MemDisk::new(),
            counters: Arc::clone(&counters),
        };
        (store, counters)
    }
}

impl StableStore for CountingStore {
    fn write(&mut self, key: PartitionKey, image: &[u8]) -> io::Result<()> {
        let inner = &mut self.inner;
        self.counters
            .count_write(image.len(), || inner.write(key, image))
    }

    fn read(&self, key: PartitionKey) -> io::Result<Option<Vec<u8>>> {
        self.counters.reads.fetch_add(1, Relaxed);
        self.inner.read(key)
    }

    fn keys(&self) -> io::Result<Vec<PartitionKey>> {
        self.inner.keys()
    }

    fn write_meta(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let inner = &mut self.inner;
        self.counters
            .count_write(bytes.len(), || inner.write_meta(name, bytes))
    }

    fn read_meta(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.counters.reads.fetch_add(1, Relaxed);
        self.inner.read_meta(name)
    }
}
