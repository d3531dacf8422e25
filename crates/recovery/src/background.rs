//! The *active* log device (§2.4): a background thread that periodically
//! pulls committed records and propagates them to the disk copy — "during
//! normal operation, the log device reads the updates of committed
//! transactions from the stable log buffer and updates the disk copy of
//! the database", concurrently with normal processing.

use crate::disk::StableStore;
use crate::manager::RecoveryManager;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Handle to a running background log device. Dropping it stops the
/// thread after one final propagation cycle.
pub struct ActiveLogDevice {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl ActiveLogDevice {
    /// Spawn a device thread over a shared recovery manager, cycling every
    /// `interval`.
    pub fn spawn<S>(
        mgr: Arc<Mutex<RecoveryManager<S>>>,
        interval: Duration,
    ) -> std::io::Result<Self>
    where
        S: StableStore + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("mmqp-log-device".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    mgr.lock().unwrap_or_else(fail_stop).run_log_device()?;
                    std::thread::sleep(interval);
                }
                // Final cycle so nothing committed is left behind.
                mgr.lock().unwrap_or_else(fail_stop).run_log_device()
            })?;
        Ok(ActiveLogDevice {
            stop,
            handle: Some(handle),
        })
    }

    /// Stop the device, running one final propagation cycle.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.stop.store(true, Ordering::Relaxed);
        match self.handle.take() {
            Some(h) => h
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("log device thread panicked"))),
            None => Ok(()),
        }
    }
}

/// Poison handler for the shared manager: a panic while some other
/// holder had it may have left the stable log half-updated, so the
/// device stops (fail-stop) instead of propagating from it; `shutdown`
/// then reports the thread's panic as an error.
fn fail_stop<G>(_: PoisonError<G>) -> G {
    panic!("recovery manager poisoned: a holder panicked; the log device stops")
}

impl Drop for ActiveLogDevice {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::log::PartitionKey;

    #[test]
    fn background_device_propagates_concurrently() {
        let mgr = Arc::new(Mutex::new(RecoveryManager::new(MemDisk::new())));
        let device = ActiveLogDevice::spawn(Arc::clone(&mgr), Duration::from_millis(1)).unwrap();
        // Commit updates while the device runs.
        for txn in 0..50u64 {
            let mut m = mgr.lock().unwrap();
            m.log_update(txn, PartitionKey::new(0, (txn % 5) as u32), vec![txn as u8]);
            m.commit(txn);
        }
        device.shutdown().unwrap();
        let m = mgr.lock().unwrap();
        let (pulled, flushed) = m.device_counters();
        assert_eq!(pulled, 50, "every committed record pulled");
        assert!(flushed >= 5, "all five partitions reached the disk copy");
        for p in 0..5u32 {
            assert!(m.recover_image(PartitionKey::new(0, p)).unwrap().is_some());
        }
    }

    #[test]
    fn drop_stops_the_thread() {
        let mgr = Arc::new(Mutex::new(RecoveryManager::new(MemDisk::new())));
        {
            let _device =
                ActiveLogDevice::spawn(Arc::clone(&mgr), Duration::from_millis(1)).unwrap();
            let mut m = mgr.lock().unwrap();
            m.log_update(1, PartitionKey::new(0, 0), vec![1]);
            m.commit(1);
        } // drop
          // After drop the manager is free and the record propagated (the
          // drop path runs a final cycle via the stop flag + join).
        let m = mgr.lock().unwrap();
        assert!(m.recover_image(PartitionKey::new(0, 0)).unwrap().is_some());
    }
}
