//! The §2.4 *active* log device, live: a background thread propagates
//! committed partition images to the disk copy while the "database"
//! keeps committing — then we crash mid-stream and recover.
//!
//! This drives the recovery substrate directly (no `Database` facade) to
//! show the component protocol of Figure 2.
//!
//! ```sh
//! cargo run --example active_log_device
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout)]

use mmdb_recovery::{ActiveLogDevice, MemDisk, PartitionKey, RecoveryManager, RestartPhase};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn main() {
    let mgr = Arc::new(Mutex::new(RecoveryManager::new(MemDisk::new())));
    let device = ActiveLogDevice::spawn(Arc::clone(&mgr), Duration::from_millis(2))
        .expect("spawn log device");
    println!("log device running in the background (2 ms cycle)");

    // 200 transactions across 8 partitions, committed while the device
    // races to propagate them.
    for txn in 0..200u64 {
        let mut m = mgr.lock().unwrap();
        let key = PartitionKey::new(0, (txn % 8) as u32);
        m.log_update(txn, key, format!("partition-image-v{txn}").into_bytes());
        m.commit(txn);
        drop(m);
        if txn % 50 == 49 {
            let (pulled, flushed) = mgr.lock().unwrap().device_counters();
            println!("  after {txn} commits: device pulled {pulled}, flushed {flushed} images");
        }
    }

    // One uncommitted straggler that must not survive.
    mgr.lock()
        .unwrap()
        .log_update(999, PartitionKey::new(0, 0), b"uncommitted".to_vec());

    // Crash. The thread keeps the stable components; the straggler dies.
    mgr.lock().unwrap().crash_volatile();
    device.shutdown().expect("device shutdown");
    println!("-- crash; device stopped --");

    // Restart with partitions 3 and 7 as the working set.
    let m = mgr.lock().unwrap();
    let plan = m
        .restart(&[PartitionKey::new(0, 3), PartitionKey::new(0, 7)])
        .expect("restart");
    for (key, image, phase) in &plan {
        let tag = match phase {
            RestartPhase::WorkingSet => "WORKING SET",
            RestartPhase::Background => "background ",
        };
        println!(
            "  [{tag}] partition {} ← {}",
            key.partition,
            String::from_utf8_lossy(image)
        );
    }
    // Every partition must have recovered its newest committed image.
    assert_eq!(plan.len(), 8);
    for (key, image, _) in &plan {
        let latest = (0..200u64)
            .filter(|t| t % 8 == u64::from(key.partition))
            .max()
            .unwrap();
        assert_eq!(image, format!("partition-image-v{latest}").as_bytes());
    }
    println!("all 8 partitions recovered at their newest committed version");
}
