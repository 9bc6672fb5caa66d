//! Lifecycle tests for the persistent kernel worker pool: pool threads are
//! spawned at [`Device`] construction, survive for the device's whole life,
//! and are joined when the last handle drops — repeated create/drop cycles
//! must not leak OS threads, a panicking kernel must not kill the pool, and
//! shard devices must each get their own correctly sized pool.

use lobster_gpu::{kernels, Device, DeviceConfig};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The leak checks count the threads of the whole *process*, and every
/// test here creates and drops pool threads of its own. Each test holds
/// this lock for its whole body, so no sibling's pool comes or goes while a
/// count is being taken.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failing sibling must not cascade into every later test.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Reads this process's live thread count from `/proc/self/status`.
/// Returns `None` off Linux (or in a sandbox that hides procfs), in which
/// case the leak test self-skips.
fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
}

fn device(parallelism: usize) -> Device {
    Device::new(DeviceConfig {
        parallelism,
        min_parallel_rows: 8,
        ..DeviceConfig::default()
    })
}

/// Runs one real kernel so the pool's workers have demonstrably executed
/// work on this device before it drops.
fn exercise(dev: &Device) {
    let data: Vec<u64> = (0..10_000).map(|i| (i * 2654435761) % 977).collect();
    let perm = kernels::sort_permutation(dev, &[&data]);
    assert_eq!(perm.len(), data.len());
}

#[test]
fn repeated_create_drop_does_not_leak_threads() {
    let _serial = serial();
    let Some(before) = os_thread_count() else {
        eprintln!("skipping: /proc/self/status not readable");
        return;
    };
    for _ in 0..50 {
        let dev = device(4);
        assert_eq!(dev.pool_workers(), 3);
        exercise(&dev);
        drop(dev); // joins the three `lobster-kernel-{i}` threads
    }
    // Drop joins the workers before returning, so the count must be back to
    // where it started — any growth is a leaked pool thread. A small slack
    // covers unrelated runtime threads the test harness may start or stop.
    let after = os_thread_count().expect("procfs was readable above");
    assert!(
        after <= before + 1,
        "thread leak: {before} threads before, {after} after 50 create/drop cycles"
    );
}

#[test]
fn sequential_device_owns_no_pool_threads() {
    let _serial = serial();
    let dev = Device::sequential();
    assert_eq!(dev.pool_workers(), 0);
    exercise(&dev); // still executes, inline on the launching thread
}

#[test]
fn clones_share_one_pool_and_drop_joins_only_the_last() {
    let _serial = serial();
    let Some(baseline) = os_thread_count() else {
        eprintln!("skipping: /proc/self/status not readable");
        return;
    };
    let dev = device(3);
    let clone = dev.clone();
    assert_eq!(dev.pool_workers(), 2);
    assert_eq!(clone.pool_workers(), 2);
    drop(dev);
    // The clone keeps the pool alive and working.
    exercise(&clone);
    drop(clone);
    let after = os_thread_count().expect("procfs was readable above");
    assert!(
        after <= baseline + 2,
        "pool threads outlived the last device handle: {baseline} -> {after}"
    );
}

#[test]
fn split_shards_gives_each_shard_its_own_pool() {
    let _serial = serial();
    let parent = device(8);
    let shards = parent.split_shards(3);
    // Parallelism 8 over 3 shards: 3 + 3 + 2 lanes; workers are lanes - 1.
    let workers: Vec<usize> = shards.iter().map(Device::pool_workers).collect();
    assert_eq!(workers, vec![2, 2, 1]);
    for shard in &shards {
        exercise(shard);
    }
    // Dropping the parent leaves the shard pools untouched.
    drop(parent);
    for shard in &shards {
        exercise(shard);
    }
}

#[test]
fn pool_survives_a_panicking_kernel() {
    let _serial = serial();
    let dev = device(4);
    let data: Vec<u64> = (0..4096).collect();
    let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // eval's closure runs on pool workers; the panic must propagate to
        // this thread, not kill the worker.
        kernels::eval(&dev, data.len(), 1, |range, _sink| {
            if range.contains(&2048) {
                panic!("kernel bug");
            }
        })
    }));
    assert!(boom.is_err(), "worker panic must reach the launcher");
    // The device (and its pool) must still be fully usable afterwards.
    exercise(&dev);
    assert_eq!(dev.pool_workers(), 3);
}
