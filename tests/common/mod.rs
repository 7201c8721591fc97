//! Shared helpers for the cross-crate integration tests.
#![allow(dead_code)] // each test binary uses its own subset

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smr_common::ConcurrentMap;

/// The one lock behind which a test binary's counter-sensitive tests take
/// turns. `smr_common::counters` are process-global and `cargo test` runs a
/// binary's tests on parallel threads, so a test that diffs
/// `garbage_now()` (or asserts an exact counter delta) is only
/// deterministic if no sibling retires or frees meanwhile: every test in
/// such a binary holds this — the readers and the ones that merely retire.
pub fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `test` on a thread of its own while holding [`serial`], and joins
/// that thread before letting go. A `serial()` guard held by the test
/// function is released when the function returns — *before* the test
/// thread's thread-local scheme handles are torn down, and those donate and
/// free garbage and cross fault points on their way out, inside the next
/// test's plan and counter window. Joining first closes that window, under
/// `--test-threads=1` (where every test shares the main thread) as well.
pub fn isolated(test: fn()) {
    let _serial = serial();
    if let Err(panic) = std::thread::spawn(test).join() {
        std::panic::resume_unwind(panic);
    }
}

/// Random single-threaded trace cross-checked against a `BTreeMap`.
pub fn check_sequential<M: ConcurrentMap<u64, u64>>(steps: u64, key_space: u64, seed: u64) {
    let m = M::new();
    let mut h = m.handle();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..steps {
        let key = rng.gen_range(0..key_space);
        match rng.gen_range(0..3) {
            0 => {
                let expected = !model.contains_key(&key);
                assert_eq!(m.insert(&mut h, key, i), expected, "insert({key})@{i}");
                if expected {
                    model.insert(key, i);
                }
            }
            1 => {
                assert_eq!(
                    m.remove(&mut h, &key),
                    model.remove(&key),
                    "remove({key})@{i}"
                );
            }
            _ => {
                assert_eq!(
                    m.get(&mut h, &key),
                    model.get(&key).copied(),
                    "get({key})@{i}"
                );
            }
        }
    }
}

/// Multi-threaded stress with per-key net accounting.
pub fn check_concurrent<M>(threads: usize, ops_per_thread: usize, keys: usize)
where
    M: ConcurrentMap<u64, u64> + Send + Sync,
{
    let m = M::new();
    let net: Vec<AtomicI64> = (0..keys).map(|_| AtomicI64::new(0)).collect();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let m = &m;
            let net = &net;
            s.spawn(move || {
                let mut h = m.handle();
                let mut rng = SmallRng::seed_from_u64(tid as u64 * 31 + 7);
                for _ in 0..ops_per_thread {
                    let key = rng.gen_range(0..keys as u64);
                    match rng.gen_range(0..3) {
                        0 => {
                            if m.insert(&mut h, key, key * 1000) {
                                net[key as usize].fetch_add(1, Relaxed);
                            }
                        }
                        1 => {
                            if let Some(v) = m.remove(&mut h, &key) {
                                assert_eq!(v, key * 1000, "corrupt value for key {key}");
                                net[key as usize].fetch_sub(1, Relaxed);
                            }
                        }
                        _ => {
                            if let Some(v) = m.get(&mut h, &key) {
                                assert_eq!(v, key * 1000, "corrupt value for key {key}");
                            }
                        }
                    }
                }
            });
        }
    });
    let mut h = m.handle();
    for key in 0..keys as u64 {
        let n = net[key as usize].load(Relaxed);
        assert!(n == 0 || n == 1, "key {key}: net count {n}");
        assert_eq!(
            m.get(&mut h, &key).is_some(),
            n == 1,
            "key {key}: final presence disagrees with accounting"
        );
    }
}
