//! Global garbage and contention accounting.
//!
//! Every reclamation scheme in the workspace reports its retired-but-not-yet-
//! reclaimed blocks here so the benchmark harness can regenerate the paper's
//! memory figures (Fig. 11, Figs. 15–23) uniformly across schemes:
//!
//! * a block counts as garbage from the moment the data structure hands it to
//!   the scheme (retire for HP/EBR/PEBR/NR, **unlink** for HP++ — HP++ defers
//!   retirement, and the paper counts that deferred garbage too), and
//! * stops counting when the scheme frees it (never, for NR).
//!
//! On top of garbage, the stripes carry **contention accounting** for the
//! fig9 sweeps: data structures report every failed `compare_exchange` on a
//! retry path ([`incr_cas_failure`]), and [`crate::backoff`] reports each
//! spin / yield / park step it takes. The bench harness divides CAS
//! failures by completed operations to get a retry rate per scenario.
//!
//! Counters are striped across cache lines to keep the accounting from
//! becoming the bottleneck it is trying to measure.

use std::sync::atomic::{AtomicU64, Ordering};

const STRIPES: usize = 64;

#[repr(align(128))]
struct Stripe {
    retired: AtomicU64,
    freed: AtomicU64,
    cas_failed: AtomicU64,
    backoff_spin: AtomicU64,
    backoff_yield: AtomicU64,
    backoff_park: AtomicU64,
    policy_forced: AtomicU64,
    shard_respawn: AtomicU64,
    quarantine_domains: AtomicU64,
    quarantine_blocks: AtomicU64,
    heavy_fences: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const STRIPE_INIT: Stripe = Stripe {
    retired: AtomicU64::new(0),
    freed: AtomicU64::new(0),
    cas_failed: AtomicU64::new(0),
    backoff_spin: AtomicU64::new(0),
    backoff_yield: AtomicU64::new(0),
    backoff_park: AtomicU64::new(0),
    policy_forced: AtomicU64::new(0),
    shard_respawn: AtomicU64::new(0),
    quarantine_domains: AtomicU64::new(0),
    quarantine_blocks: AtomicU64::new(0),
    heavy_fences: AtomicU64::new(0),
};

static STRIPES_ARR: [Stripe; STRIPES] = [STRIPE_INIT; STRIPES];

#[inline]
fn stripe() -> &'static Stripe {
    use std::cell::Cell;
    use std::sync::atomic::AtomicUsize;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static IDX: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    let idx = IDX.with(|i| {
        if i.get() == usize::MAX {
            i.set(NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES);
        }
        i.get()
    });
    &STRIPES_ARR[idx]
}

/// Records that `n` blocks were handed to the reclamation scheme.
#[inline]
pub fn incr_garbage(n: u64) {
    stripe().retired.fetch_add(n, Ordering::Relaxed);
}

/// Records that `n` blocks were actually freed.
#[inline]
pub fn decr_garbage(n: u64) {
    stripe().freed.fetch_add(n, Ordering::Relaxed);
}

/// Total blocks ever handed to reclamation schemes.
pub fn total_retired() -> u64 {
    STRIPES_ARR
        .iter()
        .map(|s| s.retired.load(Ordering::Relaxed))
        .sum()
}

/// Total blocks freed so far.
pub fn total_freed() -> u64 {
    STRIPES_ARR
        .iter()
        .map(|s| s.freed.load(Ordering::Relaxed))
        .sum()
}

/// Current number of retired-but-unreclaimed blocks.
///
/// The reading is a racy sum (freed may be observed ahead of retired) so it
/// saturates at zero.
pub fn garbage_now() -> u64 {
    total_retired().saturating_sub(total_freed())
}

/// Records `n` failed `compare_exchange` attempts on a data-structure retry
/// path (the coherence-storm events the backoff machinery dampens).
#[inline]
pub fn incr_cas_failure(n: u64) {
    stripe().cas_failed.fetch_add(n, Ordering::Relaxed);
}

/// Total failed CAS attempts reported by the data structures.
pub fn total_cas_failures() -> u64 {
    STRIPES_ARR
        .iter()
        .map(|s| s.cas_failed.load(Ordering::Relaxed))
        .sum()
}

/// Records one backoff step in the spin phase.
#[inline]
pub fn incr_backoff_spin() {
    stripe().backoff_spin.fetch_add(1, Ordering::Relaxed);
}

/// Records one backoff step in the yield phase.
#[inline]
pub fn incr_backoff_yield() {
    stripe().backoff_yield.fetch_add(1, Ordering::Relaxed);
}

/// Records one backoff step in the park phase.
#[inline]
pub fn incr_backoff_park() {
    stripe().backoff_park.fetch_add(1, Ordering::Relaxed);
}

/// Total backoff steps taken, split `(spin, yield, park)`.
pub fn total_backoff() -> (u64, u64, u64) {
    STRIPES_ARR.iter().fold((0, 0, 0), |(s, y, p), st| {
        (
            s + st.backoff_spin.load(Ordering::Relaxed),
            y + st.backoff_yield.load(Ordering::Relaxed),
            p + st.backoff_park.load(Ordering::Relaxed),
        )
    })
}

/// Records one reclaim-trigger decision that fired a scan
/// ([`crate::policy::Capped::should_reclaim`]).
#[inline]
pub fn incr_policy_scan_forced() {
    stripe().policy_forced.fetch_add(1, Ordering::Relaxed);
}

/// Total trigger decisions that fired a scan.
pub fn policy_scans_forced() -> u64 {
    STRIPES_ARR
        .iter()
        .map(|s| s.policy_forced.load(Ordering::Relaxed))
        .sum()
}

/// Records one [`crate::fence::heavy`] call (a `membarrier` under the
/// asymmetric strategy: microseconds, beside which this RMW is free).
#[inline]
pub fn incr_heavy_fence() {
    stripe().heavy_fences.fetch_add(1, Ordering::Relaxed);
}

/// Total heavy fences issued, process-wide.
pub fn heavy_fences() -> u64 {
    STRIPES_ARR
        .iter()
        .map(|s| s.heavy_fences.load(Ordering::Relaxed))
        .sum()
}

/// Records one supervised shard-worker respawn (kv-service supervisor).
#[inline]
pub fn incr_shard_respawn() {
    stripe().shard_respawn.fetch_add(1, Ordering::Relaxed);
}

/// Records one reclamation domain quarantined after a worker death, with
/// the `blocks` of settled garbage leaked along with it.
#[inline]
pub fn incr_quarantine(blocks: u64) {
    let s = stripe();
    s.quarantine_domains.fetch_add(1, Ordering::Relaxed);
    s.quarantine_blocks.fetch_add(blocks, Ordering::Relaxed);
}

/// Total supervised shard-worker respawns.
pub fn shard_respawns() -> u64 {
    STRIPES_ARR
        .iter()
        .map(|s| s.shard_respawn.load(Ordering::Relaxed))
        .sum()
}

/// Total quarantined reclamation domains, process-wide.
pub fn quarantined_domains() -> u64 {
    STRIPES_ARR
        .iter()
        .map(|s| s.quarantine_domains.load(Ordering::Relaxed))
        .sum()
}

/// Total settled-garbage blocks leaked inside quarantined domains.
pub fn quarantined_blocks() -> u64 {
    STRIPES_ARR
        .iter()
        .map(|s| s.quarantine_blocks.load(Ordering::Relaxed))
        .sum()
}

/// Serializes tests (crate-wide) that assert exact counter deltas: the
/// counters are process-global, so concurrently running tests that retire
/// or free blocks would otherwise perturb each other's readings.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn garbage_accounting_balances() {
        let _serial = test_lock();
        let retired_before = total_retired();
        let freed_before = total_freed();
        incr_garbage(10);
        assert_eq!(total_retired() - retired_before, 10);
        assert_eq!(total_freed() - freed_before, 0);
        decr_garbage(10);
        assert_eq!(total_retired() - retired_before, 10);
        assert_eq!(total_freed() - freed_before, 10);
        // And the derived outstanding-garbage reading is back to where this
        // test found it.
        assert_eq!(
            total_retired() - total_freed(),
            retired_before - freed_before
        );
    }

    #[test]
    fn cas_failure_and_backoff_deltas_are_exact() {
        let _serial = test_lock();
        let cas_before = total_cas_failures();
        let (s0, y0, p0) = total_backoff();
        incr_cas_failure(3);
        incr_cas_failure(1);
        incr_backoff_spin();
        incr_backoff_spin();
        incr_backoff_yield();
        incr_backoff_park();
        assert_eq!(total_cas_failures() - cas_before, 4);
        let (s1, y1, p1) = total_backoff();
        assert_eq!((s1 - s0, y1 - y0, p1 - p0), (2, 1, 1));
    }

    #[test]
    fn policy_counter_deltas_are_exact() {
        let _serial = test_lock();
        let forced0 = policy_scans_forced();
        incr_policy_scan_forced();
        assert_eq!(policy_scans_forced() - forced0, 1);
    }

    #[test]
    fn supervision_counter_deltas_are_exact() {
        let _serial = test_lock();
        let respawn0 = shard_respawns();
        let domains0 = quarantined_domains();
        let blocks0 = quarantined_blocks();
        incr_shard_respawn();
        incr_shard_respawn();
        incr_quarantine(0);
        incr_quarantine(17);
        assert_eq!(shard_respawns() - respawn0, 2);
        assert_eq!(quarantined_domains() - domains0, 2);
        assert_eq!(quarantined_blocks() - blocks0, 17);
    }

    #[test]
    fn contention_counters_sum_across_threads() {
        let _serial = test_lock();
        let cas_before = total_cas_failures();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..500 {
                        incr_cas_failure(1);
                    }
                });
            }
        });
        assert_eq!(total_cas_failures() - cas_before, 4000);
    }

    #[test]
    fn multithreaded_accounting() {
        let _serial = test_lock();
        let retired_before = total_retired();
        let freed_before = total_freed();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        incr_garbage(1);
                        decr_garbage(1);
                    }
                });
            }
        });
        assert_eq!(total_retired() - retired_before, 8000);
        assert_eq!(total_freed() - freed_before, 8000);
    }
}
