//! End-to-end exercise of the [`Adaptive`] reclamation policy against a
//! real HP domain and the PR-4 [`GarbageWatchdog`] — the integration half
//! of the policy test story (the trigger-equivalence property tests live
//! with `smr_common::policy` itself).
//!
//! The lifecycle under test is the fig12 scan-storm narrative:
//!
//! 1. a stalled collector (frozen watchdog progress token) produces a
//!    pressure verdict, and the policy tightens within that one sample;
//! 2. while tightened, the trigger fires at the floored threshold, so the
//!    retired backlog stays far below the base trigger;
//! 3. once the watchdog sees progress again, each completed scan relaxes
//!    the threshold geometrically back to the base;
//! 4. at every point — including maximum relaxation with live hazard
//!    slots — the backlog respects the derived Table-1 cap
//!    `k·H + RECLAIM_THRESHOLD`, because the effective threshold is
//!    clamped to that expression by construction.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::serial;
use smr_common::counters;
use smr_common::policy::{Adaptive, Policy, Verdict};
use smr_common::watchdog::{GarbageWatchdog, WatchdogStatus};

/// Retires `n` heap nodes on `thread`, returning the highest backlog seen
/// after any single retire — the worst point the installed policy let the
/// bag reach.
fn churn(thread: &mut hp::Thread, n: usize) -> usize {
    let mut peak = 0;
    for i in 0..n {
        unsafe { thread.retire(Box::into_raw(Box::new(i as u64))) };
        peak = peak.max(thread.retired_count());
    }
    peak
}

#[test]
fn stall_tightens_within_one_sample_then_relaxes_after_release() {
    let _serial = serial();
    let domain: &'static hp::Domain = Box::leak(Box::new(hp::Domain::new()));
    let policy = Arc::new(Policy::Adaptive(Adaptive::new(hp::legacy_trigger())));
    let Policy::Adaptive(adaptive) = &*policy else {
        unreachable!()
    };
    assert!(domain.set_policy(policy.clone()), "fresh domain must accept a policy");
    let mut thread = domain.register();

    // Healthy steady state first: no verdict reported yet (`Unknown` relaxes
    // like `Healthy`), scans fire at the base trigger, and even the relaxed
    // level cannot push past it — with no hazard slots the k·H+floor cap
    // *is* the base threshold.
    let base = hp::legacy_trigger().threshold(domain.slot_capacity());
    let peak = churn(&mut thread, 3 * base);
    assert!(peak <= base, "healthy churn peaked at {peak} > base trigger {base}");

    // The stalled collector: the watchdog's progress token freezes across
    // the stall window. The first post-window sample is the pressure
    // verdict, and feeding it to the domain must tighten immediately.
    let bound = hp::legacy_trigger().bound(domain.slot_capacity());
    let mut watchdog = GarbageWatchdog::new(bound, Duration::from_millis(10));
    let status = watchdog.observe(1, thread.retired_count());
    assert_eq!(status, WatchdogStatus::Healthy, "fresh token must read healthy");

    let tightens_before = counters::adaptive_tightens();
    std::thread::sleep(Duration::from_millis(15));
    let status = watchdog.observe(1, thread.retired_count());
    let verdict = Verdict::from(&status);
    assert!(verdict.is_pressure(), "frozen token past the window must be pressure: {status:?}");
    domain.report_verdict(verdict);
    assert_eq!(
        counters::adaptive_tightens(),
        tightens_before + 1,
        "one pressure sample must tighten exactly once"
    );
    assert!(adaptive.level() < 0, "pressure must leave the level tightened");
    let tightened = adaptive.effective_threshold(domain.slot_capacity());
    assert!(
        tightened < base,
        "tightened threshold {tightened} must undercut the base {base}"
    );

    // Under pressure the trigger fires at the tightened threshold (and the
    // firing scans must NOT relax it), so the backlog stays pinned low.
    let peak = churn(&mut thread, 3 * base);
    assert!(peak <= tightened, "pressure churn peaked at {peak} > tightened {tightened}");
    assert!(adaptive.level() < 0, "scans under pressure must not relax");

    // Repeat verdicts are idempotent: already at the floor, no re-tighten.
    domain.report_verdict(Verdict::GrowingUnbounded);
    assert_eq!(counters::adaptive_tightens(), tightens_before + 1);

    // Release: the token advances, the verdict goes healthy, and each
    // completed scan now steps the threshold back up geometrically —
    // 16 → 32 → 64 → base, where the k·H+floor clamp pins it.
    let relaxes_before = counters::adaptive_relaxes();
    let status = watchdog.observe(2, thread.retired_count());
    assert_eq!(status, WatchdogStatus::Healthy, "advanced token must read healthy");
    domain.report_verdict(Verdict::from(&status));
    churn(&mut thread, 6 * base);
    assert!(
        counters::adaptive_relaxes() > relaxes_before,
        "healthy scans after release must relax the level"
    );
    assert!(adaptive.level() >= 0, "level {} still tightened after release", adaptive.level());
    assert_eq!(
        adaptive.effective_threshold(domain.slot_capacity()),
        base,
        "relaxation must settle back at the (clamped) base threshold"
    );

    thread.reclaim();
    assert_eq!(thread.retired_count(), 0, "nothing protected: final scan drains the bag");
}

#[test]
fn relaxed_threshold_never_escapes_the_derived_bound() {
    let _serial = serial();
    let domain: &'static hp::Domain = Box::leak(Box::new(hp::Domain::new()));
    let policy = Arc::new(Policy::Adaptive(Adaptive::new(hp::legacy_trigger())));
    let Policy::Adaptive(adaptive) = &*policy else {
        unreachable!()
    };
    assert!(domain.set_policy(policy.clone()));
    let mut thread = domain.register();

    // One live hazard slot (H = 1) protecting a retired node: scans must
    // carry it as a survivor, and the Table-1 cap becomes
    // k·H + RECLAIM_THRESHOLD — strictly between the base trigger and the
    // unclamped fully-relaxed threshold, so only the clamp keeps the
    // backlog inside it.
    let slot = thread.hazard_pointer();
    let protected = Box::into_raw(Box::new(0xDEADu64));
    slot.protect_raw(protected);
    unsafe { thread.retire(protected) };

    let slots = domain.slot_capacity();
    assert!(slots >= 1, "acquiring a hazard pointer must allocate a slot");
    let base = hp::legacy_trigger().threshold(slots);
    let bound = hp::legacy_trigger().bound(slots);
    assert!(
        base << 2 > bound,
        "precondition: unclamped max relaxation ({}) must exceed the bound ({bound}), \
         or this test would not exercise the clamp",
        base << 2
    );

    // Churn far past every relaxation step. No verdict is ever reported
    // (the bench-harness shape), so the level climbs to its maximum — and
    // the backlog must still never cross the derived bound.
    let peak = churn(&mut thread, 8 * bound);
    assert!(adaptive.level() > 0, "healthy churn must have relaxed the level");
    assert!(
        adaptive.effective_threshold(slots) <= bound,
        "effective threshold escaped the k·H+floor clamp"
    );
    assert!(peak <= bound, "relaxed churn peaked at {peak} > derived bound {bound}");
    assert!(
        thread.retired_count() >= 1,
        "the protected node must have survived every scan"
    );

    // Drop protection: the survivor is freed by the next scan.
    slot.reset();
    thread.reclaim();
    assert_eq!(thread.retired_count(), 0, "unprotected survivor must drain");
    thread.recycle(slot);
}
