//! The scheme × fault adversarial robustness matrix (ISSUE 5 tentpole).
//!
//! Each test installs a deterministic [`smr_common::fault`] plan that
//! attacks one dangerous interleaving *inside* protect/retire/unlink —
//! stalled readers, mid-invalidation preemption, panicking writers,
//! dead-thread orphan storms, retire storms under a stalled collector —
//! and asserts the scheme's Table 1 contract with exact counter deltas:
//! bounded garbage for HP/HP++/PEBR, the mid-enter-ejection and stalled-
//! leaver bounds for hyaline, unbounded growth (flagged by the
//! [`GarbageWatchdog`]) for EBR, and zero leaked nodes once faults clear.
//!
//! Requires `--features fault-injection`. Every test runs through
//! [`common::isolated`]: one at a time from its first line (counter
//! baselines are read before the plan goes in), on a thread that is joined
//! before the next test starts (a test thread's scheme handles cross fault
//! points and move the counters as they are torn down).
#![cfg(feature = "fault-injection")]

mod common;

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

use ds::InDomain;
use smr_common::fault::{self, FaultAction};
use smr_common::watchdog::{GarbageWatchdog, WatchdogStatus};
use smr_common::{ConcurrentMap, SchemeDomain};

/// Spin until `cond` holds, failing the test after a generous deadline so a
/// broken handshake cannot hang CI (the stall itself times out at 30 s).
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

#[test]
fn schedule_is_deterministic_for_same_seed() {
    common::isolated(schedule_is_deterministic_for_same_seed_body);
}

fn schedule_is_deterministic_for_same_seed_body() {
    // Same seed + same single-threaded operation sequence must replay the
    // exact same injection log (the acceptance criterion for seeded-plan
    // reproducibility). Both runs execute on this thread, so the per-thread
    // PRNG reseeds identically on each plan install.
    fn run(seed: u64) -> Vec<fault::LogEntry> {
        let _plan = fault::plan().seeded(seed, 4).install();
        let d: &'static hp::Domain = Box::leak(Box::new(hp::Domain::new()));
        let mut t = d.register();
        let hp = t.hazard_pointer();
        let slot = smr_common::Atomic::new(0u64);
        for i in 0..200u64 {
            let p = slot.load(std::sync::atomic::Ordering::Acquire);
            let _ = hp.try_protect(p, &slot);
            let old = slot.swap(
                smr_common::Shared::from_owned(i),
                std::sync::atomic::Ordering::AcqRel,
            );
            hp.reset();
            unsafe { t.retire(old.as_raw()) };
        }
        t.reclaim();
        t.recycle(hp);
        drop(t);
        unsafe { slot.into_owned() };
        fault::take_log()
    }

    let a = run(0xDEC0DE);
    let b = run(0xDEC0DE);
    assert!(!a.is_empty(), "seeded run must take some injections");
    assert_eq!(a, b, "same seed must replay the same injection sequence");
}

#[test]
fn hp_stalled_reader_keeps_garbage_bounded() {
    common::isolated(hp_stalled_reader_keeps_garbage_bounded_body);
}

fn hp_stalled_reader_keeps_garbage_bounded_body() {
    // A reader stalled forever in the announce-to-validate window holds a
    // published hazard. HP's contract: the writer keeps reclaiming around
    // it — at most the announced node survives, the retired bag never
    // exceeds the adaptive threshold (Table 1 "bounded").
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Canary(#[allow(dead_code)] u64);
    impl Drop for Canary {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Relaxed);
        }
    }

    let plan = fault::plan()
        .at("hp::protect::after_announce", 1, FaultAction::Stall)
        .install();
    let d: &'static hp::Domain = Box::leak(Box::new(hp::Domain::new()));
    let slot: &'static smr_common::Atomic<Canary> =
        Box::leak(Box::new(smr_common::Atomic::new(Canary(7))));

    let victim = std::thread::spawn(move || {
        let mut t = d.register();
        let hp = t.hazard_pointer();
        let p = slot.load(std::sync::atomic::Ordering::Acquire);
        // Stalls inside the announce closure; when released, validation
        // fails (the writer has swapped the slot) and protection is reset.
        let _ = hp.try_protect(p, slot);
        t.recycle(hp);
    });
    wait_for("victim stalled in protect", || {
        fault::stalled_count("hp::protect::after_announce") == 1
    });

    // Writer churn: the victim's announced hazard covers the initial node
    // only; every other retired node must be freed by threshold reclaims.
    let mut writer = d.register();
    let n = 3 * writer.reclaim_threshold();
    for _ in 0..n {
        let old = slot.swap(
            smr_common::Shared::from_owned(Canary(7)),
            std::sync::atomic::Ordering::AcqRel,
        );
        unsafe { writer.retire(old.as_raw()) };
        assert!(
            writer.retired_count() <= writer.reclaim_threshold(),
            "stalled reader must not break the retire bound: {} > {}",
            writer.retired_count(),
            writer.reclaim_threshold()
        );
    }
    // The stalled reader pinned exactly one node (the initial one).
    assert!(
        DROPS.load(Relaxed) >= n - writer.reclaim_threshold() - 1,
        "writer reclaimed around the stalled reader: {} freed of {n}",
        DROPS.load(Relaxed)
    );

    fault::release("hp::protect::after_announce");
    victim.join().unwrap();
    drop(plan);

    // Exact balance: n retires (initial node + n-1 swapped-out canaries;
    // the last canary still sits in the slot, freed below).
    writer.reclaim();
    assert_eq!(DROPS.load(Relaxed), n, "every retired node freed");
    unsafe { slot.load(std::sync::atomic::Ordering::Acquire).drop_owned() };
}

#[test]
fn ebr_stalled_pin_wedges_epoch_and_watchdog_reports_growth() {
    common::isolated(ebr_stalled_pin_wedges_epoch_and_watchdog_reports_growth_body);
}

fn ebr_stalled_pin_wedges_epoch_and_watchdog_reports_growth_body() {
    // The EBR failure mode: a thread stalled inside pin (epoch announced,
    // not yet validated) blocks every advance past epoch+1. Garbage grows
    // without bound and the GarbageWatchdog must say so; releasing the
    // stall lets a survivor reclaim everything, to the exact node.
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Canary(#[allow(dead_code)] u64);
    impl Drop for Canary {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Relaxed);
        }
    }

    let plan = fault::plan()
        .at("ebr::pin::before_validate", 1, FaultAction::Stall)
        .install();
    let c: &'static ebr::Collector = Box::leak(Box::new(ebr::Collector::new()));

    let victim = std::thread::spawn(move || {
        let mut h = c.register();
        let g = h.pin(); // stalls inside `enter`
        drop(g);
    });
    wait_for("victim stalled in pin", || {
        fault::stalled_count("ebr::pin::before_validate") == 1
    });

    // Worker churn on this thread (the nth=1 trigger is consumed, so our
    // own pins pass through).
    let mut worker = c.register();
    let bound = 4 * c.collect_threshold();
    let mut watchdog = GarbageWatchdog::new(bound, Duration::from_millis(50));
    let mut created = 0usize;
    let mut saw_growth = None;
    for _ in 0..400 {
        let g = worker.pin();
        for _ in 0..64 {
            unsafe { g.defer_destroy(smr_common::Shared::from_owned(Canary(7))) };
            created += 1;
        }
        g.flush(); // tries to advance; wedged behind the stalled pin
        drop(g);
        let garbage = created - DROPS.load(Relaxed);
        if let s @ WatchdogStatus::GrowingUnbounded { .. } = watchdog.observe(c.epoch(), garbage) {
            saw_growth = Some(s);
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let status = saw_growth.expect("watchdog must flag unbounded EBR growth");
    match status {
        WatchdogStatus::GrowingUnbounded { garbage, .. } => {
            assert!(garbage > bound, "flagged garbage {garbage} exceeds {bound}")
        }
        _ => unreachable!(),
    }

    fault::release("ebr::pin::before_validate");
    victim.join().unwrap();
    drop(plan);

    // With the stall gone the epoch advances again: a few flushes free
    // every single canary (exact counter delta — zero leaks).
    for _ in 0..100 {
        let g = worker.pin();
        g.flush();
        drop(g);
        if DROPS.load(Relaxed) == created {
            break;
        }
    }
    assert_eq!(DROPS.load(Relaxed), created, "all {created} canaries freed");
}

#[test]
fn pebr_ejects_straggler_despite_scheduling_noise() {
    common::isolated(pebr_ejects_straggler_despite_scheduling_noise_body);
}

fn pebr_ejects_straggler_despite_scheduling_noise_body() {
    // PEBR's robustness mechanism under injected scheduling chaos: yield
    // storms on every other pin and on the ejection mark itself must not
    // stop the reclaimer from ejecting a straggler, and the straggler's
    // refresh must restore protection.
    use smr_common::SchemeGuard;

    let plan = fault::plan()
        .every("pebr::pin::before_validate", 2, FaultAction::YieldStorm(50))
        .every("pebr::eject::after_mark", 1, FaultAction::YieldStorm(20))
        .install();
    let c: &'static pebr::Collector = Box::leak(Box::new(pebr::Collector::new()));
    let mut straggler = c.register();
    let mut reclaimer = c.register();

    let mut sg = straggler.pin();
    assert!(sg.validate());
    {
        let rg = reclaimer.pin();
        // One handle's derived bound: past the eject threshold, then two
        // collect batches.
        for _ in 0..c.garbage_bound(1).unwrap() {
            unsafe { rg.defer_destroy(smr_common::Shared::from_owned(0u64)) };
        }
        drop(rg);
    }
    assert!(
        !sg.validate(),
        "straggler must be ejected despite injected yield storms"
    );
    assert!(fault::hits("pebr::eject::after_mark") > 0, "ejection ran");
    sg.refresh();
    assert!(sg.validate(), "refresh restores a protective pin");
    drop(sg);
    drop(plan);
}

#[test]
fn pebr_ejected_traverser_restarts_under_a_fresh_pin() {
    common::isolated(|| {
        // The bucket list of the guarded hash maps (the benchmark's
        // `hashmap_write_ebr`, the guarded KV stores), and the skiplist.
        type Hhs = ds::guarded::HHSList<u64, u64, pebr::Pebr>;
        type Skip = ds::guarded::SkipList<u64, u64, pebr::Pebr>;
        pebr_ejected_traverser_restarts_under_a_fresh_pin_body::<Hhs>();
        pebr_ejected_traverser_restarts_under_a_fresh_pin_body::<Skip>();
    });
}

fn pebr_ejected_traverser_restarts_under_a_fresh_pin_body<M>()
where
    M: ConcurrentMap<u64, u64, Handle = pebr::LocalHandle> + Send + Sync,
{
    // The guarded protection step sits in `ds`'s one traversal window
    // (`ds::guarded::traverse::validate`: validated, next dereference
    // pending), so every guarded structure crosses it. A PEBR reader
    // stalled there is ejected by a reclaimer under garbage pressure; on
    // release its `validate()` must fail, and the operation must restart
    // from the root under a fresh pin and still answer like the
    // sequential model.
    const POINT: &str = "ds::guarded::traverse::validate";
    const KEYS: u64 = 32;
    const TARGET: u64 = KEYS - 1;
    let model: std::collections::BTreeMap<u64, u64> = (0..KEYS).map(|k| (k, k * 7)).collect();
    let m = M::new();
    let mut h = m.handle();
    for (&k, &v) in &model {
        assert!(m.insert(&mut h, k, v));
    }
    drop(h);

    // An undisturbed `get` crosses the window this many times.
    let undisturbed = {
        let _plan = fault::plan().install();
        assert_eq!(m.get(&mut m.handle(), &TARGET), model.get(&TARGET).copied());
        fault::hits(POINT)
    };
    assert!(undisturbed >= 3, "the traversal must take a few steps");

    // Stall the reader's first crossing and, after the restart, its third
    // (two steps into the second attempt).
    let plan = fault::plan()
        .at(POINT, 1, FaultAction::Stall)
        .at(POINT, 3, FaultAction::Stall)
        .install();
    let collector = pebr::default_collector();
    // Only the reader crosses the window: the reclaimer retires raw blocks.
    let retire = |reclaimer: &mut pebr::LocalHandle, blocks: usize| {
        let g = reclaimer.pin();
        for _ in 0..blocks {
            unsafe { g.defer_destroy(smr_common::Shared::from_owned(0u64)) };
        }
    };
    std::thread::scope(|s| {
        let reader = s.spawn(|| m.get(&mut m.handle(), &TARGET));
        wait_for("the reader to stall mid-traversal", || {
            fault::stalled_count(POINT) == 1
        });

        let mut reclaimer = collector.register();
        retire(&mut reclaimer, collector.garbage_bound(1).unwrap());
        assert!(
            fault::hits("pebr::eject::after_mark") > 0,
            "the reader was ejected"
        );
        // The ejected pin still blocks the epoch (the model never frees
        // under a live pin): one advance past it, no further.
        let wedged = collector.epoch();
        retire(&mut reclaimer, 2 * pebr::COLLECT_THRESHOLD);
        assert_eq!(
            collector.epoch(),
            wedged,
            "the stale pin must hold the epoch"
        );

        // (`release(POINT)` would leave the gate open for the second stall.)
        fault::release_all();
        wait_for("the restarted reader to stall again", || {
            fault::hits(POINT) == 3 && fault::stalled_count(POINT) == 1
        });
        // A fresh pin sits at the current epoch, so the next collection —
        // over the threshold, every retire runs one — advances past it,
        // which the stale pin did not allow. One retire only: a second
        // collection would find the reader behind again and re-eject it.
        retire(&mut reclaimer, 1);
        assert_eq!(
            collector.epoch(),
            wedged + 1,
            "the restart must have re-pinned"
        );

        fault::release_all();
        let got = reader.join().expect("reader panicked");
        assert_eq!(
            got,
            model.get(&TARGET).copied(),
            "result differs from the model"
        );
    });
    // Crossing 1 was thrown away by the ejection and the restart began at
    // the root again: it made a full traversal's worth of crossings — the
    // list's undisturbed count exactly, the skiplist's at least (its
    // restart runs the helping `find`, which also descends to level 0).
    assert!(
        fault::hits(POINT) > undisturbed,
        "the reader did not restart from the root"
    );
    drop(plan);
}

#[test]
fn hpp_mid_invalidation_preemption_leaks_nothing() {
    common::isolated(hpp_mid_invalidation_preemption_leaks_nothing_body);
}

fn hpp_mid_invalidation_preemption_leaks_nothing_body() {
    // Preempt HP++ threads inside `do_invalidation` — after a batch's nodes
    // are invalidated but before its frontier protections are parked — and
    // on the unlink frontier window, while two threads churn one list.
    // Contract: deferred invalidation tolerates arbitrary preemption there;
    // once the threads quiesce, a fresh thread reclaims every node.
    let plan = fault::plan()
        .every(
            "hpp::try_unlink::mid_invalidation",
            1,
            FaultAction::YieldStorm(20),
        )
        .every(
            "hpp::try_unlink::after_frontier",
            3,
            FaultAction::YieldStorm(10),
        )
        .every(
            "hpp::reclaim::before_revoke",
            2,
            FaultAction::YieldStorm(15),
        )
        .install();

    let before = smr_common::counters::garbage_now();
    let m: ds::hpp::HHSList<u64, u64> = ConcurrentMap::new();
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let m = &m;
            s.spawn(move || {
                let mut h = m.handle();
                for r in 0..150 {
                    for k in 0..8 {
                        m.insert(&mut h, t * 1000 + k, r);
                    }
                    for k in 0..8 {
                        m.remove(&mut h, &(t * 1000 + k));
                    }
                }
            });
        }
    });
    drop(plan);

    // Both churners are gone (their teardowns donated leftovers). A fresh
    // thread adopts and frees everything: global garbage returns to — or
    // below — where it started (below if earlier tests left orphans).
    let mut t = hp_plus::default_domain().register();
    for _ in 0..100 {
        t.reclaim();
        if smr_common::counters::garbage_now() <= before {
            break;
        }
    }
    let after = smr_common::counters::garbage_now();
    assert!(
        after <= before,
        "mid-invalidation preemption leaked {} nodes",
        after - before
    );
}

#[test]
fn hpp_panic_mid_invalidation_leaks_nothing() {
    common::isolated(hpp_panic_mid_invalidation_leaks_nothing_body);
}

fn hpp_panic_mid_invalidation_leaks_nothing_body() {
    // A thread dies on an injected panic inside its first invalidation
    // flush, after one of its unlinked nodes is invalidated. Contract: the
    // flush leaves every unlinked node in place, so the dying thread's
    // teardown still invalidates and retires all of them, and a fresh
    // thread in the same (private) domain frees every one.
    let d: &'static hp_plus::Domain = Box::leak(Box::new(hp_plus::Domain::new()));
    let m = ds::hpp::HHSList::<u64, u64>::new_in(d);
    let before = smr_common::counters::garbage_now();
    let plan = fault::plan()
        .at("hpp::try_unlink::mid_invalidation", 2, FaultAction::Panic)
        .install();
    let churn = std::thread::scope(|s| {
        s.spawn(|| {
            let mut h = m.handle();
            for k in 0..64 {
                m.insert(&mut h, k, k);
            }
            for k in 0..64 {
                m.remove(&mut h, &k);
            }
        })
        .join()
    });
    assert!(
        churn.is_err(),
        "the churner must have died mid-invalidation"
    );
    drop(plan);

    let mut t = d.register();
    for _ in 0..10 {
        t.reclaim();
        if smr_common::counters::garbage_now() <= before {
            break;
        }
    }
    let after = smr_common::counters::garbage_now();
    assert!(
        after <= before,
        "a panic mid-invalidation leaked {} nodes",
        after - before
    );
}

#[test]
fn hp_panicking_teardown_still_donates() {
    common::isolated(hp_panicking_teardown_still_donates_body);
}

fn hp_panicking_teardown_still_donates_body() {
    // A thread that dies *inside its own teardown* (injected panic at the
    // start of the final reclaim) must still donate every retired node —
    // the satellite-1 Drop guard in `hp::Thread::drop`.
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Canary(#[allow(dead_code)] u64);
    impl Drop for Canary {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Relaxed);
        }
    }
    const N: usize = 50; // below RECLAIM_THRESHOLD: nothing freed early

    let plan = fault::plan()
        .at("hp::teardown::before_reclaim", 1, FaultAction::Panic)
        .install();
    let d: &'static hp::Domain = Box::leak(Box::new(hp::Domain::new()));
    let mut t = d.register();
    for _ in 0..N {
        let p = Box::into_raw(Box::new(Canary(7)));
        unsafe { t.retire(p) };
    }
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(t)));
    assert!(err.is_err(), "teardown must have panicked");
    assert_eq!(DROPS.load(Relaxed), 0, "nothing freed by the dying thread");
    assert_eq!(d.orphans(), N, "the Drop guard donated all {N} nodes");

    let mut survivor = d.register();
    survivor.reclaim();
    assert_eq!(DROPS.load(Relaxed), N, "survivor adopted and freed all {N}");
    assert_eq!(d.orphans(), 0);
    assert_eq!(survivor.retired_count(), 0);
    drop(plan);
}

#[test]
fn ebr_dead_thread_orphan_storm_reclaims_exactly() {
    common::isolated(ebr_dead_thread_orphan_storm_reclaims_exactly_body);
}

fn ebr_dead_thread_orphan_storm_reclaims_exactly_body() {
    // The dead-thread acceptance criterion: 8 threads die without flushing
    // (donating via handle teardown) under seeded scheduling noise; the
    // survivor must reclaim *exactly* every node — zero leaks, asserted by
    // exact counter deltas.
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Canary(#[allow(dead_code)] u64);
    impl Drop for Canary {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Relaxed);
        }
    }
    const THREADS: usize = 8;
    const PER_THREAD: usize = 100;

    let plan = fault::plan().seeded(0xC0FFEE, 16).install();
    let c: &'static ebr::Collector = Box::leak(Box::new(ebr::Collector::new()));
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                let mut h = c.register();
                for _ in 0..PER_THREAD / 4 {
                    let g = h.pin();
                    for _ in 0..4 {
                        unsafe { g.defer_destroy(smr_common::Shared::from_owned(Canary(7))) };
                    }
                    drop(g);
                }
                // The handle drops dead without a flush: teardown donates.
            });
        }
    });
    drop(plan);

    let total = THREADS * PER_THREAD;
    let mut survivor = c.register();
    for _ in 0..1000 {
        let g = survivor.pin();
        g.flush();
        drop(g);
        if DROPS.load(Relaxed) == total {
            break;
        }
    }
    assert_eq!(
        DROPS.load(Relaxed),
        total,
        "dead threads must leak zero of their {total} retired nodes"
    );
}

#[test]
fn hp_retire_storm_under_stalled_collector_stays_bounded() {
    common::isolated(hp_retire_storm_under_stalled_collector_stays_bounded_body);
}

fn hp_retire_storm_under_stalled_collector_stays_bounded_body() {
    // One thread stalls *inside reclaim* (mid-scan, its bag swapped out).
    // Other threads' retire storms must keep reclaiming independently —
    // per-thread bags are private, so a stalled collector bounds only its
    // own garbage (Table 1 "bounded", per thread).
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Canary(#[allow(dead_code)] u64);
    impl Drop for Canary {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Relaxed);
        }
    }

    let plan = fault::plan()
        .at("hp::reclaim::before_fence", 1, FaultAction::Stall)
        .install();
    let d: &'static hp::Domain = Box::leak(Box::new(hp::Domain::new()));

    let victim = std::thread::spawn(move || {
        let mut t = d.register();
        let n = t.reclaim_threshold();
        // The n-th retire triggers reclaim, which stalls mid-scan.
        for _ in 0..n {
            let p = Box::into_raw(Box::new(Canary(7)));
            unsafe { t.retire(p) };
        }
        n
    });
    wait_for("victim stalled in reclaim", || {
        fault::stalled_count("hp::reclaim::before_fence") == 1
    });

    const WORKER_N: usize = 2000;
    let workers: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut t = d.register();
                for _ in 0..WORKER_N {
                    let p = Box::into_raw(Box::new(Canary(7)));
                    unsafe { t.retire(p) };
                    assert!(
                        t.retired_count() <= t.reclaim_threshold(),
                        "a stalled collector must not break other threads' bounds"
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    // Workers freed (almost) everything while the victim was wedged.
    assert!(
        DROPS.load(Relaxed) >= 3 * WORKER_N - 3 * hp::RECLAIM_THRESHOLD,
        "retire storm reclaimed concurrently: {} freed",
        DROPS.load(Relaxed)
    );

    fault::release("hp::reclaim::before_fence");
    let victim_n = victim.join().unwrap();
    drop(plan);

    // Exact balance: every node from the victim and all workers is freed
    // once all threads have torn down (no survivor sweep needed — nothing
    // was protected).
    assert_eq!(
        DROPS.load(Relaxed),
        victim_n + 3 * WORKER_N,
        "zero leaks after the stall clears"
    );
}

#[test]
fn ebr_retire_storm_under_stalled_collector_grows_then_drains() {
    common::isolated(ebr_retire_storm_under_stalled_collector_grows_then_drains_body);
}

fn ebr_retire_storm_under_stalled_collector_grows_then_drains_body() {
    // The EBR counterpart: the victim stalls inside `try_advance` — after
    // verifying all participants but *before publishing* the new epoch —
    // while still pinned. The epoch wedges one step later, a concurrent
    // retire storm grows unboundedly (watchdog-flagged), and releasing the
    // stall drains everything to the exact node.
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Canary(#[allow(dead_code)] u64);
    impl Drop for Canary {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Relaxed);
        }
    }

    let plan = fault::plan()
        .at("ebr::advance::before_publish", 1, FaultAction::Stall)
        .install();
    let c: &'static ebr::Collector = Box::leak(Box::new(ebr::Collector::new()));
    static VICTIM_CREATED: AtomicUsize = AtomicUsize::new(0);

    let victim = std::thread::spawn(move || {
        let mut h = c.register();
        let g = h.pin();
        // Enough deferred nodes to trigger a collection, whose try_advance
        // stalls at the publish point (still pinned!).
        for _ in 0..c.collect_threshold() + 1 {
            unsafe { g.defer_destroy(smr_common::Shared::from_owned(Canary(7))) };
            VICTIM_CREATED.fetch_add(1, Relaxed);
        }
        drop(g);
    });
    wait_for("victim stalled in try_advance", || {
        fault::stalled_count("ebr::advance::before_publish") == 1
    });

    let mut worker = c.register();
    let bound = 4 * c.collect_threshold();
    let mut watchdog = GarbageWatchdog::new(bound, Duration::from_millis(50));
    let mut created = 0usize;
    let mut flagged = false;
    for _ in 0..400 {
        let g = worker.pin();
        for _ in 0..64 {
            unsafe { g.defer_destroy(smr_common::Shared::from_owned(Canary(7))) };
            created += 1;
        }
        g.flush();
        drop(g);
        let garbage = created + VICTIM_CREATED.load(Relaxed) - DROPS.load(Relaxed);
        if matches!(
            watchdog.observe(c.epoch(), garbage),
            WatchdogStatus::GrowingUnbounded { .. }
        ) {
            flagged = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        flagged,
        "watchdog must flag growth behind the stalled advance"
    );

    fault::release("ebr::advance::before_publish");
    victim.join().unwrap();
    drop(plan);

    let total = created + VICTIM_CREATED.load(Relaxed);
    for _ in 0..200 {
        let g = worker.pin();
        g.flush();
        drop(g);
        if DROPS.load(Relaxed) == total {
            break;
        }
    }
    assert_eq!(DROPS.load(Relaxed), total, "all {total} canaries freed");
}

#[test]
fn ebr_registry_node_unlinked_behind_a_stale_epoch_waits_for_late_pinners() {
    common::isolated(ebr_registry_node_unlinked_behind_a_stale_epoch_waits_for_late_pinners_body);
}

fn ebr_registry_node_unlinked_behind_a_stale_epoch_waits_for_late_pinners_body() {
    // The victim reads the epoch `e0` in `try_advance` and stalls before
    // traversing the registry. Meanwhile the epoch moves to `e0 + 1`, a
    // participant exits (dead registry node) and `reader` pins at `e0 + 1`
    // — it stands for a traverser parked on that dead node. Released, the
    // victim unlinks and retires the node. A pin at `e0 + 1` does not hold
    // back `e0 + 2`, so the node must be stamped with the epoch at the
    // unlink, not with `e0`, or it is freed under the reader.
    let plan = fault::plan()
        .at("ebr::advance::before_traverse", 1, FaultAction::Stall)
        .install();
    let c: &'static ebr::Collector = Box::leak(Box::new(ebr::Collector::new()));
    // Registry order is newest first: victim, dying, reader — so the stale
    // traversal reaches the dead node before `reader`'s newer pin ends it.
    let mut reader = c.register();
    let dying = c.register();
    let e0 = c.epoch();

    let victim = std::thread::spawn(move || {
        let mut h = c.register();
        h.pin().flush(); // reads e0, stalls; released: unlinks the dead node
        h.pin().flush(); // everyone pinned is at e0 + 1: advances to e0 + 2
        ebr::Collector::garbage(&h)
    });
    wait_for("victim stalled before its registry traversal", || {
        fault::stalled_count("ebr::advance::before_traverse") == 1
    });
    reader.pin().flush();
    assert_eq!(c.epoch(), e0 + 1, "victim and reader had both observed e0");
    drop(dying);
    let late = reader.pin();
    fault::release("ebr::advance::before_traverse");
    let kept = victim.join().unwrap();
    assert_eq!(c.epoch(), e0 + 2);
    assert_eq!(
        kept, 1,
        "registry node freed while a pin at e0 + 1 could still reach it"
    );
    drop(late);
    drop(plan);
}

#[test]
fn ebr_blocked_advance_is_remembered_not_rescanned() {
    common::isolated(ebr_blocked_advance_is_remembered_not_rescanned_body);
}

fn ebr_blocked_advance_is_remembered_not_rescanned_body() {
    // While one handle stays pinned behind the epoch, a peer's forced
    // collections learn that from one traversal: the rest read the
    // remembered straggler's state word and stop before the heavy fence.
    // Once the straggler unpins, the next collection traverses and
    // advances.
    const POINT: &str = "ebr::advance::before_traverse";
    const N: u64 = 16;
    let c: &'static ebr::Collector = Box::leak(Box::new(ebr::Collector::new()));
    let mut blocker = c.register();
    let mut peer = c.register();
    let straggler = blocker.pin();
    peer.pin().flush(); // the pin is current: this advance succeeds
    let held = c.epoch();

    let plan = fault::plan().install(); // armed, no triggers: just counts
    for _ in 0..N {
        peer.pin().flush();
    }
    assert_eq!(c.epoch(), held, "the straggler holds the epoch");
    assert_eq!(fault::hits("ebr::collect::after_adopt"), N);
    assert_eq!(
        fault::hits(POINT),
        1,
        "one traversal per straggler, not one per collection"
    );

    drop(straggler);
    peer.pin().flush();
    assert_eq!(
        fault::hits(POINT),
        2,
        "a moved straggler is re-read by a traversal"
    );
    assert_eq!(c.epoch(), held + 1);
    drop(plan);
}

#[test]
fn pebr_unmoved_ejected_straggler_is_marked_once() {
    common::isolated(pebr_unmoved_ejected_straggler_is_marked_once_body);
}

fn pebr_unmoved_ejected_straggler_is_marked_once_body() {
    // Past the ejection threshold every retire collects with ejection.
    // The first such pass marks the straggler; while it has not moved,
    // the later ones take the memo's answer instead of re-marking it.
    // Its refresh moves it, and the next collection advances past it.
    use smr_common::SchemeGuard;

    const POINT: &str = "pebr::eject::after_mark";
    let c: &'static pebr::Collector = Box::leak(Box::new(pebr::Collector::new()));
    let mut straggler = c.register();
    let mut reclaimer = c.register();
    let mut sg = straggler.pin();
    let plan = fault::plan().install();
    for _ in 0..c.garbage_bound(1).unwrap() {
        // A fresh pin per retire: only the straggler lags.
        let rg = reclaimer.pin();
        unsafe { rg.defer_destroy(smr_common::Shared::from_owned(0u64)) };
    }
    assert!(!sg.validate(), "the straggler is ejected");
    assert_eq!(
        fault::hits(POINT),
        1,
        "one mark while the straggler has not moved"
    );
    assert_eq!(c.ejections(), 1);

    sg.refresh();
    let e = c.epoch();
    let rg = reclaimer.pin();
    unsafe { rg.defer_destroy(smr_common::Shared::from_owned(0u64)) };
    drop(rg);
    assert_eq!(c.epoch(), e + 1, "the refreshed straggler no longer blocks");
    assert_eq!(fault::hits(POINT), 1);
    drop(sg);
    drop(plan);
}

#[test]
fn ebr_memo_of_a_freed_straggler_is_never_read() {
    common::isolated(ebr_memo_of_a_freed_straggler_is_never_read_body);
}

fn ebr_memo_of_a_freed_straggler_is_never_read_body() {
    // The memoized straggler's handle drops, and a third handle unlinks its
    // registry node and advances the epoch twice past it, freeing the node.
    // The memo holder's next collection must not load through the memo
    // (its epoch is gone): under ASan, a load there is a use-after-free.
    const POINT: &str = "ebr::advance::before_traverse";
    let c: &'static ebr::Collector = Box::leak(Box::new(ebr::Collector::new()));
    let mut holder = c.register();
    let mut other = c.register();
    let mut straggler = c.register();
    let sg = straggler.pin();
    holder.pin().flush(); // the pin is current: this advance succeeds
    let e = c.epoch();

    let plan = fault::plan().install();
    holder.pin().flush(); // blocked: the memo now names the straggler
    assert_eq!(fault::hits(POINT), 1);
    drop(sg);
    drop(straggler);
    for _ in 0..3 {
        other.pin().flush(); // unlinks the dead node, stamped `e`; advances
    }
    assert_eq!(c.epoch(), e + 3);
    assert_eq!(
        ebr::Collector::garbage(&other),
        0,
        "the straggler's registry node is freed"
    );
    let before = fault::hits(POINT);
    holder.pin().flush();
    assert_eq!(
        fault::hits(POINT),
        before + 1,
        "a stale memo must not answer"
    );
    assert_eq!(c.epoch(), e + 4);
    drop(plan);
}

#[test]
fn backoff_parked_thread_keeps_garbage_bounded_and_drains() {
    common::isolated(backoff_parked_thread_keeps_garbage_bounded_and_drains_body);
}

fn backoff_parked_thread_keeps_garbage_bounded_and_drains_body() {
    // Contention-machinery adversary: a thread escalates its CAS backoff all
    // the way to the park phase *while still holding its hazard pointer*
    // (exactly the state of a retry loop between failed attempts), and the
    // park stalls forever — an OS descheduling it indefinitely. Contract:
    // the sleeper pins at most its one announced node; every other thread's
    // retire bound holds, and releasing the stall drains to the exact node.
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Canary(#[allow(dead_code)] u64);
    impl Drop for Canary {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Relaxed);
        }
    }

    let plan = fault::plan()
        .at("backoff::park", 1, FaultAction::Stall)
        .install();
    let d: &'static hp::Domain = Box::leak(Box::new(hp::Domain::new()));
    let slot: &'static smr_common::Atomic<Canary> =
        Box::leak(Box::new(smr_common::Atomic::new(Canary(7))));

    let victim = std::thread::spawn(move || {
        let mut t = d.register();
        let hp = t.hazard_pointer();
        let p = slot.load(std::sync::atomic::Ordering::Acquire);
        let _ = hp.try_protect(p, slot);
        // Mid-retry-loop: escalate a backoff into the park phase while the
        // protection is still published. Six spins and four yields come
        // first; the 11th snooze's park stalls on the fault point, and
        // later snoozes (after release) are sleeps of at most 32 µs.
        let mut b = smr_common::Backoff::new();
        for _ in 0..16 {
            b.snooze();
        }
        hp.reset();
        t.recycle(hp);
    });
    wait_for("victim stalled in backoff park", || {
        fault::stalled_count("backoff::park") == 1
    });

    // Writer churn around the sleeper: its hazard covers the initial node
    // only, so every other thread keeps its Table 1 retire bound.
    let mut writer = d.register();
    let n = 3 * writer.reclaim_threshold();
    for _ in 0..n {
        let old = slot.swap(
            smr_common::Shared::from_owned(Canary(7)),
            std::sync::atomic::Ordering::AcqRel,
        );
        unsafe { writer.retire(old.as_raw()) };
        assert!(
            writer.retired_count() <= writer.reclaim_threshold(),
            "a parked thread must not break the retire bound: {} > {}",
            writer.retired_count(),
            writer.reclaim_threshold()
        );
    }
    assert!(
        DROPS.load(Relaxed) >= n - writer.reclaim_threshold() - 1,
        "writer reclaimed around the parked thread: {} freed of {n}",
        DROPS.load(Relaxed)
    );

    fault::release("backoff::park");
    victim.join().unwrap();
    drop(plan);

    // Exact balance once the sleeper wakes and drops its hazard: all n
    // retired nodes freed, only the slot's final occupant left.
    writer.reclaim();
    assert_eq!(DROPS.load(Relaxed), n, "every retired node freed");
    unsafe { slot.load(std::sync::atomic::Ordering::Acquire).drop_owned() };
}

#[test]
fn hyaline_stalled_enter_is_ejected_and_garbage_stays_bounded() {
    common::isolated(hyaline_stalled_enter_is_ejected_and_garbage_stays_bounded_body);
}

fn hyaline_stalled_enter_is_ejected_and_garbage_stays_bounded_body() {
    // Hyaline's answer to the stall EBR cannot survive: a thread stalled in
    // the announce-to-validate window (era + PENDING published, critical
    // section not yet validated) holds no references, so the next handover
    // ejects its stale announcement instead of reserving it a batch node.
    // Contract: churn from other threads stays under the derived
    // batches-in-flight bound, and releasing the stall drains to the exact
    // node — the victim re-validates against the bumped era and pins
    // nothing retroactively.
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Canary(#[allow(dead_code)] u64);
    impl Drop for Canary {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Relaxed);
        }
    }

    let plan = fault::plan()
        .at("hyaline::enter::before_validate", 1, FaultAction::Stall)
        .install();
    let d: &'static hyaline::Domain = Box::leak(Box::new(hyaline::Domain::new()));

    let victim = std::thread::spawn(move || {
        let mut h = d.register();
        let g = h.pin(); // stalls mid-enter: announced, unvalidated
        drop(g);
    });
    wait_for("victim stalled in enter", || {
        fault::stalled_count("hyaline::enter::before_validate") == 1
    });

    // Worker churn (the nth=1 trigger is consumed, so our own enters pass
    // through). Every handover ejects the victim and frees the batch as
    // soon as our own leave returns its reference.
    let mut worker = d.register();
    // Victim + worker, plus the adopter slack hyaline's bound has always
    // carried.
    let bound = d.garbage_bound(3).unwrap();
    let mut created = 0usize;
    for _ in 0..40 {
        let g = worker.pin();
        for _ in 0..64 {
            unsafe { g.defer_destroy(smr_common::Shared::from_owned(Canary(7))) };
            created += 1;
        }
        g.flush();
        drop(g);
        let garbage = created - DROPS.load(Relaxed);
        assert!(
            garbage <= bound,
            "stalled enter must not break the handover bound: {garbage} > {bound}"
        );
    }
    assert!(
        DROPS.load(Relaxed) > 0,
        "handovers reclaimed around the stalled enter"
    );

    fault::release("hyaline::enter::before_validate");
    victim.join().unwrap();
    drop(plan);

    // Exact balance: the released victim validated a fresh era, so it never
    // held a reference — a final flush round frees every single canary.
    for _ in 0..8 {
        let g = worker.pin();
        g.flush();
        drop(g);
        if DROPS.load(Relaxed) == created {
            break;
        }
    }
    assert_eq!(DROPS.load(Relaxed), created, "all {created} canaries freed");
}

#[test]
fn hyaline_stalled_leaver_pins_one_batch_and_drains_exactly() {
    common::isolated(hyaline_stalled_leaver_pins_one_batch_and_drains_exactly_body);
}

fn hyaline_stalled_leaver_pins_one_batch_and_drains_exactly_body() {
    // The handover-decrement window: a leaver that detached its retirement
    // list (critical section already over — its slot word is 0) but stalled
    // before releasing the references. Contract: exactly the batches on the
    // detached list stay pinned; later handovers skip the empty slot, so
    // everyone else's garbage keeps draining, and the release frees the
    // held batch to the exact node.
    use std::sync::atomic::AtomicBool;
    use std::sync::atomic::Ordering::{Acquire, Release};
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Canary(#[allow(dead_code)] u64);
    impl Drop for Canary {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Relaxed);
        }
    }
    static PINNED: AtomicBool = AtomicBool::new(false);
    static HANDED: AtomicBool = AtomicBool::new(false);
    const FIRST: usize = 48;

    let plan = fault::plan()
        .at("hyaline::leave::before_decrement", 1, FaultAction::Stall)
        .install();
    let d: &'static hyaline::Domain = Box::leak(Box::new(hyaline::Domain::new()));

    let victim = std::thread::spawn(move || {
        let mut h = d.register();
        let g = h.pin();
        PINNED.store(true, Release);
        while !HANDED.load(Acquire) {
            std::thread::yield_now();
        }
        drop(g); // detaches the handed-over list, then stalls mid-walk
    });
    wait_for("victim pinned", || PINNED.load(Acquire));

    // Hand the victim's validated critical section one batch of references.
    // Our own guard stays live until the victim has stalled, so the
    // victim's leave is the first to cross the fault point.
    let mut worker = d.register();
    let mut created = 0usize;
    {
        let g = worker.pin();
        for _ in 0..FIRST {
            unsafe { g.defer_destroy(smr_common::Shared::from_owned(Canary(7))) };
            created += 1;
        }
        g.flush(); // the victim's slot takes one reference (ours does too)
        HANDED.store(true, Release);
        wait_for("victim stalled in leave", || {
            fault::stalled_count("hyaline::leave::before_decrement") == 1
        });
        drop(g); // our reference comes back; the victim's is now the last
    }
    assert_eq!(
        DROPS.load(Relaxed),
        0,
        "the detached list still pins its batch"
    );

    // Churn around the wedged leaver: its slot word is already 0, so new
    // handovers never reach it — only the first batch stays pinned.
    let bound = FIRST + d.garbage_bound(3).unwrap();
    for _ in 0..30 {
        let g = worker.pin();
        for _ in 0..64 {
            unsafe { g.defer_destroy(smr_common::Shared::from_owned(Canary(7))) };
            created += 1;
        }
        g.flush();
        drop(g);
        let garbage = created - DROPS.load(Relaxed);
        assert!(
            garbage <= bound,
            "stalled leaver must pin only its detached list: {garbage} > {bound}"
        );
    }
    assert_eq!(
        created - DROPS.load(Relaxed),
        FIRST,
        "exactly the handed-over batch remains pinned"
    );

    fault::release("hyaline::leave::before_decrement");
    victim.join().unwrap();
    drop(plan);

    // The woken leaver's decrement was the zero transition: exact balance.
    assert_eq!(DROPS.load(Relaxed), created, "all {created} canaries freed");
}

#[test]
fn hyaline_preempted_retire_and_handover_windows_leak_nothing() {
    common::isolated(hyaline_preempted_retire_and_handover_windows_leak_nothing_body);
}

fn hyaline_preempted_retire_and_handover_windows_leak_nothing_body() {
    // Preempt hyaline threads at the retire-link, the post-fence handover
    // traverse, and the final refs adjustment — the three windows where a
    // batch is visible to leavers but its count is not yet settled — while
    // two threads churn one list. Contract: leavers driving the count
    // negative before the adjustment is exactly the designed race; once the
    // threads quiesce, a fresh handle adopts the donated leftovers and
    // global garbage returns to where it started.
    let plan = fault::plan()
        .every(
            "hyaline::retire::after_link",
            2,
            FaultAction::YieldStorm(20),
        )
        .every(
            "hyaline::handover::before_traverse",
            1,
            FaultAction::YieldStorm(10),
        )
        .every(
            "hyaline::handover::before_adjust",
            1,
            FaultAction::YieldStorm(15),
        )
        .install();

    let before = smr_common::counters::garbage_now();
    let m: ds::guarded::HMList<u64, u64, hyaline::Hyaline> = ConcurrentMap::new();
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let m = &m;
            s.spawn(move || {
                let mut h = m.handle();
                for r in 0..150 {
                    for k in 0..8 {
                        m.insert(&mut h, t * 1000 + k, r);
                    }
                    for k in 0..8 {
                        m.remove(&mut h, &(t * 1000 + k));
                    }
                }
            });
        }
    });
    drop(plan);

    // Both churners are gone (their teardowns donated unhanded batches). A
    // fresh handle adopts and hands them over; its own leave frees them.
    let mut survivor = hyaline::default_domain().register();
    for _ in 0..100 {
        let g = survivor.pin();
        g.flush();
        drop(g);
        if smr_common::counters::garbage_now() <= before {
            break;
        }
    }
    let after = smr_common::counters::garbage_now();
    assert!(
        after <= before,
        "preempted handover windows leaked {} nodes",
        after - before
    );
}

#[test]
fn hyaline_panicking_teardown_still_donates() {
    common::isolated(hyaline_panicking_teardown_still_donates_body);
}

fn hyaline_panicking_teardown_still_donates_body() {
    // A thread that dies *inside its own teardown* (injected panic before
    // the donation) must still unregister its slot and donate every
    // unhanded payload — the Drop guard in `LocalHandle::drop` runs during
    // unwinding too. Exact orphan balance, then a survivor adopts and
    // frees everything through the normal handover grace period.
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Canary(#[allow(dead_code)] u64);
    impl Drop for Canary {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Relaxed);
        }
    }
    const N: usize = 50; // below the handover threshold: nothing freed early

    let plan = fault::plan()
        .at("hyaline::teardown::before_donate", 1, FaultAction::Panic)
        .install();
    let d: &'static hyaline::Domain = Box::leak(Box::new(hyaline::Domain::new()));
    let mut t = d.register();
    {
        let g = t.pin();
        for _ in 0..N {
            unsafe { g.defer_destroy(smr_common::Shared::from_owned(Canary(7))) };
        }
        drop(g);
    }
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(t)));
    assert!(err.is_err(), "teardown must have panicked");
    assert_eq!(DROPS.load(Relaxed), 0, "nothing freed by the dying thread");
    assert_eq!(d.orphans(), N, "the Drop guard donated all {N} nodes");
    assert_eq!(d.participants(), 0, "the dying slot was unregistered");

    let mut survivor = d.register();
    {
        let g = survivor.pin();
        g.flush(); // adopt the orphans, hand them to our own slot
        drop(g); // the leave is the zero transition
    }
    assert_eq!(DROPS.load(Relaxed), N, "survivor adopted and freed all {N}");
    assert_eq!(d.orphans(), 0);
    drop(plan);
}

#[test]
fn hpp_thread_registering_after_an_alone_check_keeps_its_frontier_node() {
    common::isolated(hpp_thread_registering_after_an_alone_check_keeps_its_frontier_node_body);
}

fn hpp_thread_registering_after_an_alone_check_keeps_its_frontier_node_body() {
    // A reclaimer alone in its domain unlinks `a` from `head -> a -> b` and
    // stalls between its alone check and its scan. A thread registers
    // there and protects `b`, the unlink's frontier, still linked. The
    // reclaimer resumes without a fence and revokes its own frontier
    // protection: the scan frees `a`, which the late thread could never
    // reach, and `b` stays readable under the late thread's protection.
    use hp_plus::Invalidate;
    use smr_common::{Atomic, Shared};
    use std::sync::atomic::Ordering::{AcqRel, Acquire, Release};

    const POINT: &str = "hp::reclaim::after_alone_check";
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Node {
        next: Atomic<Node>,
        value: u64,
    }
    impl Drop for Node {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Relaxed);
        }
    }
    unsafe impl Invalidate for Node {
        unsafe fn invalidate(ptr: *mut Self) {
            let node = unsafe { &*ptr };
            let cur = node.next.load(Relaxed);
            node.next.store(cur.with_tag(cur.tag() | 2), Release);
        }
    }

    let plan = fault::plan().at(POINT, 1, FaultAction::Stall).install();
    let d: &'static hp_plus::Domain = Box::leak(Box::new(hp_plus::Domain::new()));
    let b = Shared::from_owned(Node {
        next: Atomic::null(),
        value: 2,
    });
    let a = Shared::from_owned(Node {
        next: Atomic::from(b),
        value: 1,
    });
    let head: &'static Atomic<Node> = Box::leak(Box::new(Atomic::from(a)));
    let (a_word, b_word) = (a.as_raw() as usize, b.as_raw() as usize);

    let fences_before = smr_common::counters::heavy_fences();
    let reclaimer = std::thread::spawn(move || {
        let (a, b) = (
            Shared::from_raw(a_word as *mut Node),
            Shared::from_raw(b_word as *mut Node),
        );
        let mut t = d.register();
        let unlinked = unsafe {
            t.try_unlink(&[b], || {
                head.compare_exchange(a, b, AcqRel, Acquire)
                    .ok()
                    .map(|_| hp_plus::Unlinked::single(a))
            })
        };
        assert!(unlinked);
        t.reclaim();
        smr_common::counters::heavy_fences() - fences_before
    });
    wait_for("the reclaimer stalled after its alone check", || {
        fault::stalled_count(POINT) == 1
    });

    let mut late = d.register();
    let slot = late.hazard_pointer();
    let mut cur = head.load(Acquire);
    assert!(hp_plus::try_protect(&slot, &mut cur, head, || false));
    assert_eq!(cur.as_raw() as usize, b_word, "the late thread reaches b");

    fault::release(POINT);
    let fences = reclaimer.join().unwrap();
    drop(plan);
    assert_eq!(fences, 0, "the reclaimer decided alone");
    assert_eq!(DROPS.load(Relaxed), 1, "the unlinked node was freed");
    assert_eq!(
        unsafe { cur.deref() }.value,
        2,
        "the frontier node survived"
    );
    late.recycle(slot);
    drop(late);
    unsafe { head.load(Acquire).drop_owned() };
    assert_eq!(DROPS.load(Relaxed), 2);
}

#[test]
fn all_fault_points_are_reachable() {
    common::isolated(all_fault_points_are_reachable_body);
}

fn all_fault_points_are_reachable_body() {
    // Coverage: every point a crate declares in its FAULT_POINTS const is
    // actually crossed by a small targeted scenario — a renamed or orphaned
    // injection point fails here instead of silently rotting.
    let plan = fault::plan().install(); // armed, no triggers: just counts

    // hp: protect, retire, the three reclaim windows, teardown.
    {
        let d: &'static hp::Domain = Box::leak(Box::new(hp::Domain::new()));
        let mut t = d.register();
        let hp = t.hazard_pointer();
        let slot = smr_common::Atomic::new(1u64);
        let p = slot.load(std::sync::atomic::Ordering::Acquire);
        let _ = hp.try_protect(p, &slot);
        hp.reset();
        t.recycle(hp);
        let raw = Box::into_raw(Box::new(2u64));
        unsafe { t.retire(raw) };
        t.reclaim();
        drop(t);
        unsafe { slot.into_owned() };
    }
    // ebr: pin, defer, the three collect windows, teardown.
    {
        let c: &'static ebr::Collector = Box::leak(Box::new(ebr::Collector::new()));
        let mut h = c.register();
        let g = h.pin();
        unsafe { g.defer_destroy(smr_common::Shared::from_owned(3u64)) };
        g.flush();
        drop(g);
        drop(h);
    }
    // hp-plus: enough churn to cross both periods (unlink, invalidation,
    // reclaim windows).
    {
        let m: ds::hpp::HHSList<u64, u64> = ConcurrentMap::new();
        let mut h = m.handle();
        for r in 0..20 {
            for k in 0..16 {
                m.insert(&mut h, k, r);
            }
            for k in 0..16 {
                m.remove(&mut h, &k);
            }
        }
    }
    // pebr: pin, collect, ejection, teardown.
    {
        let c: &'static pebr::Collector = Box::leak(Box::new(pebr::Collector::new()));
        let mut straggler = c.register();
        let mut reclaimer = c.register();
        let sg = straggler.pin();
        {
            let rg = reclaimer.pin();
            for _ in 0..c.garbage_bound(1).unwrap() {
                unsafe { rg.defer_destroy(smr_common::Shared::from_owned(4u64)) };
            }
            drop(rg);
        }
        drop(sg);
        drop(straggler);
        drop(reclaimer);
    }
    // hyaline: enter, retire-link, both handover windows, the leave walk
    // (the flush hands the batch to our own slot), teardown donation.
    {
        let d: &'static hyaline::Domain = Box::leak(Box::new(hyaline::Domain::new()));
        let mut h = d.register();
        {
            let g = h.pin();
            unsafe { g.defer_destroy(smr_common::Shared::from_owned(5u64)) };
            g.flush();
            drop(g);
        }
        drop(h);
    }
    // ds: any guarded traversal crosses the validate window, and any
    // hazard-family step past `head` its family's announce window (the
    // HP++ churn above crossed HP++'s); a skiplist insert with a tower of
    // two or more levels (all 64 being one level high has probability
    // 2^-64) crosses the upper-level link window; an EFRB insert crosses
    // the one before its child CAS.
    {
        let m: ds::hp::HMList<u64, u64> = ConcurrentMap::new();
        let mut h = m.handle();
        assert!(m.insert(&mut h, 1, 1));
        assert!(m.get(&mut h, &1).is_some());
        let m: ds::guarded::SkipList<u64, u64, ebr::Ebr> = ConcurrentMap::new();
        let mut h = m.handle();
        for k in 0..64 {
            m.insert(&mut h, k, k);
        }
        assert!(m.get(&mut h, &1).is_some());
        let m: ds::guarded::EFRBTree<u64, u64, ebr::Ebr> = ConcurrentMap::new();
        assert!(m.insert(&mut m.handle(), 1, 1));
    }
    // smr-common: escalate a backoff past its six spins and four yields
    // into its park phase.
    {
        let mut b = smr_common::Backoff::new();
        for _ in 0..11 {
            b.snooze();
        }
    }
    // kv-service: a sleepy store behind a 2-slot ring crosses the ring-full
    // window, any drained op crosses the batch point, and an injected crash
    // walks the supervisor through quarantine + respawn.
    {
        use kv_service::{Command, KvConfig, KvService, ShardStore};

        struct SleepyStore;
        impl ShardStore for SleepyStore {
            type Domain = nr::Nr;
            type Handle = ();
            fn new_shard(_buckets: usize, _policy: smr_common::policy::PolicyKind) -> Self {
                SleepyStore
            }
            fn domain(&self) -> &'static nr::Nr {
                &nr::Nr
            }
            fn handle(&self) -> Self::Handle {}
            fn get(&self, _h: &mut Self::Handle, _key: u64) -> Option<u64> {
                std::thread::sleep(Duration::from_millis(2));
                None
            }
            fn insert(&self, _h: &mut Self::Handle, _key: u64, _value: u64) -> bool {
                true
            }
            fn remove(&self, _h: &mut Self::Handle, _key: u64) -> Option<u64> {
                None
            }
        }

        let cfg = KvConfig {
            shards: 1,
            batch: 1,
            ring_depth: 2,
            buckets: 8,
            ..KvConfig::new()
        }
        .with_op_timeout(Duration::from_secs(30));
        let svc = KvService::<SleepyStore>::start(cfg);
        let mut client = svc.client();
        let mut key = 0u64;
        wait_for("a producer to find the ring full", || {
            client.submit(Command::Get { key }).unwrap();
            key += 1;
            fault::hits("kv::ring::full") > 0
        });
        client.drain(|_, r| assert!(r.is_ok()));
        assert!(svc.inject_crash(0), "crash command not accepted");
        wait_for("the supervisor to respawn the shard", || {
            svc.generation(0).0 == 1
        });
        assert_eq!(client.get(0), Ok(None), "respawned shard must serve");
        svc.shutdown();
    }

    let all_points = hp::FAULT_POINTS
        .iter()
        .chain(ebr::FAULT_POINTS)
        .chain(hp_plus::FAULT_POINTS)
        .chain(pebr::FAULT_POINTS)
        .chain(hyaline::FAULT_POINTS)
        .chain(ds::FAULT_POINTS)
        .chain(smr_common::FAULT_POINTS)
        .chain(kv_service::FAULT_POINTS);
    let mut missed = Vec::new();
    for point in all_points {
        if fault::hits(point) == 0 {
            missed.push(*point);
        }
    }
    assert!(missed.is_empty(), "unreachable fault points: {missed:?}");
    drop(plan);
}
