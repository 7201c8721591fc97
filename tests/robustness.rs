//! Robustness (paper §4.4, Table 1): garbage stays bounded for the
//! hazard-based schemes even under churn, and a stalled EBR critical
//! section makes garbage grow without bound while PEBR ejects the offender.
//!
//! Every bound here is *derived from the schemes' published formulas*
//! (HP's `k·H + threshold` rule, PEBR's collect/eject thresholds,
//! hyaline's handover trigger) rather than hard-coded: each domain's
//! `SchemeDomain::garbage_bound`, so retuning a trigger does not break
//! them. EBR has no bound; its churn slack is its collection trigger.
//! The guarded schemes are enumerated by the shared registry
//! (`bench::schemes`), so a newly added scheme is churned here without
//! touching this file — and fails until it states its derived bound.
//! The deterministic fault-driven matrix lives in `tests/fault_matrix.rs`
//! (requires the `fault-injection` feature); these tests stay always-on.

mod common;

use std::borrow::Borrow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::time::Duration;

use common::serial;
use ds::InDomain;
use smr_common::{ConcurrentMap, GuardedScheme, SchemeDomain, SchemeGuard};

fn churn_n<M: ConcurrentMap<u64, u64>>(m: &M, h: &mut M::Handle, rounds: u64) {
    churn_keys(m, h, rounds, 0);
}

/// `rounds` × (insert then remove) of the 16 keys from `base`: 16 retires a
/// round as long as no other thread works the same keys.
fn churn_keys<M: ConcurrentMap<u64, u64>>(m: &M, h: &mut M::Handle, rounds: u64, base: u64) {
    for r in 0..rounds {
        for k in base..base + 16 {
            m.insert(h, k, r);
        }
        for k in base..base + 16 {
            m.remove(h, &k);
        }
    }
}

/// Churns one handle in a private domain, asserting after every remove
/// that the handle's own garbage is within the domain's bound for one
/// thread. `H` counts only this handle's slots, and the handle's count is
/// the garbage measured, so no margin is needed.
fn garbage_bounded_under_churn<L>()
where
    L: InDomain<u64, u64>,
    L::Handle: Borrow<<L::Domain as SchemeDomain>::Handle>,
{
    let d = L::Domain::leak_new();
    let m = L::new_in(d);
    let mut h = L::handle_in(d);
    for r in 0..500 {
        for k in 0..16 {
            m.insert(&mut h, k, r);
        }
        for k in 0..16 {
            m.remove(&mut h, &k);
            // HP: the bag never exceeds `k·H + threshold`. HP++ counts
            // garbage at unlink: on top of that, up to RECLAIM_PERIOD
            // unlinks (≤ 2 nodes each) may await deferred invalidation
            // (Algorithm 3).
            let bound = d.garbage_bound(1).expect("a hazard scheme is bounded");
            let garbage = L::Domain::garbage(h.borrow());
            assert!(
                garbage <= bound,
                "{} garbage reached {garbage}, bound {bound} (round {r})",
                L::Domain::NAME
            );
        }
    }
}

#[test]
fn hp_garbage_bounded_under_churn() {
    let _serial = serial();
    garbage_bounded_under_churn::<ds::hp::HMList<u64, u64>>();
}

#[test]
fn hpp_garbage_bounded_under_churn() {
    let _serial = serial();
    garbage_bounded_under_churn::<ds::hpp::HHSList<u64, u64>>();
}

/// Registry-driven churn: every scheme in `bench::schemes::GUARDED` runs
/// the same quiescent churn. A scheme with a derived bound must stay under
/// it; NR must leak the whole retire volume; EBR must stay within its
/// collection trigger. A new unbounded scheme fails this test until the
/// `match` below states what it must do.
#[test]
fn guarded_registry_churn_bounds() {
    let _serial = serial();
    const ROUNDS: u64 = 500;
    const TOTAL_RETIRES: u64 = ROUNDS * 16;

    struct Churn;
    impl bench::schemes::GuardedVisitor for Churn {
        fn visit<S: GuardedScheme>(&mut self, scheme: bench::Scheme) {
            let m: ds::guarded::HMList<u64, u64, S> = ConcurrentMap::new();
            let mut h = ConcurrentMap::handle(&m);
            let before = smr_common::counters::garbage_now();
            churn_n(&m, &mut h, ROUNDS);
            let grown = smr_common::counters::garbage_now().saturating_sub(before);
            drop(h);
            // Two handles: the churner, and an adopter of what exited
            // handles left in the default domain.
            match (scheme, S::global().garbage_bound(2)) {
                (_, Some(bound)) => assert!(
                    grown < bound as u64,
                    "{scheme} churn garbage {grown} over bound {bound}"
                ),
                (bench::Scheme::Nr, None) => assert!(
                    grown >= TOTAL_RETIRES,
                    "NR must leak every retire: {grown} < {TOTAL_RETIRES}"
                ),
                (bench::Scheme::Ebr, None) => {
                    // A quiescent single pinner collects every threshold
                    // retires; a few generation bags stay in flight.
                    let bound = 4 * ebr::default_collector().collect_threshold() as u64;
                    assert!(
                        grown < bound,
                        "EBR churn garbage {grown} over bound {bound}"
                    );
                }
                (other, None) => panic!("registry grew {other}: state its churn bound here"),
            }
        }
    }
    bench::schemes::for_each_guarded(&mut Churn);
}

#[test]
fn ebr_stalled_pin_grows_unboundedly_pebr_does_not() {
    let _serial = serial();
    // Deterministic version of the Table 1 robustness experiment: the
    // staller provably pins *before* the churners run a fixed amount of
    // work, so the garbage growth does not depend on scheduling.
    const ROUNDS: u64 = 1000; // 16 retires per round per churner
    const CHURNERS: u64 = 2;

    fn run<S: GuardedScheme>() -> u64 {
        let m: ds::guarded::HMList<u64, u64, S> = ds::guarded::HMList::new();
        let pinned = AtomicBool::new(false);
        let stop = AtomicBool::new(false);
        let before = smr_common::counters::garbage_now();
        let growth = std::thread::scope(|s| {
            // Staller: enters a critical section and never leaves,
            // refreshing only if ejected — a cooperative-but-slow reader.
            s.spawn(|| {
                let mut h = S::handle();
                let mut g = S::pin(&mut h);
                pinned.store(true, Relaxed);
                while !stop.load(Relaxed) {
                    if !g.validate() {
                        g.refresh(); // PEBR path: ejection observed
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            while !pinned.load(Relaxed) {
                std::thread::yield_now();
            }
            // Churners: a fixed amount of retiring work — each on its own
            // keys, or two that overlap in time would fail each other's
            // inserts and removes and retire as little as half of it.
            std::thread::scope(|s2| {
                for c in 0..CHURNERS {
                    let m = &m;
                    s2.spawn(move || {
                        let mut h = ConcurrentMap::handle(m);
                        churn_keys(m, &mut h, ROUNDS, 16 * c);
                    });
                }
            });
            let growth = smr_common::counters::garbage_now().saturating_sub(before);
            stop.store(true, Relaxed);
            growth
        });
        growth
    }

    let ebr_growth = run::<ebr::Ebr>();
    let pebr_growth = run::<pebr::Pebr>();

    // EBR under a stalled pin frees *nothing* retired after the pin became
    // visible: every retire is stamped at or after the staller's epoch, and
    // the epoch can advance at most once past it. The growth must therefore
    // be the whole retire volume, minus a small slack for collections that
    // raced the pin becoming visible (bounded by the collection trigger).
    let total_retires = CHURNERS * ROUNDS * 16;
    let slack = 4 * ebr::default_collector().collect_threshold() as u64;
    assert!(
        ebr_growth > total_retires - slack,
        "EBR with a stalled pin should accumulate ~{total_retires}; got {ebr_growth}"
    );
    // PEBR ejects the straggler once a thread's local garbage passes
    // EJECT_THRESHOLD, after which epochs advance and collections free.
    // Steady state per participant: the eject trigger plus a few collect
    // batches in flight (PEBR's derived bound); 3 participants, 2x margin.
    let pebr_bound = 2 * pebr::default_collector().garbage_bound(3).unwrap() as u64;
    assert!(
        pebr_growth < pebr_bound,
        "PEBR should stay near its eject threshold: pebr={pebr_growth} bound={pebr_bound}"
    );
    assert!(
        pebr_growth < ebr_growth / 2,
        "PEBR should eject the staller and stay below EBR: pebr={pebr_growth} ebr={ebr_growth}"
    );
}

#[test]
fn hybrid_hp_retire_through_hpp_thread() {
    // Retires and frees on the default HP++ domain: takes its turn so the
    // counter-diffing tests never see it.
    let _serial = serial();
    // §4.2 backward compatibility: an HP++ thread can retire nodes protected
    // with the original HP validation, in the same domain.
    let domain = hp_plus::default_domain();
    let mut t = domain.register();
    let slot = smr_common::Atomic::new(7u64);

    let hp = t.hazard_pointer();
    let p = slot.load(std::sync::atomic::Ordering::Acquire);
    assert!(hp.try_protect(p, &slot).is_ok());

    // Swap in a new value and retire the old through the HP++ thread's
    // plain-HP path.
    let fresh = smr_common::Shared::from_owned(8u64);
    let old = slot.swap(fresh, std::sync::atomic::Ordering::AcqRel);
    unsafe { t.retire(old.as_raw()) };

    // Protected: must survive a reclaim.
    t.reclaim();
    assert_eq!(unsafe { *old.deref() }, 7);

    hp.reset();
    t.reclaim();
    unsafe { slot.into_owned() };
}

#[test]
fn hp_panicking_worker_donates_garbage() {
    // A worker that panics mid-operation unwinds through its `hp::Thread`;
    // the Drop-guard teardown must still donate every unfreed node to the
    // domain orphan list, where a survivor adopts and frees it (exact
    // counter deltas — zero leaked nodes).
    let _serial = serial();
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Canary(#[allow(dead_code)] u64);
    impl Drop for Canary {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Relaxed);
        }
    }
    const N: usize = 10;

    let d: &'static hp::Domain = Box::leak(Box::new(hp::Domain::new()));
    let mut survivor = d.register();
    // Handshake: the survivor protects the worker's nodes before the worker
    // retires them, so the worker's teardown reclaim can free none of them
    // and the donation path is fully exercised.
    let (ptr_tx, ptr_rx) = std::sync::mpsc::channel::<Vec<usize>>();
    let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
    let worker = std::thread::spawn(move || {
        let mut t = d.register();
        let ptrs: Vec<usize> = (0..N)
            .map(|_| Box::into_raw(Box::new(Canary(7))) as usize)
            .collect();
        ptr_tx.send(ptrs.clone()).unwrap();
        go_rx.recv().unwrap();
        for &p in &ptrs {
            unsafe { t.retire(p as *mut Canary) };
        }
        panic!("worker dies mid-operation");
    });
    let ptrs = ptr_rx.recv().unwrap();
    let mut hps = Vec::new();
    for &p in &ptrs {
        let hp = survivor.hazard_pointer();
        hp.protect_raw(p as *mut Canary);
        hps.push(hp);
    }
    go_tx.send(()).unwrap();
    assert!(worker.join().is_err(), "worker must have panicked");

    assert_eq!(DROPS.load(Relaxed), 0, "protected nodes must survive");
    assert_eq!(d.orphans(), N, "panicking worker donated everything");
    for hp in hps {
        survivor.recycle(hp);
    }
    survivor.reclaim(); // adopts orphans and frees all of them
    assert_eq!(DROPS.load(Relaxed), N, "survivor freed every orphan");
    assert_eq!(d.orphans(), 0);
    assert_eq!(survivor.retired_count(), 0);
}

#[test]
fn ebr_panicking_worker_donates_garbage() {
    // Same property for EBR: a panic while a guard is live must unwind
    // through Guard (unpin) and LocalHandle (unregister + donate) so the
    // epoch is not wedged and no garbage is stranded.
    let _serial = serial();
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Canary(#[allow(dead_code)] u64);
    impl Drop for Canary {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Relaxed);
        }
    }
    const N: usize = 20;

    let c: &'static ebr::Collector = Box::leak(Box::new(ebr::Collector::new()));
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut h = c.register();
        let g = h.pin();
        for _ in 0..N {
            unsafe { g.defer_destroy(smr_common::Shared::from_owned(Canary(7))) };
        }
        panic!("worker dies inside a critical section");
    }));
    assert!(err.is_err());
    assert_eq!(DROPS.load(Relaxed), 0, "nothing freed during the unwind");
    assert_eq!(
        c.participants(),
        0,
        "panicking worker must have unregistered"
    );

    // The epoch is free to advance again; a survivor adopts and frees all N.
    let mut survivor = c.register();
    for _ in 0..100 {
        let g = survivor.pin();
        g.flush();
        drop(g);
        if DROPS.load(Relaxed) == N {
            break;
        }
    }
    assert_eq!(DROPS.load(Relaxed), N, "survivor freed every orphan");
}
