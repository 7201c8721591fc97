//! The symmetric-fence fallback (`SMR_NO_MEMBARRIER=1`) must be fully
//! functional: correctness of the schemes cannot depend on `membarrier`
//! availability. This test binary forces the fallback before any fence is
//! issued (own process ⇒ own OnceLock), then runs a light-fence Dekker and
//! scheme stresses.

mod common;

use smr_common::ConcurrentMap;

fn force_symmetric() {
    // Must happen before the first fence::strategy() call in this process.
    std::env::set_var("SMR_NO_MEMBARRIER", "1");
    assert_eq!(
        smr_common::fence::strategy(),
        smr_common::fence::Strategy::SeqCst
    );
}

#[test]
fn light_fences_order_each_other_under_the_symmetric_strategy() {
    // Dekker, in the shape of `fence::tests::heavy_fence_orders_across_threads`
    // but with `light` on both sides: under the symmetric strategy each is
    // a `SeqCst` fence, so in no round may both loads miss the other
    // side's store. `light`'s fast path decides on a flag only the
    // asymmetric strategy sets; were it a compiler fence here too, this
    // fails within its 200 rounds on a 2-vCPU x86-64 host.
    use std::sync::atomic::{AtomicUsize, Ordering::*};

    use smr_common::{fence, CachePadded};

    let _serial = common::serial();
    force_symmetric();

    fn spin_until(done: impl Fn() -> bool) {
        for spins in 1u32.. {
            if done() {
                return;
            }
            if spins % 1024 == 0 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    let rounds = 200;
    let flags = [(); 2].map(|()| CachePadded::new(AtomicUsize::new(0)));
    let arrived = AtomicUsize::new(0);
    // Per round, whether `side` saw the other side's store.
    let run = |side: usize| -> Vec<bool> {
        (1..=rounds)
            .map(|r| {
                arrived.fetch_add(1, AcqRel);
                spin_until(|| arrived.load(Acquire) >= 2 * r);
                flags[side].store(r, Relaxed);
                fence::light();
                flags[1 - side].load(Relaxed) >= r
            })
            .collect()
    };
    let (saw0, saw1) = std::thread::scope(|s| {
        let other = s.spawn(|| run(1));
        (run(0), other.join().unwrap())
    });
    let both_missed = saw0.iter().zip(&saw1).filter(|(a, b)| !**a && !**b).count();
    assert_eq!(both_missed, 0, "a pair of light fences missed both stores");
}

#[test]
fn schemes_work_with_symmetric_fences() {
    let _serial = common::serial();
    force_symmetric();

    // HP under churn + concurrent readers.
    {
        let m: ds::hp::HMList<u64, u64> = ConcurrentMap::new();
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let m = &m;
                s.spawn(move || {
                    let mut h = m.handle();
                    for i in 0..2000 {
                        let k = (t * 1000 + i) % 64;
                        m.insert(&mut h, k, k * 1000);
                        if let Some(v) = m.get(&mut h, &k) {
                            assert_eq!(v, k * 1000);
                        }
                        m.remove(&mut h, &k);
                    }
                });
            }
        });
    }

    // HP++ under churn + concurrent readers (exercises the epoched heavy
    // fence path with plain SC fences).
    {
        let m: ds::hpp::HHSList<u64, u64> = ConcurrentMap::new();
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let m = &m;
                s.spawn(move || {
                    let mut h = m.handle();
                    for i in 0..2000 {
                        let k = (t * 1000 + i) % 64;
                        m.insert(&mut h, k, k * 1000);
                        if let Some(v) = m.get(&mut h, &k) {
                            assert_eq!(v, k * 1000);
                        }
                        m.remove(&mut h, &k);
                    }
                });
            }
        });
    }

    // Garbage still bounded in fallback mode.
    let m: ds::hpp::HMList<u64, u64> = ConcurrentMap::new();
    let mut h = m.handle();
    let before = smr_common::counters::garbage_now();
    for round in 0..300u64 {
        for k in 0..8 {
            m.insert(&mut h, k, round);
        }
        for k in 0..8 {
            m.remove(&mut h, &k);
        }
    }
    let grown = smr_common::counters::garbage_now().saturating_sub(before);
    assert!(
        grown < 1000,
        "garbage grew to {grown} under symmetric fences"
    );
}
