//! The symmetric-fence fallback (`SMR_NO_MEMBARRIER=1`) must be fully
//! functional: correctness of the schemes cannot depend on `membarrier`
//! availability. This test binary forces the fallback before any fence is
//! issued (own process ⇒ own OnceLock), then runs scheme stresses.

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
