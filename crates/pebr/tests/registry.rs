//! Participant records live in the lock-free registry and die through the
//! collector's own bags. A binary of its own: the garbage counters are
//! process-global, and no other test may retire while this one counts.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use smr_common::{counters, SchemeDomain, Shared};

#[test]
fn register_unregister_churn_balances() {
    // Thread churn: handles come and go while retiring garbage, so every
    // drop donates to the orphan list and leaves a dead registry node
    // behind. A survivor must then adopt and free every orphan, and unlink
    // and free every dead record through its bags: the retired and freed
    // counts balance, dead records included.
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Canary;
    impl Drop for Canary {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Relaxed);
        }
    }

    let c: &'static pebr::Collector = Box::leak(Box::new(pebr::Collector::new()));
    let (retired0, freed0) = (counters::total_retired(), counters::total_freed());
    let threads = 8;
    let lives: usize = if cfg!(miri) { 4 } else { 64 };
    let retires_per_life = 16;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(move || {
                for _ in 0..lives {
                    let mut h = c.register();
                    let g = h.pin();
                    for _ in 0..retires_per_life {
                        unsafe { g.defer_destroy(Shared::from_owned(Canary)) };
                    }
                    drop(g);
                    // Handle drop: donate garbage, mark the registry node.
                }
            });
        }
    });
    let expected = threads * lives * retires_per_life;
    let dead_records = (threads * lives) as u64;
    let mut survivor = c.register();
    for _ in 0..8 {
        let g = survivor.pin();
        g.flush();
        drop(g);
        if counters::total_freed() - freed0 == expected as u64 + dead_records {
            break;
        }
    }
    assert_eq!(DROPS.load(Relaxed), expected, "orphaned garbage stranded");
    assert_eq!(
        counters::total_retired() - retired0,
        expected as u64 + dead_records,
        "every dead record is retired once, through the bags"
    );
    assert_eq!(
        counters::total_freed() - freed0,
        counters::total_retired() - retired0,
        "retired and freed balance"
    );
}
