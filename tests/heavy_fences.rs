//! Heavy-fence accounting of the hazard-pointer reclaimers, as exact
//! deltas of `smr_common::counters::heavy_fences`: a reclaimer that is its
//! domain's only participant issues none and still frees what it retired;
//! a second registered thread, or a slot ever taken straight from the
//! domain, brings back one fence per reclaim. HP++'s fence epoch moves only
//! behind a fence that was issued.
//!
//! The counter is process-wide, so every test holds [`common::serial`].

mod common;

use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};

use hp_plus::Invalidate;
use smr_common::counters::heavy_fences;
use smr_common::{Atomic, Shared};

/// Heavy fences issued while `f` runs.
fn fences(f: impl FnOnce()) -> u64 {
    let before = heavy_fences();
    f();
    heavy_fences() - before
}

fn hp_domain() -> &'static hp::Domain {
    Box::leak(Box::new(hp::Domain::new()))
}

fn hpp_domain() -> &'static hp_plus::Domain {
    Box::leak(Box::new(hp_plus::Domain::new()))
}

/// Retires one counted node and reclaims; returns the fences the reclaim
/// issued, after checking that the node was freed.
fn hp_round(t: &mut hp::Thread) -> u64 {
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Canary;
    impl Drop for Canary {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Relaxed);
        }
    }
    let before = DROPS.load(Relaxed);
    unsafe { t.retire(Box::into_raw(Box::new(Canary))) };
    let n = fences(|| t.reclaim());
    assert_eq!(
        DROPS.load(Relaxed),
        before + 1,
        "the retired node was freed"
    );
    assert_eq!(t.retired_count(), 0);
    n
}

struct Node {
    next: Atomic<Node>,
    value: u64,
}

static NODE_DROPS: AtomicUsize = AtomicUsize::new(0);

impl Drop for Node {
    fn drop(&mut self) {
        NODE_DROPS.fetch_add(1, Relaxed);
    }
}

unsafe impl Invalidate for Node {
    unsafe fn invalidate(ptr: *mut Self) {
        let node = unsafe { &*ptr };
        let cur = node.next.load(Relaxed);
        node.next.store(cur.with_tag(cur.tag() | 2), Release);
    }
}

/// Unlinks `a` from `head -> a -> b` with `b` as the frontier, reclaims,
/// and returns the fences the reclaim issued and how far the fence epoch
/// moved, after checking that `a` was freed and `b`, still linked, was not.
fn hpp_round(t: &mut hp_plus::Thread) -> (u64, u64) {
    let b = Shared::from_owned(Node {
        next: Atomic::null(),
        value: 2,
    });
    let a = Shared::from_owned(Node {
        next: Atomic::from(b),
        value: 1,
    });
    let head = Atomic::from(a);
    let drops = NODE_DROPS.load(Relaxed);
    let unlinked = unsafe {
        t.try_unlink(&[b], || {
            head.compare_exchange(a, b, AcqRel, Acquire)
                .ok()
                .map(|_| hp_plus::Unlinked::single(a))
        })
    };
    assert!(unlinked);
    let epoch = t.domain().fence_epoch_now();
    let n = fences(|| t.reclaim());
    let moved = t.domain().fence_epoch_now() - epoch;
    assert_eq!(
        NODE_DROPS.load(Relaxed),
        drops + 1,
        "the unlinked node was freed"
    );
    assert_eq!(unsafe { head.load(Acquire).deref() }.value, 2);
    unsafe { head.into_owned() };
    (n, moved)
}

#[test]
fn a_sole_hp_reclaimer_issues_no_fence_until_a_second_thread_registers() {
    let _serial = common::serial();
    let d = hp_domain();
    let mut t = d.register();
    assert_eq!(hp_round(&mut t), 0, "alone");
    let idle = d.register();
    assert_eq!(hp_round(&mut t), 1, "a second thread registered");
    assert_eq!(hp_round(&mut t), 1, "still registered");
    drop(idle);
    assert_eq!(hp_round(&mut t), 0, "alone again once it left");
}

#[test]
fn an_hp_domain_that_handed_out_a_direct_slot_fences_for_good() {
    let _serial = common::serial();
    let d = hp_domain();
    drop(d.hazard_pointer());
    let mut t = d.register();
    for round in 0..3 {
        assert_eq!(hp_round(&mut t), 1, "round {round}");
    }
}

#[test]
fn a_sole_hpp_reclaimer_issues_no_fence_and_leaves_the_fence_epoch() {
    let _serial = common::serial();
    let d = hpp_domain();
    let mut t = d.register();
    assert_eq!(hpp_round(&mut t), (0, 0), "alone");
    let idle = d.register();
    assert_eq!(hpp_round(&mut t), (1, 1), "a second thread registered");
    drop(idle);
    assert_eq!(hpp_round(&mut t), (0, 0), "alone again once it left");
}

#[test]
fn an_hpp_domain_that_handed_out_a_direct_slot_fences_for_good() {
    let _serial = common::serial();
    let d = hpp_domain();
    drop(d.hazard_pointer());
    let mut t = d.register();
    for round in 0..3 {
        assert_eq!(hpp_round(&mut t), (1, 1), "round {round}");
    }
}
