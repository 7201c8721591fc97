//! Unit tests for HP++ on a miniature Harris-style chain.

use std::sync::atomic::{AtomicUsize, Ordering::*};

use smr_common::tagged::{TAG_DELETED, TAG_INVALIDATED};
use smr_common::{Atomic, SchemeDomain, Shared};

use crate::{try_protect, Domain, HazardPointer, Invalidate, Unlinked};

static DROPS: AtomicUsize = AtomicUsize::new(0);

/// Every test here drops `Node`s and some assert exact `DROPS` deltas, so
/// they run one at a time.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

struct Node {
    next: Atomic<Node>,
    value: u64,
}

impl Node {
    fn new(value: u64) -> Self {
        Self {
            next: Atomic::null(),
            value,
        }
    }

    fn is_invalid(&self) -> bool {
        self.next.load(Acquire).tag() & TAG_INVALIDATED != 0
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.value = u64::MAX; // poison
        DROPS.fetch_add(1, Relaxed);
    }
}

unsafe impl Invalidate for Node {
    unsafe fn invalidate(ptr: *mut Self) {
        let node = unsafe { &*ptr };
        let cur = node.next.load(Relaxed);
        node.next
            .store(cur.with_tag(cur.tag() | TAG_INVALIDATED), Release);
    }
}

fn new_domain() -> &'static Domain {
    Box::leak(Box::new(Domain::new()))
}

/// Builds `head -> a -> b -> c` and returns (head, a, b, c).
fn chain3() -> (Atomic<Node>, Shared<Node>, Shared<Node>, Shared<Node>) {
    let c = Shared::from_owned(Node::new(3));
    let b = Shared::from_owned(Node::new(2));
    let a = Shared::from_owned(Node::new(1));
    unsafe {
        a.deref().next.store(b, Release);
        b.deref().next.store(c, Release);
    }
    (Atomic::from(a), a, b, c)
}

#[test]
fn protect_succeeds_through_logically_deleted_source() {
    let _serial = serial();
    // The defining difference from HP: a *logically deleted* (tagged) but
    // not invalidated source does not fail protection.
    let d = new_domain();
    let mut t = d.register();
    let (head, a, b, _c) = chain3();

    // Logically delete `a` (tag its next pointer).
    unsafe { a.deref() }.next.fetch_or_tag(TAG_DELETED, AcqRel);

    let hp = t.hazard_pointer();
    let mut ptr = unsafe { a.deref() }.next.load(Acquire).with_tag(0);
    assert!(ptr.ptr_eq(b));
    let ok = try_protect(&hp, &mut ptr, unsafe { &a.deref().next }, || unsafe {
        a.deref().is_invalid()
    });
    assert!(ok, "logical deletion alone must not fail HP++ protection");
    assert!(ptr.ptr_eq(b));

    // Cleanup.
    drop(hp);
    unsafe {
        let _ = head;
        a.drop_owned();
        b.drop_owned();
        _c.drop_owned();
    }
}

#[test]
fn protect_fails_on_invalidated_source() {
    let _serial = serial();
    let d = new_domain();
    let mut t = d.register();
    let (_head, a, b, c) = chain3();

    unsafe { Node::invalidate(a.as_raw()) };

    let hp = t.hazard_pointer();
    let mut ptr = b;
    let ok = try_protect(&hp, &mut ptr, unsafe { &a.deref().next }, || unsafe {
        a.deref().is_invalid()
    });
    assert!(!ok, "invalidated source must fail protection");
    assert_eq!(hp.protected_word(), 0, "failed protection must be revoked");

    drop(hp);
    unsafe {
        a.drop_owned();
        b.drop_owned();
        c.drop_owned();
    }
}

#[test]
fn protect_follows_changed_link() {
    let _serial = serial();
    // If the source link moved to a new target, try_protect retargets and
    // succeeds with the new value.
    let d = new_domain();
    let mut t = d.register();
    let (_head, a, b, c) = chain3();

    let hp = t.hazard_pointer();
    let mut ptr = b;
    // Concurrently, a's next is swung from b to c (chain unlink of b).
    unsafe { a.deref() }.next.store(c, Release);
    let ok = try_protect(&hp, &mut ptr, unsafe { &a.deref().next }, || unsafe {
        a.deref().is_invalid()
    });
    assert!(ok);
    assert!(
        ptr.ptr_eq(c),
        "protection must retarget to the new link value"
    );

    drop(hp);
    unsafe {
        a.drop_owned();
        b.drop_owned();
        c.drop_owned();
    }
}

#[test]
fn unlink_invalidates_and_frees_chain() {
    let _serial = serial();
    let before = DROPS.load(Relaxed);
    let d = new_domain();
    let mut t = d.register();
    // head -> a -> b -> c; unlink the chain [a, b] with frontier [c].
    let (head, a, b, c) = chain3();

    let ok = unsafe {
        t.try_unlink(&[c], || {
            match head.compare_exchange(a, c, AcqRel, Acquire) {
                Ok(_) => Some(Unlinked::new(vec![a, b])),
                Err(_) => None,
            }
        })
    };
    assert!(ok);
    assert_eq!(Domain::garbage(&t), 2);

    // Flush: invalidation then reclamation.
    t.do_invalidation();
    assert!(unsafe { a.deref() }.is_invalid());
    assert!(unsafe { b.deref() }.is_invalid());
    t.reclaim();
    assert_eq!(DROPS.load(Relaxed), before + 2, "a and b must be freed");
    assert_eq!(Domain::garbage(&t), 0);

    unsafe { c.drop_owned() };
}

#[test]
fn failed_unlink_releases_frontier_protection() {
    let _serial = serial();
    let d = new_domain();
    let mut t = d.register();
    let (head, a, b, c) = chain3();
    // An earlier unlink whose frontier protection of `c` awaits its flush.
    let ok = unsafe {
        t.try_unlink(&[c], || {
            head.compare_exchange(a, c, AcqRel, Acquire)
                .ok()
                .map(|_| [a, b])
        })
    };
    assert!(ok);
    let held = d.hp.protected_words();
    assert_eq!(held, [c.as_raw() as usize]);

    let x = Shared::from_owned(Node::new(9));
    let ok = unsafe {
        t.try_unlink(&[x], || {
            // Simulate losing the CAS race.
            None::<Unlinked<Node>>
        })
    };
    assert!(!ok);
    assert_eq!(Domain::garbage(&t), 2);
    assert_eq!(
        d.hp.protected_words(),
        held,
        "a failed unlink revokes its own frontier protection, and only that"
    );

    t.reclaim();
    unsafe {
        c.drop_owned();
        x.drop_owned();
    }
}

#[test]
fn frontier_protection_blocks_reclamation_of_frontier() {
    let _serial = serial();
    // Scenario 2 of Fig. 6: after T2 unlinks [a, b] with frontier [c],
    // another thread retires c. c must survive until T2's invalidation
    // completes (its frontier protection is revoked only after a fence).
    let before = DROPS.load(Relaxed);
    let d = new_domain();
    let mut t2 = d.register(); // unlinker
    let mut t3 = d.register(); // deleter of the frontier node

    let (head, a, b, c) = chain3();
    let ok = unsafe {
        t2.try_unlink(&[c], || {
            match head.compare_exchange(a, c, AcqRel, Acquire) {
                Ok(_) => Some(Unlinked::new(vec![a, b])),
                Err(_) => None,
            }
        })
    };
    assert!(ok);

    // T3 now unlinks and retires c (frontier of t2's unlink).
    let ok2 = unsafe {
        t3.try_unlink(&[], || {
            match head.compare_exchange(c, Shared::null(), AcqRel, Acquire) {
                Ok(_) => Some(Unlinked::single(c)),
                Err(_) => None,
            }
        })
    };
    assert!(ok2);

    // T3 flushes everything it can: c is still protected by t2's frontier
    // hazard pointer, so it must survive.
    t3.do_invalidation();
    t3.reclaim();
    assert_eq!(
        unsafe { c.deref() }.value,
        3,
        "frontier node freed too early"
    );

    // Once t2 flushes (invalidating a,b and revoking the frontier hp after
    // a fence), everything can go.
    t2.reclaim();
    t3.reclaim();
    assert_eq!(DROPS.load(Relaxed), before + 3);
}

#[test]
fn epoched_hps_are_revoked_lazily() {
    let _serial = serial();
    let d = new_domain();
    let mut t = d.register();
    let (head, a, b, c) = chain3();

    let ok = unsafe {
        t.try_unlink(&[c], || {
            match head.compare_exchange(a, c, AcqRel, Acquire) {
                Ok(_) => Some(Unlinked::new(vec![a, b])),
                Err(_) => None,
            }
        })
    };
    assert!(ok);

    t.do_invalidation();
    // Frontier protection still parked (epoch hasn't advanced by 2).
    assert!(
        !d.hp.protected_words().is_empty(),
        "frontier protection parks in epoched_hps"
    );

    // Two fence-epoch steps later, another do_invalidation revokes it.
    d.fence_epoch_step();
    d.fence_epoch_step();
    t.do_invalidation();
    assert!(
        d.hp.protected_words().is_empty(),
        "stale epoched hps must be revoked after two epochs"
    );

    t.reclaim();
    unsafe { c.drop_owned() };
}

#[test]
fn array_pair_unlink_frees_both() {
    let _serial = serial();
    // A chain-node + pendant pair (NMTree-style), handed over as an array.
    let before = DROPS.load(Relaxed);
    let d = new_domain();
    let mut t = d.register();
    let (head, a, b, c) = chain3();

    let ok = unsafe {
        t.try_unlink(&[c], || {
            match head.compare_exchange(a, c, AcqRel, Acquire) {
                Ok(_) => Some([a, b]),
                Err(_) => None,
            }
        })
    };
    assert!(ok);
    assert_eq!(Domain::garbage(&t), 2);
    t.reclaim();
    assert_eq!(DROPS.load(Relaxed), before + 2);

    unsafe { c.drop_owned() };
}

#[test]
fn null_frontier_takes_no_slot() {
    let _serial = serial();
    // Unlinking a chain's last node: its frontier is `[null]`, which needs
    // no protection and must take no hazard slot — not even one parked
    // until the next flush, which would grow the domain's slot count.
    let before = DROPS.load(Relaxed);
    let d = new_domain();
    let mut t = d.register();
    let own = [(); 2].map(|()| t.hazard_pointer());
    let capacity = d.hp.slot_capacity();
    for i in 0..1000 {
        let head = Atomic::new(Node::new(i));
        let node = head.load(Relaxed);
        let ok = unsafe {
            t.try_unlink(&[Shared::null()], || {
                head.compare_exchange(node, Shared::null(), AcqRel, Acquire)
                    .ok()
                    .map(|_| Unlinked::single(node))
            })
        };
        assert!(ok);
        assert!(d.hp.protected_words().is_empty(), "unlink {i} announced");
    }
    assert_eq!(d.hp.slot_capacity(), capacity, "null frontiers took slots");
    t.reclaim();
    assert_eq!(DROPS.load(Relaxed), before + 1000);
    drop(own);
}

#[test]
fn concurrent_traverse_vs_unlink_stress_no_uaf() {
    let _serial = serial();
    // Readers hand-over-hand traverse a 3-node chain with try_protect while
    // an unlinker repeatedly detaches the middle chain and reinserts fresh
    // nodes. Node drop poisons values, so any use-after-free trips asserts.
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let d = new_domain();
    let head: Arc<Atomic<Node>> = Arc::new(Atomic::null());
    // head -> x(1) -> y(2) -> z(3) -> null; unlinker detaches [x, y] with
    // frontier [z] and pushes two fresh nodes back in front.
    {
        let (h, _a, _b, _c) = chain3();
        let first = h.load(Relaxed);
        head.store(first, Release);
        let _ = h; // Atomic has no Drop; the nodes are reclaimed via unlinks
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();

    for _ in 0..3 {
        let head = head.clone();
        let stop = stop.clone();
        threads.push(std::thread::spawn(move || {
            let mut t = d.register();
            let mut hp_prev = t.hazard_pointer();
            let mut hp_cur = t.hazard_pointer();
            while !stop.load(Relaxed) {
                // Protect the first node from head (never invalid source).
                let mut cur = head.load(Acquire).with_tag(0);
                if !try_protect(&hp_cur, &mut cur, &head, || false) {
                    continue;
                }
                let mut prev;
                let mut steps = 0;
                while !cur.is_null() && steps < 16 {
                    let node = unsafe { cur.deref() };
                    let v = node.value;
                    assert!((1..=3).contains(&v), "use-after-free: read {v}");
                    let mut next = node.next.load(Acquire).with_tag(0);
                    prev = cur;
                    HazardPointer::swap(&mut hp_prev, &mut hp_cur);
                    let p = prev;
                    if !try_protect(&hp_cur, &mut next, &node.next, || unsafe {
                        p.deref().is_invalid()
                    }) {
                        break; // source invalidated: restart
                    }
                    cur = next;
                    steps += 1;
                }
                hp_cur.reset();
                hp_prev.reset();
            }
            t.recycle(hp_prev);
            t.recycle(hp_cur);
        }));
    }

    {
        let head = head.clone();
        let stop = stop.clone();
        threads.push(std::thread::spawn(move || {
            let mut t = d.register();
            for _ in 0..20_000 {
                let x = head.load(Acquire).with_tag(0);
                let y = unsafe { x.deref() }.next.load(Acquire).with_tag(0);
                let z = unsafe { y.deref() }.next.load(Acquire).with_tag(0);
                // Mark x and y logically deleted (they stop changing now).
                unsafe { x.deref() }.next.fetch_or_tag(TAG_DELETED, AcqRel);
                unsafe { y.deref() }.next.fetch_or_tag(TAG_DELETED, AcqRel);
                let ok = unsafe {
                    t.try_unlink(&[z], || {
                        match head.compare_exchange(x, z, AcqRel, Acquire) {
                            Ok(_) => Some(Unlinked::new(vec![x, y])),
                            Err(_) => None,
                        }
                    })
                };
                assert!(ok, "single unlinker must win its own CAS");
                // Reinsert two fresh nodes in front of z.
                let ny = Shared::from_owned(Node::new(2));
                unsafe { ny.deref() }.next.store(z, Release);
                let nx = Shared::from_owned(Node::new(1));
                unsafe { nx.deref() }.next.store(ny, Release);
                head.store(nx, Release);
            }
            stop.store(true, Relaxed);
        }));
    }

    for th in threads {
        th.join().unwrap();
    }
}
