//! Retire → reuse without the allocator (`smr_common::pool`): once warm, a
//! writer's insert/remove pairs are served by the blocks its own reclaim
//! passes freed, and an insert that finds its key builds no node at all.
//!
//! The counting allocator counts the calling thread's allocator calls, so
//! sibling tests and other threads do not show; each test still runs
//! [`isolated`], because a sibling's exiting handle can donate garbage that
//! this thread would adopt, free and — past the pool's cap — deallocate.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};

use common::isolated;
use smr_common::tagged::TAG_INVALIDATED;
use smr_common::{Atomic, ConcurrentMap, SchemeDomain, Shared};

struct Counting;

thread_local! {
    // No destructor, so the allocator may touch it at any time.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    CALLS.set(CALLS.get() + 1);
}

// SAFETY: forwards to `System`; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count();
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls this thread makes inside `f`.
fn allocator_calls(f: impl FnOnce()) -> u64 {
    let before = CALLS.get();
    f();
    CALLS.get() - before
}

/// A sanitizer build pools nothing (`--cfg smr_asan`): nothing to assert.
fn pooling() -> bool {
    smr_common::pool::CLASS_CAP > 0
}

const KEYS: u64 = 64;

fn pairs<M: ConcurrentMap<u64, u64>>(m: &M, h: &mut M::Handle, n: u64) {
    for i in 0..n {
        let key = i % KEYS;
        assert!(m.insert(h, key, i));
        assert_eq!(m.remove(h, &key), Some(i));
    }
}

fn steady_state_pairs_make_no_allocator_calls<M: ConcurrentMap<u64, u64>>() {
    if !pooling() {
        return;
    }
    let m = M::new();
    let mut h = m.handle();
    // Warm-up: the scheme's bags and scan scratch reach their steady
    // capacity and the pool holds a reclaim batch.
    pairs(&m, &mut h, 2_000);
    let calls = allocator_calls(|| pairs(&m, &mut h, 10_000));
    assert_eq!(calls, 0, "10 000 insert/remove pairs went to the allocator");
}

#[test]
fn hpp_hash_map_pairs_reuse_their_own_garbage() {
    isolated(steady_state_pairs_make_no_allocator_calls::<ds::hpp::HashMap<u64, u64>>);
}

#[test]
fn hpp_nm_tree_pairs_reuse_their_own_garbage() {
    // Every remove detaches two nodes: the chain node and its pendant leaf.
    isolated(steady_state_pairs_make_no_allocator_calls::<ds::hpp::NMTree<u64, u64>>);
}

#[test]
fn hpp_chain_unlinks_make_no_allocator_calls() {
    isolated(hpp_chain_unlinks_make_no_allocator_calls_body);
}

struct Link {
    next: Atomic<Link>,
}

// SAFETY: sets the invalidation tag on the node's own link only.
unsafe impl hp_plus::Invalidate for Link {
    unsafe fn invalidate(ptr: *mut Self) {
        let node = unsafe { &*ptr };
        let next = node.next.load(Relaxed);
        node.next
            .store(next.with_tag(next.tag() | TAG_INVALIDATED), Release);
    }
}

/// Builds `head -> n0 -> … -> n5`, unlinks the chain `[n0, n1, n2]` with
/// the frontier `[n3, n4, n5]` (both as arrays), reclaims, and frees the
/// frontier: every block comes from and returns to the pool, at most six
/// per round, far below `pool::CLASS_CAP`.
fn chain_unlink_round(t: &mut hp_plus::Thread) {
    let n: [Shared<Link>; 6] = std::array::from_fn(|_| {
        Shared::from_owned(Link {
            next: Atomic::null(),
        })
    });
    for w in n.windows(2) {
        unsafe { w[0].deref() }.next.store(w[1], Relaxed);
    }
    let head = Atomic::from(n[0]);
    // SAFETY: the CAS detaches exactly `[n0, n1, n2]`, whose links are
    // frozen from here on; the frontier holds every node they reach.
    let ok = unsafe {
        t.try_unlink(&n[3..], || {
            head.compare_exchange(n[0], n[3], AcqRel, Acquire)
                .ok()
                .map(|_| [n[0], n[1], n[2]])
        })
    };
    assert!(ok);
    t.reclaim();
    assert_eq!(hp_plus::Domain::garbage(t), 0);
    for node in &n[3..] {
        // SAFETY: never published beyond `head`, which is gone.
        unsafe { node.drop_owned() };
    }
}

fn hpp_chain_unlinks_make_no_allocator_calls_body() {
    if !pooling() {
        return;
    }
    let d: &'static hp_plus::Domain = Box::leak(Box::new(hp_plus::Domain::new()));
    let mut t = d.register();
    // Warm-up: the unlink, frontier and parked-protection vectors, the
    // slot cache and the scan scratch reach their steady capacity.
    for _ in 0..100 {
        chain_unlink_round(&mut t);
    }
    let calls = allocator_calls(|| {
        for _ in 0..10_000 {
            chain_unlink_round(&mut t);
        }
    });
    assert_eq!(calls, 0, "10 000 chain unlinks went to the allocator");
}

#[test]
fn ebr_hash_map_pairs_reuse_their_own_garbage() {
    type Map = ds::guarded::HashMap<u64, u64, ds::guarded::HHSList<u64, u64, ebr::Ebr>>;
    isolated(steady_state_pairs_make_no_allocator_calls::<Map>);
}

#[test]
fn hp_list_pairs_reuse_their_own_garbage() {
    isolated(steady_state_pairs_make_no_allocator_calls::<ds::hp::HMList<u64, u64>>);
}

fn insert_of_a_present_key_allocates_nothing<M: ConcurrentMap<u64, u64>>() {
    let m = M::new();
    let mut h = m.handle();
    for key in 0..KEYS {
        assert!(m.insert(&mut h, key, key));
    }
    // Holds with an empty pool too: the node is never built.
    let calls = allocator_calls(|| {
        for key in 0..KEYS {
            assert!(!m.insert(&mut h, key, 0));
        }
    });
    assert_eq!(calls, 0, "a failed insert went to the allocator");
}

#[test]
fn a_failed_list_insert_allocates_nothing() {
    isolated(insert_of_a_present_key_allocates_nothing::<ds::hpp::HHSList<u64, u64>>);
}

#[test]
fn a_failed_hash_map_insert_allocates_nothing() {
    isolated(insert_of_a_present_key_allocates_nothing::<ds::hpp::HashMap<u64, u64>>);
}

#[test]
fn a_failed_skip_list_insert_allocates_nothing() {
    isolated(
        insert_of_a_present_key_allocates_nothing::<ds::guarded::SkipList<u64, u64, ebr::Ebr>>,
    );
}
