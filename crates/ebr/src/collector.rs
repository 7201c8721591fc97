//! The global epoch state and per-thread registration.
//!
//! # Hot-path engineering (code-inspection notes)
//!
//! * **Pin/unpin executes no `SeqCst` fence and no atomic RMW.** `pin` is a
//!   relaxed store of the packed `(epoch << 1) | 1` state, a
//!   [`fence::light`] (a compiler fence when `membarrier(2)` is available),
//!   and a relaxed validating re-load of the global epoch; `unpin` is one
//!   release store. The matching [`fence::heavy`] sits in [`try_advance`],
//!   on the rare collection path — see the announce/observe protocol in
//!   `smr_common::fence`.
//! * **`try_advance` acquires no locks.** The participant registry is a
//!   lock-free intrusive list ([`smr_common::registry::Registry`]):
//!   registration CASes a node onto the head, unregistration marks the node
//!   dead with one `fetch_or`, and the advance check traverses the list
//!   lock-free, unlinking dead nodes as it passes. Unlinked registry nodes
//!   are retired *through EBR itself* — stamped with the current epoch and
//!   freed two epochs later, exactly like data-structure nodes, which is
//!   safe because every traverser is pinned.
//! * **Garbage lives in sealed generation bags** (`smr_common::bags`): a collection
//!   compares three stamps and frees whole expired bags without
//!   re-examining ineligible items.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use smr_common::bags::GenBags;
use smr_common::guard::CriticalSection;
use smr_common::policy::Capped;
use smr_common::registry::{Node, Registry};
use smr_common::retired::Orphans;
use smr_common::{fence as smr_fence, CachePadded, Retired, SchemeDomain};

use crate::Guard;

/// EBR's collection trigger: `bags.len() ≥ max(128, 8 · participants)`.
///
/// Each collection traverses the whole registry, so the trigger grows as
/// `k · participants` to keep the traversal cost per retire O(k⁻¹) — the
/// epoch analogue of HP's `R = k·H` rule; the floor keeps collections
/// amortized at low thread counts.
pub const TRIGGER: Capped = Capped { floor: 128, k: 8 };

/// Per-participant epoch state. `state` packs `(epoch << 1) | pinned`.
///
/// Cache padding comes from the registry node (`#[repr(align(128))]`), so
/// two participants' states never share a line.
struct Participant {
    state: AtomicU64,
}

impl Participant {
    fn new() -> Self {
        Self {
            state: AtomicU64::new(0),
        }
    }

    #[inline]
    fn pinned_epoch(state: u64) -> Option<u64> {
        if state & 1 == 1 {
            Some(state >> 1)
        } else {
            None
        }
    }
}

/// The global side of an EBR instance.
pub struct Collector {
    epoch: CachePadded<AtomicU64>,
    /// Lock-free participant registry; one node per registered thread.
    registry: Registry<Participant>,
    /// Stamped garbage abandoned by exited threads, adopted by later
    /// collections.
    orphans: Orphans<(u64, Retired)>,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// Creates an independent collector (tests use private instances; real
    /// users normally share [`crate::default_collector`]).
    pub const fn new() -> Self {
        Self {
            epoch: CachePadded::new(AtomicU64::new(0)),
            registry: Registry::new(),
            orphans: Orphans::new(),
        }
    }

    /// Current global epoch (for diagnostics and tests).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Number of currently registered participants (approximate).
    pub fn participants(&self) -> usize {
        self.registry.live()
    }

    /// Retire count at which a thread attempts a collection: [`TRIGGER`]
    /// at the current participant count.
    ///
    /// Public so tests and Table 1 derive EBR's churn slack (a few bags in
    /// flight) from the formula the scheme enforces. It is not a bound:
    /// EBR has none (see its `SchemeDomain::garbage_bound`).
    #[inline]
    pub fn collect_threshold(&self) -> usize {
        TRIGGER.threshold(self.registry.live())
    }

    /// Tries to advance the global epoch; returns the epoch afterwards.
    ///
    /// Advance succeeds only if every live pinned participant has observed
    /// the current epoch. Lock-free: one heavy fence, one registry
    /// traversal, one CAS. Dead participants encountered on the way are
    /// unlinked and retired into `bags` (the caller's — the caller is
    /// pinned, so the registry node outlives every concurrent traverser).
    fn try_advance(&self, bags: &mut GenBags) -> u64 {
        let e = self.epoch.load(Ordering::Relaxed);
        // Observer side of the announce/observe protocol: after this fence,
        // every participant state store made before the announcer's light
        // fence is visible below.
        smr_fence::heavy();
        smr_common::fault_point!("ebr::advance::before_traverse");
        let all_observed = self.registry.traverse(
            |p| match Participant::pinned_epoch(p.state.load(Ordering::Relaxed)) {
                Some(pinned) => pinned == e,
                None => true,
            },
            |node| {
                // Stamped with the epoch *now*, not `e`: a traverser that
                // pinned at `e + 1` after `e` was read may be parked on this
                // node, and nothing pinned at `e + 1` holds back `e + 2`.
                let stamp = self.epoch.load(Ordering::Relaxed);
                // Safety: the node came from `Box::into_raw` in
                // `Registry::insert`, and `traverse` hands each unlinked
                // node out exactly once.
                bags.push(stamp, unsafe { Retired::new(node) });
            },
        );
        if !all_observed {
            return e; // a straggler blocks the advance
        }
        // Order the participant reads above before publishing the new epoch.
        fence(Ordering::Acquire);
        // A collector stalled here has verified every participant but not
        // yet published — no other thread advances for it, epochs wedge.
        smr_common::fault_point!("ebr::advance::before_publish");
        let _ = self
            .epoch
            .compare_exchange(e, e + 1, Ordering::Release, Ordering::Relaxed);
        self.epoch.load(Ordering::Relaxed)
    }
}

impl SchemeDomain for Collector {
    type Handle = LocalHandle;
    const NAME: &'static str = "ebr";

    fn global() -> &'static Collector {
        crate::default_collector()
    }

    fn register(&'static self) -> LocalHandle {
        LocalHandle {
            global: self,
            record: self.registry.insert(Participant::new()),
            bags: GenBags::new(),
            guard_live: false,
        }
    }

    fn garbage(handle: &LocalHandle) -> usize {
        handle.bags.len()
    }

    fn collect(handle: &mut LocalHandle) {
        handle.pin().flush();
    }

    fn orphans(&self) -> usize {
        self.orphans.len()
    }

    // No `garbage_bound`: one stalled pin stops the epoch, and with it
    // every free (Table 1).
}

impl Drop for Collector {
    fn drop(&mut self) {
        // Exclusive access, and `register` requires `'static`, so no handle
        // can be live: free whatever garbage was donated. (The registry
        // frees its own nodes.)
        for (_, retired) in self.orphans.get_mut().drain(..) {
            unsafe { retired.free() };
        }
    }
}

/// A thread's registration with a [`Collector`].
///
/// Not `Sync`: one handle per thread. Dropping the handle unregisters the
/// thread and donates any unreclaimed garbage to the collector's orphan list.
///
/// The [`CriticalSection`] trait declares its methods `unsafe` for every
/// scheme: only the guard calls them, so safe code cannot walk the registry
/// unpinned:
///
/// ```compile_fail,E0133
/// use smr_common::{guard::CriticalSection, SchemeDomain};
/// let mut h = ebr::default_collector().register();
/// h.collect();
/// ```
pub struct LocalHandle {
    global: &'static Collector,
    /// This thread's registry node; owned by the registry, valid for the
    /// handle's lifetime (only `Drop` marks it dead).
    record: *const Node<Participant>,
    /// Epoch-stamped local garbage in sealed generation bags.
    bags: GenBags,
    guard_live: bool,
}

// The handle is only a registration token plus thread-local garbage; the
// registry node it points to is Sync.
unsafe impl Send for LocalHandle {}

impl LocalHandle {
    #[inline]
    fn participant(&self) -> &Participant {
        // Valid: the node is unlinked only after `Drop` marks it dead, and
        // freed at least two epochs later.
        unsafe { (*self.record).data() }
    }

    /// Pins the thread, entering a critical section.
    #[inline]
    pub fn pin(&mut self) -> Guard<'_> {
        Guard::new(self)
    }
}

unsafe impl CriticalSection for LocalHandle {
    #[inline]
    unsafe fn guard_live(&mut self) -> &mut bool {
        &mut self.guard_live
    }

    /// Announces the observed epoch, light fence, validates that the epoch
    /// did not move. No `SeqCst` fence, no RMW.
    #[inline]
    unsafe fn enter(&mut self) {
        let mut e = self.global.epoch.load(Ordering::Relaxed);
        loop {
            let state = &self.participant().state;
            let e2 = smr_fence::announce_then_validate(
                || {
                    state.store((e << 1) | 1, Ordering::Relaxed);
                    // The announce-to-validate window: a thread stalled here
                    // has announced an epoch every advancer must honor — the
                    // interleaving that wedges the global epoch (Table 1).
                    smr_common::fault_point!("ebr::pin::before_validate");
                },
                || self.global.epoch.load(Ordering::Relaxed),
            );
            if e == e2 {
                break;
            }
            e = e2;
        }
    }

    #[inline]
    unsafe fn leave(&mut self) {
        self.participant().state.store(0, Ordering::Release);
    }

    /// Bags `retired` under the current epoch, then collects if [`TRIGGER`]
    /// fires.
    #[inline]
    unsafe fn retire(&mut self, retired: Retired) {
        let epoch = self.global.epoch.load(Ordering::Relaxed);
        self.bags.push(epoch, retired);
        smr_common::fault_point!("ebr::defer::after_push");
        if TRIGGER.should_reclaim(self.bags.len(), self.global.registry.live()) {
            // SAFETY: `retire` runs pinned, as `collect` requires.
            unsafe { self.collect() };
        }
    }

    /// Adopts orphans, attempts an epoch advance, and frees everything
    /// eligible. Runs pinned, as the registry traversal in `try_advance`
    /// requires.
    unsafe fn collect(&mut self) {
        // Adopt orphans first so exited threads' garbage is not stranded.
        if let Some(orphans) = self.global.orphans.take() {
            self.bags
                .adopt(orphans, self.global.epoch.load(Ordering::Relaxed));
        }
        smr_common::fault_point!("ebr::collect::after_adopt");
        let global_epoch = self.global.try_advance(&mut self.bags);
        self.bags.collect_expired(global_epoch);
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        // Unregistration and donation must run even if teardown itself
        // panics (a dying worker must neither wedge the epoch nor strand
        // garbage), so both live in a guard that runs during unwinding too.
        struct Teardown<'a>(&'a mut LocalHandle);
        impl Drop for Teardown<'_> {
            fn drop(&mut self) {
                let h = &mut *self.0;
                // Mark the registry node dead first so a concurrent advance
                // is not blocked on a participant that no longer runs.
                unsafe { h.global.registry.delete(h.record) };
                if !h.bags.is_empty() {
                    let mut donated = Vec::new();
                    h.bags.drain_into(&mut donated);
                    h.global.orphans.donate(&mut donated);
                }
            }
        }
        let _g = Teardown(self);
        smr_common::fault_point!("ebr::teardown::before_donate");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_common::{Atomic, Shared};
    use std::sync::atomic::{AtomicUsize, Ordering::*};
    use std::sync::Arc;

    #[test]
    fn pin_unpin_cycles() {
        let c = Box::leak(Box::new(Collector::new()));
        let mut h = c.register();
        for _ in 0..10 {
            let g = h.pin();
            drop(g);
        }
    }

    #[test]
    fn epoch_advances_when_unpinned() {
        let c = Box::leak(Box::new(Collector::new()));
        let mut h = c.register();
        let e0 = c.epoch();
        {
            let g = h.pin();
            g.flush();
            g.flush();
            drop(g);
        }
        let g = h.pin();
        g.flush();
        g.flush();
        drop(g);
        assert!(c.epoch() > e0);
    }

    #[test]
    fn pinned_thread_blocks_advance() {
        let c = Box::leak(Box::new(Collector::new()));
        let mut blocker = c.register();
        let mut worker = c.register();
        let _bg = blocker.pin(); // stays pinned
        let e_at_pin = c.epoch();
        for _ in 0..10 {
            let g = worker.pin();
            g.flush();
            drop(g);
        }
        // The blocker pinned at e_at_pin; epoch may advance at most once past
        // it before the blocker becomes a straggler.
        assert!(c.epoch() <= e_at_pin + 1);
    }

    #[test]
    fn deferred_destruction_runs() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Relaxed);
            }
        }

        let c = Box::leak(Box::new(Collector::new()));
        let mut h = c.register();
        {
            let g = h.pin();
            let node = Shared::from_owned(Canary);
            unsafe { g.defer_destroy(node) };
            drop(g);
        }
        // Two unpinned flushes advance the epoch twice, freeing the node.
        for _ in 0..4 {
            let g = h.pin();
            g.flush();
            drop(g);
        }
        assert_eq!(DROPS.load(Relaxed), 1);
    }

    #[test]
    fn nothing_frees_before_two_epochs() {
        // End-to-end bag expiry: a block retired at epoch `e` must survive
        // the advance to `e+1` and die only when the epoch reaches `e+2`.
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Relaxed);
            }
        }

        let c = Box::leak(Box::new(Collector::new()));
        let mut h = c.register();
        let e = c.epoch();
        {
            let g = h.pin();
            unsafe { g.defer_destroy(Shared::from_owned(Canary)) };
        }
        {
            // Pinned at `e`: the flush advances to `e+1`, at which the
            // retired block is still one epoch short of expiry.
            let g = h.pin();
            g.flush();
            drop(g);
            assert_eq!(c.epoch(), e + 1);
            assert_eq!(DROPS.load(Relaxed), 0, "freed before epoch + 2");
        }
        {
            // Pinned at `e+1`: the flush advances to `e+2` and the block
            // becomes eligible in the same collection.
            let g = h.pin();
            g.flush();
            drop(g);
            assert_eq!(c.epoch(), e + 2);
            assert_eq!(DROPS.load(Relaxed), 1);
        }
    }

    #[test]
    fn advance_resumes_after_straggler_unpins() {
        let c = Box::leak(Box::new(Collector::new()));
        let mut blocker = c.register();
        let mut worker = c.register();
        let straggler = blocker.pin();
        let e_at_pin = c.epoch();
        for _ in 0..6 {
            let g = worker.pin();
            g.flush();
            drop(g);
        }
        // The straggler caps the advance at one epoch past its pin.
        assert!(c.epoch() <= e_at_pin + 1);
        drop(straggler);
        for _ in 0..3 {
            let g = worker.pin();
            g.flush();
            drop(g);
        }
        assert!(c.epoch() > e_at_pin + 1, "advance stuck after unpin");
    }

    #[test]
    fn register_unregister_churn_balances() {
        // Thread churn: handles come and go while retiring garbage, so
        // every drop donates to the orphan list and leaves a dead registry
        // node behind. Afterwards a survivor must be able to adopt and free
        // every single orphan — nothing stranded, nothing double-freed.
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Relaxed);
            }
        }

        let c: &'static Collector = Box::leak(Box::new(Collector::new()));
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
                        // Handle drop: donate garbage, mark registry node.
                    }
                });
            }
        });
        assert_eq!(c.participants(), 0);
        let expected = threads * lives * retires_per_life;
        let mut survivor = c.register();
        for _ in 0..8 {
            let g = survivor.pin();
            g.flush();
            drop(g);
            if DROPS.load(Relaxed) == expected {
                break;
            }
        }
        assert_eq!(DROPS.load(Relaxed), expected, "orphaned garbage stranded");
    }

    #[test]
    fn no_premature_free_under_concurrency() {
        // Readers hold pins while a writer swaps and retires nodes; the
        // value read under a pin must always be intact (drop poisons it).
        struct Node {
            value: u64,
        }
        impl Drop for Node {
            fn drop(&mut self) {
                self.value = u64::MAX;
            }
        }

        let c: &'static Collector = Box::leak(Box::new(Collector::new()));
        let slot = Arc::new(Atomic::new(Node { value: 7 }));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let mut threads = Vec::new();
        for _ in 0..4 {
            let slot = slot.clone();
            let stop = stop.clone();
            threads.push(std::thread::spawn(move || {
                let mut h = c.register();
                while !stop.load(Relaxed) {
                    let g = h.pin();
                    let s = slot.load(Acquire);
                    let v = unsafe { s.deref() }.value;
                    assert_eq!(v, 7, "use-after-free detected");
                    drop(g);
                }
            }));
        }
        {
            let slot = slot.clone();
            let stop = stop.clone();
            let writes: u64 = if cfg!(miri) { 300 } else { 20_000 };
            threads.push(std::thread::spawn(move || {
                let mut h = c.register();
                for _ in 0..writes {
                    let g = h.pin();
                    let fresh = Shared::from_owned(Node { value: 7 });
                    let old = slot.swap(fresh, AcqRel);
                    unsafe { g.defer_destroy(old) };
                    drop(g);
                }
                stop.store(true, Relaxed);
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        unsafe {
            let last = slot.load(Relaxed);
            last.drop_owned();
            smr_common::counters::decr_garbage(0);
        }
    }
}
