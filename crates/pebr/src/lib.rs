//! PEBR — pointer- and epoch-based reclamation (behavioral model).
//!
//! PEBR (Kang & Jung, PLDI 2020) marries EBR's critical sections with HP's
//! robustness: when a pinned thread blocks the epoch for too long, the
//! reclaimer **ejects** (neutralizes) it. The ejected thread's critical
//! section is no longer protective; it must detect ejection at its next
//! validation point, abandon the traversal, and restart.
//!
//! This crate is a *behavioral model* of PEBR (see DESIGN.md §4
//! Substitutions): ejection sets a per-thread flag that the thread observes
//! at `validate()` points (every traversal step in the `ds` crate), rather
//! than being delivered through the original's fence/tag machinery. The
//! model is memory-safe without signals — the reclaimer never frees under a
//! live pin — and reproduces the phenomenon the paper measures: coarse-
//! grained neutralization forces long-running operations to restart
//! (Fig. 10), while garbage stays bounded as long as threads validate.
//!
//! The rest is EBR's: participants in the lock-free [`Registry`],
//! [`GenBags`] freed at `stamp + 2`, and the shared
//! [`smr_common::guard::Guard`]. One difference is kept on purpose: a pin
//! and an advance each pay a `SeqCst` fence, where EBR pays a light fence
//! per pin and a heavy one (`membarrier`) per advance. A reader that holds
//! the epoch makes every retire past [`TRIGGER`] attempt an advance, and a
//! `membarrier` per attempt slows PEBR's writers to EBR's pace, erasing
//! PEBR's Fig. 10 lead over EBR at 2^18 keys (EXPERIMENTS.md).

#![warn(missing_docs)]

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};

use smr_common::bags::GenBags;
use smr_common::guard::CriticalSection;
use smr_common::policy::Capped;
use smr_common::registry::{Node, Registry};
use smr_common::retired::Orphans;
use smr_common::{CachePadded, GuardedScheme, Retired, SchemeDomain};

/// Retire this many blocks before attempting a collection. Public so tests
/// derive garbage bounds from the same constant the scheme enforces.
pub const COLLECT_THRESHOLD: usize = 128;
/// Local garbage level at which stragglers get ejected. Public for the same
/// derived-bound reason as [`COLLECT_THRESHOLD`].
pub const EJECT_THRESHOLD: usize = 1024;

/// PEBR's collection trigger: a plain fixed threshold, `garbage.len() ≥
/// COLLECT_THRESHOLD` (no slot-proportional term — robustness comes from
/// ejection, not from scaling the trigger).
pub const TRIGGER: Capped = Capped {
    floor: COLLECT_THRESHOLD,
    k: 0,
};

/// Named fault-injection points compiled into this crate (each a
/// `smr_common::fault_point!` site; no-ops without the `fault-injection`
/// feature). DESIGN.md §1.7 documents the invariant each one attacks.
pub const FAULT_POINTS: &[&str] = &[
    "pebr::pin::before_validate",
    "pebr::eject::after_mark",
    "pebr::collect::before_advance",
    "pebr::teardown::before_donate",
];

/// Per-participant state; cache padding comes from the registry node.
struct Participant {
    /// `(epoch << 1) | pinned`.
    state: AtomicU64,
    ejected: AtomicBool,
}

/// The global side of a PEBR instance.
pub struct Collector {
    epoch: CachePadded<AtomicU64>,
    /// Lock-free participant registry; one node per registered thread.
    registry: Registry<Participant>,
    /// Stamped garbage abandoned by exited threads.
    orphans: Orphans<(u64, Retired)>,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// Creates an independent collector.
    pub const fn new() -> Self {
        Self {
            epoch: CachePadded::new(AtomicU64::new(0)),
            registry: Registry::new(),
            orphans: Orphans::new(),
        }
    }

    /// Current global epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Tries to advance the epoch; with `eject`, marks every straggler
    /// ejected so that a later advance can succeed. One `SeqCst` fence, one
    /// registry traversal (stopping at the first straggler unless ejecting),
    /// one CAS. Dead participants are unlinked and retired into `bags`, the
    /// pinned caller's, stamped with the epoch at unlink as in EBR.
    fn try_advance(&self, eject: bool, bags: &mut GenBags) -> u64 {
        let e = self.epoch.load(Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let mut observed = true;
        self.registry.traverse(
            |p| {
                let s = p.state.load(Ordering::Relaxed);
                if s & 1 == 0 || s >> 1 == e {
                    return true;
                }
                observed = false;
                if eject {
                    p.ejected.store(true, Ordering::Release);
                    // The straggler is marked but may not have observed it
                    // yet; its next validate() must see the ejection.
                    smr_common::fault_point!("pebr::eject::after_mark");
                }
                eject
            },
            |node| {
                let stamp = self.epoch.load(Ordering::Relaxed);
                // Safety: the node came from `Box::into_raw` in
                // `Registry::insert`, and `traverse` hands each unlinked
                // node out exactly once.
                bags.push(stamp, unsafe { Retired::new(node) });
            },
        );
        if !observed {
            return e;
        }
        fence(Ordering::SeqCst);
        let _ = self
            .epoch
            .compare_exchange(e, e + 1, Ordering::Release, Ordering::Relaxed);
        self.epoch.load(Ordering::Relaxed)
    }
}

impl SchemeDomain for Collector {
    type Handle = LocalHandle;
    const NAME: &'static str = "pebr";

    fn global() -> &'static Collector {
        default_collector()
    }

    fn register(&'static self) -> LocalHandle {
        LocalHandle {
            global: self,
            record: self.registry.insert(Participant {
                state: AtomicU64::new(0),
                ejected: AtomicBool::new(false),
            }),
            garbage: GenBags::new(),
            guard_live: false,
        }
    }

    fn garbage(handle: &LocalHandle) -> usize {
        handle.garbage.len()
    }

    fn collect(handle: &mut LocalHandle) {
        handle.pin().flush();
    }

    fn orphans(&self) -> usize {
        self.orphans.len()
    }

    /// Per handle, [`EJECT_THRESHOLD`] blocks before it ejects every
    /// straggler, plus two [`COLLECT_THRESHOLD`] batches stamped at the two
    /// epochs not yet expired. Holds while stragglers validate: the model
    /// ejects at `validate()` points only (DESIGN.md §4).
    fn garbage_bound(&self, threads: usize) -> Option<usize> {
        Some(threads * (EJECT_THRESHOLD + 2 * COLLECT_THRESHOLD))
    }
}

/// Returns the process-wide default PEBR collector.
pub fn default_collector() -> &'static Collector {
    static DEFAULT: Collector = Collector::new();
    &DEFAULT
}

/// A thread's registration with a PEBR [`Collector`].
pub struct LocalHandle {
    global: &'static Collector,
    /// This thread's registry node; owned by the registry, valid for the
    /// handle's lifetime (only `Drop` marks it dead).
    record: *const Node<Participant>,
    /// Epoch-stamped local garbage, freed at `stamp + 2 ≤ global` as in EBR.
    garbage: GenBags,
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

    /// Clears any pending ejection — a fresh critical section starts
    /// protective — then announces, `SeqCst` fence, validates.
    #[inline]
    unsafe fn enter(&mut self) {
        let p = self.participant();
        p.ejected.store(false, Ordering::Relaxed);
        let mut e = self.global.epoch.load(Ordering::Relaxed);
        loop {
            p.state.store((e << 1) | 1, Ordering::Relaxed);
            // A thread stalled here has announced a pin the reclaimer can
            // only get past by ejecting it — PEBR's robustness mechanism.
            smr_common::fault_point!("pebr::pin::before_validate");
            fence(Ordering::SeqCst);
            let e2 = self.global.epoch.load(Ordering::Relaxed);
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
        self.garbage.push(epoch, retired);
        if TRIGGER.should_reclaim(self.garbage.len(), 0) {
            // SAFETY: `retire` runs pinned, as `collect` requires.
            unsafe { self.collect() };
        }
    }

    /// Adopts orphans, then advances the epoch — ejecting stragglers once
    /// garbage reaches [`EJECT_THRESHOLD`] — and frees what expired.
    unsafe fn collect(&mut self) {
        if let Some(orphans) = self.global.orphans.take() {
            self.garbage.adopt(orphans, self.global.epoch());
        }
        let eject = self.garbage.len() >= EJECT_THRESHOLD;
        smr_common::fault_point!("pebr::collect::before_advance");
        let global_epoch = self.global.try_advance(eject, &mut self.garbage);
        self.garbage.collect_expired(global_epoch);
    }

    #[inline]
    fn is_valid(&self) -> bool {
        !self.participant().ejected.load(Ordering::Acquire)
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        // Unregistration and donation must run even if teardown panics, so
        // both live in a guard that runs during unwinding too.
        struct Teardown<'a>(&'a mut LocalHandle);
        impl Drop for Teardown<'_> {
            fn drop(&mut self) {
                let h = &mut *self.0;
                unsafe { h.global.registry.delete(h.record) };
                if !h.garbage.is_empty() {
                    let mut donated = Vec::new();
                    h.garbage.drain_into(&mut donated);
                    h.global.orphans.donate(&mut donated);
                }
            }
        }
        let _g = Teardown(self);
        smr_common::fault_point!("pebr::teardown::before_donate");
    }
}

/// An active PEBR critical section; protective while
/// [`is_valid`](smr_common::guard::Guard::is_valid).
pub type Guard<'a> = smr_common::guard::Guard<'a, LocalHandle>;

/// PEBR under its scheme name: the collector is its [`GuardedScheme`].
pub type Pebr = Collector;

impl GuardedScheme for Collector {
    type Guard<'a> = Guard<'a>;

    fn pin(handle: &mut LocalHandle) -> Guard<'_> {
        handle.pin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_common::{SchemeGuard, Shared};

    #[test]
    fn pin_validate_refresh() {
        let c: &'static Collector = Box::leak(Box::new(Collector::new()));
        let mut h = c.register();
        let mut g = h.pin();
        assert!(g.validate());
        g.refresh();
        assert!(g.validate());
    }

    #[test]
    fn straggler_gets_ejected_under_pressure() {
        let c: &'static Collector = Box::leak(Box::new(Collector::new()));
        let mut straggler = c.register();
        let mut reclaimer = c.register();

        let sg = straggler.pin(); // long-running critical section
        assert!(sg.validate());

        // Reclaimer piles up garbage past the ejection threshold.
        {
            let rg = reclaimer.pin();
            for _ in 0..(EJECT_THRESHOLD + COLLECT_THRESHOLD * 2) {
                unsafe { rg.defer_destroy(Shared::from_owned(0u64)) };
            }
            drop(rg);
        }

        assert!(
            !sg.validate(),
            "straggler should be ejected once garbage exceeds the threshold"
        );
    }

    #[test]
    fn refresh_clears_ejection_and_unblocks_epoch() {
        let c: &'static Collector = Box::leak(Box::new(Collector::new()));
        let mut straggler = c.register();
        let mut reclaimer = c.register();

        let mut sg = straggler.pin();
        {
            let rg = reclaimer.pin();
            for _ in 0..(EJECT_THRESHOLD + COLLECT_THRESHOLD * 2) {
                unsafe { rg.defer_destroy(Shared::from_owned(0u64)) };
            }
            drop(rg);
        }
        assert!(!sg.validate());
        sg.refresh();
        assert!(sg.validate());

        let e0 = c.epoch();
        // With the straggler refreshed to the current epoch, collections can
        // advance the epoch again.
        {
            let rg = reclaimer.pin();
            for _ in 0..COLLECT_THRESHOLD {
                unsafe { rg.defer_destroy(Shared::from_owned(0u64)) };
            }
            drop(rg);
        }
        drop(sg);
        let rg = reclaimer.pin();
        for _ in 0..COLLECT_THRESHOLD {
            unsafe { rg.defer_destroy(Shared::from_owned(0u64)) };
        }
        drop(rg);
        assert!(c.epoch() >= e0);
    }

    #[test]
    fn garbage_is_reclaimed_when_quiet() {
        let c: &'static Collector = Box::leak(Box::new(Collector::new()));
        let mut h = c.register();
        for _ in 0..10 {
            let g = h.pin();
            for _ in 0..COLLECT_THRESHOLD {
                unsafe { g.defer_destroy(Shared::from_owned(0u64)) };
            }
            drop(g);
        }
        // Most of the garbage should have been freed along the way.
        let remaining = h.garbage.len();
        assert!(
            remaining < 4 * COLLECT_THRESHOLD,
            "remaining garbage {remaining} should be bounded"
        );
    }
}
