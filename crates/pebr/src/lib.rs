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

#![warn(missing_docs)]

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use smr_common::bags::GenBags;
use smr_common::policy::Capped;
use smr_common::retired::Orphans;
use smr_common::{CachePadded, GuardedScheme, Retired, SchemeGuard, Shared};

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

struct Participant {
    /// `(epoch << 1) | pinned`.
    state: CachePadded<AtomicU64>,
    ejected: AtomicBool,
    dead: AtomicBool,
}

/// The global side of a PEBR instance.
pub struct Collector {
    epoch: CachePadded<AtomicU64>,
    participants: Mutex<Vec<Arc<Participant>>>,
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
            participants: Mutex::new(Vec::new()),
            orphans: Orphans::new(),
        }
    }

    /// Registers the current thread.
    ///
    /// Requires a `'static` collector (the process-wide default, or a
    /// leaked test instance) so the handle's back-reference can never
    /// dangle.
    pub fn register(&'static self) -> LocalHandle {
        let record = Arc::new(Participant {
            state: CachePadded::new(AtomicU64::new(0)),
            ejected: AtomicBool::new(false),
            dead: AtomicBool::new(false),
        });
        self.participants.lock().push(record.clone());
        LocalHandle {
            global: self,
            record,
            garbage: GenBags::new(),
            guard_live: false,
        }
    }

    /// Current global epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Tries to advance the epoch; with `eject`, neutralizes stragglers so a
    /// future advance can succeed.
    fn try_advance(&self, eject: bool) -> u64 {
        let e = self.epoch.load(Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let mut blocked = false;
        {
            let mut parts = self.participants.lock();
            parts.retain(|p| !p.dead.load(Ordering::Acquire));
            for p in parts.iter() {
                let s = p.state.load(Ordering::Relaxed);
                if s & 1 == 1 && (s >> 1) != e {
                    blocked = true;
                    if eject {
                        p.ejected.store(true, Ordering::Release);
                        // The straggler is marked but may not have observed
                        // it yet; its next validate() must see the ejection.
                        smr_common::fault_point!("pebr::eject::after_mark");
                    } else {
                        break;
                    }
                }
            }
        }
        if blocked {
            return e;
        }
        fence(Ordering::SeqCst);
        let _ = self
            .epoch
            .compare_exchange(e, e + 1, Ordering::Release, Ordering::Relaxed);
        self.epoch.load(Ordering::Relaxed)
    }
}

unsafe impl Send for Collector {}
unsafe impl Sync for Collector {}

/// Returns the process-wide default PEBR collector.
pub fn default_collector() -> &'static Collector {
    static DEFAULT: Collector = Collector::new();
    &DEFAULT
}

/// A thread's registration with a PEBR [`Collector`].
pub struct LocalHandle {
    global: &'static Collector,
    record: Arc<Participant>,
    /// Epoch-stamped local garbage, freed at `stamp + 2 ≤ global` as in EBR.
    garbage: GenBags,
    guard_live: bool,
}

unsafe impl Send for LocalHandle {}

impl LocalHandle {
    /// Pins the thread, entering a critical section. Clears any pending
    /// ejection: a fresh critical section starts protective again.
    pub fn pin(&mut self) -> Guard<'_> {
        assert!(!self.guard_live, "PEBR guards must not be nested");
        self.record.ejected.store(false, Ordering::Relaxed);
        self.pin_slow();
        self.guard_live = true;
        Guard {
            handle: self,
            _marker: std::marker::PhantomData,
        }
    }

    fn pin_slow(&self) {
        let mut e = self.global.epoch.load(Ordering::Relaxed);
        loop {
            self.record.state.store((e << 1) | 1, Ordering::Relaxed);
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

    fn unpin_slow(&self) {
        self.record.state.store(0, Ordering::Release);
    }

    /// Asks the collector's trigger whether a deferred destroy
    /// should attempt a collection now.
    fn should_collect(&self) -> bool {
        TRIGGER.should_reclaim(self.garbage.len(), 0)
    }

    fn collect(&mut self) {
        if let Some(orphans) = self.global.orphans.take() {
            self.garbage.adopt(orphans, self.global.epoch());
        }
        let eject = self.garbage.len() >= EJECT_THRESHOLD;
        smr_common::fault_point!("pebr::collect::before_advance");
        let global_epoch = self.global.try_advance(eject);
        self.garbage.collect_expired(global_epoch);
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
                h.record.dead.store(true, Ordering::Release);
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

/// An active PEBR critical section.
pub struct Guard<'a> {
    handle: *mut LocalHandle,
    _marker: std::marker::PhantomData<&'a mut LocalHandle>,
}

impl Guard<'_> {
    /// Reborrows the handle the guard exclusively holds.
    ///
    /// # Safety
    /// The returned reference must not outlive the statement that creates
    /// it, and at most one may be live at a time. The guard exclusively
    /// borrows the (non-Sync) handle for its whole lifetime, so no other
    /// reference can exist concurrently.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn handle(&self) -> &mut LocalHandle {
        unsafe { &mut *self.handle }
    }

    /// Whether this critical section is still protective.
    #[inline]
    pub fn is_valid(&self) -> bool {
        !unsafe { self.handle() }.record.ejected.load(Ordering::Acquire)
    }

    /// Retires `ptr`.
    ///
    /// # Safety
    /// Same contract as [`ebr`-style deferred destruction]: unlinked,
    /// retired once, no new accesses.
    pub unsafe fn defer_destroy_inner<T>(&self, ptr: Shared<T>) {
        self.retire(unsafe { Retired::new(ptr.as_raw()) });
    }

    /// Retires with a custom deleter.
    ///
    /// # Safety
    /// Same contract as [`Guard::defer_destroy_inner`].
    pub unsafe fn defer_destroy_with(&self, ptr: *mut u8, free_fn: unsafe fn(*mut u8)) {
        self.retire(unsafe { Retired::with_free(ptr, free_fn) });
    }

    /// Bags `retired` under the current epoch, then collects if [`TRIGGER`]
    /// fires.
    #[inline]
    fn retire(&self, retired: Retired) {
        let handle = unsafe { self.handle() };
        let epoch = handle.global.epoch.load(Ordering::Relaxed);
        handle.garbage.push(epoch, retired);
        if handle.should_collect() {
            handle.collect();
        }
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let handle = unsafe { self.handle() };
        handle.unpin_slow();
        handle.guard_live = false;
    }
}

/// Marker type wiring PEBR into the [`GuardedScheme`] interface.
pub struct Pebr;

impl GuardedScheme for Pebr {
    type Handle = LocalHandle;
    type Guard<'a> = Guard<'a>;

    fn handle() -> LocalHandle {
        default_collector().register()
    }

    fn pin(handle: &mut LocalHandle) -> Guard<'_> {
        handle.pin()
    }
}

impl SchemeGuard for Guard<'_> {
    unsafe fn defer_destroy<T>(&self, ptr: Shared<T>) {
        self.defer_destroy_inner(ptr)
    }

    #[inline]
    fn validate(&self) -> bool {
        self.is_valid()
    }

    fn refresh(&mut self) {
        let handle = unsafe { self.handle() };
        handle.unpin_slow();
        handle.record.ejected.store(false, Ordering::Relaxed);
        handle.pin_slow();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                unsafe { rg.defer_destroy_inner(Shared::from_owned(0u64)) };
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
                unsafe { rg.defer_destroy_inner(Shared::from_owned(0u64)) };
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
                unsafe { rg.defer_destroy_inner(Shared::from_owned(0u64)) };
            }
            drop(rg);
        }
        drop(sg);
        let rg = reclaimer.pin();
        for _ in 0..COLLECT_THRESHOLD {
            unsafe { rg.defer_destroy_inner(Shared::from_owned(0u64)) };
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
                unsafe { g.defer_destroy_inner(Shared::from_owned(0u64)) };
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
