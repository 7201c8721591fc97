//! The hyaline critical-section guard.

use std::marker::PhantomData;

use smr_common::{Retired, Shared};

use crate::domain::LocalHandle;

/// An active hyaline critical section.
///
/// While a `Guard` is live, every batch handed over since the guard's enter
/// holds a reference on this thread's slot, so no block retired after the
/// enter can be freed and every pointer loaded from the data structure
/// inside the critical section remains dereferenceable.
pub struct Guard<'a> {
    handle: *mut LocalHandle,
    _marker: PhantomData<&'a mut LocalHandle>,
}

impl<'a> Guard<'a> {
    pub(crate) fn new(handle: &'a mut LocalHandle) -> Self {
        Self {
            handle,
            _marker: PhantomData,
        }
    }

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

    /// Retires `ptr` onto the local batch for reference-counted handover.
    ///
    /// # Safety
    /// `ptr` must be a `Box`-allocated node that has been unlinked from the
    /// data structure and is retired exactly once.
    pub unsafe fn defer_destroy<T>(&self, ptr: Shared<T>) {
        unsafe { self.handle() }.retire(unsafe { Retired::new(ptr.as_raw()) });
    }

    /// Retires with a custom deleter (descriptor nodes etc.).
    ///
    /// # Safety
    /// Same contract as [`Guard::defer_destroy`].
    pub unsafe fn defer_destroy_with(&self, ptr: *mut u8, free_fn: unsafe fn(*mut u8)) {
        unsafe { self.handle() }.retire(unsafe { Retired::with_free(ptr, free_fn) });
    }

    /// Briefly exits and re-enters the critical section.
    ///
    /// Any pointer loaded before `repin` must be re-read afterwards; the
    /// detach released this thread's batch references and old nodes may be
    /// freed.
    pub fn repin(&mut self) {
        let handle = unsafe { self.handle() };
        handle.leave_slow();
        handle.enter_slow();
    }

    /// Eagerly attempts a handover (tests & shutdown paths).
    pub fn flush(&self) {
        unsafe { self.handle() }.collect();
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let handle = unsafe { self.handle() };
        handle.leave_slow();
        handle.guard_live = false;
    }
}

#[cfg(test)]
mod tests {
    use crate::Domain;
    use smr_common::{Atomic, Shared};
    use std::sync::atomic::{AtomicUsize, Ordering::*};
    use std::sync::Arc;

    #[test]
    fn enter_leave_cycles() {
        let d = Box::leak(Box::new(Domain::new()));
        let mut h = d.register();
        for _ in 0..10 {
            let g = h.pin();
            drop(g);
        }
    }

    #[test]
    fn era_advances_on_handover() {
        let d = Box::leak(Box::new(Domain::new()));
        let mut h = d.register();
        let e0 = d.era();
        {
            let g = h.pin();
            unsafe { g.defer_destroy(Shared::from_owned(1u64)) };
            g.flush();
            drop(g);
        }
        assert!(d.era() > e0, "handover must bump the era");
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

        let d = Box::leak(Box::new(Domain::new()));
        let mut h = d.register();
        {
            let g = h.pin();
            let node = Shared::from_owned(Canary);
            unsafe { g.defer_destroy(node) };
            // Handover pushes the batch onto our own slot; the node stays
            // alive until the guard leaves.
            g.flush();
            assert_eq!(DROPS.load(Relaxed), 0, "freed inside the retiring CS");
            drop(g);
        }
        assert_eq!(DROPS.load(Relaxed), 1, "leave must release the batch");
    }

    #[test]
    fn batch_survives_concurrent_holder() {
        // A second slot entered before the handover must hold the batch
        // alive until it leaves, even after the retirer is gone.
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Relaxed);
            }
        }

        let d = Box::leak(Box::new(Domain::new()));
        let mut holder = d.register();
        let mut retirer = d.register();
        let held = holder.pin();
        {
            let g = retirer.pin();
            unsafe { g.defer_destroy(Shared::from_owned(Canary)) };
            g.flush();
            drop(g);
        }
        assert_eq!(DROPS.load(Relaxed), 0, "holder's reference ignored");
        drop(held);
        assert_eq!(DROPS.load(Relaxed), 1, "holder's leave must free");
    }

    #[test]
    fn slot_entered_after_handover_takes_no_reference() {
        // A critical section that starts after the batch's era bump cannot
        // reach its nodes, so it must not delay the free.
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Relaxed);
            }
        }

        let d = Box::leak(Box::new(Domain::new()));
        let mut late = d.register();
        let mut retirer = d.register();
        {
            let g = retirer.pin();
            unsafe { g.defer_destroy(Shared::from_owned(Canary)) };
            g.flush();
            // Entered after the handover: skipped by era comparison.
            let late_guard = late.pin();
            drop(g); // retirer's own reference was the last one
            assert_eq!(DROPS.load(Relaxed), 1, "late slot delayed the free");
            drop(late_guard);
        }
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

        let d: &'static Domain = Box::leak(Box::new(Domain::new()));
        let threads = 8;
        let lives: usize = if cfg!(miri) { 4 } else { 64 };
        let retires_per_life = 16;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(move || {
                    for _ in 0..lives {
                        let mut h = d.register();
                        let g = h.pin();
                        for _ in 0..retires_per_life {
                            unsafe { g.defer_destroy(Shared::from_owned(Canary)) };
                        }
                        drop(g);
                        // Handle drop: donate batch, mark registry node.
                    }
                });
            }
        });
        assert_eq!(d.participants(), 0);
        let expected = threads * lives * retires_per_life;
        let mut survivor = d.register();
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
        // Readers hold critical sections while a writer swaps and retires
        // nodes; the value read under a guard must always be intact (drop
        // poisons it).
        struct Node {
            value: u64,
        }
        impl Drop for Node {
            fn drop(&mut self) {
                self.value = u64::MAX;
            }
        }

        let d: &'static Domain = Box::leak(Box::new(Domain::new()));
        let slot = Arc::new(Atomic::new(Node { value: 7 }));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let mut threads = Vec::new();
        for _ in 0..4 {
            let slot = slot.clone();
            let stop = stop.clone();
            threads.push(std::thread::spawn(move || {
                let mut h = d.register();
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
                let mut h = d.register();
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

    #[test]
    fn repin_releases_references() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Relaxed);
            }
        }

        let d = Box::leak(Box::new(Domain::new()));
        let mut h = d.register();
        let mut g = h.pin();
        unsafe { g.defer_destroy(Shared::from_owned(Canary)) };
        g.flush();
        assert_eq!(DROPS.load(Relaxed), 0);
        // Leaving inside repin drops the reference the handover pushed.
        g.repin();
        assert_eq!(DROPS.load(Relaxed), 1, "repin must release the batch");
        drop(g);
    }
}
