//! The EBR critical-section guard.

use std::marker::PhantomData;
use std::sync::atomic::Ordering;

use smr_common::{Retired, Shared};

use crate::collector::LocalHandle;

/// An active EBR critical section.
///
/// While a `Guard` is live, no block retired after the guard's pin can be
/// freed, so every pointer loaded from the data structure inside the
/// critical section remains dereferenceable.
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

    /// Retires `ptr` for reclamation once two epochs have passed.
    ///
    /// # Safety
    /// `ptr` must be a `Box`-allocated node that has been unlinked from the
    /// data structure and is retired exactly once.
    pub unsafe fn defer_destroy<T>(&self, ptr: Shared<T>) {
        self.retire(unsafe { Retired::new(ptr.as_raw()) });
    }

    /// Retires with a custom deleter (descriptor nodes etc.).
    ///
    /// # Safety
    /// Same contract as [`Guard::defer_destroy`].
    pub unsafe fn defer_destroy_with(&self, ptr: *mut u8, free_fn: unsafe fn(*mut u8)) {
        self.retire(unsafe { Retired::with_free(ptr, free_fn) });
    }

    /// Bags `retired` under the current epoch, then collects if
    /// [`crate::TRIGGER`] fires.
    #[inline]
    fn retire(&self, retired: Retired) {
        let handle = unsafe { self.handle() };
        let epoch = handle.global.epoch.load(Ordering::Relaxed);
        handle.bags.push(epoch, retired);
        smr_common::fault_point!("ebr::defer::after_push");
        if handle.should_collect() {
            handle.collect();
        }
    }

    /// Briefly exits and re-enters the critical section.
    ///
    /// Any pointer loaded before `repin` must be re-read afterwards; the
    /// epoch may have advanced and old nodes may be freed.
    pub fn repin(&mut self) {
        let handle = unsafe { self.handle() };
        handle.unpin_slow();
        handle.pin_slow();
    }

    /// Eagerly attempts a collection (tests & shutdown paths).
    pub fn flush(&self) {
        unsafe { self.handle() }.collect();
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let handle = unsafe { self.handle() };
        handle.unpin_slow();
        handle.guard_live = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Collector;
    use smr_common::Atomic;
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
