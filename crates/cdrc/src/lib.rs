//! CDRC — concurrent deferred reference counting (EBR flavor).
//!
//! A from-scratch implementation of the scheme the paper benchmarks as
//! **RC** (Anderson, Blelloch, Wei — PLDI 2022): every node carries a
//! strong reference count, but the counter traffic that made classic
//! lock-free reference counting slow is avoided by
//!
//! * reading links as **snapshots** — uncounted pointers protected by an
//!   EBR critical section instead of a counter increment, and
//! * **deferring decrements** through EBR: a decrement retired inside a
//!   critical section only executes after a grace period, so a snapshot
//!   holder can still safely upgrade to a counted reference.
//!
//! When a deferred decrement drops a count to zero the node is destroyed
//! and its outgoing links are decremented recursively (iteratively, to
//! survive long chains).
//!
//! Reference counting supports optimistic traversal and needs no failure
//! handling, but pays counter updates on every link mutation (paper §2.4) —
//! the cost the benchmark's Bonsai discussion attributes to RC.
//!
//! # Example
//!
//! ```
//! use cdrc::{alloc, defer_decr, incr, Counted, Edges};
//! use smr_common::{SchemeDomain, Shared};
//!
//! struct Item(u64);
//! impl Edges for Item {
//!     fn edges(&self, _out: &mut Vec<Shared<Counted<Self>>>) {}
//! }
//!
//! let mut handle = cdrc::default_collector().register();
//!
//! let p = alloc(Item(7)); // strong count 1
//! unsafe { incr(p) };     // a second owner (e.g. a link now points at it)
//!
//! {
//!     let guard = handle.pin();
//!     unsafe { defer_decr(&guard, p) }; // one owner gives up its count
//! }
//! // Still alive: one count remains, and the decrement is deferred anyway.
//! assert_eq!(unsafe { p.deref() }.0, 7);
//!
//! {
//!     let guard = handle.pin();
//!     unsafe { defer_decr(&guard, p) }; // last count: destroyed after a
//!                                       // grace period
//! }
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};

use smr_common::Shared;

/// A reference-counted heap node.
pub struct Counted<T> {
    strong: AtomicU64,
    data: T,
}

impl<T> Counted<T> {
    /// The payload.
    pub fn data(&self) -> &T {
        &self.data
    }

    /// Current strong count (diagnostics/tests).
    pub fn strong(&self) -> u64 {
        self.strong.load(Ordering::Acquire)
    }
}

impl<T> std::ops::Deref for Counted<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.data
    }
}

/// Implemented by node payloads: enumerates outgoing counted links so
/// destruction can decrement them.
pub trait Edges: Sized {
    /// Push the raw (untagged) targets of every counted link of `self`.
    ///
    /// Called with exclusive access during destruction.
    fn edges(&self, out: &mut Vec<Shared<Counted<Self>>>);
}

/// Allocates a node with strong count 1 (the caller's reference).
pub fn alloc<T: Edges>(data: T) -> Shared<Counted<T>> {
    Shared::from_owned(Counted {
        strong: AtomicU64::new(1),
        data,
    })
}

/// Adds a strong reference.
///
/// # Safety
/// `ptr` must point to a live `Counted<T>` whose count cannot concurrently
/// reach its deferred destruction — guaranteed when `ptr` was loaded from a
/// live link inside the current EBR critical section, or when the caller
/// already owns a reference.
pub unsafe fn incr<T>(ptr: Shared<Counted<T>>) {
    let prev = unsafe { ptr.deref() }.strong.fetch_add(1, Ordering::AcqRel);
    debug_assert!(prev >= 1, "resurrection from zero");
}

unsafe fn decr_now<T: Edges>(ptr: *mut u8) {
    // Iterative cascade: destroying a node decrements its children.
    let mut stack: Vec<*mut Counted<T>> = vec![ptr.cast()];
    let mut edges = Vec::new();
    while let Some(p) = stack.pop() {
        let obj = unsafe { &*p };
        if obj.strong.fetch_sub(1, Ordering::AcqRel) == 1 {
            edges.clear();
            obj.data.edges(&mut edges);
            for e in &edges {
                if !e.is_null() {
                    stack.push(e.as_raw());
                }
            }
            // SAFETY: the last reference is gone; `alloc` made the block.
            unsafe { Shared::from_raw(p).drop_owned() };
        }
    }
}

/// Schedules a decrement of `ptr`'s strong count after a grace period.
///
/// # Safety
/// The caller must give up one strong reference it (or the link it just
/// overwrote) owned.
pub unsafe fn defer_decr<T: Edges>(guard: &ebr::Guard<'_>, ptr: Shared<Counted<T>>) {
    debug_assert!(!ptr.is_null());
    unsafe { guard.defer_destroy_with(ptr.as_raw().cast(), decr_now::<T>) };
}

/// Immediately decrements (and possibly destroys) — for single-owner
/// teardown paths like `Drop` implementations.
///
/// # Safety
/// No other thread may hold references or snapshots of the affected nodes.
pub unsafe fn decr_immediate<T: Edges>(ptr: Shared<Counted<T>>) {
    unsafe { decr_now::<T>(ptr.as_raw().cast()) }
}

/// Re-export of the underlying EBR scheme used for snapshots and deferral.
pub use ebr::{default_collector, Ebr, Guard, LocalHandle};

#[cfg(test)]
mod tests {
    use super::*;
    use smr_common::SchemeDomain;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    static DROPS: AtomicUsize = AtomicUsize::new(0);

    struct Leafy;
    impl Drop for Leafy {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Relaxed);
        }
    }
    impl Edges for Leafy {
        fn edges(&self, _out: &mut Vec<Shared<Counted<Self>>>) {}
    }

    /// `DROPS` is shared: the tests asserting its deltas run one at a time.
    fn drops_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn flush(h: &mut LocalHandle) {
        for _ in 0..4 {
            let g = h.pin();
            g.flush();
            drop(g);
        }
    }

    #[test]
    fn count_reaches_zero_destroys() {
        let _serial = drops_lock();
        let c: &'static ebr::Collector = Box::leak(Box::new(ebr::Collector::new()));
        let mut h = c.register();
        let before = DROPS.load(Relaxed);
        let p = alloc(Leafy);
        {
            let g = h.pin();
            unsafe { defer_decr(&g, p) };
        }
        flush(&mut h);
        assert_eq!(DROPS.load(Relaxed), before + 1);
    }

    #[test]
    fn extra_reference_keeps_alive() {
        let _serial = drops_lock();
        let c: &'static ebr::Collector = Box::leak(Box::new(ebr::Collector::new()));
        let mut h = c.register();
        let before = DROPS.load(Relaxed);
        let p = alloc(Leafy);
        unsafe { incr(p) }; // second reference
        {
            let g = h.pin();
            unsafe { defer_decr(&g, p) };
        }
        flush(&mut h);
        assert_eq!(DROPS.load(Relaxed), before, "one reference remains");
        {
            let g = h.pin();
            unsafe { defer_decr(&g, p) };
        }
        flush(&mut h);
        assert_eq!(DROPS.load(Relaxed), before + 1);
    }

    #[test]
    fn cascading_destruction_is_iterative() {
        struct Chain {
            next: Shared<Counted<Chain>>,
        }
        unsafe impl Send for Chain {}
        unsafe impl Sync for Chain {}
        impl Edges for Chain {
            fn edges(&self, out: &mut Vec<Shared<Counted<Self>>>) {
                out.push(self.next);
            }
        }

        let c: &'static ebr::Collector = Box::leak(Box::new(ebr::Collector::new()));
        let mut h = c.register();
        // Build a 100k chain; destruction must not overflow the stack.
        let mut head = Shared::null();
        for _ in 0..100_000 {
            head = alloc(Chain { next: head });
        }
        {
            let g = h.pin();
            unsafe { defer_decr(&g, head) };
        }
        flush(&mut h);
        // If we got here without a stack overflow, the cascade worked.
    }
}
