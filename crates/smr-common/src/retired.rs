//! Type-erased retired allocations, and the orphan list a dying thread
//! donates them to.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, TryLockError};

use crate::{counters, pool};

/// A heap allocation handed to a reclamation scheme, with its deleter.
///
/// The pointer is type-erased so scheme internals can batch heterogeneous
/// nodes; the deleter restores the type, drops the value and hands the
/// block to the freeing thread's [`pool`].
///
/// A `Retired` is garbage for exactly its lifetime: building one adds 1 to
/// [`counters::total_retired`], and [`free`](Self::free) adds 1 to
/// [`counters::total_freed`], so no scheme counts its garbage by hand.
pub struct Retired {
    ptr: *mut u8,
    free_fn: unsafe fn(*mut u8),
}

// Retired values only travel between threads inside scheme machinery that
// guarantees exclusive ownership of the pointee.
unsafe impl Send for Retired {}

unsafe fn free_pooled<T>(ptr: *mut u8) {
    unsafe { pool::release(ptr.cast::<T>()) };
}

impl Retired {
    /// Wraps `ptr` for later reclamation via [`pool::release::<T>`].
    ///
    /// # Safety
    /// `ptr` must come from [`Shared::from_owned`](crate::Shared::from_owned)
    /// or `Box::into_raw` of a `Box<T>` and must not be freed by anyone else.
    #[inline]
    pub unsafe fn new<T>(ptr: *mut T) -> Self {
        debug_assert!(!ptr.is_null());
        unsafe { Self::with_free(ptr.cast(), free_pooled::<T>) }
    }

    /// Wraps `ptr` with a custom deleter.
    ///
    /// # Safety
    /// `free_fn` must fully reclaim `ptr`, and `ptr` must not be freed by
    /// anyone else.
    #[inline]
    pub unsafe fn with_free(ptr: *mut u8, free_fn: unsafe fn(*mut u8)) -> Self {
        counters::incr_garbage(1);
        Self { ptr, free_fn }
    }

    /// The type-erased pointer (used by hazard scans).
    #[inline]
    pub fn ptr(&self) -> *mut u8 {
        self.ptr
    }

    /// Frees the allocation and decrements the global garbage counter: a
    /// block that enters the pool is reclaimed, not garbage.
    ///
    /// # Safety
    /// No thread may dereference the pointee at or after this call.
    pub unsafe fn free(self) {
        (self.free_fn)(self.ptr);
        counters::decr_garbage(1);
    }
}

/// Garbage abandoned by exited threads, awaiting adoption by a live one.
///
/// Every scheme's domain holds one (EBR and PEBR keep each item's epoch
/// stamp, `Orphans<(u64, Retired)>`). Exits are rare and reclaims are not,
/// so the entry count sits beside the lock: [`take`](Self::take) on an
/// empty list is one load, and a contended one gives up instead of waiting
/// — whoever holds the lock is already adopting.
pub struct Orphans<T> {
    list: Mutex<Vec<T>>,
    /// `list.len()`, stored under the lock.
    count: AtomicUsize,
}

impl<T> Default for Orphans<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Orphans<T> {
    /// An empty list (`const`, so static domains embed one).
    pub const fn new() -> Self {
        Self {
            list: Mutex::new(Vec::new()),
            count: AtomicUsize::new(0),
        }
    }

    /// Moves everything in `items` onto the list (no lock when empty).
    pub fn donate(&self, items: &mut Vec<T>) {
        if items.is_empty() {
            return;
        }
        let mut list = self.list.lock().unwrap_or_else(|e| e.into_inner());
        list.append(items);
        self.count.store(list.len(), Ordering::Release);
    }

    /// Takes the whole list, or `None` if it is empty or another thread
    /// holds the lock.
    #[inline]
    pub fn take(&self) -> Option<Vec<T>> {
        if self.count.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut list = match self.list.try_lock() {
            Ok(list) => list,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        self.count.store(0, Ordering::Release);
        Some(std::mem::take(&mut *list))
    }

    /// Number of items awaiting adoption.
    #[inline]
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// Whether nothing awaits adoption.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The list itself, for a domain's `Drop` (no live thread, no lock).
    pub fn get_mut(&mut self) -> &mut Vec<T> {
        self.list.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Canary;
    impl Drop for Canary {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn new_counts_one_and_free_runs_destructor_and_counts_one() {
        let _serial = crate::counters::test_lock();
        let p = Box::into_raw(Box::new(Canary));
        let (retired0, freed0) = (counters::total_retired(), counters::total_freed());
        let before = DROPS.load(Ordering::Relaxed);
        let r = unsafe { Retired::new(p) };
        assert_eq!(counters::total_retired() - retired0, 1);
        assert_eq!(counters::total_freed() - freed0, 0);
        unsafe { r.free() };
        assert_eq!(DROPS.load(Ordering::Relaxed), before + 1);
        assert_eq!(counters::total_retired() - retired0, 1);
        assert_eq!(counters::total_freed() - freed0, 1);
    }

    #[test]
    fn with_free_counts_one_and_runs_the_custom_deleter() {
        let _serial = crate::counters::test_lock();
        static CUSTOM: AtomicUsize = AtomicUsize::new(0);
        unsafe fn del(p: *mut u8) {
            CUSTOM.fetch_add(1, Ordering::Relaxed);
            drop(unsafe { Box::from_raw(p.cast::<u64>()) });
        }
        let p = Box::into_raw(Box::new(5u64));
        let (retired0, freed0) = (counters::total_retired(), counters::total_freed());
        let r = unsafe { Retired::with_free(p.cast(), del) };
        assert_eq!(counters::total_retired() - retired0, 1);
        unsafe { r.free() };
        assert_eq!(CUSTOM.load(Ordering::Relaxed), 1);
        assert_eq!(counters::total_retired() - retired0, 1);
        assert_eq!(counters::total_freed() - freed0, 1);
    }

    #[test]
    fn orphans_donate_then_take() {
        let orphans = Orphans::new();
        assert_eq!(orphans.take(), None);
        let mut items = vec![1, 2];
        orphans.donate(&mut items);
        assert!(items.is_empty(), "donate moves every item");
        orphans.donate(&mut vec![3]);
        assert_eq!(orphans.len(), 3);
        assert_eq!(orphans.take(), Some(vec![1, 2, 3]));
        assert!(orphans.is_empty());
        assert_eq!(orphans.take(), None);
    }

    #[test]
    fn orphans_take_on_an_empty_count_skips_the_lock() {
        let orphans = Orphans::new();
        // Items behind the lock but a zero count: `take` trusts the count
        // and never looks, which is the one-load fast path.
        orphans.list.lock().unwrap().push(7);
        assert_eq!(orphans.take(), None);
        assert_eq!(*orphans.list.lock().unwrap(), vec![7]);
    }

    #[test]
    fn orphans_take_under_a_held_lock_gives_up_and_loses_nothing() {
        let orphans = &Orphans::new();
        orphans.donate(&mut vec![1, 2, 3]);
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _list = orphans.list.lock().unwrap();
                held_tx.send(()).unwrap();
                done_rx.recv().unwrap();
            });
            held_rx.recv().unwrap();
            assert_eq!(orphans.take(), None, "a held lock is not waited for");
            assert_eq!(orphans.len(), 3);
            done_tx.send(()).unwrap();
        });
        assert_eq!(orphans.take(), Some(vec![1, 2, 3]));
    }
}
