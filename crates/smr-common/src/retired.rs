//! Type-erased retired allocations.

use crate::{counters, pool};

/// A heap allocation handed to a reclamation scheme, with its deleter.
///
/// The pointer is type-erased so scheme internals can batch heterogeneous
/// nodes; the deleter restores the type, drops the value and hands the
/// block to the freeing thread's [`pool`].
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
    pub unsafe fn new<T>(ptr: *mut T) -> Self {
        debug_assert!(!ptr.is_null());
        Self {
            ptr: ptr.cast(),
            free_fn: free_pooled::<T>,
        }
    }

    /// Wraps `ptr` with a custom deleter.
    ///
    /// # Safety
    /// `free_fn` must fully reclaim `ptr`, and `ptr` must not be freed by
    /// anyone else.
    pub unsafe fn with_free(ptr: *mut u8, free_fn: unsafe fn(*mut u8)) -> Self {
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
    fn free_runs_destructor() {
        let _serial = crate::counters::test_lock();
        let p = Box::into_raw(Box::new(Canary));
        let before = DROPS.load(Ordering::Relaxed);
        unsafe {
            crate::counters::incr_garbage(1);
            Retired::new(p).free();
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), before + 1);
    }

    #[test]
    fn custom_deleter_runs() {
        let _serial = crate::counters::test_lock();
        static CUSTOM: AtomicUsize = AtomicUsize::new(0);
        unsafe fn del(p: *mut u8) {
            CUSTOM.fetch_add(1, Ordering::Relaxed);
            drop(unsafe { Box::from_raw(p.cast::<u64>()) });
        }
        let p = Box::into_raw(Box::new(5u64));
        unsafe {
            crate::counters::incr_garbage(1);
            Retired::with_free(p.cast(), del).free();
        }
        assert_eq!(CUSTOM.load(Ordering::Relaxed), 1);
    }
}
