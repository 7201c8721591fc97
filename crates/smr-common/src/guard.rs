//! The critical-section guard of EBR, PEBR and Hyaline, written once.
//!
//! The three schemes protect a whole critical section, not one pointer
//! (paper §2.4). Their guards differ only in what entering, leaving,
//! retiring and collecting do to the thread's handle: [`CriticalSection`].
//! Each scheme's `Guard<'a>` is an alias of `Guard<'a, LocalHandle>`.

use std::marker::PhantomData;

use crate::map::SchemeGuard;
use crate::{Retired, Shared};

/// A thread's handle to a critical-section scheme, driven only by
/// [`Guard`].
///
/// Every method is `unsafe`: each has a pinned or unpinned precondition
/// that only the guard's own bookkeeping upholds. EBR's and PEBR's
/// `collect`, for one, walk the participant registry, and unpinned that
/// walk can stand on a node another thread unlinks and frees.
///
/// # Safety
/// An implementation promises that a block handed to `retire` is freed
/// only once no critical section entered before the call can still reach
/// it, and that `enter` does not return before the section protects.
pub unsafe trait CriticalSection {
    /// The flag set while a [`Guard`] holds the handle: a pin that finds
    /// it set (a nested guard, or one leaked by `mem::forget`) panics.
    ///
    /// # Safety
    /// Only the guard writes the flag.
    unsafe fn guard_live(&mut self) -> &mut bool;

    /// Enters a critical section: announce, fence, validate.
    ///
    /// # Safety
    /// The handle is not in a critical section.
    unsafe fn enter(&mut self);

    /// Leaves the critical section.
    ///
    /// # Safety
    /// The handle is in a critical section.
    unsafe fn leave(&mut self);

    /// Takes an unlinked block, to free once no critical section can reach
    /// it; may run a collection.
    ///
    /// # Safety
    /// The handle is in a critical section.
    unsafe fn retire(&mut self, retired: Retired);

    /// Runs a collection now.
    ///
    /// # Safety
    /// The handle is in a critical section.
    unsafe fn collect(&mut self);

    /// Whether the critical section still protects (`false` once PEBR
    /// ejected the thread).
    #[inline]
    fn is_valid(&self) -> bool {
        true
    }
}

/// An active critical section on an `H` handle: no block retired after the
/// pin is freed while it lives.
pub struct Guard<'a, H: CriticalSection> {
    handle: *mut H,
    _marker: PhantomData<&'a mut H>,
}

impl<'a, H: CriticalSection> Guard<'a, H> {
    /// Enters a critical section on `handle`, left when the guard drops.
    ///
    /// # Panics
    /// If a guard on `handle` is live or was leaked with `mem::forget`.
    #[inline]
    pub fn new(handle: &'a mut H) -> Self {
        // SAFETY: the flag says whether a guard holds the handle; with it
        // clear, the handle is outside any critical section.
        unsafe {
            assert!(
                !*handle.guard_live(),
                "critical-section guards must not be nested"
            );
            handle.enter();
            *handle.guard_live() = true;
        }
        Self {
            handle,
            _marker: PhantomData,
        }
    }

    /// The held handle. Each caller below drops the reference before it
    /// returns and never holds two at once.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    fn handle(&self) -> &mut H {
        // SAFETY: `new` took `&'a mut H`, so for `'a` the guard is the only
        // access to the handle, and `*mut H` keeps the guard `!Sync`: no
        // second reborrow can overlap one made here.
        unsafe { &mut *self.handle }
    }

    /// Retires `ptr` for reclamation once no critical section can reach it.
    ///
    /// # Safety
    /// `ptr` must be a `Box`-allocated node that has been unlinked from the
    /// data structure and is retired exactly once.
    pub unsafe fn defer_destroy<T>(&self, ptr: Shared<T>) {
        // SAFETY: the handle is pinned while the guard lives; the caller
        // upholds `Retired::new`'s contract.
        unsafe { self.handle().retire(Retired::new(ptr.as_raw())) };
    }

    /// Retires with a custom deleter (descriptor nodes etc.).
    ///
    /// # Safety
    /// Same contract as [`Guard::defer_destroy`].
    pub unsafe fn defer_destroy_with(&self, ptr: *mut u8, free_fn: unsafe fn(*mut u8)) {
        // SAFETY: as in `defer_destroy`.
        unsafe { self.handle().retire(Retired::with_free(ptr, free_fn)) };
    }

    /// Leaves and re-enters the critical section: pointers loaded before
    /// must be re-read, as old nodes may have been freed in between.
    pub fn repin(&mut self) {
        let handle = self.handle();
        // SAFETY: pinned while the guard lives, so leave, then enter.
        unsafe {
            handle.leave();
            handle.enter();
        }
    }

    /// Runs a collection now (tests & shutdown paths).
    pub fn flush(&self) {
        // SAFETY: pinned while the guard lives.
        unsafe { self.handle().collect() };
    }

    /// Whether this critical section is still protective.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.handle().is_valid()
    }
}

impl<H: CriticalSection> Drop for Guard<'_, H> {
    #[inline]
    fn drop(&mut self) {
        let handle = self.handle();
        // SAFETY: pinned while the guard lives; this ends it.
        unsafe {
            handle.leave();
            *handle.guard_live() = false;
        }
    }
}

impl<H: CriticalSection> SchemeGuard for Guard<'_, H> {
    unsafe fn defer_destroy<T>(&self, ptr: Shared<T>) {
        unsafe { Guard::defer_destroy(self, ptr) }
    }

    #[inline]
    fn validate(&self) -> bool {
        self.is_valid()
    }

    fn refresh(&mut self) {
        self.repin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every call the guard makes, in order.
    #[derive(Default)]
    struct Toy {
        live: bool,
        calls: Vec<&'static str>,
        valid: bool,
    }

    unsafe impl CriticalSection for Toy {
        unsafe fn guard_live(&mut self) -> &mut bool {
            &mut self.live
        }
        unsafe fn enter(&mut self) {
            self.calls.push("enter");
        }
        unsafe fn leave(&mut self) {
            self.calls.push("leave");
        }
        unsafe fn retire(&mut self, retired: Retired) {
            self.calls.push("retire");
            unsafe { retired.free() };
        }
        unsafe fn collect(&mut self) {
            self.calls.push("collect");
        }
        fn is_valid(&self) -> bool {
            self.valid
        }
    }

    #[test]
    fn defer_destroy_reaches_retire_exactly_once() {
        let mut h = Toy::default();
        {
            let g = Guard::new(&mut h);
            unsafe { g.defer_destroy(Shared::from_owned(1u64)) };
            unsafe { SchemeGuard::defer_destroy(&g, Shared::from_owned(2u64)) };
        }
        assert_eq!(h.calls, ["enter", "retire", "retire", "leave"]);
        assert!(!h.live, "drop clears the guard-live flag");
    }

    #[test]
    fn repin_is_leave_then_enter_and_flush_is_collect() {
        let mut h = Toy::default();
        {
            let mut g = Guard::new(&mut h);
            g.repin();
            g.flush();
            SchemeGuard::refresh(&mut g);
        }
        assert_eq!(
            h.calls,
            ["enter", "leave", "enter", "collect", "leave", "enter", "leave"]
        );
    }

    #[test]
    fn validate_asks_the_handle() {
        let mut h = Toy {
            valid: true,
            ..Toy::default()
        };
        assert!(Guard::new(&mut h).validate());
        h.valid = false;
        assert!(!Guard::new(&mut h).validate());
    }

    #[test]
    #[should_panic(expected = "critical-section guards must not be nested")]
    fn a_forgotten_guard_makes_the_next_pin_panic() {
        let mut h = Toy::default();
        std::mem::forget(Guard::new(&mut h));
        let _ = Guard::new(&mut h);
    }
}
