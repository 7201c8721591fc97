//! Tagged atomic pointers.
//!
//! [`Atomic<T>`] is a word-sized atomic holding a possibly-tagged pointer to a
//! heap node; [`Shared<T>`] is the plain (copyable) snapshot of such a word.
//! Unlike `crossbeam_epoch::Atomic`, loads are not lifetime-branded to a
//! guard: protection is scheme-specific in this workspace (epochs, hazard
//! pointers, HP++ protections, reference counts), so dereferencing a
//! [`Shared`] is an `unsafe` operation whose precondition is "the current
//! scheme protects this pointer".

use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::{pool, tagged};

/// An atomic word holding a tagged pointer to `T`.
pub struct Atomic<T> {
    data: AtomicUsize,
    _marker: PhantomData<*mut T>,
}

unsafe impl<T: Send + Sync> Send for Atomic<T> {}
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.load(Ordering::Relaxed);
        write!(f, "Atomic({:p}, tag={})", s.as_raw(), s.tag())
    }
}

impl<T> Atomic<T> {
    /// A null pointer with tag 0.
    pub const fn null() -> Self {
        Self {
            data: AtomicUsize::new(0),
            _marker: PhantomData,
        }
    }

    /// Allocates `value` on the heap and stores the (untagged) pointer.
    pub fn new(value: T) -> Self {
        Self::from(Shared::from_owned(value))
    }

    /// Creates an `Atomic` holding `shared`.
    pub fn from(shared: Shared<T>) -> Self {
        Self {
            data: AtomicUsize::new(shared.data),
            _marker: PhantomData,
        }
    }

    /// Atomically loads the tagged pointer.
    #[inline]
    pub fn load(&self, ord: Ordering) -> Shared<T> {
        Shared::from_usize(self.data.load(ord))
    }

    /// Atomically stores `val`.
    #[inline]
    pub fn store(&self, val: Shared<T>, ord: Ordering) {
        self.data.store(val.data, ord);
    }

    /// Atomically exchanges the value, returning the previous one.
    #[inline]
    pub fn swap(&self, val: Shared<T>, ord: Ordering) -> Shared<T> {
        Shared::from_usize(self.data.swap(val.data, ord))
    }

    /// Compare-and-exchange. On failure returns the actual current value.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: Shared<T>,
        new: Shared<T>,
        success: Ordering,
        failure: Ordering,
    ) -> Result<Shared<T>, Shared<T>> {
        self.data
            .compare_exchange(current.data, new.data, success, failure)
            .map(Shared::from_usize)
            .map_err(Shared::from_usize)
    }

    /// Weak compare-and-exchange (may fail spuriously).
    #[inline]
    pub fn compare_exchange_weak(
        &self,
        current: Shared<T>,
        new: Shared<T>,
        success: Ordering,
        failure: Ordering,
    ) -> Result<Shared<T>, Shared<T>> {
        self.data
            .compare_exchange_weak(current.data, new.data, success, failure)
            .map(Shared::from_usize)
            .map_err(Shared::from_usize)
    }

    /// Atomically ORs `tag` into the low bits, returning the previous value.
    ///
    /// Used for logical deletion and HP++ invalidation marks.
    #[inline]
    pub fn fetch_or_tag(&self, tag: usize, ord: Ordering) -> Shared<T> {
        debug_assert!(tag <= tagged::low_bits::<T>());
        Shared::from_usize(self.data.fetch_or(tag, ord))
    }

    /// Non-atomic read; requires exclusive access.
    #[inline]
    pub fn load_mut(&mut self) -> Shared<T> {
        Shared::from_usize(*self.data.get_mut())
    }

    /// Non-atomic write; requires exclusive access.
    #[inline]
    pub fn store_mut(&mut self, val: Shared<T>) {
        *self.data.get_mut() = val.data;
    }

    /// Consumes the atomic, returning the owned heap allocation if non-null.
    ///
    /// # Safety
    /// The caller must be the unique owner of the pointee.
    pub unsafe fn into_owned(self) -> Option<Box<T>> {
        let s = Shared::<T>::from_usize(self.data.into_inner());
        if s.is_null() {
            None
        } else {
            Some(Box::from_raw(s.as_raw()))
        }
    }
}

/// A copyable snapshot of a tagged pointer word.
pub struct Shared<T> {
    data: usize,
    _marker: PhantomData<*mut T>,
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<T> {}

impl<T> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}
impl<T> Eq for Shared<T> {}

impl<T> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shared({:p}, tag={})", self.as_raw(), self.tag())
    }
}

impl<T> Shared<T> {
    /// The null pointer with tag 0.
    #[inline]
    pub const fn null() -> Self {
        Self {
            data: 0,
            _marker: PhantomData,
        }
    }

    /// Reconstructs from a raw word (pointer | tag).
    #[inline]
    pub fn from_usize(data: usize) -> Self {
        Self {
            data,
            _marker: PhantomData,
        }
    }

    /// Wraps a raw pointer (keeping any tag bits it carries).
    #[inline]
    pub fn from_raw(ptr: *mut T) -> Self {
        Self::from_usize(ptr as usize)
    }

    /// Moves `value` to the heap — a block of this thread's
    /// [`pool`] when it has one — and returns the untagged
    /// pointer to it. The block is interchangeable with a `Box<T>`.
    #[inline]
    pub fn from_owned(value: T) -> Self {
        Self::from_raw(pool::alloc(value))
    }

    /// The raw word (pointer | tag).
    #[inline]
    pub fn into_usize(self) -> usize {
        self.data
    }

    /// The untagged raw pointer.
    #[inline]
    pub fn as_raw(&self) -> *mut T {
        tagged::untagged::<T>(self.data)
    }

    /// The tag bits.
    #[inline]
    pub fn tag(&self) -> usize {
        tagged::tag_of::<T>(self.data)
    }

    /// Same pointer with the tag replaced by `tag`.
    #[inline]
    pub fn with_tag(&self, tag: usize) -> Self {
        Self::from_usize(tagged::compose::<T>(self.as_raw(), tag))
    }

    /// Is the (untagged) pointer null?
    #[inline]
    pub fn is_null(&self) -> bool {
        self.as_raw().is_null()
    }

    /// Compares only the untagged pointer parts.
    #[inline]
    pub fn ptr_eq(&self, other: Shared<T>) -> bool {
        self.as_raw() == other.as_raw()
    }

    /// Dereferences the untagged pointer.
    ///
    /// # Safety
    /// The pointer must be non-null and protected by the active reclamation
    /// scheme (or otherwise known to be live).
    #[inline]
    pub unsafe fn deref<'a>(&self) -> &'a T {
        &*self.as_raw()
    }

    /// Dereferences if non-null.
    ///
    /// # Safety
    /// Same as [`Shared::deref`].
    #[inline]
    pub unsafe fn as_ref<'a>(&self) -> Option<&'a T> {
        self.as_raw().as_ref()
    }

    /// Reclaims the pointee, into this thread's [`pool`].
    ///
    /// # Safety
    /// The caller must be the unique owner of the pointee and it must not be
    /// accessed again.
    #[inline]
    pub unsafe fn drop_owned(self) {
        pool::release(self.as_raw());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::*;

    #[test]
    fn atomic_basic_ops() {
        let a = Atomic::new(42u64);
        let s = a.load(Relaxed);
        assert!(!s.is_null());
        assert_eq!(s.tag(), 0);
        assert_eq!(unsafe { *s.deref() }, 42);

        let t = s.with_tag(1);
        a.store(t, Relaxed);
        assert_eq!(a.load(Relaxed).tag(), 1);
        assert!(a.load(Relaxed).ptr_eq(s));

        unsafe {
            a.into_owned();
        }
    }

    #[test]
    fn cas_success_and_failure() {
        let a = Atomic::new(1u32);
        let cur = a.load(Relaxed);
        let next = Shared::from_owned(2u32);
        assert!(a.compare_exchange(cur, next, AcqRel, Acquire).is_ok());
        // stale CAS fails and reports current value
        let err = a
            .compare_exchange(cur, Shared::null(), AcqRel, Acquire)
            .unwrap_err();
        assert!(err.ptr_eq(next));
        unsafe {
            cur.drop_owned();
            a.into_owned();
        }
    }

    #[test]
    fn fetch_or_tag_marks() {
        let a = Atomic::new(7i64);
        let before = a.fetch_or_tag(crate::tagged::TAG_DELETED, AcqRel);
        assert_eq!(before.tag(), 0);
        assert_eq!(a.load(Relaxed).tag(), crate::tagged::TAG_DELETED);
        let before2 = a.fetch_or_tag(crate::tagged::TAG_INVALIDATED, AcqRel);
        assert_eq!(before2.tag(), crate::tagged::TAG_DELETED);
        assert_eq!(
            a.load(Relaxed).tag(),
            crate::tagged::TAG_DELETED | crate::tagged::TAG_INVALIDATED
        );
        unsafe {
            a.into_owned();
        }
    }

    #[test]
    fn null_atomic() {
        let a: Atomic<u64> = Atomic::null();
        assert!(a.load(Relaxed).is_null());
        assert!(unsafe { a.load(Relaxed).as_ref() }.is_none());
    }

    #[test]
    fn shared_roundtrip_usize() {
        let s = Shared::from_owned(5u128).with_tag(1);
        let w = s.into_usize();
        let s2 = Shared::<u128>::from_usize(w);
        assert_eq!(s, s2);
        unsafe { s.with_tag(0).drop_owned() };
    }
}
