//! Small utilities shared by the scheme crates.

use std::ops::{Deref, DerefMut};

/// Pads and aligns a value to 128 bytes to avoid false sharing.
///
/// 128 rather than 64 because recent Intel parts prefetch cache-line pairs.
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value`.
    pub const fn new(value: T) -> Self {
        Self { value }
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// Hints the cache line holding `p` into this core's L1 ahead of a load.
///
/// A hint, not an access: it never dereferences `p`, orders nothing and
/// publishes nothing, so the load it runs ahead of keeps every ordering
/// its own `Ordering` gives it. On x86-64 it is one `prefetcht0`; on other
/// targets and under Miri it compiles to nothing.
#[inline(always)]
pub fn prefetch<T>(p: *const T) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: a prefetch cannot fault, whatever the address, and reads
    // nothing the program observes: it only moves a line between caches.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>());
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = p;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_alignment() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert!(std::mem::size_of::<CachePadded<u8>>() >= 128);
        let c = CachePadded::new(42u32);
        assert_eq!(*c, 42);
    }

    #[test]
    fn prefetch_never_dereferences() {
        let x = 7u64;
        prefetch(&x);
        prefetch(std::ptr::null::<u64>());
        prefetch(std::ptr::without_provenance::<u8>(usize::MAX));
        assert_eq!(x, 7);
    }
}
