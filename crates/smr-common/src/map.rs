//! The common map interface and the guard-based scheme abstraction.

use crate::atomic::Shared;
use crate::domain::SchemeDomain;

/// A guard-based protection for critical sections.
///
/// NR (no-op), EBR (epoch pin), PEBR (epoch pin + ejection) and Hyaline
/// (reference-counted batch handover) all protect *whole critical sections*
/// rather than individual pointers; concurrent data structures written
/// against this trait work with all four.
pub trait SchemeGuard {
    /// Hands a detached node to the scheme for eventual reclamation.
    ///
    /// # Safety
    /// `ptr` must be a live heap allocation that has been made unreachable
    /// from the data structure entry points, retired at most once, and never
    /// dereferenced by threads that start after this call.
    unsafe fn defer_destroy<T>(&self, ptr: Shared<T>);

    /// Whether this critical section is still valid.
    ///
    /// Always `true` for NR, EBR and Hyaline. For PEBR, returns `false` once the
    /// reclaimer has ejected this thread, after which the operation must stop
    /// dereferencing protected pointers and [`refresh`](Self::refresh).
    #[inline]
    fn validate(&self) -> bool {
        true
    }

    /// Ends the current critical section and starts a fresh one.
    ///
    /// After a failed [`validate`](Self::validate), call this before
    /// restarting the operation.
    fn refresh(&mut self);
}

/// A reclamation scheme whose protection unit is the critical section,
/// implemented by the scheme's domain type.
pub trait GuardedScheme: SchemeDomain<Handle: Send> {
    /// The critical-section guard, borrowing the handle.
    type Guard<'a>: SchemeGuard
    where
        Self: 'a;

    /// Registers the current thread with the scheme's default domain.
    fn handle() -> Self::Handle {
        Self::global().register()
    }

    /// Enters a critical section.
    fn pin(handle: &mut Self::Handle) -> Self::Guard<'_>;
}

/// A concurrent key-value map, the interface every benchmarked structure
/// implements (paper §5).
///
/// Operations take a per-thread `Handle` carrying scheme registration and any
/// hazard-pointer slots, so the hot path performs no thread-local lookups.
pub trait ConcurrentMap<K, V> {
    /// Per-thread operation state (scheme handle, hazard pointers, …).
    type Handle;

    /// Creates an empty map.
    fn new() -> Self;

    /// Creates a per-thread handle for operating on this map.
    fn handle(&self) -> Self::Handle;

    /// Returns a clone of the value bound to `key`, if present.
    fn get(&self, handle: &mut Self::Handle, key: &K) -> Option<V>;

    /// Inserts `key → value`; returns `false` if `key` was already present.
    fn insert(&self, handle: &mut Self::Handle, key: K, value: V) -> bool;

    /// Removes `key`, returning its value if it was present.
    fn remove(&self, handle: &mut Self::Handle, key: &K) -> Option<V>;
}
