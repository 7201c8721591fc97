//! NR — the no-reclamation baseline (paper §5).
//!
//! Detached nodes are counted as garbage and **leaked**. This is the
//! upper-bound baseline for throughput (no reclamation work at all) and the
//! lower bound for memory (garbage grows monotonically).

#![warn(missing_docs)]

use smr_common::{counters, GuardedScheme, SchemeDomain, SchemeGuard, Shared};

/// NR's domain, stateless since nothing is ever freed, and its
/// [`GuardedScheme`].
#[derive(Default)]
pub struct Nr;

/// The NR "guard": protection is vacuous because nothing is ever freed.
#[derive(Default)]
pub struct NrGuard;

impl SchemeGuard for NrGuard {
    unsafe fn defer_destroy<T>(&self, ptr: Shared<T>) {
        debug_assert!(!ptr.is_null());
        counters::incr_garbage(1);
        // Intentionally leaked.
    }

    fn refresh(&mut self) {}
}

impl GuardedScheme for Nr {
    type Guard<'a> = NrGuard;

    fn pin(_handle: &mut Self::Handle) -> NrGuard {
        NrGuard
    }
}

impl SchemeDomain for Nr {
    type Handle = ();
    const NAME: &'static str = "nr";

    fn global() -> &'static Nr {
        &Nr
    }

    fn register(&'static self) {}

    /// The leak is tracked only by the global counters.
    fn garbage(_handle: &()) -> usize {
        0
    }

    fn collect(_handle: &mut ()) {}

    fn orphans(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defer_destroy_leaks_and_counts() {
        let before = counters::total_retired();
        let g = Nr::pin(&mut ());
        unsafe { g.defer_destroy(Shared::from_owned(1u64)) };
        assert_eq!(counters::total_retired(), before + 1);
        assert!(g.validate());
    }
}
