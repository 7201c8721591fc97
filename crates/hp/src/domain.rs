//! A reclamation domain: the global hazard-slot list plus orphaned garbage.

use smr_common::retired::Orphans;
use smr_common::{Retired, SchemeDomain};

use crate::hazard::{HazardList, HazardPointer};
use crate::thread::Thread;
use crate::TRIGGER;

/// The global side of an HP instance.
///
/// Data structures sharing a domain share hazard slots and scans; the
/// process-wide [`default_domain`] is what applications normally use.
pub struct Domain {
    pub(crate) hazards: HazardList,
    /// Retired nodes abandoned by exited threads; adopted by reclaimers.
    pub(crate) orphans: Orphans<Retired>,
}

impl Default for Domain {
    fn default() -> Self {
        Self::new()
    }
}

impl Domain {
    /// Creates an independent domain (tests; benchmarks isolating schemes).
    pub const fn new() -> Self {
        Self {
            hazards: HazardList::new(),
            orphans: Orphans::new(),
        }
    }

    /// Registers the current thread.
    pub fn register(&'static self) -> Thread {
        Thread::new(self)
    }

    /// Acquires a hazard slot directly from the domain.
    ///
    /// Prefer [`Thread::hazard_pointer`], which caches released slots.
    pub fn hazard_pointer(&'static self) -> HazardPointer {
        HazardPointer::from_slot(self.hazards.acquire())
    }

    /// Snapshot of every currently announced pointer (unsorted).
    pub fn protected_words(&self) -> Vec<usize> {
        let mut v = Vec::new();
        self.hazards.collect_protected(&mut v);
        v
    }

    /// Number of hazard slots allocated so far (O(1)).
    pub fn slot_capacity(&self) -> usize {
        self.hazards.capacity()
    }
}

impl SchemeDomain for Domain {
    type Handle = Thread;
    const NAME: &'static str = "hp";

    fn global() -> &'static Domain {
        default_domain()
    }

    fn register(&'static self) -> Thread {
        Domain::register(self)
    }

    fn garbage(handle: &Thread) -> usize {
        handle.retired_count()
    }

    fn collect(handle: &mut Thread) {
        handle.reclaim();
    }

    fn orphans(&self) -> usize {
        self.orphans.len()
    }

    /// Michael's bound: a thread's bag never exceeds [`TRIGGER`]`.bound(H)`
    /// = `k·H + floor` for the `H` hazard slots allocated so far — the
    /// trigger is the max of the two terms, the bound their sum.
    fn garbage_bound(&self, threads: usize) -> Option<usize> {
        Some(threads * TRIGGER.bound(self.slot_capacity()))
    }
}

/// The process-wide default domain.
pub fn default_domain() -> &'static Domain {
    static DEFAULT: Domain = Domain::new();
    &DEFAULT
}
