//! A reclamation domain: the global hazard-slot list plus orphaned garbage.

use smr_common::retired::Orphans;
use smr_common::Retired;

use crate::hazard::{HazardList, HazardPointer};
use crate::thread::Thread;

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

    /// Number of orphaned retired nodes awaiting adoption (diagnostics).
    pub fn orphan_count(&self) -> usize {
        self.orphans.len()
    }
}

/// The process-wide default domain.
pub fn default_domain() -> &'static Domain {
    static DEFAULT: Domain = Domain::new();
    &DEFAULT
}
