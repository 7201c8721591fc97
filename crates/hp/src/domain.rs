//! A reclamation domain: the global hazard-slot list plus orphaned garbage.

use std::sync::atomic::{AtomicUsize, Ordering};

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
    /// Who can announce: one per live [`Thread`], plus one for good per
    /// direct [`hazard_pointer`](Domain::hazard_pointer). A reclaimer that
    /// reads 1 here is the only participant and skips its heavy fence
    /// (DESIGN.md §1.5).
    participants: AtomicUsize,
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
            participants: AtomicUsize::new(0),
        }
    }

    /// Registers the current thread.
    pub fn register(&'static self) -> Thread {
        Thread::new(self)
    }

    /// Acquires a hazard slot directly from the domain.
    ///
    /// Prefer [`Thread::hazard_pointer`], which caches released slots.
    /// Nothing tracks when a direct slot's user leaves, so the domain
    /// counts it as a participant for good: no reclaimer in it is ever
    /// alone again.
    pub fn hazard_pointer(&'static self) -> HazardPointer {
        self.join();
        HazardPointer::from_slot(self.hazards.acquire())
    }

    /// Counts a participant in before it can hold a slot. `AcqRel`: a
    /// reclaimer whose alone check ([`is_alone`](Domain::is_alone)) this
    /// RMW reads from happens-before everything the joiner does next.
    pub(crate) fn join(&self) {
        self.participants.fetch_add(1, Ordering::AcqRel);
    }

    /// Counts a [`Thread`] out at the very end of its teardown, after its
    /// slots are cleared: `Release` orders its last protection before any
    /// later alone check.
    pub(crate) fn leave(&self) {
        self.participants.fetch_sub(1, Ordering::Release);
    }

    /// The alone check: whether the calling thread, itself registered, is
    /// the domain's only participant. One `AcqRel` RMW, never a plain
    /// load: it must sit in the count's modification order, so a
    /// registration either precedes it (and it reads ≥ 2) or reads from it
    /// (and everything the caller did before it happens-before the new
    /// thread's first load).
    pub(crate) fn is_alone(&self) -> bool {
        self.participants.fetch_add(0, Ordering::AcqRel) == 1
    }

    /// Registered threads plus direct slots ever taken: a plain load, for
    /// deciding whether an idle reclaim is worth trying. It proves nothing;
    /// a reclaim's own alone check decides its fence.
    pub fn participants(&self) -> usize {
        self.participants.load(Ordering::Relaxed)
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

    /// Reclaims when the handle holds garbage and no other participant can
    /// announce: the scan then costs no heavy fence.
    fn collect_idle(handle: &mut Thread) -> bool {
        let worth = handle.retired_count() > 0 && handle.domain().participants() == 1;
        if worth {
            handle.reclaim();
        }
        worth
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
