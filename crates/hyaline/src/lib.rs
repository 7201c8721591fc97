//! Hyaline: snapshot-free memory reclamation with reference-counted batch
//! handover (Nikolaev & Ravindran, *Snapshot-Free, Transparent, and Robust
//! Memory Reclamation*; PAPERS.md).
//!
//! Epoch schemes decide *when* garbage is safe by advancing a global clock
//! and re-scanning every participant; hazard schemes decide by snapshotting
//! every announced pointer. Hyaline removes both: retired nodes accumulate
//! in a thread-local **batch**, and a handover links one batch node onto the
//! retirement list of every slot whose critical section could still reach
//! the batch. Each listed node is one reference; the **last leaver** of each
//! referenced slot frees the batch. Reclamation is driven entirely by
//! threads *leaving* critical sections — no global scan, no snapshot
//! allocation, no epoch to wedge.
//!
//! Two deliberate deviations from the paper, both documented in DESIGN.md
//! §1.11 and measured by the fault matrix:
//!
//! * Slots are exclusive (one per registered thread, refs ∈ {0,1}) rather
//!   than shared, which lets the slot word double as the list head so push
//!   and leave linearize on one CAS.
//! * Protection is per critical section (the workspace's [`GuardedScheme`]
//!   contract), not per access. A thread stalled *inside* a validated
//!   section pins garbage like a stalled EBR pin; a thread stalled
//!   *entering* (announced, unvalidated) is ejected by the next handover
//!   and pins nothing — the bound [`Domain`]'s
//!   [`SchemeDomain::garbage_bound`](smr_common::SchemeDomain::garbage_bound)
//!   derives and `smr_bench table1` gates.
//!
//! # Example
//!
//! ```
//! use smr_common::{Atomic, SchemeDomain, Shared};
//! use std::sync::atomic::Ordering::{AcqRel, Acquire};
//!
//! let mut handle = hyaline::default_domain().register();
//!
//! let slot = Atomic::new(41u64);
//! {
//!     let guard = handle.pin(); // critical section
//!     let old = slot.load(Acquire);
//!     assert_eq!(unsafe { *old.deref() }, 41);
//!
//!     // Swap in a new value and retire the old block.
//!     let fresh = Shared::from_owned(42u64);
//!     let prev = slot.swap(fresh, AcqRel);
//!     unsafe { guard.defer_destroy(prev) };
//!     // `old`/`prev` stay dereferenceable until every slot the batch was
//!     // handed to — ours included — leaves its critical section.
//!     assert_eq!(unsafe { *prev.deref() }, 41);
//! }
//! # unsafe { slot.into_owned(); }
//! ```

#![warn(missing_docs)]

mod domain;

pub use domain::{Domain, LocalHandle, TRIGGER};

use smr_common::GuardedScheme;

/// An active hyaline critical section: every batch handed over since its
/// enter holds a reference on this thread's slot, so no block retired after
/// the enter is freed while it lives.
pub type Guard<'a> = smr_common::guard::Guard<'a, LocalHandle>;

/// Returns the process-wide default domain.
pub fn default_domain() -> &'static Domain {
    static DEFAULT: Domain = Domain::new();
    &DEFAULT
}

/// Named fault-injection points compiled into this crate (each a
/// `smr_common::fault_point!` site; no-ops without the `fault-injection`
/// feature). DESIGN.md §1.11 documents the invariant each one attacks.
pub const FAULT_POINTS: &[&str] = &[
    "hyaline::enter::before_validate",
    "hyaline::retire::after_link",
    "hyaline::handover::before_traverse",
    "hyaline::handover::before_adjust",
    "hyaline::leave::before_decrement",
    "hyaline::teardown::before_donate",
];

/// Hyaline under its scheme name: the domain is its [`GuardedScheme`].
pub type Hyaline = Domain;

impl GuardedScheme for Domain {
    type Guard<'a> = Guard<'a>;

    fn pin(handle: &mut LocalHandle) -> Guard<'_> {
        handle.pin()
    }
}
