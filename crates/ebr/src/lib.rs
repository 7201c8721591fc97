//! Epoch-based reclamation (EBR), built from scratch.
//!
//! This is the workspace's implementation of the classic Fraser/Harris
//! epoch-based scheme (the paper used `crossbeam-epoch`; we implement the
//! same algorithm in-tree so the entire substrate is auditable):
//!
//! * A global epoch counter advances when every *pinned* participant has
//!   observed the current epoch.
//! * Threads **pin** before touching shared nodes and **unpin** when done;
//!   a pinned thread protects every block that was not retired before its
//!   pin.
//! * Retired blocks are stamped with the epoch at retirement and freed once
//!   the global epoch is two ahead — by then no pinned thread can still hold
//!   a reference.
//!
//! EBR is fast and universally applicable but **not robust**: one stalled
//! pinned thread stops the epoch and garbage grows without bound (paper
//! §2.4). The benchmark harness measures exactly this.
//!
//! The collector is [`smr_common::epoch`]'s, shared with PEBR and built to
//! compete with `crossbeam-epoch` (DESIGN.md §1.6); this crate supplies its
//! [`Marker`]: the name, [`TRIGGER`], no ejection, and the fault points.
//!
//! # Example
//!
//! ```
//! use smr_common::{Atomic, SchemeDomain, Shared};
//! use std::sync::atomic::Ordering::{AcqRel, Acquire};
//!
//! let mut handle = ebr::default_collector().register();
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
//!     // `old`/`prev` stay dereferenceable until the guard drops and two
//!     // epochs pass.
//!     assert_eq!(unsafe { *prev.deref() }, 41);
//! }
//! # unsafe { slot.into_owned(); }
//! ```

#![warn(missing_docs)]

use smr_common::epoch::{self, FaultPoints};
use smr_common::policy::Capped;

/// EBR's collection trigger: `bags.len() ≥ max(128, 8 · participants)`.
///
/// Each collection traverses the whole registry, so the trigger grows as
/// `k · participants` to keep the traversal cost per retire O(k⁻¹) — the
/// epoch analogue of HP's `R = k·H` rule; the floor keeps collections
/// amortized at low thread counts.
pub const TRIGGER: Capped = Capped { floor: 128, k: 8 };

/// Named fault-injection points compiled into this crate (each a
/// `smr_common::fault_point!` site; no-ops without the `fault-injection`
/// feature). DESIGN.md §1.7 documents the invariant each one attacks.
pub const FAULT_POINTS: &[&str] = &[
    "ebr::pin::before_validate",
    "ebr::defer::after_push",
    "ebr::advance::before_traverse",
    "ebr::advance::before_publish",
    "ebr::collect::after_adopt",
    "ebr::teardown::before_donate",
];

/// EBR's [`epoch::Scheme`]: an epoch collector that never ejects.
pub enum Marker {}

impl epoch::Scheme for Marker {
    const NAME: &'static str = "ebr";
    const TRIGGER: Capped = TRIGGER;
    const EJECT: Option<usize> = None;
    const FAULTS: FaultPoints = FaultPoints {
        pin_before_validate: Some(FAULT_POINTS[0]),
        retire_after_push: Some(FAULT_POINTS[1]),
        advance_before_traverse: Some(FAULT_POINTS[2]),
        advance_before_publish: Some(FAULT_POINTS[3]),
        collect_after_adopt: Some(FAULT_POINTS[4]),
        eject_after_mark: None,
        teardown_before_donate: Some(FAULT_POINTS[5]),
    };

    fn global() -> &'static Collector {
        default_collector()
    }
}

/// The global side of an EBR instance.
pub type Collector = epoch::Collector<Marker>;

/// A thread's registration with a [`Collector`].
///
/// The [`CriticalSection`](smr_common::guard::CriticalSection) trait
/// declares its methods `unsafe` for every scheme: only the guard calls
/// them, so safe code cannot walk the registry unpinned:
///
/// ```compile_fail,E0133
/// use smr_common::{guard::CriticalSection, SchemeDomain};
/// let mut h = ebr::default_collector().register();
/// h.collect();
/// ```
pub type LocalHandle = epoch::LocalHandle<Marker>;

/// An active EBR critical section: no block retired after its pin is freed
/// while it lives.
pub type Guard<'a> = smr_common::guard::Guard<'a, LocalHandle>;

/// EBR under its scheme name: the collector is its
/// [`GuardedScheme`](smr_common::GuardedScheme).
pub type Ebr = Collector;

/// Returns the process-wide default collector.
pub fn default_collector() -> &'static Collector {
    static DEFAULT: Collector = Collector::new();
    &DEFAULT
}
