//! The benchmark data-structure suite (paper §5).
//!
//! Every structure implements [`smr_common::ConcurrentMap`] and comes in up
//! to three flavors, mirroring how the paper applies each reclamation
//! scheme:
//!
//! * [`guarded`] — generic over [`smr_common::GuardedScheme`], usable with
//!   NR, EBR, and PEBR (ejection checks are injected through the guard's
//!   `validate()` hook).
//! * [`hp`] — the original hazard pointers with hand-over-hand validated
//!   protection (careful traversal only; §2.2).
//! * [`hpp`] — HP++ protection with optimistic traversal (`try_protect` /
//!   `try_unlink`; §3).
//! * [`cdrc`] — concurrent deferred reference counting (`Rc`/`AtomicRc`).
//!
//! | structure | guarded | hp | hpp | cdrc |
//! |---|---|---|---|---|
//! | `HMList` (Harris–Michael) | ✓ | ✓ | ✓ | ✓ |
//! | `HHSList` (Harris + wait-free get) | ✓ | — | ✓ | ✓ |
//! | `HashMap` (chaining) | ✓ | ✓ | ✓ | ✓ |
//! | `SkipList` | ✓ | ✓ | ✓ (hybrid) | — |
//! | `NMTree` (Natarajan–Mittal) | ✓ | — | ✓ | — |
//! | `EFRBTree` (Ellen et al.) | ✓ | ✓ | ✓ (hybrid) | — |
//! | `BonsaiTree` (COW path-copy) | ✓ | ✓ | ✓ | — |
//! | `TreiberStack` | — | ✓ | ✓ | — |
//! | `MSQueue` | ✓ | ✓ | — | — |
//!
//! The missing cells are the paper's inapplicability results: HP cannot
//! protect optimistic traversal (HHSList, NMTree — §2.3), and the paper
//! omits the RC trees as well.
//!
//! The stacks and queues are *bags*, not maps; [`bag::BagMap`] adapts them
//! to the [`ConcurrentMap`] interface so the bench runner can drive them.

#![warn(missing_docs)]
// Closures passed to `try_unlink` sit inside an outer `unsafe` call yet keep
// their own `unsafe` blocks for readability; silence the resulting lint.
#![allow(unused_unsafe)]

pub mod bag;
pub(crate) mod bonsai_core;
pub mod cdrc;
pub mod guarded;
pub mod hash_map;
pub mod hp_family;
pub mod hp;
pub mod hpp;

pub use smr_common::{ConcurrentMap, GuardedScheme, SchemeGuard};

/// Named fault-injection points compiled into this crate (each a
/// `smr_common::fault_point!` site; no-ops without the `fault-injection`
/// feature). DESIGN.md §1.7 documents the invariant each one attacks.
pub const FAULT_POINTS: &[&str] = &["ds::guarded::traverse::validate"];

#[cfg(test)]
mod edge_tests;
#[cfg(test)]
pub(crate) mod test_utils;
