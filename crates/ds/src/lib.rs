//! The benchmark data-structure suite (paper §5).
//!
//! Every structure implements [`smr_common::ConcurrentMap`] and is written
//! **once**, as generic code over a crate-private protection step
//! (`protect.rs`: how a traversal step is made safe, how a detaching CAS
//! hands its nodes over); the three families below are that step's three
//! implementations, exported as type aliases:
//!
//! * [`guarded`] — any [`smr_common::GuardedScheme`]: NR, EBR, PEBR,
//!   Hyaline (ejection checks are injected through the guard's
//!   `validate()` hook).
//! * [`hp`] — the original hazard pointers with hand-over-hand validated
//!   protection (careful traversal only; §2.2).
//! * [`hpp`] — HP++ protection with optimistic traversal (`try_protect` /
//!   `try_unlink`; §3).
//! * [`cdrc`] — concurrent deferred reference counting (`Rc`/`AtomicRc`),
//!   separate code: count transfers are not a protection step.
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
//! protect optimistic traversal (HHSList, NMTree — §2.3; in the code, the
//! careful protection step does not implement the `Optimistic` marker those
//! traversals require), and the paper omits the RC trees as well.
//!
//! The stacks and queues are *bags*, not maps; [`bag::BagMap`] adapts them
//! to the [`ConcurrentMap`] interface so the bench runner can drive them.

#![warn(missing_docs)]

pub mod bag;
pub mod cdrc;
pub mod guarded;
pub mod hash_map;
pub mod hp;
pub mod hpp;
// The single implementations behind the family aliases. Their types are
// public so the aliases can name them, but only the aliases are exported.
mod bonsai;
mod bonsai_core;
mod efrb_tree;
mod list;
mod nm_tree;
mod protect;
mod queue;
mod skip_list;
mod stack;

pub use smr_common::{ConcurrentMap, GuardedScheme, SchemeGuard};

use smr_common::SchemeDomain;

/// A map over an explicit scheme domain (one per KV shard, say), whose
/// [`handle_in`](Self::handle_in) handles register there. So do
/// [`ConcurrentMap::handle`]'s, except under the [`guarded`] family, whose
/// lists keep no domain (a bucket stays one word).
pub trait InDomain<K, V>: ConcurrentMap<K, V> {
    /// The scheme domain.
    type Domain: SchemeDomain;

    /// An empty map over `domain`.
    fn new_in(domain: &'static Self::Domain) -> Self;

    /// Registers the calling thread with `domain`.
    fn handle_in(domain: &'static Self::Domain) -> Self::Handle;
}

/// Named fault-injection points compiled into this crate (each a
/// `smr_common::fault_point!` site; no-ops without the `fault-injection`
/// feature). DESIGN.md §1.7 documents the invariant each one attacks.
pub const FAULT_POINTS: &[&str] = &[
    "ds::guarded::traverse::validate",
    "ds::careful::protect::after_announce",
    "ds::hpp::protect::after_announce",
    "ds::skiplist::insert::before_level_link",
    "ds::efrb::help_insert::before_child_cas",
];

#[cfg(test)]
mod battery;
#[cfg(test)]
mod edge_tests;
