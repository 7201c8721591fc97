//! HP++ — hazard pointers for optimistic traversal.
//!
//! This crate is the paper's core contribution (SPAA 2023, "Applying Hazard
//! Pointers to More Concurrent Data Structures"): a backward-compatible
//! *extension* of hazard pointers that supports data structures whose
//! traversal optimistically follows links out of logically deleted nodes
//! (Harris's list, Natarajan–Mittal trees, wait-free searches, …) — exactly
//! the structures the original HP cannot protect (§2.3).
//!
//! # The idea (§3.1)
//!
//! Original HP validates a protection by *over-approximating*
//! unreachability: "the source link changed or is marked ⇒ the target may be
//! retired ⇒ fail". HP++ inverts this. Unlinkers physically delete first and
//! **invalidate** the unlinked nodes afterwards, so invalidation
//! *under-approximates* unreachability, and validation only fails when the
//! source node is invalidated. The two use-after-free scenarios this opens
//! (Fig. 6) are **patched up** by the unlinker:
//!
//! 1. it invalidates *all* unlinked nodes before any of them is freed, and
//! 2. it protects the unlink **frontier** (the nodes reachable by one link
//!    from the unlinked chain) until the unlinked nodes are invalidated.
//!
//! # API
//!
//! * [`try_protect`] — Algorithm 3's `TryProtect`: announce, light fence,
//!   check the *source* is not invalidated, re-read the source link ignoring
//!   tags.
//! * [`Thread::try_unlink`] — Algorithm 3's `TryUnlink`: protect the
//!   frontier, run the unlink CAS, defer invalidation of the unlinked chain.
//! * [`Thread::do_invalidation`] / [`Thread::reclaim`] — Algorithm 5:
//!   batched invalidation with the **epoched heavy fence** optimization
//!   (§3.4) that piggybacks hazard-pointer revocation on other threads'
//!   fences.
//!
//! The crate extends — not modifies — the [`hp`] crate: protections made
//! with plain [`hp::HazardPointer::try_protect`] and retirements made with
//! [`Thread::retire`] interoperate, enabling the hybrid usage of §4.2.
//!
//! # Example: a two-node chain unlink, Harris style
//!
//! ```
//! use hp_plus::{try_protect, Invalidate};
//! use smr_common::{Atomic, Shared};
//! use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};
//!
//! struct Node {
//!     next: Atomic<Node>,
//!     value: u64,
//! }
//!
//! unsafe impl Invalidate for Node {
//!     unsafe fn invalidate(ptr: *mut Self) {
//!         // Bit 1 of the link marks the node invalidated; its links are
//!         // frozen once unlinked (Assumption 1), so a store suffices.
//!         let node = unsafe { &*ptr };
//!         let cur = node.next.load(Relaxed);
//!         node.next.store(cur.with_tag(cur.tag() | 2), Release);
//!     }
//! }
//!
//! let mut thread = hp_plus::default_domain().register();
//!
//! // Build head -> a -> b -> null.
//! let b = Shared::from_owned(Node { next: Atomic::null(), value: 2 });
//! let a = Shared::from_owned(Node { next: Atomic::from(b), value: 1 });
//! let head = Atomic::from(a);
//!
//! // A traversal protects `a` from the head link (a root is never invalid).
//! let hp = thread.hazard_pointer();
//! let mut cur = head.load(Acquire).with_tag(0);
//! assert!(try_protect(&hp, &mut cur, &head, || false));
//! assert_eq!(unsafe { cur.deref() }.value, 1);
//!
//! // An unlinker detaches the whole chain [a, b]; the frontier is empty
//! // (the chain's successor is null). The closure returns the detached
//! // nodes, here as an array.
//! let ok = unsafe {
//!     thread.try_unlink(&[], || {
//!         head.compare_exchange(a, Shared::null(), AcqRel, Acquire)
//!             .ok()
//!             .map(|_| [a, b])
//!     })
//! };
//! assert!(ok);
//!
//! // Flush invalidation + reclamation: `a` survives (protected), `b` goes.
//! thread.reclaim();
//! assert_eq!(unsafe { cur.deref() }.value, 1);
//! hp.reset();
//! thread.reclaim(); // now `a` is reclaimed too
//! ```

#![warn(missing_docs)]

mod domain;
mod thread;

#[cfg(test)]
mod tests;

pub use domain::{default_domain, Domain};
pub use hp::HazardPointer;
pub use thread::{Thread, Unlinked};

use smr_common::{fence, Atomic, Shared};
use std::sync::atomic::Ordering;

/// How many `try_unlink`s between deferred invalidation flushes (paper §5).
pub const INVALIDATE_PERIOD: usize = 32;
/// How many `try_unlink`s between reclamation attempts (paper §5).
pub const RECLAIM_PERIOD: usize = 128;

/// Named fault-injection points compiled into this crate (each a
/// `smr_common::fault_point!` site; no-ops without the `fault-injection`
/// feature). DESIGN.md §1.7 documents the invariant each one attacks.
pub const FAULT_POINTS: &[&str] = &[
    "hpp::try_unlink::after_frontier",
    "hpp::try_unlink::after_detach",
    "hpp::try_unlink::mid_invalidation",
    "hpp::reclaim::before_revoke",
];

/// A node type that can be invalidated by an HP++ unlinker.
///
/// Invalidation typically sets the second-lowest bit of the node's link
/// field with a plain store — safe because, per Assumption 1 of the paper,
/// an unlinked node's links no longer change.
///
/// # Safety
/// `invalidate` must make `is_invalid` return `true` for this node, and must
/// only touch the node itself.
pub unsafe trait Invalidate {
    /// Marks the node as invalidated (e.g. tags its next pointer).
    ///
    /// # Safety
    /// `ptr` must point to a live node that has been physically unlinked.
    unsafe fn invalidate(ptr: *mut Self);
}

/// Algorithm 3's `TryProtect`.
///
/// Announces `*ptr` on `hp` and validates it against `src_link`, the field
/// of the *source* node from which `*ptr` was loaded:
///
/// * returns `false` if the source is invalidated — the traversal must not
///   take further steps from it and should restart;
/// * returns `true` once the protection is validated. If `src_link` changed
///   in the meantime, `*ptr` is updated to the new (untagged) value — note
///   that **tags on `src_link` are ignored**, which is what permits
///   traversal through logically deleted nodes.
///
/// `is_invalid` is the invalidity check for the source node; pass
/// `|| false` when the source is the structure's root (never retired).
#[inline]
pub fn try_protect<T>(
    hp: &HazardPointer,
    ptr: &mut Shared<T>,
    src_link: &Atomic<T>,
    is_invalid: impl Fn() -> bool,
) -> bool {
    // Both ways out of the straight line — an invalidated source, a link
    // that moved under the announcement — are rare, and said to be: left to
    // its loop heuristics the compiler lays the retry edge out as the hot
    // one and a traversal pays two extra taken branches per node.
    loop {
        hp.protect_raw(ptr.as_raw());
        fence::light();
        if is_invalid() {
            std::hint::cold_path();
            hp.reset();
            return false;
        }
        let new = src_link.load(Ordering::Acquire).with_tag(0);
        if new == *ptr {
            return true;
        }
        std::hint::cold_path();
        *ptr = new;
    }
}
