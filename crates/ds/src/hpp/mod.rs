//! Data structures protected by HP++ (the paper's §3).
//!
//! These traverse optimistically: protection (`hp_plus::try_protect`) only
//! fails when the *source* node has been invalidated by an unlinker, so
//! logically deleted nodes are traversed right through — the behavior the
//! original HP cannot support. Physical deletion goes through
//! `hp_plus::Thread::try_unlink`, which protects the unlink frontier and
//! defers invalidation.

mod bonsai;
mod hhs_list;
mod hm_list;
mod nm_tree;
mod stack;

pub use bonsai::{BonsaiTree, Handle as BonsaiHandle};
pub use hhs_list::HHSList;
pub use hm_list::HMList;
pub use nm_tree::{Handle as NMTreeHandle, NMTree};
pub use stack::{StackHandle, TreiberStack};

use hp_plus::{HazardPointer, Invalidate};
use smr_common::tagged::{TAG_DELETED, TAG_INVALIDATED};
use smr_common::{Atomic, Shared};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};

/// Chaining hash map over HP++ HHSList buckets (paper §5).
pub type HashMap<K, V> = crate::hash_map::HashMap<K, V, HHSList<K, V>>;

/// Builds a [`HashMap`] whose buckets all retire into `domain`, so the
/// map's garbage is fully charged to that domain (one domain per KV shard).
pub fn hash_map_in<K, V>(domain: &'static hp_plus::Domain, buckets: usize) -> HashMap<K, V>
where
    K: Ord + std::hash::Hash + Send + Sync,
    V: Clone + Send + Sync,
{
    crate::hash_map::HashMap::with_buckets_by(buckets, || HHSList::new_in(domain))
}

/// Skiplist under HP++ in *hybrid* mode (§4.2): the multi-level find is
/// inherently careful, so it reuses the HP-style validated protection and
/// the plain retirement path of `hp_plus::Thread`. See DESIGN.md for why
/// the wait-free-get variant is not reproduced.
pub type SkipList<K, V> = crate::hp::skip_list::SkipList<K, V, hp_plus::Thread>;

/// Ellen et al. tree under HP++ in *hybrid* mode (§4.2): EFRB needs no
/// optimistic traversal (HP already supports it), so HP++ adds nothing but
/// its domain — the paper measures HP++ at 80-90% of HP here.
pub type EFRBTree<K, V> = crate::hp::efrb_tree::EFRBTree<K, V, hp_plus::Thread>;

/// List node shared by the HP++ list flavors.
///
/// Bit 0 of `next` is the logical deletion mark, bit 1 the HP++
/// invalidation mark.
pub(crate) struct Node<K, V> {
    pub(crate) next: Atomic<Node<K, V>>,
    pub(crate) key: K,
    pub(crate) value: V,
}

impl<K, V> Node<K, V> {
    pub(crate) fn is_invalid(&self) -> bool {
        self.next.load(Acquire).tag() & TAG_INVALIDATED != 0
    }
}

unsafe impl<K, V> Invalidate for Node<K, V> {
    unsafe fn invalidate(ptr: *mut Self) {
        // A plain store suffices: the node is unlinked, so its link no
        // longer changes (Assumption 1).
        let node = unsafe { &*ptr };
        let cur = node.next.load(Relaxed);
        node.next
            .store(cur.with_tag(cur.tag() | TAG_INVALIDATED), Release);
    }
}

/// Per-thread state for the HP++ lists: HP++ registration plus the four
/// hazard pointers of Algorithm 4 (`hp_prev`, `hp_cur`, `hp_anchor`,
/// `hp_anchor_next`).
pub struct Handle {
    pub(crate) thread: hp_plus::Thread,
    pub(crate) hp_prev: HazardPointer,
    pub(crate) hp_cur: HazardPointer,
    pub(crate) hp_anchor: HazardPointer,
    pub(crate) hp_anchor_next: HazardPointer,
}

impl Handle {
    /// Registers with the default HP++ domain.
    pub fn new() -> Self {
        Self::new_in(hp_plus::default_domain())
    }

    /// Registers with an explicit HP++ domain. Structures that carry their
    /// own reclamation domain (one per KV shard, say) hand it in here so
    /// garbage pressure and collector stalls stay inside that domain.
    pub fn new_in(domain: &'static hp_plus::Domain) -> Self {
        let mut thread = domain.register();
        let hp_prev = thread.hazard_pointer();
        let hp_cur = thread.hazard_pointer();
        let hp_anchor = thread.hazard_pointer();
        let hp_anchor_next = thread.hazard_pointer();
        Self {
            thread,
            hp_prev,
            hp_cur,
            hp_anchor,
            hp_anchor_next,
        }
    }

    /// Unreclaimed blocks charged to this handle's thread: retired bags
    /// plus unlinked batches still awaiting deferred invalidation.
    pub fn garbage_count(&self) -> usize {
        self.thread.garbage_count()
    }

    /// Forces an invalidation + reclamation pass now (normally triggered
    /// every `RECLAIM_PERIOD` unlinks).
    pub fn reclaim(&mut self) {
        self.thread.reclaim()
    }

    pub(crate) fn reset(&mut self) {
        self.hp_prev.reset();
        self.hp_cur.reset();
        self.hp_anchor.reset();
        self.hp_anchor_next.reset();
    }
}

impl Default for Handle {
    fn default() -> Self {
        Self::new()
    }
}

/// `is_invalid` predicate for a traversal source: the list head (null
/// source) is never invalid.
pub(crate) fn src_is_invalid<K, V>(src: Shared<Node<K, V>>) -> bool {
    !src.is_null() && unsafe { src.deref() }.is_invalid()
}

/// Helper: the logical-deletion bit of a loaded link.
pub(crate) fn is_marked(tag: usize) -> bool {
    tag & TAG_DELETED != 0
}
