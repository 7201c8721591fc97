//! Natarajan–Mittal lock-free external BST for guard-based schemes.
//!
//! Deletion is *edge-based*: a delete flags the edge to its leaf
//! (injection), tags the sibling edge to freeze it, and then swings the
//! *ancestor* edge to the sibling — detaching the whole chain of
//! pending-delete nodes in one CAS. Seeks traverse flagged/tagged edges
//! optimistically, which is exactly why the original HP cannot protect this
//! structure (paper §2.3, Table 2).

use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

use smr_common::{Atomic, Backoff, ConcurrentMap, GuardedScheme, SchemeGuard, Shared};

/// Edge bit: deletion of the pointed-to leaf is in progress (injection).
pub(crate) const FLAG: usize = 0b001;
/// Edge bit: the edge is frozen as a sibling edge of a pending delete.
pub(crate) const TAG: usize = 0b010;

/// Key space with the three sentinel infinities of the NM construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum NmKey<K> {
    /// Below every finite key (initial leaf of S).
    NegInf,
    /// A finite key.
    Fin(K),
    /// Above every finite key (S sentinel).
    Inf1,
    /// Above `Inf1` (R sentinel).
    Inf2,
}

/// Insert-retry stash: a preallocated internal node and its new leaf,
/// reused across CAS retries instead of reallocating.
type Stash<K, V> = Option<(Box<Node<K, V>>, Shared<Node<K, V>>)>;

impl<K: Ord> PartialOrd for NmKey<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord> Ord for NmKey<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        use NmKey::*;
        match (self, other) {
            (NegInf, NegInf) | (Inf1, Inf1) | (Inf2, Inf2) => Equal,
            (NegInf, _) => Less,
            (_, NegInf) => Greater,
            (Fin(a), Fin(b)) => a.cmp(b),
            (Fin(_), _) => Less,
            (_, Fin(_)) => Greater,
            (Inf1, Inf2) => Less,
            (Inf2, Inf1) => Greater,
        }
    }
}

pub(crate) struct Node<K, V> {
    pub(crate) key: NmKey<K>,
    pub(crate) value: Option<V>,
    pub(crate) left: Atomic<Node<K, V>>,
    pub(crate) right: Atomic<Node<K, V>>,
}

impl<K, V> Node<K, V> {
    pub(crate) fn leaf(key: NmKey<K>, value: Option<V>) -> Self {
        Self {
            key,
            value,
            left: Atomic::null(),
            right: Atomic::null(),
        }
    }

    pub(crate) fn is_leaf(&self) -> bool {
        self.left.load(Relaxed).is_null()
    }
}

/// The seek record (paper [48]): the ancestor edge heading the chain of
/// pending-delete nodes, and the parent edge to the terminal leaf.
pub(crate) struct SeekRecord<K, V> {
    /// Address of the last untagged edge on the path.
    pub(crate) ancestor_edge: *const Atomic<Node<K, V>>,
    /// Its value at observation time (heads the tagged chain).
    pub(crate) successor_word: Shared<Node<K, V>>,
    /// The parent node (owner of `parent_edge`).
    pub(crate) parent: Shared<Node<K, V>>,
    /// Address of the parent→leaf edge.
    pub(crate) parent_edge: *const Atomic<Node<K, V>>,
    /// Its value at observation time (flag bit included).
    pub(crate) leaf_word: Shared<Node<K, V>>,
}

impl<K, V> SeekRecord<K, V> {
    pub(crate) fn leaf(&self) -> Shared<Node<K, V>> {
        self.leaf_word.with_tag(0)
    }
}

/// Natarajan–Mittal external BST, guard-based flavor.
pub struct NMTree<K, V, S> {
    /// R sentinel (key `Inf2`).
    r: Box<Node<K, V>>,
    _marker: PhantomData<S>,
}

unsafe impl<K: Send + Sync, V: Send + Sync, S> Send for NMTree<K, V, S> {}
unsafe impl<K: Send + Sync, V: Send + Sync, S> Sync for NMTree<K, V, S> {}

impl<K, V, S> NMTree<K, V, S>
where
    K: Ord + Clone,
    V: Clone,
    S: GuardedScheme,
{
    /// Creates an empty tree (sentinels only).
    pub fn new() -> Self {
        // R(Inf2) { left: S(Inf1) { left: leaf(NegInf), right: leaf(Inf1) },
        //           right: leaf(Inf2) }
        let s = Node {
            key: NmKey::Inf1,
            value: None,
            left: Atomic::new(Node::leaf(NmKey::NegInf, None)),
            right: Atomic::new(Node::leaf(NmKey::Inf1, None)),
        };
        let r = Node {
            key: NmKey::Inf2,
            value: None,
            left: Atomic::new(s),
            right: Atomic::new(Node::leaf(NmKey::Inf2, None)),
        };
        Self {
            r: Box::new(r),
            _marker: PhantomData,
        }
    }

    /// Optimistic seek: traverses edges regardless of flags/tags, tracking
    /// the ancestor (last untagged edge) and the parent edge.
    fn seek(&self, key: &K) -> SeekRecord<K, V> {
        let key = NmKey::Fin(key.clone());
        let mut ancestor_edge: *const Atomic<Node<K, V>> = &self.r.left;
        let mut successor_word = unsafe { &*ancestor_edge }.load(Acquire);
        let mut parent: Shared<Node<K, V>> = Shared::from_raw(self.r.as_ref() as *const _ as *mut _);
        let mut parent_edge = ancestor_edge;
        let mut leaf_word = successor_word;

        loop {
            let cur = leaf_word.with_tag(0);
            debug_assert!(!cur.is_null());
            let cur_node = unsafe { cur.deref() };
            if cur_node.is_leaf() {
                break;
            }
            // Ancestor bookkeeping: the edge into cur is the candidate.
            if leaf_word.tag() & TAG == 0 {
                ancestor_edge = parent_edge;
                successor_word = leaf_word;
            }
            let next_edge: *const Atomic<Node<K, V>> = if key < cur_node.key {
                &cur_node.left
            } else {
                &cur_node.right
            };
            parent = cur;
            parent_edge = next_edge;
            leaf_word = unsafe { &*next_edge }.load(Acquire);
        }
        SeekRecord {
            ancestor_edge,
            successor_word,
            parent,
            parent_edge,
            leaf_word,
        }
    }

    /// One cleanup attempt for the pending delete under `sr.parent`.
    /// Returns whether the ancestor CAS succeeded (and retires the chain).
    fn cleanup(&self, sr: &SeekRecord<K, V>, guard: &S::Guard<'_>) -> bool {
        let parent = unsafe { sr.parent.deref() };
        let left_w = parent.left.load(Acquire);
        let (sib_edge, flagged) = if left_w.tag() & FLAG != 0 {
            (&parent.right, &parent.left)
        } else {
            let right_w = parent.right.load(Acquire);
            if right_w.tag() & FLAG != 0 {
                (&parent.left, &parent.right)
            } else {
                return false; // nothing to clean here (already done)
            }
        };
        let _ = flagged;
        // Freeze the sibling edge so its value can no longer change.
        let sib_word = sib_edge.fetch_or_tag(TAG, AcqRel);
        // Promote the sibling, preserving its flag, clearing the tag.
        let promoted = sib_word.with_tag(sib_word.tag() & FLAG);
        match unsafe { &*sr.ancestor_edge }.compare_exchange(
            sr.successor_word,
            promoted,
            AcqRel,
            Acquire,
        ) {
            Ok(_) => {
                // Retire the detached chain: every node from the successor
                // down has one flagged edge (a pendant deleted leaf) and one
                // tagged edge continuing the chain; stop at the promoted
                // sibling.
                unsafe { self.retire_chain(sr.successor_word.with_tag(0), promoted, guard) };
                true
            }
            Err(_) => false,
        }
    }

    /// # Safety
    /// Must only be called by the thread whose ancestor CAS detached the
    /// chain headed by `s`.
    unsafe fn retire_chain(
        &self,
        s: Shared<Node<K, V>>,
        promoted: Shared<Node<K, V>>,
        guard: &S::Guard<'_>,
    ) {
        let mut m = s;
        loop {
            let node = unsafe { m.deref() };
            debug_assert!(!node.is_leaf(), "chain nodes are internal");
            let lw = node.left.load(Relaxed);
            let rw = node.right.load(Relaxed);
            // Both edges of the last chain node may be flagged (sibling
            // deletes): the pendant is the flagged one that is not promoted.
            let (pendant, continue_w) = if lw.tag() & FLAG != 0 && !lw.ptr_eq(promoted) {
                (lw, rw)
            } else {
                debug_assert!(rw.tag() & FLAG != 0, "chain node lacks flagged edge");
                (rw, lw)
            };
            unsafe {
                guard.defer_destroy(pendant.with_tag(0));
                guard.defer_destroy(m);
            }
            if continue_w.ptr_eq(promoted) {
                break;
            }
            debug_assert!(continue_w.tag() & TAG != 0, "chain edge must be tagged");
            m = continue_w.with_tag(0);
        }
    }

    pub(crate) fn get_impl(&self, handle: &mut S::Handle, key: &K) -> Option<V> {
        let mut guard = S::pin(handle);
        loop {
            if !guard.validate() {
                guard.refresh();
                continue;
            }
            let sr = self.seek(key);
            if !guard.validate() {
                guard.refresh();
                continue;
            }
            let leaf = unsafe { sr.leaf().deref() };
            return if leaf.key == NmKey::Fin(key.clone()) && sr.leaf_word.tag() & FLAG == 0 {
                leaf.value.clone()
            } else {
                None
            };
        }
    }

    pub(crate) fn insert_impl(&self, handle: &mut S::Handle, key: K, value: V) -> bool {
        let mut guard = S::pin(handle);
        let mut stash: Stash<K, V> = None;
        let mut backoff = Backoff::new();
        loop {
            if !guard.validate() {
                guard.refresh();
                continue;
            }
            let sr = self.seek(&key);
            let leaf = sr.leaf();
            let leaf_node = unsafe { leaf.deref() };
            let is_same = leaf_node.key == NmKey::Fin(key.clone());
            if sr.leaf_word.tag() != 0 {
                // Dirty edge: a delete is pending here; help and retry.
                self.cleanup(&sr, &guard);
                continue;
            }
            if is_same {
                if let Some((internal, new_leaf)) = stash.take() {
                    drop(internal);
                    unsafe { new_leaf.drop_owned() };
                }
                return false;
            }
            // Build (or re-wire) the replacement internal node.
            let (mut internal, new_leaf) = match stash.take() {
                Some(x) => x,
                None => {
                    let new_leaf =
                        Shared::from_owned(Node::leaf(NmKey::Fin(key.clone()), Some(value.clone())));
                    let internal = Box::new(Node {
                        key: NmKey::NegInf, // patched below
                        value: None,
                        left: Atomic::null(),
                        right: Atomic::null(),
                    });
                    (internal, new_leaf)
                }
            };
            let new_key = NmKey::Fin(key.clone());
            if new_key < leaf_node.key {
                internal.key = leaf_node.key.clone();
                internal.left.store_mut(new_leaf);
                internal.right.store_mut(leaf);
            } else {
                internal.key = new_key;
                internal.left.store_mut(leaf);
                internal.right.store_mut(new_leaf);
            }
            let internal_ptr = Shared::from_raw(Box::into_raw(internal));
            match unsafe { &*sr.parent_edge }.compare_exchange(
                sr.leaf_word,
                internal_ptr,
                AcqRel,
                Acquire,
            ) {
                Ok(_) => return true,
                Err(_) => {
                    let internal = unsafe { Box::from_raw(internal_ptr.as_raw()) };
                    stash = Some((internal, new_leaf));
                    backoff.cas_failed();
                }
            }
        }
    }

    pub(crate) fn remove_impl(&self, handle: &mut S::Handle, key: &K) -> Option<V> {
        let mut guard = S::pin(handle);
        let mut backoff = Backoff::new();
        // Phase 1: injection.
        let (target_leaf, value) = loop {
            if !guard.validate() {
                guard.refresh();
                continue;
            }
            let sr = self.seek(key);
            let leaf = sr.leaf();
            let leaf_node = unsafe { leaf.deref() };
            if leaf_node.key != NmKey::Fin(key.clone()) {
                return None;
            }
            if sr.leaf_word.tag() & FLAG != 0 {
                // Another delete owns this leaf; help it along and report
                // absent (that delete linearized first).
                self.cleanup(&sr, &guard);
                return None;
            }
            if sr.leaf_word.tag() & TAG != 0 {
                // Our leaf is a frozen sibling; help the neighbour's delete.
                self.cleanup(&sr, &guard);
                continue;
            }
            match unsafe { &*sr.parent_edge }.compare_exchange(
                sr.leaf_word,
                sr.leaf_word.with_tag(FLAG),
                AcqRel,
                Acquire,
            ) {
                Ok(_) => {
                    let v = leaf_node.value.clone();
                    break (leaf, v);
                }
                Err(_) => {
                    backoff.cas_failed();
                    continue;
                }
            }
        };

        // Phase 2: cleanup until the leaf is physically detached.
        loop {
            if !guard.validate() {
                guard.refresh();
                continue;
            }
            let sr = self.seek(key);
            if !sr.leaf().ptr_eq(target_leaf) {
                break; // someone (maybe us) finished the removal
            }
            self.cleanup(&sr, &guard);
        }
        value
    }
}

impl<K, V, S> Default for NMTree<K, V, S>
where
    K: Ord + Clone,
    V: Clone,
    S: GuardedScheme,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S> Drop for NMTree<K, V, S> {
    fn drop(&mut self) {
        fn free_rec<K, V>(edge: Shared<Node<K, V>>) {
            if edge.is_null() {
                return;
            }
            let node = unsafe { Box::from_raw(edge.with_tag(0).as_raw()) };
            free_rec(node.left.load(Relaxed));
            free_rec(node.right.load(Relaxed));
        }
        free_rec(self.r.left.load(Relaxed));
        free_rec(self.r.right.load(Relaxed));
        self.r.left.store_mut(Shared::null());
        self.r.right.store_mut(Shared::null());
    }
}

impl<K, V, S> ConcurrentMap<K, V> for NMTree<K, V, S>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    S: GuardedScheme,
{
    type Handle = S::Handle;

    fn new() -> Self {
        NMTree::new()
    }

    fn handle(&self) -> S::Handle {
        S::handle()
    }

    fn get(&self, handle: &mut S::Handle, key: &K) -> Option<V> {
        self.get_impl(handle, key)
    }

    fn insert(&self, handle: &mut S::Handle, key: K, value: V) -> bool {
        self.insert_impl(handle, key, value)
    }

    fn remove(&self, handle: &mut S::Handle, key: &K) -> Option<V> {
        self.remove_impl(handle, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_utils;

    #[test]
    fn sequential_semantics_ebr() {
        test_utils::check_sequential::<NMTree<u64, u64, ebr::Ebr>>();
    }

    #[test]
    fn sequential_semantics_nr() {
        test_utils::check_sequential::<NMTree<u64, u64, nr::Nr>>();
    }

    #[test]
    fn concurrent_stress_ebr() {
        test_utils::check_concurrent::<NMTree<u64, u64, ebr::Ebr>>(8, 1024);
    }

    #[test]
    fn concurrent_stress_pebr() {
        test_utils::check_concurrent::<NMTree<u64, u64, pebr::Pebr>>(8, 512);
    }

    #[test]
    fn striped_ebr() {
        test_utils::check_striped::<NMTree<u64, u64, ebr::Ebr>>(4, 256);
    }

    #[test]
    fn interleaved_insert_delete_same_key() {
        let m: NMTree<u64, u64, ebr::Ebr> = NMTree::new();
        let mut h = ConcurrentMap::handle(&m);
        for i in 0..100 {
            assert!(ConcurrentMap::insert(&m, &mut h, 42, i));
            assert_eq!(ConcurrentMap::get(&m, &mut h, &42), Some(i));
            assert_eq!(ConcurrentMap::remove(&m, &mut h, &42), Some(i));
            assert_eq!(ConcurrentMap::get(&m, &mut h, &42), None);
        }
    }
}
