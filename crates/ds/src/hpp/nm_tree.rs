//! Natarajan–Mittal external BST protected by HP++ — one of the paper's
//! headline applications (Table 2: HP ✗, HP++ ✓).
//!
//! The seek traverses flagged/tagged edges optimistically; every step is
//! protected with `try_protect` (failing only on invalidated sources), and
//! the cleanup's ancestor CAS goes through `try_unlink` with the promoted
//! sibling as frontier.

use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

use hp_plus::{try_protect, HazardPointer, Invalidate, Unlinked};
use smr_common::{Atomic, Backoff, ConcurrentMap, Shared};

use crate::guarded::nm_tree::{NmKey, Node as GNode};

// Edge bits (node alignment is 8, so three bits are available).
pub(crate) use crate::guarded::nm_tree::{FLAG, TAG};
/// Edge bit: the owning node has been invalidated by its unlinker (HP++).
pub(crate) const INVALID: usize = 0b100;

type Node<K, V> = GNode<K, V>;

unsafe impl<K, V> Invalidate for GNode<K, V> {
    unsafe fn invalidate(ptr: *mut Self) {
        // Helpers may concurrently fetch_or TAG bits on these edges, so use
        // an atomic RMW rather than the paper's plain-store optimization.
        let node = unsafe { &*ptr };
        node.left.fetch_or_tag(INVALID, AcqRel);
        node.right.fetch_or_tag(INVALID, AcqRel);
    }
}

fn node_is_invalid<K, V>(node: Shared<Node<K, V>>) -> bool {
    !node.is_null() && unsafe { node.deref() }.left.load(Acquire).tag() & INVALID != 0
}

/// Per-thread state: HP++ registration plus the four protection roles of
/// the NM seek (prev, cur, ancestor, successor).
pub struct Handle {
    thread: hp_plus::Thread,
    hp_prev: HazardPointer,
    hp_cur: HazardPointer,
    hp_ancestor: HazardPointer,
    hp_successor: HazardPointer,
}

/// Insert-retry stash: a preallocated internal node and its new leaf,
/// reused across CAS retries instead of reallocating.
type Stash<K, V> = Option<(Box<Node<K, V>>, Shared<Node<K, V>>)>;

impl Handle {
    /// Registers with the default HP++ domain.
    pub fn new() -> Self {
        let mut thread = hp_plus::default_domain().register();
        let hp_prev = thread.hazard_pointer();
        let hp_cur = thread.hazard_pointer();
        let hp_ancestor = thread.hazard_pointer();
        let hp_successor = thread.hazard_pointer();
        Self {
            thread,
            hp_prev,
            hp_cur,
            hp_ancestor,
            hp_successor,
        }
    }
}

impl Default for Handle {
    fn default() -> Self {
        Self::new()
    }
}

struct SeekRecord<K, V> {
    ancestor_edge: *const Atomic<Node<K, V>>,
    successor_word: Shared<Node<K, V>>,
    parent: Shared<Node<K, V>>,
    parent_edge: *const Atomic<Node<K, V>>,
    leaf_word: Shared<Node<K, V>>,
}

impl<K, V> SeekRecord<K, V> {
    fn leaf(&self) -> Shared<Node<K, V>> {
        self.leaf_word.with_tag(0)
    }
}

/// Protects the value of `edge` in `hp` and returns the full edge word
/// (tags included). `None` = source invalidated, restart.
fn protect_edge<K, V>(
    hp: &HazardPointer,
    edge: &Atomic<Node<K, V>>,
    src: Shared<Node<K, V>>,
) -> Option<Shared<Node<K, V>>> {
    let mut ptr = edge.load(Acquire).with_tag(0);
    loop {
        if !try_protect(hp, &mut ptr, edge, || node_is_invalid(src)) {
            return None;
        }
        let word = edge.load(Acquire);
        if word.with_tag(0) == ptr {
            return Some(word);
        }
        ptr = word.with_tag(0);
    }
}

/// Natarajan–Mittal external BST protected by HP++.
pub struct NMTree<K, V> {
    r: Box<Node<K, V>>,
}

unsafe impl<K: Send + Sync, V: Send + Sync> Send for NMTree<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for NMTree<K, V> {}

impl<K, V> NMTree<K, V>
where
    K: Ord + Clone,
    V: Clone,
{
    /// Creates an empty tree (sentinels only).
    pub fn new() -> Self {
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
        Self { r: Box::new(r) }
    }

    fn r_shared(&self) -> Shared<Node<K, V>> {
        Shared::from_raw(self.r.as_ref() as *const _ as *mut _)
    }

    /// Protected optimistic seek. `None` = protection failure, restart.
    fn try_seek(&self, key: &K, handle: &mut Handle) -> Option<SeekRecord<K, V>> {
        let key = NmKey::Fin(key.clone());
        let r = self.r_shared();

        let mut ancestor_edge: *const Atomic<Node<K, V>> = &self.r.left;
        let mut prev = r; // owner of parent_edge; protected (or sentinel)
        let mut parent_edge = ancestor_edge;
        // Protect S (the first cur). The R sentinel is never invalidated.
        let mut leaf_word = protect_edge(&handle.hp_cur, &self.r.left, r)?;
        let mut successor_word = leaf_word;
        handle.hp_ancestor.protect_raw(r.as_raw());
        handle
            .hp_successor
            .protect_raw(leaf_word.with_tag(0).as_raw());

        loop {
            let cur = leaf_word.with_tag(0);
            let cur_node = unsafe { cur.deref() };
            if cur_node.is_leaf() {
                break;
            }
            if leaf_word.tag() & TAG == 0 {
                ancestor_edge = parent_edge;
                successor_word = leaf_word;
                // Duplicate existing protections into the dedicated slots
                // (already-protected pointers need no validation).
                handle.hp_ancestor.protect_raw(prev.as_raw());
                handle.hp_successor.protect_raw(cur.as_raw());
            }
            let next_edge: *const Atomic<Node<K, V>> = if key < cur_node.key {
                &cur_node.left
            } else {
                &cur_node.right
            };
            // Descend: cur becomes prev.
            prev = cur;
            HazardPointer::swap(&mut handle.hp_prev, &mut handle.hp_cur);
            parent_edge = next_edge;
            leaf_word = protect_edge(&handle.hp_cur, unsafe { &*next_edge }, prev)?;
        }
        Some(SeekRecord {
            ancestor_edge,
            successor_word,
            parent: prev,
            parent_edge,
            leaf_word,
        })
    }

    fn seek(&self, key: &K, handle: &mut Handle) -> SeekRecord<K, V> {
        loop {
            if let Some(sr) = self.try_seek(key, handle) {
                return sr;
            }
        }
    }

    /// One cleanup attempt; the ancestor CAS goes through `try_unlink`
    /// (frontier = the promoted sibling).
    fn cleanup(&self, sr: &SeekRecord<K, V>, handle: &mut Handle) -> bool {
        let parent = unsafe { sr.parent.deref() };
        let left_w = parent.left.load(Acquire);
        let sib_edge = if left_w.tag() & FLAG != 0 {
            &parent.right
        } else {
            let right_w = parent.right.load(Acquire);
            if right_w.tag() & FLAG != 0 {
                &parent.left
            } else {
                return false;
            }
        };
        let sib_word = sib_edge.fetch_or_tag(TAG, AcqRel);
        let promoted = sib_word.with_tag(sib_word.tag() & FLAG);

        let ancestor_edge = sr.ancestor_edge;
        let successor_word = sr.successor_word;
        unsafe {
            handle.thread.try_unlink(&[promoted.with_tag(0)], || {
                unsafe { &*ancestor_edge }
                    .compare_exchange(successor_word, promoted, AcqRel, Acquire)
                    .ok()
                    .map(|_| {
                        // Collect the detached chain (frozen edges): each
                        // chain node plus its pendant flagged leaf, ending
                        // at the promoted sibling. A one-link chain — the
                        // common case — is exactly node + pendant and uses
                        // the allocation-free Pair variant.
                        let split = |m: Shared<Node<K, V>>| {
                            let node = unsafe { m.deref() };
                            let lw = node.left.load(Relaxed);
                            let rw = node.right.load(Relaxed);
                            // Both edges of the last chain node may be
                            // flagged (sibling deletes): the pendant is the
                            // flagged one that is not promoted.
                            if lw.tag() & FLAG != 0 && !lw.ptr_eq(promoted) {
                                (lw, rw)
                            } else {
                                (rw, lw)
                            }
                        };
                        let first = successor_word.with_tag(0);
                        let (pendant, continue_w) = split(first);
                        if continue_w.ptr_eq(promoted) {
                            return Unlinked::pair(first, pendant.with_tag(0));
                        }
                        let mut nodes = vec![first, pendant.with_tag(0)];
                        let mut m = continue_w.with_tag(0);
                        loop {
                            let (pendant, continue_w) = split(m);
                            nodes.push(m);
                            nodes.push(pendant.with_tag(0));
                            if continue_w.ptr_eq(promoted) {
                                break;
                            }
                            m = continue_w.with_tag(0);
                        }
                        Unlinked::new(nodes)
                    })
            })
        }
    }

    pub(crate) fn get_impl(&self, handle: &mut Handle, key: &K) -> Option<V> {
        let sr = self.seek(key, handle);
        let leaf = unsafe { sr.leaf().deref() };
        if leaf.key == NmKey::Fin(key.clone()) && sr.leaf_word.tag() & FLAG == 0 {
            leaf.value.clone()
        } else {
            None
        }
    }

    pub(crate) fn insert_impl(&self, handle: &mut Handle, key: K, value: V) -> bool {
        let mut stash: Stash<K, V> = None;
        let mut backoff = Backoff::new();
        loop {
            let sr = self.seek(&key, handle);
            let leaf = sr.leaf();
            let leaf_node = unsafe { leaf.deref() };
            if sr.leaf_word.tag() & (FLAG | TAG) != 0 {
                self.cleanup(&sr, handle);
                continue;
            }
            if leaf_node.key == NmKey::Fin(key.clone()) {
                if let Some((internal, new_leaf)) = stash.take() {
                    drop(internal);
                    unsafe { new_leaf.drop_owned() };
                }
                return false;
            }
            let (mut internal, new_leaf) = match stash.take() {
                Some(x) => x,
                None => {
                    let new_leaf =
                        Shared::from_owned(Node::leaf(NmKey::Fin(key.clone()), Some(value.clone())));
                    (
                        Box::new(Node {
                            key: NmKey::NegInf,
                            value: None,
                            left: Atomic::null(),
                            right: Atomic::null(),
                        }),
                        new_leaf,
                    )
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

    pub(crate) fn remove_impl(&self, handle: &mut Handle, key: &K) -> Option<V> {
        let mut backoff = Backoff::new();
        // Phase 1: injection.
        let (target_leaf, value) = loop {
            let sr = self.seek(key, handle);
            let leaf = sr.leaf();
            let leaf_node = unsafe { leaf.deref() };
            if leaf_node.key != NmKey::Fin(key.clone()) {
                return None;
            }
            if sr.leaf_word.tag() & FLAG != 0 {
                self.cleanup(&sr, handle);
                return None;
            }
            if sr.leaf_word.tag() & TAG != 0 {
                self.cleanup(&sr, handle);
                continue;
            }
            match unsafe { &*sr.parent_edge }.compare_exchange(
                sr.leaf_word,
                sr.leaf_word.with_tag(FLAG),
                AcqRel,
                Acquire,
            ) {
                Ok(_) => break (leaf, leaf_node.value.clone()),
                Err(_) => {
                    backoff.cas_failed();
                    continue;
                }
            }
        };

        // Phase 2: cleanup until physically detached.
        loop {
            let sr = self.seek(key, handle);
            if !sr.leaf().ptr_eq(target_leaf) {
                break;
            }
            self.cleanup(&sr, handle);
        }
        value
    }
}

impl<K: Ord + Clone, V: Clone> Default for NMTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Drop for NMTree<K, V> {
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

impl<K, V> ConcurrentMap<K, V> for NMTree<K, V>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    type Handle = Handle;

    fn new() -> Self {
        NMTree::new()
    }

    fn handle(&self) -> Handle {
        Handle::new()
    }

    fn get(&self, handle: &mut Handle, key: &K) -> Option<V> {
        self.get_impl(handle, key)
    }

    fn insert(&self, handle: &mut Handle, key: K, value: V) -> bool {
        self.insert_impl(handle, key, value)
    }

    fn remove(&self, handle: &mut Handle, key: &K) -> Option<V> {
        self.remove_impl(handle, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_utils;

    #[test]
    fn sequential_semantics() {
        test_utils::check_sequential::<NMTree<u64, u64>>();
    }

    #[test]
    fn concurrent_stress() {
        test_utils::check_concurrent::<NMTree<u64, u64>>(8, 1024);
    }

    #[test]
    fn striped() {
        test_utils::check_striped::<NMTree<u64, u64>>(4, 256);
    }

    #[test]
    fn heavy_churn_bounded_garbage() {
        let m: NMTree<u64, u64> = NMTree::new();
        let mut h = ConcurrentMap::handle(&m);
        for round in 0..300u64 {
            for k in 0..10 {
                ConcurrentMap::insert(&m, &mut h, k, round);
            }
            for k in 0..10 {
                ConcurrentMap::remove(&m, &mut h, &k);
            }
        }
        // The handle's own count: the process-global counters also move
        // with every sibling test running in parallel.
        let garbage = h.thread.garbage_count() as u64;
        assert!(
            garbage < 4 * hp_plus::RECLAIM_PERIOD as u64 + 256,
            "garbage grew unboundedly: {garbage}"
        );
    }
}
