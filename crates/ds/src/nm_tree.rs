//! The Natarajan–Mittal lock-free external BST, written once — one of the
//! paper's headline applications (Table 2: HP ✗, HP++ ✓).
//!
//! Deletion is *edge-based*: a delete flags the edge to its leaf
//! (injection), tags the sibling edge to freeze it, and then swings the
//! *ancestor* edge to the sibling — detaching the whole chain of
//! pending-delete nodes in one CAS, with the promoted sibling as frontier.
//! Seeks traverse flagged/tagged edges optimistically, which is exactly why
//! the protection family must be [`Optimistic`]: the original HP cannot
//! protect this structure (paper §2.3).

use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

use smr_common::{Atomic, Backoff, ConcurrentMap, Shared};

use crate::protect::{self, Optimistic, Protect};

// Edge bits (node alignment is 8, so three bits are available).
/// Deletion of the pointed-to leaf is in progress (injection).
const FLAG: usize = 0b001;
/// The edge is frozen as a sibling edge of a pending delete.
const TAG: usize = 0b010;
/// The owning node has been invalidated by its unlinker (HP++).
const INVALID: usize = 0b100;

// Hazard roles of the seek.
const PREV: usize = 0;
const CUR: usize = 1;
const ANCESTOR: usize = 2;
const SUCCESSOR: usize = 3;

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

struct Node<K, V> {
    key: NmKey<K>,
    value: Option<V>,
    left: Atomic<Node<K, V>>,
    right: Atomic<Node<K, V>>,
}

impl<K, V> Node<K, V> {
    fn leaf(key: NmKey<K>, value: Option<V>) -> Self {
        Self {
            key,
            value,
            left: Atomic::null(),
            right: Atomic::null(),
        }
    }

    fn is_leaf(&self) -> bool {
        self.left.load(Relaxed).is_null()
    }
}

// SAFETY: sets the bit `is_invalid` reads, in the node's own edges.
unsafe impl<K, V> protect::Invalidate for Node<K, V> {
    unsafe fn invalidate(ptr: *mut Self) {
        // SAFETY: the caller passes a live, unlinked node.
        let node = unsafe { &*ptr };
        // Helpers may concurrently fetch_or TAG bits on these edges, so use
        // an atomic RMW rather than the paper's plain-store optimization.
        node.left.fetch_or_tag(INVALID, AcqRel);
        node.right.fetch_or_tag(INVALID, AcqRel);
    }
}

impl<K, V> protect::Node for Node<K, V> {
    const INVALID_TAG: usize = INVALID;

    fn is_invalid(&self) -> bool {
        self.left.load(Acquire).tag() & INVALID != 0
    }
}

/// Insert-retry stash: a preallocated internal node and its new leaf,
/// neither shared yet, reused across CAS retries instead of reallocating.
type Stash<K, V> = Option<(Shared<Node<K, V>>, Shared<Node<K, V>>)>;

/// The seek record (paper [48]): the ancestor edge heading the chain of
/// pending-delete nodes, and the parent edge to the terminal leaf.
struct SeekRecord<K, V> {
    /// Address of the last untagged edge on the path.
    ancestor_edge: *const Atomic<Node<K, V>>,
    /// Its value at observation time (heads the tagged chain).
    successor_word: Shared<Node<K, V>>,
    /// The parent node (owner of `parent_edge`).
    parent: Shared<Node<K, V>>,
    /// Address of the parent→leaf edge.
    parent_edge: *const Atomic<Node<K, V>>,
    /// Its value at observation time (flag bit included).
    leaf_word: Shared<Node<K, V>>,
}

impl<K, V> SeekRecord<K, V> {
    fn leaf(&self) -> Shared<Node<K, V>> {
        self.leaf_word.with_tag(0)
    }
}

/// Protects the target of `edge`, a field of a protected node, under
/// `slot` and returns an edge word (tags included) whose pointer part is the
/// protected node. `None` = restart.
///
/// The tags are the ones read *with* the pointer, before the protection
/// held, so they may be older than it — as any tag is by the time it is
/// used. Every decision taken on them is confirmed by a CAS that expects
/// the whole word, or is a read that linearizes at the load; and a word
/// that is flagged or tagged is frozen, so a stale word only ever reads
/// cleaner than its edge.
fn protect_edge<K, V, P: Protect>(
    op: &mut P::Op<'_>,
    slot: usize,
    edge: &Atomic<Node<K, V>>,
) -> Option<Shared<Node<K, V>>> {
    let mut word = edge.load(Acquire);
    loop {
        let mut ptr = word.with_tag(0);
        if !P::protect(op, slot, &mut ptr, edge) {
            return None;
        }
        if ptr == word.with_tag(0) {
            return Some(word);
        }
        // Retargeted: the tags must be the new pointer's.
        word = edge.load(Acquire);
    }
}

/// The nodes a successful ancestor CAS detached: every chain node from the
/// successor down has one flagged edge (a pendant deleted leaf) and one
/// tagged edge continuing the chain, which ends at the promoted sibling.
/// Yields each chain node followed by its pendant.
struct Chain<K, V> {
    /// The next chain node, null once the chain is exhausted.
    node: Shared<Node<K, V>>,
    /// The pendant of the chain node yielded last, null once yielded.
    pendant: Shared<Node<K, V>>,
    promoted: Shared<Node<K, V>>,
}

impl<K, V> Iterator for Chain<K, V> {
    type Item = Shared<Node<K, V>>;

    fn next(&mut self) -> Option<Self::Item> {
        if !self.pendant.is_null() {
            return Some(std::mem::replace(&mut self.pendant, Shared::null()));
        }
        let m = self.node;
        // SAFETY: the chain was just detached by this thread and is not
        // yet handed to the scheme; its edges are frozen.
        let node = unsafe { m.as_ref() }?;
        debug_assert!(!node.is_leaf(), "chain nodes are internal");
        let lw = node.left.load(Relaxed);
        let rw = node.right.load(Relaxed);
        // Both edges of the last chain node may be flagged (sibling
        // deletes): the pendant is the flagged one that is not promoted.
        let (pendant, continue_w) = if lw.tag() & FLAG != 0 && !lw.ptr_eq(self.promoted) {
            (lw, rw)
        } else {
            debug_assert!(rw.tag() & FLAG != 0, "chain node lacks flagged edge");
            (rw, lw)
        };
        self.pendant = pendant.with_tag(0);
        self.node = if continue_w.ptr_eq(self.promoted) {
            Shared::null()
        } else {
            debug_assert!(continue_w.tag() & TAG != 0, "chain edge must be tagged");
            continue_w.with_tag(0)
        };
        Some(m)
    }
}

/// Natarajan–Mittal external BST over protection family `P`.
pub struct NMTree<K, V, P> {
    /// R sentinel (key `Inf2`).
    r: Box<Node<K, V>>,
    _marker: PhantomData<fn() -> P>,
}

impl<K, V, P> NMTree<K, V, P>
where
    K: Ord + Clone,
    V: Clone,
    P: Optimistic,
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
    /// the ancestor (last untagged edge) and the parent edge. On return
    /// `PREV` protects the parent, `CUR` the leaf, `ANCESTOR` the owner of
    /// the ancestor edge and `SUCCESSOR` the node it led to.
    fn seek(&self, op: &mut P::Op<'_>, key: &K) -> SeekRecord<K, V> {
        loop {
            if let Some(sr) = self.try_seek(op, key) {
                return sr;
            }
        }
    }

    /// `None` = a protection failed, restart.
    fn try_seek(&self, op: &mut P::Op<'_>, key: &K) -> Option<SeekRecord<K, V>> {
        let key = NmKey::Fin(key.clone());
        // The R sentinel is never invalidated or reclaimed.
        let r = Shared::from_raw(self.r.as_ref() as *const _ as *mut _);

        let mut ancestor_edge: *const Atomic<Node<K, V>> = &self.r.left;
        let mut prev = r; // owner of parent_edge; protected (or sentinel)
        let mut parent_edge = ancestor_edge;
        let mut leaf_word = protect_edge::<K, V, P>(op, CUR, &self.r.left)?;
        let mut successor_word = leaf_word;
        P::dup(op, ANCESTOR, r);
        P::dup(op, SUCCESSOR, leaf_word.with_tag(0));

        loop {
            let cur = leaf_word.with_tag(0);
            // SAFETY: `cur` is protected under `CUR`.
            let cur_node = unsafe { cur.deref() };
            if cur_node.is_leaf() {
                break;
            }
            // Ancestor bookkeeping: the edge into cur is the candidate.
            if leaf_word.tag() & TAG == 0 {
                ancestor_edge = parent_edge;
                successor_word = leaf_word;
                P::dup(op, ANCESTOR, prev);
                P::dup(op, SUCCESSOR, cur);
            }
            let next_edge = if key < cur_node.key {
                &cur_node.left
            } else {
                &cur_node.right
            };
            // Descend: cur becomes prev.
            prev = cur;
            P::swap(op, PREV, CUR);
            parent_edge = next_edge;
            leaf_word = protect_edge::<K, V, P>(op, CUR, next_edge)?;
        }
        Some(SeekRecord {
            ancestor_edge,
            successor_word,
            parent: prev,
            parent_edge,
            leaf_word,
        })
    }

    /// One cleanup attempt for the pending delete under `sr.parent`.
    /// Returns whether the ancestor CAS succeeded (and retired the chain).
    fn cleanup(&self, op: &mut P::Op<'_>, sr: &SeekRecord<K, V>) -> bool {
        // SAFETY: the seek left the parent protected under `PREV`.
        let parent = unsafe { sr.parent.deref() };
        let sib_edge = if parent.left.load(Acquire).tag() & FLAG != 0 {
            &parent.right
        } else if parent.right.load(Acquire).tag() & FLAG != 0 {
            &parent.left
        } else {
            return false; // nothing to clean here (already done)
        };
        // Freeze the sibling edge so its value can no longer change.
        let sib_word = sib_edge.fetch_or_tag(TAG, AcqRel);
        // Promote the sibling, preserving its flag, clearing the tag.
        let promoted = sib_word.with_tag(sib_word.tag() & FLAG);
        let chain = Chain {
            node: sr.successor_word.with_tag(0),
            pendant: Shared::null(),
            promoted,
        };
        // SAFETY: `ancestor_edge` is a field of the node `ANCESTOR`
        // protects. The CAS detaches the frozen chain from the successor
        // down to — excluding — the promoted sibling, its only outgoing
        // link, and only the winner of the CAS walks it.
        unsafe {
            P::unlink(
                op,
                &*sr.ancestor_edge,
                sr.successor_word,
                promoted,
                || [promoted.with_tag(0)],
                chain,
            )
        }
    }

    fn remove_in(&self, op: &mut P::Op<'_>, key: &K) -> Option<V> {
        let mut backoff = Backoff::new();
        // Phase 1: injection.
        let (target_leaf, value) = loop {
            let sr = self.seek(op, key);
            let leaf = sr.leaf();
            // SAFETY: the seek left the leaf protected under `CUR`.
            let leaf_node = unsafe { leaf.deref() };
            if leaf_node.key != NmKey::Fin(key.clone()) {
                return None;
            }
            if sr.leaf_word.tag() & FLAG != 0 {
                // Another delete owns this leaf; help it along and report
                // absent (that delete linearized first).
                self.cleanup(op, &sr);
                return None;
            }
            if sr.leaf_word.tag() & TAG != 0 {
                // Our leaf is a frozen sibling; help the neighbour's delete.
                self.cleanup(op, &sr);
                continue;
            }
            // SAFETY: `parent_edge` is a field of the node `PREV` protects.
            match unsafe { &*sr.parent_edge }.compare_exchange(
                sr.leaf_word,
                sr.leaf_word.with_tag(FLAG),
                AcqRel,
                Acquire,
            ) {
                Ok(_) => break (leaf, leaf_node.value.clone()),
                Err(_) => backoff.cas_failed(),
            }
        };

        // Phase 2: cleanup until the leaf is physically detached.
        loop {
            let sr = self.seek(op, key);
            if !sr.leaf().ptr_eq(target_leaf) {
                break; // someone (maybe us) finished the removal
            }
            self.cleanup(op, &sr);
        }
        value
    }
}

impl<K, V, P> Default for NMTree<K, V, P>
where
    K: Ord + Clone,
    V: Clone,
    P: Optimistic,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, P> Drop for NMTree<K, V, P> {
    fn drop(&mut self) {
        fn free_rec<K, V>(edge: Shared<Node<K, V>>) {
            if edge.is_null() {
                return;
            }
            let edge = edge.with_tag(0);
            // SAFETY: exclusive access; reachable nodes are owned by the
            // tree and were never handed to the scheme.
            let node = unsafe { edge.deref() };
            free_rec(node.left.load(Relaxed));
            free_rec(node.right.load(Relaxed));
            // SAFETY: as above, and the subtrees are gone.
            unsafe { edge.drop_owned() };
        }
        free_rec(self.r.left.load(Relaxed));
        free_rec(self.r.right.load(Relaxed));
        self.r.left.store_mut(Shared::null());
        self.r.right.store_mut(Shared::null());
    }
}

impl<K, V, P> ConcurrentMap<K, V> for NMTree<K, V, P>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    P: Optimistic,
{
    type Handle = P::Handle;

    fn new() -> Self {
        NMTree::new()
    }

    fn handle(&self) -> P::Handle {
        P::handle(P::default_domain())
    }

    fn get(&self, handle: &mut P::Handle, key: &K) -> Option<V> {
        let mut op = P::enter(handle);
        let sr = self.seek(&mut op, key);
        // SAFETY: the seek left the leaf protected under `CUR`.
        let leaf = unsafe { sr.leaf().deref() };
        let value = if leaf.key == NmKey::Fin(key.clone()) && sr.leaf_word.tag() & FLAG == 0 {
            leaf.value.clone()
        } else {
            None
        };
        P::exit(op);
        value
    }

    fn insert(&self, handle: &mut P::Handle, key: K, value: V) -> bool {
        let mut op = P::enter(handle);
        let mut stash: Stash<K, V> = None;
        let mut backoff = Backoff::new();
        let inserted = loop {
            let sr = self.seek(&mut op, &key);
            let leaf = sr.leaf();
            // SAFETY: the seek left the leaf protected under `CUR`.
            let leaf_node = unsafe { leaf.deref() };
            if sr.leaf_word.tag() & (FLAG | TAG) != 0 {
                // Dirty edge: a delete is pending here; help and retry.
                self.cleanup(&mut op, &sr);
                continue;
            }
            if leaf_node.key == NmKey::Fin(key.clone()) {
                break false;
            }
            // Build (or re-wire) the replacement internal node.
            let (internal_ptr, new_leaf) = stash.take().unwrap_or_else(|| {
                let new_leaf =
                    Shared::from_owned(Node::leaf(NmKey::Fin(key.clone()), Some(value.clone())));
                // The internal node's key is patched below.
                let internal = Shared::from_owned(Node::leaf(NmKey::NegInf, None));
                (internal, new_leaf)
            });
            // SAFETY: not shared until the CAS below succeeds.
            let internal = unsafe { &mut *internal_ptr.as_raw() };
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
            // SAFETY: `parent_edge` is a field of the node `PREV` protects.
            match unsafe { &*sr.parent_edge }.compare_exchange(
                sr.leaf_word,
                internal_ptr,
                AcqRel,
                Acquire,
            ) {
                Ok(_) => break true,
                Err(_) => {
                    stash = Some((internal_ptr, new_leaf));
                    backoff.cas_failed();
                }
            }
        };
        if let Some((internal, new_leaf)) = stash {
            // SAFETY: a stashed pair was never linked.
            unsafe {
                internal.drop_owned();
                new_leaf.drop_owned();
            }
        }
        P::exit(op);
        inserted
    }

    fn remove(&self, handle: &mut P::Handle, key: &K) -> Option<V> {
        let mut op = P::enter(handle);
        let value = self.remove_in(&mut op, key);
        P::exit(op);
        value
    }
}
