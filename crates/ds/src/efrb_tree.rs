//! The Ellen–Fatourou–Ruppert–van Breugel non-blocking external BST,
//! written once — one of the few helping-based trees the original HP
//! supports (paper Table 2).
//!
//! Updates coordinate through *Info descriptors* installed in each internal
//! node's `update` word (state in the low tag bits: CLEAN / IFLAG / DFLAG /
//! MARK); helpers complete flagged operations. A delete retires its leaf by
//! a CAS at the *grandparent*, and a descriptor is retired by whoever
//! displaces it, so no protection here is vouched for by the link it was
//! read through alone: every one is a [`Protect::protect_by`](crate::protect::Protect::protect_by) with the word
//! that does vouch for it as witness. Since HP++ gains nothing (there is no
//! optimistic traversal to enable), the HP++ alias is this code over
//! `hp_plus::Thread` — the paper's hybrid mode (§4.2).
//!
//! What reclamation adds to the GC-assuming algorithm:
//!
//! * A child word never holds the same pointer twice. `insert` puts a copy
//!   of the leaf it found (Ellen et al.'s `newSibling`) under the new
//!   internal node and the winner of the child CAS retires the original, so
//!   a helper that stalled before its child CAS finds the word moved on for
//!   good. A helper announces both ends of that CAS first, or a recycled
//!   address could stand in for the pointer it expects.
//! * A flag-CAS winner retires the descriptor its CAS displaced. Descriptor
//!   pointers in CLEAN words are never dereferenced; they are version
//!   numbers, sound because a search announces them before it re-validates
//!   the word.
//! * Nodes are retired only **after** the unflag, so a helper whose witness
//!   read `(IFLAG | DFLAG, op)` after announcing the operation's nodes is
//!   guaranteed its announcement precedes their retirement.

use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

use smr_common::{Atomic, Backoff, ConcurrentMap, Shared};

use crate::nm_tree::NmKey;
use crate::protect::{Retire, NO_SRC};

// `update` word states (tag bits).
const CLEAN: usize = 0;
const IFLAG: usize = 1;
const DFLAG: usize = 2;
const MARK: usize = 3;

// Hazard roles. The search window is `GP`/`PARENT`/`LEAF` with the
// descriptors of the first two in `GPOP`/`POP`; `OWN` holds the descriptor
// an operation publishes, `HELP` (and the spent `LEAF`) what a helper works
// on.
const GP: usize = 0;
const PARENT: usize = 1;
const LEAF: usize = 2;
const GPOP: usize = 3;
const POP: usize = 4;
const OWN: usize = 5;
const HELP: usize = 6;
/// Hazard slots a handle of the tree holds.
pub(crate) const SLOTS: usize = 7;

/// Operation descriptor: a pending insert replaces leaf `l` under `p` with
/// `new_internal`; a pending delete takes leaf `l` and its parent `p` out
/// from under `gp`.
struct Info<K, V> {
    /// Null in an insert.
    gp: Shared<Node<K, V>>,
    p: Shared<Node<K, V>>,
    l: Shared<Node<K, V>>,
    /// Null in a delete.
    new_internal: Shared<Node<K, V>>,
    /// A delete's `p.update` as its deleter saw it (expected by the mark
    /// CAS).
    pupdate: Shared<Info<K, V>>,
}

struct Node<K, V> {
    key: NmKey<K>,
    value: Option<V>,
    update: Atomic<Info<K, V>>,
    left: Atomic<Node<K, V>>,
    right: Atomic<Node<K, V>>,
}

impl<K, V> Node<K, V> {
    fn leaf(key: NmKey<K>, value: Option<V>) -> Self {
        Self {
            key,
            value,
            update: Atomic::null(),
            left: Atomic::null(),
            right: Atomic::null(),
        }
    }

    fn is_leaf(&self) -> bool {
        self.left.load(Relaxed).is_null()
    }

    /// Swings the child edge `key` routes to from `old` to `new` (Ellen et
    /// al.'s `CAS-Child`). `key` is the routing key of `old` or of `new`:
    /// both sit under that edge.
    fn cas_child(&self, key: &NmKey<K>, old: Shared<Self>, new: Shared<Self>) -> bool
    where
        K: Ord,
    {
        let edge = if *key < self.key {
            &self.left
        } else {
            &self.right
        };
        edge.compare_exchange(old, new, AcqRel, Acquire).is_ok()
    }
}

struct SearchResult<K, V> {
    gp: Shared<Node<K, V>>,
    p: Shared<Node<K, V>>,
    l: Shared<Node<K, V>>,
    gpupdate: Shared<Info<K, V>>,
    pupdate: Shared<Info<K, V>>,
}

/// Ellen et al. external BST over protection family `P`.
pub struct EFRBTree<K, V, P> {
    root: Box<Node<K, V>>,
    _marker: PhantomData<fn() -> P>,
}

// SAFETY: `root` heads nodes and descriptors the tree owns; the raw
// pointers a descriptor holds (what denies it the auto traits) lead to
// nodes of the same tree and are dereferenced only under a protection.
// Keys and values are cloned and dropped from any thread, hence the bounds.
unsafe impl<K: Send + Sync, V: Send + Sync, P> Send for EFRBTree<K, V, P> {}
unsafe impl<K: Send + Sync, V: Send + Sync, P> Sync for EFRBTree<K, V, P> {}

impl<K, V, P> EFRBTree<K, V, P>
where
    K: Ord + Clone,
    V: Clone,
    P: Retire,
{
    /// Creates an empty tree (root sentinel with two infinite leaves).
    pub fn new() -> Self {
        let root = Node {
            key: NmKey::Inf2,
            value: None,
            update: Atomic::null(),
            left: Atomic::new(Node::leaf(NmKey::Inf1, None)),
            right: Atomic::new(Node::leaf(NmKey::Inf2, None)),
        };
        Self {
            root: Box::new(root),
            _marker: PhantomData,
        }
    }

    /// On return `GP`/`PARENT`/`LEAF` protect the result's nodes and
    /// `GPOP`/`POP` the descriptors in `gpupdate`/`pupdate`.
    fn search(&self, op: &mut P::Op<'_>, key: &NmKey<K>) -> SearchResult<K, V> {
        'restart: loop {
            let (mut gp, mut p) = (Shared::null(), Shared::null());
            let (mut gpupdate, mut pupdate) = (Shared::null(), Shared::null());
            // The root sentinel is never reclaimed.
            let mut l = Shared::from_raw(self.root.as_ref() as *const _ as *mut Node<K, V>);
            loop {
                // SAFETY: the root, or protected under `LEAF` by the last
                // step.
                let node = unsafe { l.deref() };
                if node.is_leaf() {
                    return SearchResult {
                        gp,
                        p,
                        l,
                        gpupdate,
                        pupdate,
                    };
                }
                // Shift the window: gp ← p ← l.
                gp = p;
                p = l;
                gpupdate = pupdate;
                P::swap(op, GP, PARENT);
                P::swap(op, PARENT, LEAF);
                P::swap(op, GPOP, POP);

                pupdate = node.update.load(Acquire);
                let unmoved = || node.update.load(Acquire) == pupdate;
                if !P::protect_by(op, POP, pupdate.with_tag(0), NO_SRC, unmoved) {
                    continue 'restart;
                }
                let edge = if *key < node.key {
                    &node.left
                } else {
                    &node.right
                };
                l = edge.load(Acquire);
                debug_assert!(!l.is_null(), "internal nodes have two children");
                // Deleting p's leaf child retires the leaf *without*
                // touching p's edge (the swing happens at the grandparent),
                // so the edge alone under-approximates. p is marked before
                // any of its children can be retired: seeing it unmarked
                // after announcing the child makes the protection sound.
                let linked = || edge.load(Acquire) == l && node.update.load(Acquire).tag() != MARK;
                if !P::protect_by(op, LEAF, l, NO_SRC, linked) {
                    continue 'restart;
                }
            }
        }
    }

    /// Retires the descriptor a successful flag or mark CAS took out of
    /// `word`, its only word.
    fn retire_displaced(op: &mut P::Op<'_>, word: Shared<Info<K, V>>) {
        let displaced = word.with_tag(0);
        if !displaced.is_null() {
            // SAFETY: the caller's CAS, which has one winner.
            unsafe { P::retire(op, displaced) };
        }
    }

    /// Helps the operation in `u`, a non-CLEAN word the search returned
    /// with its descriptor and the node it belongs to protected. A helper
    /// that loses a protection on the way just comes back: its caller
    /// searches again.
    fn help(&self, op: &mut P::Op<'_>, u: Shared<Info<K, V>>) {
        let d = u.with_tag(0);
        match u.tag() {
            IFLAG => self.help_insert(op, d),
            DFLAG => self.help_delete(op, d),
            // Only a critical section gets here, and it protects all of the
            // operation's nodes: a search that announces restarts while `p`
            // is MARKed, and the operation is reached by its `gp`'s DFLAG.
            MARK => self.help_marked(op, d),
            _ => {}
        }
    }

    /// A helper's way into an insert. The caller protects `d` and `d.p`.
    fn help_insert(&self, op: &mut P::Op<'_>, d: Shared<Info<K, V>>) {
        // SAFETY: the caller's protections.
        let (info, pn) = unsafe { (d.deref(), d.deref().p.deref()) };
        // Neither end of the child CAS can be retired while `p` is flagged
        // for `d`: `l` goes after the unflag, and removing `new_internal`
        // takes a DFLAG on `p`. Holding both also keeps their addresses
        // from being recycled into a word the CAS would then match.
        let flagged = || pn.update.load(Acquire) == d.with_tag(IFLAG);
        if P::protect_by(op, HELP, info.new_internal, NO_SRC, flagged)
            && P::protect_by(op, LEAF, info.l, NO_SRC, flagged)
        {
            // SAFETY: `HELP` protects the new internal node.
            self.finish_insert(op, d, &unsafe { info.new_internal.deref() }.key);
        }
    }

    /// The child CAS of insert `d` and what follows it. `key` routes to the
    /// edge `d` replaces: the new internal node's, or the inserted one. The
    /// caller protects `d`, `d.p` and `d.l`.
    fn finish_insert(&self, op: &mut P::Op<'_>, d: Shared<Info<K, V>>, key: &NmKey<K>) {
        // SAFETY: the caller's protections.
        let (info, pn) = unsafe { (d.deref(), d.deref().p.deref()) };
        help_insert_fault_point();
        let swung = pn.cas_child(key, info.l, info.new_internal);
        let _ = pn
            .update
            .compare_exchange(d.with_tag(IFLAG), d.with_tag(CLEAN), AcqRel, Acquire);
        if swung {
            // SAFETY: the child CAS took the only link to `l` away, for
            // good, and has one winner.
            unsafe { P::retire(op, info.l) };
        }
    }

    /// A helper's way into a delete: `d.p` is vouched for by `d.gp` still
    /// being flagged for `d` (it is retired only after that flag is
    /// cleared), the word the mark CAS expects by `p.update` itself. The
    /// caller protects `d` and `d.gp`.
    fn help_delete(&self, op: &mut P::Op<'_>, d: Shared<Info<K, V>>) {
        // SAFETY: the caller's protections.
        let (info, gpn) = unsafe { (d.deref(), d.deref().gp.deref()) };
        let flagged = || gpn.update.load(Acquire) == d.with_tag(DFLAG);
        if !P::protect_by(op, HELP, info.p, NO_SRC, flagged) {
            return;
        }
        // SAFETY: `HELP` protects `p`.
        let pn = unsafe { info.p.deref() };
        let cur = pn.update.load(Acquire);
        if cur != info.pupdate {
            self.decide(op, d, cur);
        } else if P::protect_by(op, LEAF, cur.with_tag(0), NO_SRC, || {
            pn.update.load(Acquire) == cur
        }) {
            // A CLEAN word's descriptor is a version number: held across
            // the mark CAS, or a recycled one could stand in for it.
            self.mark(op, d);
        }
    }

    /// The mark CAS of delete `d` and what follows it. The deleter calls
    /// this directly, still holding everything from its search: a helper
    /// may have completed or backed out the operation already, and only
    /// this CAS tells the deleter which. The caller protects `d`, `d.gp`,
    /// `d.p` and `d.pupdate`.
    fn mark(&self, op: &mut P::Op<'_>, d: Shared<Info<K, V>>) -> bool {
        // SAFETY: the caller's protections.
        let (info, pn) = unsafe { (d.deref(), d.deref().p.deref()) };
        let marked = d.with_tag(MARK);
        let cur = match pn
            .update
            .compare_exchange(info.pupdate, marked, AcqRel, Acquire)
        {
            Ok(displaced) => {
                Self::retire_displaced(op, displaced);
                marked
            }
            Err(cur) => cur,
        };
        self.decide(op, d, cur)
    }

    /// Finishes delete `d` if `cur`, what `d.p.update` holds in place of
    /// the word the deleter saw, is `d`'s mark; anything else means no mark
    /// for `d` can ever succeed, and backs the DFLAG out. The caller
    /// protects `d`, `d.gp` and `d.p`.
    fn decide(&self, op: &mut P::Op<'_>, d: Shared<Info<K, V>>, cur: Shared<Info<K, V>>) -> bool {
        if cur == d.with_tag(MARK) {
            self.help_marked(op, d);
            return true;
        }
        // SAFETY: the caller's protections.
        let _ = unsafe { d.deref().gp.deref() }.update.compare_exchange(
            d.with_tag(DFLAG),
            d.with_tag(CLEAN),
            AcqRel,
            Acquire,
        );
        false
    }

    /// The caller protects `d`, `d.gp` and `d.p`, which is MARKed for `d`.
    fn help_marked(&self, op: &mut P::Op<'_>, d: Shared<Info<K, V>>) {
        // SAFETY: the caller's protections.
        let info = unsafe { d.deref() };
        let (gpn, pn) = unsafe { (info.gp.deref(), info.p.deref()) };
        // A marked node's children are frozen: the sibling is the other one.
        let left = pn.left.load(Acquire);
        let sibling = if left == info.l {
            pn.right.load(Acquire)
        } else {
            left
        };
        let swung = gpn.cas_child(&pn.key, info.p, sibling);
        let _ = gpn
            .update
            .compare_exchange(d.with_tag(DFLAG), d.with_tag(CLEAN), AcqRel, Acquire);
        if swung {
            // SAFETY: the winner of the swing retires the detached pair.
            unsafe {
                P::retire(op, info.p);
                P::retire(op, info.l);
            }
        }
    }
}

/// The window before an insert's child CAS. The engine counts hits
/// process-wide, so inside this crate's own (parallel) test suite only a
/// thread that opted in — the reproducer's inserter — crosses it.
#[inline(always)]
fn help_insert_fault_point() {
    #[cfg(all(test, feature = "fault-injection"))]
    if !tests::STALL_VICTIM.with(std::cell::Cell::get) {
        return;
    }
    smr_common::fault_point!("ds::efrb::help_insert::before_child_cas");
}

impl<K, V, P> Default for EFRBTree<K, V, P>
where
    K: Ord + Clone,
    V: Clone,
    P: Retire,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, P> Drop for EFRBTree<K, V, P> {
    fn drop(&mut self) {
        /// Frees a node's descriptor and everything below the node.
        fn free_below<K, V>(node: &Node<K, V>) {
            // SAFETY: exclusive access; a linked node owns the descriptor in
            // its word (a MARKed node, whose word shares its grandparent's,
            // is never linked) and its children.
            unsafe {
                let u = node.update.load(Relaxed).with_tag(0);
                if !u.is_null() {
                    u.drop_owned();
                }
                for child in [node.left.load(Relaxed), node.right.load(Relaxed)] {
                    if let Some(below) = child.as_ref() {
                        free_below(below);
                        child.drop_owned();
                    }
                }
            }
        }
        free_below(&self.root);
    }
}

impl<K, V, P> ConcurrentMap<K, V> for EFRBTree<K, V, P>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    P: Retire,
{
    type Handle = P::Handle;

    fn new() -> Self {
        EFRBTree::new()
    }

    fn handle(&self) -> P::Handle {
        P::handle(P::default_domain())
    }

    fn get(&self, handle: &mut P::Handle, key: &K) -> Option<V> {
        let mut op = P::enter(handle);
        let key = NmKey::Fin(key.clone());
        let sr = self.search(&mut op, &key);
        // SAFETY: the search left the leaf protected under `LEAF`.
        let leaf = unsafe { sr.l.deref() };
        let value = if leaf.key == key {
            leaf.value.clone()
        } else {
            None
        };
        P::exit(op);
        value
    }

    fn insert(&self, handle: &mut P::Handle, key: K, value: V) -> bool {
        let mut op = P::enter(handle);
        let key = NmKey::Fin(key);
        // The new internal node, the new leaf and the copy of the old one:
        // none shared yet, reused across CAS retries instead of reallocated.
        let mut stash: Option<[Shared<Node<K, V>>; 3]> = None;
        let mut backoff = Backoff::new();
        let inserted = loop {
            let sr = self.search(&mut op, &key);
            // SAFETY: the search left the leaf protected under `LEAF`.
            let leaf = unsafe { sr.l.deref() };
            if leaf.key == key {
                break false;
            }
            if sr.pupdate.tag() != CLEAN {
                self.help(&mut op, sr.pupdate);
                continue;
            }
            let nodes = stash.take().unwrap_or_else(|| {
                [
                    Shared::from_owned(Node::leaf(NmKey::NegInf, None)),
                    Shared::from_owned(Node::leaf(key.clone(), Some(value.clone()))),
                    Shared::from_owned(Node::leaf(NmKey::NegInf, None)),
                ]
            });
            let [internal_ptr, new_leaf, sibling_ptr] = nodes;
            // SAFETY: not shared until the flag CAS below succeeds.
            let (internal, sibling) =
                unsafe { (&mut *internal_ptr.as_raw(), &mut *sibling_ptr.as_raw()) };
            // Ellen et al.'s `newSibling`: a copy, not `l` itself, goes
            // under the new node (see the module docs).
            sibling.key = leaf.key.clone();
            sibling.value = leaf.value.clone();
            if key < leaf.key {
                internal.key = leaf.key.clone();
                internal.left.store_mut(new_leaf);
                internal.right.store_mut(sibling_ptr);
            } else {
                internal.key = key.clone();
                internal.left.store_mut(sibling_ptr);
                internal.right.store_mut(new_leaf);
            }
            let d = Shared::from_owned(Info {
                gp: Shared::null(),
                p: sr.p,
                l: sr.l,
                new_internal: internal_ptr,
                pupdate: Shared::null(),
            });
            // Our own descriptor: announce before publishing.
            P::dup(&mut op, OWN, d);
            // SAFETY: the search left the parent protected under `PARENT`.
            match unsafe { sr.p.deref() }.update.compare_exchange(
                sr.pupdate,
                d.with_tag(IFLAG),
                AcqRel,
                Acquire,
            ) {
                Ok(displaced) => {
                    Self::retire_displaced(&mut op, displaced);
                    self.finish_insert(&mut op, d, &key);
                    break true;
                }
                Err(_) => {
                    // SAFETY: never published.
                    unsafe { d.drop_owned() };
                    stash = Some(nodes);
                    backoff.cas_failed();
                }
            }
        };
        for node in stash.into_iter().flatten() {
            // SAFETY: stashed nodes were never linked.
            unsafe { node.drop_owned() };
        }
        P::exit(op);
        inserted
    }

    fn remove(&self, handle: &mut P::Handle, key: &K) -> Option<V> {
        let mut op = P::enter(handle);
        let key = NmKey::Fin(key.clone());
        let mut backoff = Backoff::new();
        let removed = loop {
            let sr = self.search(&mut op, &key);
            // SAFETY: the search left the leaf protected under `LEAF`.
            let leaf = unsafe { sr.l.deref() };
            if leaf.key != key {
                break None;
            }
            if sr.gpupdate.tag() != CLEAN {
                self.help(&mut op, sr.gpupdate);
                continue;
            }
            if sr.pupdate.tag() != CLEAN {
                self.help(&mut op, sr.pupdate);
                continue;
            }
            debug_assert!(!sr.gp.is_null(), "finite leaves sit at depth >= 2");
            let value = leaf.value.clone();
            let d = Shared::from_owned(Info {
                gp: sr.gp,
                p: sr.p,
                l: sr.l,
                new_internal: Shared::null(),
                pupdate: sr.pupdate,
            });
            // Our own descriptor: announce before publishing.
            P::dup(&mut op, OWN, d);
            // SAFETY: the search left the grandparent protected under `GP`.
            match unsafe { sr.gp.deref() }.update.compare_exchange(
                sr.gpupdate,
                d.with_tag(DFLAG),
                AcqRel,
                Acquire,
            ) {
                Ok(displaced) => {
                    Self::retire_displaced(&mut op, displaced);
                    // A failed mark backed the flag out; `d` stays behind in
                    // gp's word and goes with it.
                    if self.mark(&mut op, d) {
                        break value;
                    }
                }
                Err(_) => {
                    // SAFETY: never published.
                    unsafe { d.drop_owned() };
                    backoff.cas_failed();
                }
            }
        };
        P::exit(op);
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protect::{Guarded, Protect};

    #[cfg(feature = "fault-injection")]
    thread_local! {
        /// Opts the current thread into [`help_insert_fault_point`].
        pub(super) static STALL_VICTIM: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
    }

    #[test]
    fn delete_promotes_sibling() {
        let m: EFRBTree<u64, u64, Guarded<ebr::Ebr>> = EFRBTree::new();
        let mut h = ConcurrentMap::handle(&m);
        for k in [50, 25, 75, 10, 30] {
            assert!(ConcurrentMap::insert(&m, &mut h, k, k));
        }
        assert_eq!(ConcurrentMap::remove(&m, &mut h, &25), Some(25));
        for k in [50, 75, 10, 30] {
            assert_eq!(ConcurrentMap::get(&m, &mut h, &k), Some(k));
        }
        assert_eq!(ConcurrentMap::get(&m, &mut h, &25), None);
    }

    /// The child-edge ABA (DESIGN.md §1.3): with the found leaf reused as a
    /// child of the new internal node, `insert(5)` then `remove(5)` take
    /// p's child word `10 → internal → 10`, and a helper of the insert that
    /// stalled before its child CAS re-links the retired internal node.
    /// Under `Nr` nothing is freed, so replaying that helper is memory-safe.
    #[test]
    fn a_stale_insert_helper_cannot_relink_a_removed_node() {
        type Nr = Guarded<nr::Nr>;
        let m: EFRBTree<u64, u64, Nr> = EFRBTree::new();
        let h = &mut m.handle();
        assert!(m.insert(h, 10, 10));
        assert!(m.insert(h, 5, 5));
        // insert(5) flagged the parent of leaf 10, now the grandparent of
        // leaf 5, and its descriptor is still in that word, CLEAN.
        let mut op = Nr::enter(h);
        let gp = m.search(&mut op, &NmKey::Fin(5)).gp;
        // SAFETY: nothing is ever freed under `Nr`.
        let stale = unsafe { gp.deref() }.update.load(Acquire);
        Nr::exit(op);
        assert!(!stale.is_null() && stale.tag() == CLEAN);

        assert_eq!(m.remove(h, &5), Some(5));
        let mut op = Nr::enter(h);
        m.help_insert(&mut op, stale);
        Nr::exit(op);
        assert_eq!(m.get(h, &5), None, "removed key came back");
        assert_eq!(m.get(h, &10), Some(10));
    }

    /// The same schedule with threads, under EBR, where the nodes are
    /// reclaimed: the inserter stalls before its own child CAS, a second
    /// insert of the key completes the flagged operation for it, a remove
    /// takes the key out again, and only then does the stalled CAS run.
    /// Every node is freed exactly once — the row ASan watches.
    #[cfg(feature = "fault-injection")]
    #[test]
    fn a_stalled_insert_helper_frees_every_node_once() {
        use smr_common::fault::{self, FaultAction};
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        use std::sync::Arc;

        /// A value whose original (not its clones) counts its drop: a
        /// leaf's free, as the test sees it.
        struct Canary(Option<Arc<AtomicUsize>>);

        impl Clone for Canary {
            fn clone(&self) -> Self {
                Canary(None)
            }
        }

        impl Drop for Canary {
            fn drop(&mut self) {
                if let Some(frees) = &self.0 {
                    frees.fetch_add(1, Relaxed);
                }
            }
        }

        const POINT: &str = "ds::efrb::help_insert::before_child_cas";
        let frees = Arc::new(AtomicUsize::new(0));
        let m: EFRBTree<u64, Canary, Guarded<ebr::Ebr>> = EFRBTree::new();
        let mut h = m.handle();
        assert!(m.insert(&mut h, 10, Canary(Some(frees.clone()))));
        std::thread::scope(|s| {
            // Dropped before the scope joins, so a failed assertion below
            // cannot leave the inserter parked.
            let _plan = fault::plan().at(POINT, 1, FaultAction::Stall).install();
            let inserter = s.spawn(|| {
                // Only this thread crosses the point, so the stall is its.
                STALL_VICTIM.with(|v| v.set(true));
                let mut h = m.handle();
                assert!(m.insert(&mut h, 5, Canary(Some(frees.clone()))));
            });
            while fault::stalled_count(POINT) == 0 {
                assert!(
                    !inserter.is_finished(),
                    "the inserter never reached {POINT}"
                );
                std::thread::yield_now();
            }
            // The flag is in: this insert helps the stalled one to
            // completion and then finds its key taken.
            assert!(!m.insert(&mut h, 5, Canary(None)));
            assert!(m.remove(&mut h, &5).is_some());
            fault::release(POINT);
            inserter.join().expect("inserter panicked");
        });
        assert!(m.get(&mut h, &5).is_none(), "removed key came back");
        assert!(m.get(&mut h, &10).is_some());
        // Both originals left the tree: leaf 10 for its copy, leaf 5 by the
        // remove. The inserter's handle donated its garbage on exit; flushes
        // adopt it and advance the epoch past it (sibling tests share the
        // default collector and may hold it back for a while).
        let mut flusher = smr_common::SchemeDomain::register(ebr::default_collector());
        for _ in 0..100_000 {
            if frees.load(Relaxed) == 2 {
                break;
            }
            flusher.pin().flush();
            std::thread::yield_now();
        }
        assert_eq!(frees.load(Relaxed), 2, "every retired leaf is freed once");
    }
}
