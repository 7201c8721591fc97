//! Ellen–Fatourou–Ruppert–van Breugel non-blocking external BST for
//! guard-based schemes.
//!
//! Updates coordinate through *Info descriptors* installed in each internal
//! node's `update` word (state in the low tag bits: CLEAN / IFLAG / DFLAG /
//! MARK); helpers complete flagged operations. Descriptor pointers double
//! as version numbers: a word that moved away from a descriptor never
//! reverts while any observer's critical section is live, which is what
//! makes the flag CAS ABA-safe under the guard-based schemes.

use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

use smr_common::{Atomic, Backoff, ConcurrentMap, GuardedScheme, SchemeGuard, Shared};

use crate::nm_tree::NmKey;

/// `update` word states (tag bits).
pub(crate) const CLEAN: usize = 0;
pub(crate) const IFLAG: usize = 1;
pub(crate) const DFLAG: usize = 2;
pub(crate) const MARK: usize = 3;

/// Operation descriptor.
pub(crate) enum Info<K, V> {
    /// A pending insert: replace leaf `l` under `p` with `new_internal`.
    Insert {
        p: Shared<Node<K, V>>,
        new_internal: Shared<Node<K, V>>,
        l: Shared<Node<K, V>>,
    },
    /// A pending delete of leaf `l` (parent `p`, grandparent `gp`).
    Delete {
        gp: Shared<Node<K, V>>,
        p: Shared<Node<K, V>>,
        l: Shared<Node<K, V>>,
        /// `p.update` as observed by the deleter (expected by the mark CAS).
        pupdate: Shared<Info<K, V>>,
    },
}

pub(crate) struct Node<K, V> {
    pub(crate) key: NmKey<K>,
    pub(crate) value: Option<V>,
    pub(crate) update: Atomic<Info<K, V>>,
    pub(crate) left: Atomic<Node<K, V>>,
    pub(crate) right: Atomic<Node<K, V>>,
}

/// Insert-retry stash: a preallocated internal node and its new leaf,
/// neither shared yet, reused across CAS retries instead of reallocating.
type Stash<K, V> = Option<(Shared<Node<K, V>>, Shared<Node<K, V>>)>;

impl<K, V> Node<K, V> {
    pub(crate) fn leaf(key: NmKey<K>, value: Option<V>) -> Self {
        Self {
            key,
            value,
            update: Atomic::null(),
            left: Atomic::null(),
            right: Atomic::null(),
        }
    }

    pub(crate) fn is_leaf(&self) -> bool {
        self.left.load(Relaxed).is_null()
    }
}

pub(crate) struct SearchResult<K, V> {
    pub(crate) gp: Shared<Node<K, V>>,
    pub(crate) p: Shared<Node<K, V>>,
    pub(crate) l: Shared<Node<K, V>>,
    pub(crate) gpupdate: Shared<Info<K, V>>,
    pub(crate) pupdate: Shared<Info<K, V>>,
}

/// Ellen et al. external BST, guard-based flavor.
pub struct EFRBTree<K, V, S> {
    root: Box<Node<K, V>>,
    _marker: PhantomData<S>,
}

unsafe impl<K: Send + Sync, V: Send + Sync, S> Send for EFRBTree<K, V, S> {}
unsafe impl<K: Send + Sync, V: Send + Sync, S> Sync for EFRBTree<K, V, S> {}

impl<K, V, S> EFRBTree<K, V, S>
where
    K: Ord + Clone,
    V: Clone,
    S: GuardedScheme,
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

    fn root_shared(&self) -> Shared<Node<K, V>> {
        Shared::from_raw(self.root.as_ref() as *const _ as *mut _)
    }

    fn search(&self, key: &NmKey<K>) -> SearchResult<K, V> {
        let mut gp = Shared::null();
        let mut p = Shared::null();
        let mut gpupdate = Shared::null();
        let mut pupdate = Shared::null();
        let mut l = self.root_shared();
        loop {
            let node = unsafe { l.deref() };
            if node.is_leaf() {
                break;
            }
            gp = p;
            p = l;
            gpupdate = pupdate;
            pupdate = node.update.load(Acquire);
            l = if *key < node.key {
                node.left.load(Acquire)
            } else {
                node.right.load(Acquire)
            }
            .with_tag(0);
        }
        SearchResult {
            gp,
            p,
            l,
            gpupdate,
            pupdate,
        }
    }

    /// Swings whichever child edge of `parent` holds `old` to `new`.
    fn cas_child(
        &self,
        parent: Shared<Node<K, V>>,
        old: Shared<Node<K, V>>,
        new: Shared<Node<K, V>>,
    ) -> bool {
        let pn = unsafe { parent.deref() };
        let edge = if pn.left.load(Acquire).with_tag(0) == old.with_tag(0) {
            &pn.left
        } else if pn.right.load(Acquire).with_tag(0) == old.with_tag(0) {
            &pn.right
        } else {
            return false;
        };
        edge.compare_exchange(old, new, AcqRel, Acquire).is_ok()
    }

    fn help(&self, u: Shared<Info<K, V>>, guard: &S::Guard<'_>) {
        match u.tag() {
            IFLAG => self.help_insert(u.with_tag(0), guard),
            MARK => self.help_marked(u.with_tag(0), guard),
            DFLAG => {
                self.help_delete(u.with_tag(0), guard);
            }
            _ => {}
        }
    }

    fn help_insert(&self, op: Shared<Info<K, V>>, _guard: &S::Guard<'_>) {
        let Info::Insert { p, new_internal, l } = (unsafe { op.deref() }) else {
            return;
        };
        self.cas_child(*p, *l, *new_internal);
        let pn = unsafe { p.deref() };
        let _ = pn
            .update
            .compare_exchange(op.with_tag(IFLAG), op.with_tag(CLEAN), AcqRel, Acquire);
    }

    fn help_delete(&self, op: Shared<Info<K, V>>, guard: &S::Guard<'_>) -> bool {
        let Info::Delete { gp, p, pupdate, .. } = (unsafe { op.deref() }) else {
            return false;
        };
        let pn = unsafe { p.deref() };
        match pn
            .update
            .compare_exchange(*pupdate, op.with_tag(MARK), AcqRel, Acquire)
        {
            Ok(_) => {
                // We marked p; retire the descriptor it displaced.
                let old = pupdate.with_tag(0);
                if !old.is_null() {
                    unsafe { guard.defer_destroy(old) };
                }
                self.help_marked(op, guard);
                true
            }
            Err(cur) => {
                if cur == op.with_tag(MARK) {
                    // Another helper marked it for this same op.
                    self.help_marked(op, guard);
                    true
                } else {
                    // Mark failed: back out the DFLAG.
                    let gpn = unsafe { gp.deref() };
                    let _ = gpn.update.compare_exchange(
                        op.with_tag(DFLAG),
                        op.with_tag(CLEAN),
                        AcqRel,
                        Acquire,
                    );
                    false
                }
            }
        }
    }

    fn help_marked(&self, op: Shared<Info<K, V>>, guard: &S::Guard<'_>) {
        let Info::Delete { gp, p, l, .. } = (unsafe { op.deref() }) else {
            return;
        };
        // The sibling is p's other child.
        let pn = unsafe { p.deref() };
        let left = pn.left.load(Acquire);
        let sibling = if left.with_tag(0) == l.with_tag(0) {
            pn.right.load(Acquire)
        } else {
            left
        };
        if self.cas_child(*gp, *p, sibling.with_tag(0)) {
            // The winner of the physical swing retires the detached pair.
            unsafe {
                guard.defer_destroy(*p);
                guard.defer_destroy(*l);
            }
        }
        let gpn = unsafe { gp.deref() };
        let _ = gpn
            .update
            .compare_exchange(op.with_tag(DFLAG), op.with_tag(CLEAN), AcqRel, Acquire);
    }

    pub(crate) fn get_impl(&self, handle: &mut S::Handle, key: &K) -> Option<V> {
        let mut guard = S::pin(handle);
        let key = NmKey::Fin(key.clone());
        loop {
            if !guard.validate() {
                guard.refresh();
                continue;
            }
            let sr = self.search(&key);
            if !guard.validate() {
                guard.refresh();
                continue;
            }
            let leaf = unsafe { sr.l.deref() };
            return if leaf.key == key {
                leaf.value.clone()
            } else {
                None
            };
        }
    }

    pub(crate) fn insert_impl(&self, handle: &mut S::Handle, key: K, value: V) -> bool {
        let mut guard = S::pin(handle);
        let key = NmKey::Fin(key.clone());
        let mut stash: Stash<K, V> = None;
        let mut backoff = Backoff::new();
        loop {
            if !guard.validate() {
                guard.refresh();
                continue;
            }
            let sr = self.search(&key);
            let leaf_node = unsafe { sr.l.deref() };
            if leaf_node.key == key {
                if let Some((internal, new_leaf)) = stash.take() {
                    unsafe {
                        internal.drop_owned();
                        new_leaf.drop_owned();
                    }
                }
                return false;
            }
            if sr.pupdate.tag() != CLEAN {
                self.help(sr.pupdate, &guard);
                continue;
            }
            let (internal_ptr, new_leaf) = stash.take().unwrap_or_else(|| {
                let new_leaf = Shared::from_owned(Node::leaf(key.clone(), Some(value.clone())));
                (Shared::from_owned(Node::leaf(NmKey::NegInf, None)), new_leaf)
            });
            // SAFETY: not shared until the descriptor CAS below succeeds.
            let internal = unsafe { &mut *internal_ptr.as_raw() };
            if key < leaf_node.key {
                internal.key = leaf_node.key.clone();
                internal.left.store_mut(new_leaf);
                internal.right.store_mut(sr.l);
            } else {
                internal.key = key.clone();
                internal.left.store_mut(sr.l);
                internal.right.store_mut(new_leaf);
            }
            let op = Shared::from_owned(Info::Insert {
                p: sr.p,
                new_internal: internal_ptr,
                l: sr.l,
            });
            let pn = unsafe { sr.p.deref() };
            match pn
                .update
                .compare_exchange(sr.pupdate, op.with_tag(IFLAG), AcqRel, Acquire)
            {
                Ok(_) => {
                    let old = sr.pupdate.with_tag(0);
                    if !old.is_null() {
                        unsafe { guard.defer_destroy(old) };
                    }
                    self.help_insert(op, &guard);
                    return true;
                }
                Err(_) => {
                    unsafe { op.drop_owned() };
                    stash = Some((internal_ptr, new_leaf));
                    backoff.cas_failed();
                }
            }
        }
    }

    pub(crate) fn remove_impl(&self, handle: &mut S::Handle, key: &K) -> Option<V> {
        let mut guard = S::pin(handle);
        let key = NmKey::Fin(key.clone());
        let mut backoff = Backoff::new();
        loop {
            if !guard.validate() {
                guard.refresh();
                continue;
            }
            let sr = self.search(&key);
            let leaf_node = unsafe { sr.l.deref() };
            if leaf_node.key != key {
                return None;
            }
            if sr.gpupdate.tag() != CLEAN {
                self.help(sr.gpupdate, &guard);
                continue;
            }
            if sr.pupdate.tag() != CLEAN {
                self.help(sr.pupdate, &guard);
                continue;
            }
            debug_assert!(!sr.gp.is_null(), "finite leaves sit at depth >= 2");
            let value = leaf_node.value.clone();
            let op = Shared::from_owned(Info::Delete {
                gp: sr.gp,
                p: sr.p,
                l: sr.l,
                pupdate: sr.pupdate,
            });
            let gpn = unsafe { sr.gp.deref() };
            match gpn
                .update
                .compare_exchange(sr.gpupdate, op.with_tag(DFLAG), AcqRel, Acquire)
            {
                Ok(_) => {
                    let old = sr.gpupdate.with_tag(0);
                    if !old.is_null() {
                        unsafe { guard.defer_destroy(old) };
                    }
                    if self.help_delete(op, &guard) {
                        return value;
                    }
                }
                Err(_) => {
                    unsafe { op.drop_owned() };
                    backoff.cas_failed();
                }
            }
        }
    }
}

impl<K, V, S> Default for EFRBTree<K, V, S>
where
    K: Ord + Clone,
    V: Clone,
    S: GuardedScheme,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S> Drop for EFRBTree<K, V, S> {
    fn drop(&mut self) {
        fn free_rec<K, V>(edge: Shared<Node<K, V>>) {
            if edge.is_null() {
                return;
            }
            let edge = edge.with_tag(0);
            let node = unsafe { edge.deref() };
            let u = node.update.load(Relaxed).with_tag(0);
            if !u.is_null() {
                unsafe { u.drop_owned() };
            }
            free_rec(node.left.load(Relaxed));
            free_rec(node.right.load(Relaxed));
            unsafe { edge.drop_owned() };
        }
        free_rec(self.root.left.load(Relaxed));
        free_rec(self.root.right.load(Relaxed));
        self.root.left.store_mut(Shared::null());
        self.root.right.store_mut(Shared::null());
        let u = self.root.update.load(Relaxed).with_tag(0);
        if !u.is_null() {
            unsafe { u.drop_owned() };
            self.root.update.store_mut(Shared::null());
        }
    }
}

impl<K, V, S> ConcurrentMap<K, V> for EFRBTree<K, V, S>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    S: GuardedScheme,
{
    type Handle = S::Handle;

    fn new() -> Self {
        EFRBTree::new()
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

    #[test]
    fn delete_promotes_sibling() {
        let m: EFRBTree<u64, u64, ebr::Ebr> = EFRBTree::new();
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
}
