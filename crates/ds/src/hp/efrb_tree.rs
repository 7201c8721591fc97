//! Ellen et al. external BST with hazard-pointer protection.
//!
//! EFRB is one of the few helping-based trees the original HP supports
//! (paper Table 2): every traversal step validates against the parent edge
//! (no marks exist — deletion swings child edges atomically), and
//! descriptors are protected announce-then-revalidate against the `update`
//! word they came from. Since HP++ gains nothing here (no optimistic
//! traversal to enable), the HP++ flavor instantiates this same code over
//! `hp_plus::Thread` — the paper's hybrid mode (§4.2).
//!
//! Reclamation protocol notes (beyond the original GC-assuming algorithm):
//!
//! * A flag-CAS winner retires the descriptor its CAS displaced. Descriptor
//!   pointers in CLEAN words are never dereferenced; they serve as ABA
//!   version numbers, which stay sound because searchers announce them
//!   before re-validating the word.
//! * `help_marked` retires the detached parent/leaf only **after** the
//!   grandparent unflag, so a helper that validated `gp.update == (DFLAG,
//!   op)` after announcing `op.p` is guaranteed its announcement precedes
//!   the retirement.

use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

use hp::HazardPointer;
use smr_common::{fence, Atomic, Backoff, ConcurrentMap, Shared};

use crate::nm_tree::NmKey;
use crate::hp_family::HpFamily;

pub(crate) const CLEAN: usize = 0;
pub(crate) const IFLAG: usize = 1;
pub(crate) const DFLAG: usize = 2;
pub(crate) const MARK: usize = 3;

pub(crate) enum Info<K, V> {
    Insert {
        p: Shared<Node<K, V>>,
        new_internal: Shared<Node<K, V>>,
        l: Shared<Node<K, V>>,
    },
    Delete {
        gp: Shared<Node<K, V>>,
        p: Shared<Node<K, V>>,
        l: Shared<Node<K, V>>,
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
}

/// Per-thread state: six hazard pointers (gp, p, l, gp's descriptor, p's
/// descriptor, own descriptor).
pub struct Handle<T: HpFamily> {
    thread: T,
    hp_gp: HazardPointer,
    hp_p: HazardPointer,
    hp_l: HazardPointer,
    hp_gpop: HazardPointer,
    hp_pop: HazardPointer,
    hp_aux: HazardPointer,
}

impl<T: HpFamily> Handle<T> {
    fn new() -> Self {
        let mut thread = T::register();
        Self {
            hp_gp: thread.hazard_pointer(),
            hp_p: thread.hazard_pointer(),
            hp_l: thread.hazard_pointer(),
            hp_gpop: thread.hazard_pointer(),
            hp_pop: thread.hazard_pointer(),
            hp_aux: thread.hazard_pointer(),
            thread,
        }
    }
}

struct SearchResult<K, V> {
    gp: Shared<Node<K, V>>,
    p: Shared<Node<K, V>>,
    l: Shared<Node<K, V>>,
    gpupdate: Shared<Info<K, V>>,
    pupdate: Shared<Info<K, V>>,
}

/// Ellen et al. external BST, hazard-pointer flavor (HP and HP++ hybrid).
pub struct EFRBTree<K, V, T> {
    root: Box<Node<K, V>>,
    _marker: PhantomData<T>,
}

unsafe impl<K: Send + Sync, V: Send + Sync, T> Send for EFRBTree<K, V, T> {}
unsafe impl<K: Send + Sync, V: Send + Sync, T> Sync for EFRBTree<K, V, T> {}

impl<K, V, T> EFRBTree<K, V, T>
where
    K: Ord + Clone,
    V: Clone,
    T: HpFamily,
{
    /// Creates an empty tree.
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

    /// Protected search. `None` = protection failure, restart.
    fn try_search(&self, key: &NmKey<K>, handle: &mut Handle<T>) -> Option<SearchResult<K, V>> {
        let mut gp = Shared::null();
        let mut p = Shared::null();
        let mut gpupdate: Shared<Info<K, V>> = Shared::null();
        let mut pupdate: Shared<Info<K, V>> = Shared::null();
        let mut l = self.root_shared();

        loop {
            let node = unsafe { l.deref() };
            if node.is_leaf() {
                break;
            }
            // Shift the window: gp ← p ← l.
            gp = p;
            p = l;
            gpupdate = pupdate;
            HazardPointer::swap(&mut handle.hp_gp, &mut handle.hp_p);
            HazardPointer::swap(&mut handle.hp_p, &mut handle.hp_l);
            HazardPointer::swap(&mut handle.hp_gpop, &mut handle.hp_pop);

            // Protect p's descriptor: announce, then re-read the word.
            pupdate = node.update.load(Acquire);
            let op_ptr = pupdate.with_tag(0);
            if !op_ptr.is_null() {
                handle.hp_pop.protect_raw(op_ptr.as_raw());
                fence::light();
                if node.update.load(Acquire) != pupdate {
                    return None;
                }
            } else {
                handle.hp_pop.reset();
            }

            // Protect the child against the edge we read it from.
            let edge = if *key < node.key {
                &node.left
            } else {
                &node.right
            };
            let next = edge.load(Acquire).with_tag(0);
            if !next.is_null() && handle.hp_l.try_protect(next, edge).is_err() {
                return None;
            }
            // Deleting p's leaf child retires the leaf *without* touching
            // p's edge (the physical swing happens at the grandparent), so
            // edge validation alone under-approximates here. p is marked
            // before any of its children can be retired; seeing p unmarked
            // after announcing the child makes the protection sound.
            if node.update.load(Acquire).tag() == MARK {
                return None;
            }
            l = next;
            debug_assert!(!l.is_null(), "external tree: internal nodes have two children");
        }
        Some(SearchResult {
            gp,
            p,
            l,
            gpupdate,
            pupdate,
        })
    }

    fn search(&self, key: &NmKey<K>, handle: &mut Handle<T>) -> SearchResult<K, V> {
        loop {
            if let Some(r) = self.try_search(key, handle) {
                return r;
            }
        }
    }

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

    /// Helps the operation in `u` (must be a validated IFLAG/DFLAG word;
    /// MARK-state descriptors are reached via their gp's DFLAG instead).
    /// `owner` is the protected node whose update word `u` came from.
    fn help(&self, u: Shared<Info<K, V>>, owner: Shared<Node<K, V>>, handle: &mut Handle<T>) {
        match u.tag() {
            IFLAG => self.help_insert(u.with_tag(0)),
            DFLAG => {
                self.help_delete(u.with_tag(0), owner, handle);
            }
            _ => {} // CLEAN: nothing; MARK: completed via the gp's DFLAG
        }
    }

    fn help_insert(&self, op: Shared<Info<K, V>>) {
        let Info::Insert { p, new_internal, l } = (unsafe { op.deref() }) else {
            return;
        };
        self.cas_child(*p, *l, *new_internal);
        let pn = unsafe { p.deref() };
        let _ = pn
            .update
            .compare_exchange(op.with_tag(IFLAG), op.with_tag(CLEAN), AcqRel, Acquire);
    }

    /// `gp_node` must be protected and `op` must have been validated as
    /// `gp_node.update == (DFLAG, op)` after announcing it.
    fn help_delete(
        &self,
        op: Shared<Info<K, V>>,
        gp_node: Shared<Node<K, V>>,
        handle: &mut Handle<T>,
    ) -> bool {
        let Info::Delete { gp, p, pupdate, .. } = (unsafe { op.deref() }) else {
            return false;
        };
        debug_assert!(gp.ptr_eq(gp_node));
        // Protect op.p: announce, then confirm gp is still DFLAGged for op —
        // p is retired only after that flag is cleared.
        let gpn = unsafe { gp_node.deref() };
        handle.hp_aux.protect_raw(p.as_raw());
        fence::light();
        if gpn.update.load(Acquire) != op.with_tag(DFLAG) {
            handle.hp_aux.reset();
            return false; // op already completed (or backtracked)
        }
        let pn = unsafe { p.deref() };
        let mark_ok = match pn
            .update
            .compare_exchange(*pupdate, op.with_tag(MARK), AcqRel, Acquire)
        {
            Ok(_) => {
                let old = pupdate.with_tag(0);
                if !old.is_null() {
                    unsafe { handle.thread.retire(old.as_raw()) };
                }
                true
            }
            Err(cur) => cur == op.with_tag(MARK),
        };
        if mark_ok {
            self.help_marked(op, handle);
            handle.hp_aux.reset();
            true
        } else {
            let _ = gpn.update.compare_exchange(
                op.with_tag(DFLAG),
                op.with_tag(CLEAN),
                AcqRel,
                Acquire,
            );
            handle.hp_aux.reset();
            false
        }
    }

    /// Deleter-grade `help_delete`: the deleter still holds `op.p` in
    /// `hp_p` and `op.gp` in `hp_gp` from its own search, so — unlike a
    /// helper — it can always run the decisive mark-CAS classification
    /// (success / already-marked-for-op / permanently failed), even if
    /// helpers already completed or backtracked the operation. Without
    /// this, a helper finishing the op first would make the deleter
    /// misreport its own successful delete.
    fn help_delete_owner(&self, op: Shared<Info<K, V>>, handle: &mut Handle<T>) -> bool {
        let Info::Delete { gp, p, pupdate, .. } = (unsafe { op.deref() }) else {
            return false;
        };
        let pn = unsafe { p.deref() };
        match pn
            .update
            .compare_exchange(*pupdate, op.with_tag(MARK), AcqRel, Acquire)
        {
            Ok(_) => {
                let old = pupdate.with_tag(0);
                if !old.is_null() {
                    unsafe { handle.thread.retire(old.as_raw()) };
                }
                self.help_marked(op, handle);
                true
            }
            Err(cur) if cur == op.with_tag(MARK) => {
                self.help_marked(op, handle);
                true
            }
            Err(_) => {
                // p.update moved past our expected word: no mark for this
                // op can ever succeed. Back the DFLAG out.
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

    /// Caller holds `op` announced and `op.p` announced (hp_aux).
    fn help_marked(&self, op: Shared<Info<K, V>>, handle: &mut Handle<T>) {
        let Info::Delete { gp, p, l, .. } = (unsafe { op.deref() }) else {
            return;
        };
        let pn = unsafe { p.deref() };
        let left = pn.left.load(Acquire);
        let sibling = if left.with_tag(0) == l.with_tag(0) {
            pn.right.load(Acquire)
        } else {
            left
        };
        let swung = self.cas_child(*gp, *p, sibling.with_tag(0));
        let gpn = unsafe { gp.deref() };
        let _ = gpn
            .update
            .compare_exchange(op.with_tag(DFLAG), op.with_tag(CLEAN), AcqRel, Acquire);
        if swung {
            // Retire strictly after the unflag (see module docs).
            unsafe {
                handle.thread.retire(p.as_raw());
                handle.thread.retire(l.as_raw());
            }
        }
    }

    pub(crate) fn get_impl(&self, handle: &mut Handle<T>, key: &K) -> Option<V> {
        let key = NmKey::Fin(key.clone());
        let sr = self.search(&key, handle);
        let leaf = unsafe { sr.l.deref() };
        if leaf.key == key {
            leaf.value.clone()
        } else {
            None
        }
    }

    pub(crate) fn insert_impl(&self, handle: &mut Handle<T>, key: K, value: V) -> bool {
        let key = NmKey::Fin(key.clone());
        let mut stash: Stash<K, V> = None;
        let mut backoff = Backoff::new();
        loop {
            let sr = self.search(&key, handle);
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
                self.help(sr.pupdate, sr.p, handle);
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
            // Our own descriptor: announce before publishing.
            handle.hp_aux.protect_raw(op.as_raw());
            let pn = unsafe { sr.p.deref() };
            match pn
                .update
                .compare_exchange(sr.pupdate, op.with_tag(IFLAG), AcqRel, Acquire)
            {
                Ok(_) => {
                    let old = sr.pupdate.with_tag(0);
                    if !old.is_null() {
                        unsafe { handle.thread.retire(old.as_raw()) };
                    }
                    self.help_insert(op);
                    handle.hp_aux.reset();
                    return true;
                }
                Err(_) => {
                    handle.hp_aux.reset();
                    unsafe { op.drop_owned() };
                    stash = Some((internal_ptr, new_leaf));
                    backoff.cas_failed();
                }
            }
        }
    }

    pub(crate) fn remove_impl(&self, handle: &mut Handle<T>, key: &K) -> Option<V> {
        let key = NmKey::Fin(key.clone());
        let mut backoff = Backoff::new();
        loop {
            let sr = self.search(&key, handle);
            let leaf_node = unsafe { sr.l.deref() };
            if leaf_node.key != key {
                return None;
            }
            if sr.gpupdate.tag() != CLEAN {
                self.help(sr.gpupdate, sr.gp, handle);
                continue;
            }
            if sr.pupdate.tag() != CLEAN {
                self.help(sr.pupdate, sr.p, handle);
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
            handle.hp_aux.protect_raw(op.as_raw());
            let gpn = unsafe { sr.gp.deref() };
            match gpn
                .update
                .compare_exchange(sr.gpupdate, op.with_tag(DFLAG), AcqRel, Acquire)
            {
                Ok(_) => {
                    let old = sr.gpupdate.with_tag(0);
                    if !old.is_null() {
                        unsafe { handle.thread.retire(old.as_raw()) };
                    }
                    // We hold op (hp_aux announced before publication), and
                    // unlike helpers we still hold p (hp_p) and gp (hp_gp)
                    // from the search, so run the owner-grade help.
                    handle.hp_gpop.protect_raw(op.as_raw());
                    let done = self.help_delete_owner(op, handle);
                    handle.hp_gpop.reset();
                    if done {
                        return value;
                    }
                }
                Err(_) => {
                    handle.hp_aux.reset();
                    unsafe { op.drop_owned() };
                    backoff.cas_failed();
                }
            }
        }
    }
}

impl<K, V, T> Default for EFRBTree<K, V, T>
where
    K: Ord + Clone,
    V: Clone,
    T: HpFamily,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, T> Drop for EFRBTree<K, V, T> {
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

impl<K, V, T> ConcurrentMap<K, V> for EFRBTree<K, V, T>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    T: HpFamily,
{
    type Handle = Handle<T>;

    fn new() -> Self {
        EFRBTree::new()
    }

    fn handle(&self) -> Handle<T> {
        Handle::new()
    }

    fn get(&self, handle: &mut Handle<T>, key: &K) -> Option<V> {
        self.get_impl(handle, key)
    }

    fn insert(&self, handle: &mut Handle<T>, key: K, value: V) -> bool {
        self.insert_impl(handle, key, value)
    }

    fn remove(&self, handle: &mut Handle<T>, key: &K) -> Option<V> {
        self.remove_impl(handle, key)
    }
}
