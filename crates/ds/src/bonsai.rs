//! The non-blocking Bonsai tree, written once: a root link, and every
//! update a path copy built by [`bonsai_core`](crate::bonsai_core) and
//! published by one CAS of the root. The three families differ only in the
//! [`Protector`] at the bottom of this file:
//!
//! * [`Guarded`] — the critical section protects everything; a dereference
//!   only checks it is still valid (PEBR ejection).
//! * [`RootCheck`] (HP) — every dereference announces the node and
//!   re-validates that the **root has not changed** since the attempt
//!   began: any successful update may have retired arbitrary path nodes,
//!   and the root pointer is the only witness. This is the validation the
//!   paper describes as making HP "less efficient" on Bonsai — any
//!   concurrent update fails every in-flight protection.
//! * [`SrcCheck`] (HP++) — a dereference is validated against the *source
//!   node's* invalidation mark (published Bonsai links are immutable, so
//!   no link re-read is needed) and the root CAS goes through `try_unlink`,
//!   invalidating the whole replaced path. A protection fails only when
//!   its actual source was invalidated — concurrent updates elsewhere in
//!   the tree do not abort the operation, which is why the paper reports
//!   HP++ on Bonsai with essentially no overhead while HP suffers.

use std::cmp::Ordering::{Equal, Greater, Less};
use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

use hp::HazardPointer;
use hp_plus::Invalidate;
use smr_common::tagged::TAG_INVALIDATED;
use smr_common::{fence, Atomic, Backoff, ConcurrentMap, GuardedScheme, SchemeGuard, Shared};

use crate::bonsai_core::{free_tree, Builder, Node, Protector, Restart};
use crate::hp_family::HpFamily;
use crate::protect::Guarded;

/// Non-blocking Bonsai tree (COW path-copy + root CAS) over family `P`.
pub struct BonsaiTree<K, V, P> {
    root: Atomic<Node<K, V>>,
    _marker: PhantomData<fn() -> P>,
}

/// What a build hands back: the new root and the operation's result, or
/// `None` when the tree already is as the operation wants it.
type Built<K, V, R> = Result<Option<(Shared<Node<K, V>>, R)>, Restart>;

impl<K, V, P> BonsaiTree<K, V, P>
where
    K: Ord + Clone,
    V: Clone,
    P: Protector<K, V>,
{
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self {
            root: Atomic::null(),
            _marker: PhantomData,
        }
    }

    /// One path-copying update: `build` a version from a root snapshot and
    /// publish it, again from a fresh snapshot whenever the build loses a
    /// protection or the publication its race.
    fn update<R>(
        &self,
        handle: &mut P::Handle,
        build: impl Fn(&mut Builder<K, V, P>, &mut P::Op<'_>, Shared<Node<K, V>>) -> Built<K, V, R>,
    ) -> Option<R> {
        let mut op = P::enter(handle, &self.root);
        let mut backoff = Backoff::new();
        let result = loop {
            let root0 = P::snapshot(&mut op);
            let mut b = Builder::new();
            match build(&mut b, &mut op, root0) {
                Err(Restart) => b.abort(),
                Ok(None) => {
                    b.abort();
                    break None;
                }
                Ok(Some((new_root, result))) => {
                    let replaced = std::mem::take(&mut b.replaced);
                    // SAFETY: `b` built `new_root` from `root0`.
                    if unsafe { P::publish(&mut op, root0, new_root, &replaced) } {
                        break Some(result);
                    }
                    b.abort();
                    backoff.cas_failed();
                }
            }
        };
        P::release(op);
        result
    }
}

impl<K, V, P> Default for BonsaiTree<K, V, P>
where
    K: Ord + Clone,
    V: Clone,
    P: Protector<K, V>,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, P> Drop for BonsaiTree<K, V, P> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; reachable nodes were never retired.
        unsafe { free_tree(self.root.load_mut().with_tag(0)) };
    }
}

impl<K, V, P> ConcurrentMap<K, V> for BonsaiTree<K, V, P>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    P: Protector<K, V>,
{
    type Handle = P::Handle;

    fn new() -> Self {
        BonsaiTree::new()
    }

    fn handle(&self) -> P::Handle {
        P::handle()
    }

    fn get(&self, handle: &mut P::Handle, key: &K) -> Option<V> {
        let mut op = P::enter(handle, &self.root);
        let value = 'retry: loop {
            let mut cur = P::snapshot(&mut op);
            // SAFETY: the snapshot, then each step, protects `cur`.
            while let Some(node) = unsafe { cur.as_ref() } {
                let next = match key.cmp(&node.key) {
                    Less => node.left.load(Relaxed).with_tag(0),
                    Greater => node.right.load(Relaxed).with_tag(0),
                    Equal => break 'retry Some(node.value.clone()),
                };
                if !next.is_null() && !P::protect(&mut op, next, cur) {
                    continue 'retry;
                }
                cur = next;
            }
            break None;
        };
        P::release(op);
        value
    }

    fn insert(&self, handle: &mut P::Handle, key: K, value: V) -> bool {
        self.update(handle, |b, op, root0| {
            Ok(b.insert(op, root0, &key, &value)?
                .map(|new_root| (new_root, ())))
        })
        .is_some()
    }

    fn remove(&self, handle: &mut P::Handle, key: &K) -> Option<V> {
        self.update(handle, |b, op, root0| b.remove(op, root0, key))
    }
}

/// The publishing CAS of the root.
fn swing<K, V>(
    root: &Atomic<Node<K, V>>,
    from: Shared<Node<K, V>>,
    to: Shared<Node<K, V>>,
) -> bool {
    root.compare_exchange(from, to, AcqRel, Acquire).is_ok()
}

impl<K, V, S: GuardedScheme> Protector<K, V> for Guarded<S> {
    type Handle = S::Handle;
    type Op<'a>
        = (S::Guard<'a>, &'a Atomic<Node<K, V>>)
    where
        K: 'a,
        V: 'a;

    fn handle() -> S::Handle {
        S::handle()
    }

    fn enter<'a>(handle: &'a mut S::Handle, root: &'a Atomic<Node<K, V>>) -> Self::Op<'a> {
        (S::pin(handle), root)
    }

    fn snapshot((guard, root): &mut Self::Op<'_>) -> Shared<Node<K, V>> {
        if !guard.validate() {
            guard.refresh();
        }
        root.load(Acquire).with_tag(0)
    }

    fn protect(
        (guard, _): &mut Self::Op<'_>,
        _node: Shared<Node<K, V>>,
        _src: Shared<Node<K, V>>,
    ) -> bool {
        guard.validate()
    }

    unsafe fn publish(
        (guard, root): &mut Self::Op<'_>,
        root0: Shared<Node<K, V>>,
        new_root: Shared<Node<K, V>>,
        replaced: &[Shared<Node<K, V>>],
    ) -> bool {
        let won = swing(root, root0, new_root);
        if won {
            for &node in replaced {
                // SAFETY: the new version does not link what it copied.
                unsafe { guard.defer_destroy(node) };
            }
        }
        won
    }

    fn release(op: Self::Op<'_>) {
        drop(op);
    }
}

/// Per-thread state of the hazard-pointer Bonsai trees: the scheme thread
/// and a growable pool of hazard slots, one per node dereferenced during a
/// version build — O(tree depth).
pub struct Slots<T: HpFamily> {
    pub(crate) thread: T,
    slots: Vec<HazardPointer>,
    used: usize,
}

impl<T: HpFamily> Slots<T> {
    fn new() -> Self {
        Self {
            thread: T::register(),
            slots: Vec::new(),
            used: 0,
        }
    }

    fn reset(&mut self) {
        for slot in &self.slots[..self.used] {
            slot.reset();
        }
        self.used = 0;
    }

    /// Announces `node` in the next free slot, then asks `witness` whether
    /// it was still unretired.
    fn announce<N>(&mut self, node: Shared<N>, witness: impl FnOnce() -> bool) -> bool {
        if self.used == self.slots.len() {
            self.slots.push(self.thread.hazard_pointer());
        }
        let slot = &self.slots[self.used];
        self.used += 1;
        fence::announce_then_validate(|| slot.protect_raw(node.as_raw()), witness)
    }
}

impl<T: HpFamily> Default for Slots<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// An operation of the hazard-pointer families: the slot pool, the root
/// link and the snapshot last taken of it.
pub struct HpOp<'a, T: HpFamily, K, V> {
    slots: &'a mut Slots<T>,
    root: &'a Atomic<Node<K, V>>,
    root0: Shared<Node<K, V>>,
}

impl<'a, T: HpFamily, K, V> HpOp<'a, T, K, V> {
    fn enter(slots: &'a mut Slots<T>, root: &'a Atomic<Node<K, V>>) -> Self {
        Self {
            slots,
            root,
            root0: Shared::null(),
        }
    }

    fn snapshot(&mut self) -> Shared<Node<K, V>> {
        loop {
            self.slots.reset();
            self.root0 = self.root.load(Acquire).with_tag(0);
            if self.root0.is_null() || self.announce_by_root(self.root0) {
                return self.root0;
            }
        }
    }

    /// Announces `node`, vouched for by the root not having moved off the
    /// snapshot.
    fn announce_by_root(&mut self, node: Shared<Node<K, V>>) -> bool {
        let (root, root0) = (self.root, self.root0);
        self.slots
            .announce(node, || root.load(Acquire).with_tag(0) == root0)
    }
}

/// The original HP on Bonsai: the root is every node's witness.
pub struct RootCheck;

impl<K, V> Protector<K, V> for RootCheck {
    type Handle = Slots<hp::Thread>;
    type Op<'a>
        = HpOp<'a, hp::Thread, K, V>
    where
        K: 'a,
        V: 'a;

    fn handle() -> Self::Handle {
        Slots::new()
    }

    fn enter<'a>(handle: &'a mut Self::Handle, root: &'a Atomic<Node<K, V>>) -> Self::Op<'a> {
        HpOp::enter(handle, root)
    }

    fn snapshot(op: &mut Self::Op<'_>) -> Shared<Node<K, V>> {
        op.snapshot()
    }

    fn protect(op: &mut Self::Op<'_>, node: Shared<Node<K, V>>, _src: Shared<Node<K, V>>) -> bool {
        op.announce_by_root(node)
    }

    unsafe fn publish(
        op: &mut Self::Op<'_>,
        root0: Shared<Node<K, V>>,
        new_root: Shared<Node<K, V>>,
        replaced: &[Shared<Node<K, V>>],
    ) -> bool {
        let won = swing(op.root, root0, new_root);
        if won {
            for &node in replaced {
                // SAFETY: the new version does not link what it copied, and
                // every reader validated against a root that has now moved.
                unsafe { op.slots.thread.retire(node.as_raw()) };
            }
        }
        won
    }

    fn release(op: Self::Op<'_>) {
        op.slots.reset();
    }
}

// SAFETY: sets the bit `is_invalid` reads, in the node's own links.
unsafe impl<K, V> Invalidate for Node<K, V> {
    unsafe fn invalidate(ptr: *mut Self) {
        // SAFETY: the caller passes a live, unlinked node.
        let node = unsafe { &*ptr };
        // Published links are immutable, so plain RMW-free stores would
        // suffice; fetch_or keeps it simple and race-proof.
        node.left.fetch_or_tag(TAG_INVALIDATED, AcqRel);
        node.right.fetch_or_tag(TAG_INVALIDATED, AcqRel);
    }
}

fn is_invalid<K, V>(node: &Node<K, V>) -> bool {
    node.left.load(Acquire).tag() & TAG_INVALIDATED != 0
}

/// HP++ on Bonsai: a node's witness is the node it was read from.
pub struct SrcCheck;

impl<K, V> Protector<K, V> for SrcCheck {
    type Handle = Slots<hp_plus::Thread>;
    type Op<'a>
        = HpOp<'a, hp_plus::Thread, K, V>
    where
        K: 'a,
        V: 'a;

    fn handle() -> Self::Handle {
        Slots::new()
    }

    fn enter<'a>(handle: &'a mut Self::Handle, root: &'a Atomic<Node<K, V>>) -> Self::Op<'a> {
        HpOp::enter(handle, root)
    }

    fn snapshot(op: &mut Self::Op<'_>) -> Shared<Node<K, V>> {
        op.snapshot()
    }

    fn protect(op: &mut Self::Op<'_>, node: Shared<Node<K, V>>, src: Shared<Node<K, V>>) -> bool {
        // SAFETY: the caller protects `src`, so only its invalidation can
        // have let `node` go.
        let src = unsafe { src.deref() };
        op.slots.announce(node, || !is_invalid(src))
    }

    /// Frontier: the children of replaced nodes that are not themselves
    /// replaced (the shared subtrees). The paper notes Bonsai can skip
    /// frontier protection; we pass it anyway — the cost is O(path)
    /// announcements per update and it keeps the generic safety argument
    /// intact (see DESIGN.md).
    unsafe fn publish(
        op: &mut Self::Op<'_>,
        root0: Shared<Node<K, V>>,
        new_root: Shared<Node<K, V>>,
        replaced: &[Shared<Node<K, V>>],
    ) -> bool {
        // Decided before the unlink, immutable afterwards.
        let mut frontier = Vec::new();
        for &r in replaced {
            // SAFETY: the build protected every node it replaced.
            let node = unsafe { r.deref() };
            for child in [&node.left, &node.right] {
                let child = child.load(Relaxed).with_tag(0);
                if !child.is_null() && !replaced.contains(&child) {
                    frontier.push(child);
                }
            }
        }
        let root = op.root;
        // SAFETY: a successful CAS detaches exactly `replaced`, whose links
        // never change and lead only to each other and the frontier.
        unsafe {
            op.slots.thread.try_unlink(&frontier, || {
                swing(root, root0, new_root).then(|| replaced.iter().copied())
            })
        }
    }

    fn release(op: Self::Op<'_>) {
        op.slots.reset();
    }
}
