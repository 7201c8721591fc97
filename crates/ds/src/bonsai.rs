//! The non-blocking Bonsai tree, written once: a root link, and every
//! update a path copy built by [`bonsai_core`](crate::bonsai_core) and
//! published by one CAS of the root, over any [`Protect`] family:
//!
//! * `Guarded` — the critical section protects everything; a step only
//!   checks it is still valid (PEBR ejection).
//! * `Careful` (HP) — every step announces the node and re-validates that
//!   the **root has not changed** since the attempt began: any successful
//!   update may have retired arbitrary path nodes, and the root pointer is
//!   the only witness. This is the validation the paper describes as
//!   making HP "less efficient" on Bonsai — any concurrent update fails
//!   every in-flight protection.
//! * `Hpp` (HP++) — a step is validated against the *source node's*
//!   invalidation mark (published Bonsai links are immutable, so no link
//!   re-read is needed) and the root CAS goes through `try_unlink`,
//!   invalidating the whole replaced path. A protection fails only when
//!   its actual source was invalidated — concurrent updates elsewhere in
//!   the tree do not abort the operation, which is why the paper reports
//!   HP++ on Bonsai with essentially no overhead while HP suffers.

use std::cmp::Ordering::{Equal, Greater, Less};
use std::marker::PhantomData;
use std::sync::atomic::Ordering::Relaxed;

use smr_common::{Atomic, Backoff, ConcurrentMap, Shared};

use crate::bonsai_core::{free_tree, frontier, Attempt, Builder, Node, Restart};
use crate::protect::Protect;

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
    P: Protect,
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
        build: impl Fn(&mut Builder<'_, K, V, P>, &mut P::Op<'_>, Shared<Node<K, V>>) -> Built<K, V, R>,
    ) -> Option<R> {
        let mut op = P::enter(handle);
        let mut backoff = Backoff::new();
        let result = loop {
            let Some(at) = Attempt::start::<P>(&mut op, &self.root) else {
                continue;
            };
            let root0 = at.root0;
            let mut b = Builder::new(at);
            match build(&mut b, &mut op, root0) {
                Err(Restart) => b.abort(),
                Ok(None) => {
                    b.abort();
                    break None;
                }
                Ok(Some((new_root, result))) => {
                    let replaced = std::mem::take(&mut b.replaced);
                    // SAFETY: a successful CAS detaches exactly `replaced`,
                    // whose links never change and lead only to each other
                    // and the frontier; the build protected all of them.
                    let published = unsafe {
                        P::unlink(
                            &mut op,
                            &self.root,
                            root0,
                            new_root,
                            || frontier(&replaced),
                            replaced.iter().copied(),
                        )
                    };
                    if published {
                        break Some(result);
                    }
                    b.abort();
                    backoff.cas_failed();
                }
            }
        };
        P::exit(op);
        result
    }
}

impl<K, V, P> Default for BonsaiTree<K, V, P>
where
    K: Ord + Clone,
    V: Clone,
    P: Protect,
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
    P: Protect,
{
    type Handle = P::Handle;

    fn new() -> Self {
        BonsaiTree::new()
    }

    fn handle(&self) -> P::Handle {
        P::handle(P::default_domain())
    }

    fn get(&self, handle: &mut P::Handle, key: &K) -> Option<V> {
        let mut op = P::enter(handle);
        let value = 'retry: loop {
            let Some(mut at) = Attempt::start::<P>(&mut op, &self.root) else {
                continue;
            };
            let mut cur = at.root0;
            // SAFETY: the snapshot, then each step, protects `cur`.
            while let Some(node) = unsafe { cur.as_ref() } {
                let next = match key.cmp(&node.key) {
                    Less => node.left.load(Relaxed).with_tag(0),
                    Greater => node.right.load(Relaxed).with_tag(0),
                    Equal => break 'retry Some(node.value.clone()),
                };
                if !at.protect::<P>(&mut op, next, cur) {
                    continue 'retry;
                }
                cur = next;
            }
            break None;
        };
        P::exit(op);
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

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering::Acquire;

    use super::*;
    use crate::protect::{Careful, Hpp};

    /// The paper's Bonsai claim (§4): walks two levels into the left
    /// subtree, lets a second handle copy the right spine and reclaim (HP++:
    /// invalidating the copied nodes), then steps once more out of the left
    /// subtree and once out of the old root. Returns whether each step's
    /// protection held.
    fn steps_after_a_concurrent_update<P: Protect>(reclaim: fn(&mut P::Handle)) -> (bool, bool) {
        let tree = BonsaiTree::<u64, u64, P>::new();
        let mut h = tree.handle();
        for k in 0..64 {
            assert!(tree.insert(&mut h, (k * 37) % 64, k));
        }
        let child = |n: Shared<Node<u64, u64>>, left: bool| {
            // SAFETY: the caller protects `n`.
            let n = unsafe { n.deref() };
            (if left { &n.left } else { &n.right })
                .load(Acquire)
                .with_tag(0)
        };

        let mut walker = tree.handle();
        let mut op = P::enter(&mut walker);
        let mut at = Attempt::start::<P>(&mut op, &tree.root).expect("no update runs");
        let root0 = at.root0;
        let l = child(root0, true);
        assert!(at.protect::<P>(&mut op, l, root0));
        let ll = child(l, true);
        assert!(at.protect::<P>(&mut op, ll, l));

        // Greater than every key: the update copies the right spine only.
        assert!(tree.insert(&mut h, 1000, 0));
        reclaim(&mut h);

        let (below_ll, right_of_root0) = (child(ll, false), child(root0, false));
        assert!(!below_ll.is_null() && !right_of_root0.is_null());
        let out_of_left = at.protect::<P>(&mut op, below_ll, ll);
        let out_of_old_root = at.protect::<P>(&mut op, right_of_root0, root0);
        P::exit(op);
        (out_of_left, out_of_old_root)
    }

    #[test]
    fn hpp_keeps_a_walk_an_update_elsewhere_aborts_under_hp() {
        // HP++: the left subtree was shared, so not invalidated.
        let hpp = steps_after_a_concurrent_update::<Hpp<0>>(|h| h.thread.reclaim());
        assert_eq!(
            hpp,
            (true, false),
            "HP++ (out of the left subtree, out of the old root)"
        );
        // HP: the root moved, and it vouches for every node.
        let hp = steps_after_a_concurrent_update::<Careful<hp::Domain, 0>>(|h| h.thread.reclaim());
        assert_eq!(
            hp,
            (false, false),
            "HP (out of the left subtree, out of the old root)"
        );
    }
}
