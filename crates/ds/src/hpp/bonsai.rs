//! Bonsai tree under HP++.
//!
//! Dereferences are validated against the *source node's* invalidation mark
//! (published Bonsai links are immutable, so no link re-read is needed) and
//! the root CAS goes through `try_unlink`, invalidating the whole replaced
//! path. Unlike HP's validate-against-the-root, a protection here fails
//! only when its actual source was invalidated — concurrent updates
//! elsewhere in the tree do not abort the operation. This is why the paper
//! reports HP++ on Bonsai with essentially no overhead while HP suffers.
//!
//! Frontier: the children of replaced nodes that are not themselves
//! replaced (the shared subtrees). The paper notes Bonsai can skip frontier
//! protection; we pass it anyway — the cost is O(path) announcements per
//! update and it keeps the generic safety argument intact (see DESIGN.md).

use std::sync::atomic::Ordering::{Acquire, Relaxed};

use hp::HazardPointer;
use hp_plus::{Invalidate, Unlinked};
use smr_common::tagged::TAG_INVALIDATED;
use smr_common::{fence, Atomic, Backoff, ConcurrentMap, Shared};

use crate::bonsai_core::{free_tree, Builder, Node, Protector, Restart};

unsafe impl<K, V> Invalidate for Node<K, V> {
    unsafe fn invalidate(ptr: *mut Self) {
        // Published links are immutable, so plain RMW-free stores suffice;
        // fetch_or keeps it simple and race-proof.
        let node = unsafe { &*ptr };
        node.left.fetch_or_tag(TAG_INVALIDATED, std::sync::atomic::Ordering::AcqRel);
        node.right
            .fetch_or_tag(TAG_INVALIDATED, std::sync::atomic::Ordering::AcqRel);
    }
}

fn is_invalid<K, V>(node: Shared<Node<K, V>>) -> bool {
    unsafe { node.deref() }.left.load(Acquire).tag() & TAG_INVALIDATED != 0
}

/// Per-thread state: HP++ registration and a growable pool of hazard slots.
pub struct Handle {
    pub(crate) thread: hp_plus::Thread,
    slots: Vec<HazardPointer>,
    used: usize,
}

impl Handle {
    fn new() -> Self {
        Self {
            thread: hp_plus::default_domain().register(),
            slots: Vec::new(),
            used: 0,
        }
    }

    fn reset(&mut self) {
        for s in &self.slots[..self.used] {
            s.reset();
        }
        self.used = 0;
    }

    fn announce<T>(&mut self, node: Shared<T>) {
        if self.used == self.slots.len() {
            self.slots.push(self.thread.hazard_pointer());
        }
        self.slots[self.used].protect_raw(node.as_raw());
        self.used += 1;
    }
}

impl Default for Handle {
    fn default() -> Self {
        Self::new()
    }
}

struct SrcCheck<'a, K, V> {
    handle: &'a mut Handle,
    root: &'a Atomic<Node<K, V>>,
    root0: Shared<Node<K, V>>,
}

impl<K, V> Protector<K, V> for SrcCheck<'_, K, V> {
    fn protect(
        &mut self,
        node: Shared<Node<K, V>>,
        src: Shared<Node<K, V>>,
    ) -> Result<(), Restart> {
        self.handle.announce(node);
        fence::light();
        let valid = if src.is_null() {
            // Read from the root pointer: re-validate the link itself.
            self.root.load(Acquire).with_tag(0) == self.root0
        } else {
            // Source is protected: only its invalidation aborts us.
            !is_invalid(src)
        };
        if valid {
            Ok(())
        } else {
            Err(Restart)
        }
    }
}

/// Non-blocking Bonsai tree protected by HP++.
pub struct BonsaiTree<K, V> {
    root: Atomic<Node<K, V>>,
}

unsafe impl<K: Send + Sync, V: Send + Sync> Send for BonsaiTree<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for BonsaiTree<K, V> {}

impl<K, V> BonsaiTree<K, V>
where
    K: Ord + Clone,
    V: Clone,
{
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self {
            root: Atomic::null(),
        }
    }

    fn protect_root(&self, handle: &mut Handle) -> Shared<Node<K, V>> {
        loop {
            handle.reset();
            let root0 = self.root.load(Acquire).with_tag(0);
            if root0.is_null() {
                return root0;
            }
            handle.announce(root0);
            fence::light();
            if self.root.load(Acquire).with_tag(0) == root0 {
                return root0;
            }
        }
    }

    pub(crate) fn get_impl(&self, handle: &mut Handle, key: &K) -> Option<V> {
        'retry: loop {
            let root0 = self.protect_root(handle);
            let mut cur = root0;
            while !cur.is_null() {
                let node = unsafe { cur.deref() };
                let next = match key.cmp(&node.key) {
                    std::cmp::Ordering::Less => node.left.load(Acquire).with_tag(0),
                    std::cmp::Ordering::Greater => node.right.load(Acquire).with_tag(0),
                    std::cmp::Ordering::Equal => {
                        let out = node.value.clone();
                        handle.reset();
                        return Some(out);
                    }
                };
                if !next.is_null() {
                    handle.announce(next);
                    fence::light();
                    // Fine-grained validation: only our own source matters.
                    if is_invalid(cur) {
                        continue 'retry;
                    }
                }
                cur = next;
            }
            handle.reset();
            return None;
        }
    }

    fn publish(
        &self,
        handle: &mut Handle,
        root0: Shared<Node<K, V>>,
        new_root: Shared<Node<K, V>>,
        replaced: &[Shared<Node<K, V>>],
    ) -> bool {
        // Frontier: children of replaced nodes that survive (shared
        // subtrees), decided before the unlink, immutable afterwards.
        let mut frontier = Vec::new();
        for &r in replaced {
            let node = unsafe { r.deref() };
            for child in [
                node.left.load(Relaxed).with_tag(0),
                node.right.load(Relaxed).with_tag(0),
            ] {
                if !child.is_null() && !replaced.contains(&child) {
                    frontier.push(child);
                }
            }
        }
        let root = &self.root;
        unsafe {
            handle.thread.try_unlink(&frontier, || {
                root.compare_exchange(
                    root0,
                    new_root,
                    std::sync::atomic::Ordering::AcqRel,
                    Acquire,
                )
                .ok()
                .map(|_| match *replaced {
                    // Point updates replace one or two path nodes; only
                    // rebalancing rotations detach longer chains.
                    [one] => Unlinked::single(one),
                    [a, b] => Unlinked::pair(a, b),
                    _ => Unlinked::new(replaced.to_vec()),
                })
            })
        }
    }

    pub(crate) fn insert_impl(&self, handle: &mut Handle, key: K, value: V) -> bool {
        let mut backoff = Backoff::new();
        loop {
            let root0 = self.protect_root(handle);
            let mut b = Builder::new();
            let result = {
                let mut p = SrcCheck {
                    handle,
                    root: &self.root,
                    root0,
                };
                b.insert(&mut p, root0, &key, &value)
            };
            match result {
                Err(Restart) => b.abort(),
                Ok(None) => {
                    b.abort();
                    handle.reset();
                    return false;
                }
                Ok(Some(new_root)) => {
                    let replaced = std::mem::take(&mut b.replaced);
                    if self.publish(handle, root0, new_root, &replaced) {
                        handle.reset();
                        return true;
                    }
                    b.abort();
                    backoff.cas_failed();
                }
            }
        }
    }

    pub(crate) fn remove_impl(&self, handle: &mut Handle, key: &K) -> Option<V> {
        let mut backoff = Backoff::new();
        loop {
            let root0 = self.protect_root(handle);
            let mut b = Builder::new();
            let result = {
                let mut p = SrcCheck {
                    handle,
                    root: &self.root,
                    root0,
                };
                b.remove(&mut p, root0, key)
            };
            match result {
                Err(Restart) => b.abort(),
                Ok(None) => {
                    b.abort();
                    handle.reset();
                    return None;
                }
                Ok(Some((new_root, value))) => {
                    let replaced = std::mem::take(&mut b.replaced);
                    if self.publish(handle, root0, new_root, &replaced) {
                        handle.reset();
                        return Some(value);
                    }
                    b.abort();
                    backoff.cas_failed();
                }
            }
        }
    }
}

impl<K: Ord + Clone, V: Clone> Default for BonsaiTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Drop for BonsaiTree<K, V> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; reachable nodes were never retired.
        unsafe { free_tree(self.root.load_mut().with_tag(0)) };
    }
}

impl<K, V> ConcurrentMap<K, V> for BonsaiTree<K, V>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    type Handle = Handle;

    fn new() -> Self {
        BonsaiTree::new()
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
