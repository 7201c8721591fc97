//! Bonsai tree with original hazard pointers.
//!
//! Every dereference announces the node and re-validates that the **root
//! has not changed** since the operation began: any successful update may
//! have retired arbitrary path nodes, and the root pointer is the only
//! witness. This is the validation the paper describes as making HP "less
//! efficient" on Bonsai — any concurrent update fails every in-flight
//! protection.

use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

use hp::HazardPointer;
use smr_common::{fence, Atomic, Backoff, ConcurrentMap, Shared};

use crate::bonsai_core::{free_tree, Builder, Node, Protector, Restart};

/// Per-thread state: HP registration and a growable pool of hazard slots
/// (one per node dereferenced during a version build: O(tree depth)).
pub struct Handle {
    thread: hp::Thread,
    slots: Vec<HazardPointer>,
    used: usize,
}

impl Handle {
    fn new() -> Self {
        Self {
            thread: hp::default_domain().register(),
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

struct RootCheck<'a, K, V> {
    handle: &'a mut Handle,
    root: &'a Atomic<Node<K, V>>,
    root0: Shared<Node<K, V>>,
}

impl<K, V> Protector<K, V> for RootCheck<'_, K, V> {
    fn protect(
        &mut self,
        node: Shared<Node<K, V>>,
        _src: Shared<Node<K, V>>,
    ) -> Result<(), Restart> {
        self.handle.announce(node);
        fence::light();
        if self.root.load(Acquire).with_tag(0) == self.root0 {
            Ok(())
        } else {
            Err(Restart)
        }
    }
}

/// Non-blocking Bonsai tree protected by the original HP.
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

    /// Protects the current root snapshot. Returns the protected root.
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
                    std::cmp::Ordering::Less => node.left.load(Relaxed).with_tag(0),
                    std::cmp::Ordering::Greater => node.right.load(Relaxed).with_tag(0),
                    std::cmp::Ordering::Equal => {
                        let out = node.value.clone();
                        handle.reset();
                        return Some(out);
                    }
                };
                if !next.is_null() {
                    handle.announce(next);
                    fence::light();
                    if self.root.load(Acquire).with_tag(0) != root0 {
                        continue 'retry;
                    }
                }
                cur = next;
            }
            handle.reset();
            return None;
        }
    }

    pub(crate) fn insert_impl(&self, handle: &mut Handle, key: K, value: V) -> bool {
        let mut backoff = Backoff::new();
        loop {
            let root0 = self.protect_root(handle);
            let mut b = Builder::new();
            let result = {
                let mut p = RootCheck {
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
                    match self.root.compare_exchange(root0, new_root, AcqRel, Acquire) {
                        Ok(_) => {
                            for r in b.replaced {
                                unsafe { handle.thread.retire(r.as_raw()) };
                            }
                            handle.reset();
                            return true;
                        }
                        Err(_) => {
                            b.abort();
                            backoff.cas_failed();
                        }
                    }
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
                let mut p = RootCheck {
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
                    match self.root.compare_exchange(root0, new_root, AcqRel, Acquire) {
                        Ok(_) => {
                            for r in b.replaced {
                                unsafe { handle.thread.retire(r.as_raw()) };
                            }
                            handle.reset();
                            return Some(value);
                        }
                        Err(_) => {
                            b.abort();
                            backoff.cas_failed();
                        }
                    }
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
