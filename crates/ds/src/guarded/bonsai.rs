//! Bonsai tree for guard-based schemes.

use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

use smr_common::{Atomic, Backoff, ConcurrentMap, GuardedScheme, SchemeGuard, Shared};

use crate::bonsai_core::{free_tree, Builder, Node, Protector, Restart};

/// Protector that only checks critical-section validity (PEBR ejection).
struct GuardProtect<'a, G> {
    guard: &'a G,
}

impl<K, V, G: SchemeGuard> Protector<K, V> for GuardProtect<'_, G> {
    fn protect(
        &mut self,
        _node: Shared<Node<K, V>>,
        _src: Shared<Node<K, V>>,
    ) -> Result<(), Restart> {
        if self.guard.validate() {
            Ok(())
        } else {
            Err(Restart)
        }
    }
}

/// Non-blocking Bonsai tree (COW path-copy + root CAS), guard-based flavor.
pub struct BonsaiTree<K, V, S> {
    root: Atomic<Node<K, V>>,
    _marker: PhantomData<S>,
}

unsafe impl<K: Send + Sync, V: Send + Sync, S> Send for BonsaiTree<K, V, S> {}
unsafe impl<K: Send + Sync, V: Send + Sync, S> Sync for BonsaiTree<K, V, S> {}

impl<K, V, S> BonsaiTree<K, V, S>
where
    K: Ord + Clone,
    V: Clone,
    S: GuardedScheme,
{
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self {
            root: Atomic::null(),
            _marker: PhantomData,
        }
    }

    pub(crate) fn get_impl(&self, handle: &mut S::Handle, key: &K) -> Option<V> {
        let mut guard = S::pin(handle);
        'retry: loop {
            if !guard.validate() {
                guard.refresh();
                continue;
            }
            let mut cur = self.root.load(Acquire).with_tag(0);
            while !cur.is_null() {
                if !guard.validate() {
                    guard.refresh();
                    continue 'retry;
                }
                let node = unsafe { cur.deref() };
                match key.cmp(&node.key) {
                    std::cmp::Ordering::Less => cur = node.left.load(Relaxed).with_tag(0),
                    std::cmp::Ordering::Greater => cur = node.right.load(Relaxed).with_tag(0),
                    std::cmp::Ordering::Equal => return Some(node.value.clone()),
                }
            }
            return None;
        }
    }

    pub(crate) fn insert_impl(&self, handle: &mut S::Handle, key: K, value: V) -> bool {
        let mut guard = S::pin(handle);
        let mut backoff = Backoff::new();
        loop {
            if !guard.validate() {
                guard.refresh();
                continue;
            }
            let root0 = self.root.load(Acquire).with_tag(0);
            let mut b = Builder::new();
            let mut p = GuardProtect { guard: &guard };
            match b.insert(&mut p, root0, &key, &value) {
                Err(Restart) => {
                    b.abort();
                    guard.refresh();
                }
                Ok(None) => {
                    b.abort();
                    return false;
                }
                Ok(Some(new_root)) => {
                    match self.root.compare_exchange(root0, new_root, AcqRel, Acquire) {
                        Ok(_) => {
                            for r in b.replaced {
                                unsafe { guard.defer_destroy(r) };
                            }
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

    pub(crate) fn remove_impl(&self, handle: &mut S::Handle, key: &K) -> Option<V> {
        let mut guard = S::pin(handle);
        let mut backoff = Backoff::new();
        loop {
            if !guard.validate() {
                guard.refresh();
                continue;
            }
            let root0 = self.root.load(Acquire).with_tag(0);
            let mut b = Builder::new();
            let mut p = GuardProtect { guard: &guard };
            match b.remove(&mut p, root0, key) {
                Err(Restart) => {
                    b.abort();
                    guard.refresh();
                }
                Ok(None) => {
                    b.abort();
                    return None;
                }
                Ok(Some((new_root, value))) => {
                    match self.root.compare_exchange(root0, new_root, AcqRel, Acquire) {
                        Ok(_) => {
                            for r in b.replaced {
                                unsafe { guard.defer_destroy(r) };
                            }
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

impl<K, V, S> Default for BonsaiTree<K, V, S>
where
    K: Ord + Clone,
    V: Clone,
    S: GuardedScheme,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S> Drop for BonsaiTree<K, V, S> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; reachable nodes were never retired.
        unsafe { free_tree(self.root.load_mut().with_tag(0)) };
    }
}

impl<K, V, S> ConcurrentMap<K, V> for BonsaiTree<K, V, S>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    S: GuardedScheme,
{
    type Handle = S::Handle;

    fn new() -> Self {
        BonsaiTree::new()
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
