//! Harris–Michael list with HP++ protection.
//!
//! Careful traversal (deleted nodes are unlinked one at a time, as in the HP
//! flavor) but with HP++'s under-approximating validation: protection only
//! fails when the *previous* node has been invalidated, so the frequent
//! restarts of the HP flavor (any change to the source link) become simple
//! retargets. Physical deletions go through `try_unlink` with the successor
//! as frontier.

use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

use hp_plus::{try_protect, HazardPointer, Unlinked};
use smr_common::tagged::TAG_DELETED;
use smr_common::{Atomic, Backoff, ConcurrentMap, Shared};

use super::{is_marked, src_is_invalid, Handle, Node};

/// Harris–Michael list protected by HP++.
pub struct HMList<K, V> {
    head: Atomic<Node<K, V>>,
}

unsafe impl<K: Send + Sync, V: Send + Sync> Send for HMList<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for HMList<K, V> {}

struct FindResult<K, V> {
    found: bool,
    prev: *const Atomic<Node<K, V>>,
    cur: Shared<Node<K, V>>,
}

impl<K, V> HMList<K, V>
where
    K: Ord,
{
    /// Creates an empty list.
    pub fn new() -> Self {
        Self {
            head: Atomic::null(),
        }
    }

    fn find(&self, key: &K, handle: &mut Handle) -> FindResult<K, V> {
        'retry: loop {
            let mut prev: *const Atomic<Node<K, V>> = &self.head;
            let mut prev_node: Shared<Node<K, V>> = Shared::null();
            let mut cur = unsafe { &*prev }.load(Acquire).with_tag(0);
            loop {
                // Announce + validate: fails only if prev was invalidated;
                // a changed link just retargets `cur`.
                let src = prev_node;
                if !try_protect(&handle.hp_cur, &mut cur, unsafe { &*prev }, || {
                    src_is_invalid(src)
                }) {
                    continue 'retry;
                }
                if cur.is_null() {
                    return FindResult {
                        found: false,
                        prev,
                        cur,
                    };
                }
                let cur_node = unsafe { cur.deref() };
                let next = cur_node.next.load(Acquire);
                if is_marked(next.tag()) {
                    // Careful traversal: physically delete cur before
                    // stepping past it. Frontier = the successor.
                    let next_clean = next.with_tag(0);
                    let prev_atomic = prev;
                    let cur_copy = cur;
                    let unlinked = unsafe {
                        handle.thread.try_unlink(&[next_clean], || {
                            unsafe { &*prev_atomic }
                                .compare_exchange(cur_copy, next_clean, AcqRel, Acquire)
                                .ok()
                                .map(|_| Unlinked::single(cur_copy))
                        })
                    };
                    if unlinked {
                        cur = next_clean;
                        continue;
                    } else {
                        continue 'retry;
                    }
                }
                match cur_node.key.cmp(key) {
                    std::cmp::Ordering::Less => {
                        prev = &cur_node.next;
                        prev_node = cur;
                        HazardPointer::swap(&mut handle.hp_prev, &mut handle.hp_cur);
                        cur = next.with_tag(0);
                    }
                    std::cmp::Ordering::Equal => {
                        return FindResult {
                            found: true,
                            prev,
                            cur,
                        }
                    }
                    std::cmp::Ordering::Greater => {
                        return FindResult {
                            found: false,
                            prev,
                            cur,
                        }
                    }
                }
            }
        }
    }

    pub(crate) fn get_impl(&self, handle: &mut Handle, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let r = self.find(key, handle);
        let out = if r.found {
            Some(unsafe { r.cur.deref() }.value.clone())
        } else {
            None
        };
        handle.reset();
        out
    }

    pub(crate) fn insert_impl(&self, handle: &mut Handle, key: K, value: V) -> bool {
        let mut node = Box::new(Node {
            next: Atomic::null(),
            key,
            value,
        });
        let mut backoff = Backoff::new();
        let out = loop {
            let r = self.find(&node.key, handle);
            if r.found {
                break false;
            }
            node.next.store_mut(r.cur);
            let new = Shared::from_raw(Box::into_raw(node));
            match unsafe { &*r.prev }.compare_exchange(r.cur, new, AcqRel, Acquire) {
                Ok(_) => break true,
                Err(_) => {
                    node = unsafe { Box::from_raw(new.as_raw()) };
                    backoff.cas_failed();
                }
            }
        };
        handle.reset();
        out
    }

    pub(crate) fn remove_impl(&self, handle: &mut Handle, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let mut backoff = Backoff::new();
        let out = loop {
            let r = self.find(key, handle);
            if !r.found {
                break None;
            }
            let cur_node = unsafe { r.cur.deref() };
            let next = cur_node.next.fetch_or_tag(TAG_DELETED, AcqRel);
            if is_marked(next.tag()) {
                backoff.cas_failed();
                continue;
            }
            let value = cur_node.value.clone();
            // Physical deletion through try_unlink; the frontier (frozen
            // successor) stays protected until cur is invalidated.
            let next_clean = next.with_tag(0);
            let prev_atomic = r.prev;
            let cur_copy = r.cur;
            unsafe {
                handle.thread.try_unlink(&[next_clean], || {
                    unsafe { &*prev_atomic }
                        .compare_exchange(cur_copy, next_clean, AcqRel, Acquire)
                        .ok()
                        .map(|_| Unlinked::single(cur_copy))
                })
            };
            break Some(value);
        };
        handle.reset();
        out
    }
}

impl<K: Ord, V> Default for HMList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Drop for HMList<K, V> {
    fn drop(&mut self) {
        let mut cur = self.head.load_mut();
        while !cur.is_null() {
            let boxed = unsafe { Box::from_raw(cur.with_tag(0).as_raw()) };
            cur = boxed.next.load(Relaxed).with_tag(0);
        }
    }
}

impl<K, V> ConcurrentMap<K, V> for HMList<K, V>
where
    K: Ord + Send + Sync,
    V: Clone + Send + Sync,
{
    type Handle = Handle;

    fn new() -> Self {
        HMList::new()
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
        test_utils::check_sequential::<HMList<u64, u64>>();
    }

    #[test]
    fn concurrent_stress() {
        test_utils::check_concurrent::<HMList<u64, u64>>(8, 512);
    }

    #[test]
    fn striped() {
        test_utils::check_striped::<HMList<u64, u64>>(4, 64);
    }

    #[test]
    fn heavy_churn_bounded_garbage() {
        let m: HMList<u64, u64> = HMList::new();
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
            garbage < 2 * hp_plus::RECLAIM_PERIOD as u64 + 128,
            "garbage grew unboundedly: {garbage}"
        );
    }
}
