//! Harris's list with wait-free get, protected by HP++ — the paper's
//! running example (Algorithm 4).
//!
//! The search walks straight through chains of logically deleted nodes,
//! tracking `anchor` (the last node that was not logically deleted) and
//! `anchor_next` (its successor at that moment). When the destination is
//! reached, the whole chain `[anchor_next .. cur)` is unlinked with one CAS
//! via `try_unlink`, with `cur` as the frontier.
//!
//! Hazard bookkeeping follows Algorithm 4 lines 19–25: `anchor` and
//! `anchor_next` inherit protection from `hp_prev` as the traversal passes
//! them.

use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

use hp_plus::{try_protect, HazardPointer, Unlinked};
use smr_common::tagged::TAG_DELETED;
use smr_common::{Atomic, Backoff, ConcurrentMap, Shared};

use super::{is_marked, src_is_invalid, Handle, Node};

/// Harris's list + wait-free get, protected by HP++.
pub struct HHSList<K, V> {
    head: Atomic<Node<K, V>>,
    /// Domain that nodes of this list retire into; handles returned by
    /// [`ConcurrentMap::handle`] register here.
    domain: &'static hp_plus::Domain,
}

unsafe impl<K: Send + Sync, V: Send + Sync> Send for HHSList<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for HHSList<K, V> {}

struct SearchResult<K, V> {
    found: bool,
    /// Link whose value is `cur`; either `&head` or a field of a node
    /// protected by `hp_prev`/`hp_anchor`.
    prev: *const Atomic<Node<K, V>>,
    cur: Shared<Node<K, V>>,
}

impl<K, V> HHSList<K, V>
where
    K: Ord,
{
    /// Creates an empty list in the default HP++ domain.
    pub fn new() -> Self {
        Self::new_in(hp_plus::default_domain())
    }

    /// Creates an empty list whose handles register with `domain`.
    pub fn new_in(domain: &'static hp_plus::Domain) -> Self {
        Self {
            head: Atomic::null(),
            domain,
        }
    }

    /// Algorithm 4's `TrySearch`. `None` means the traversal must restart
    /// (protection failure or lost unlink race).
    fn try_search(&self, key: &K, handle: &mut Handle) -> Option<SearchResult<K, V>> {
        let mut prev: *const Atomic<Node<K, V>> = &self.head;
        let mut prev_node: Shared<Node<K, V>> = Shared::null();
        let mut cur = unsafe { &*prev }.load(Acquire).with_tag(0);

        // Anchor state: non-null iff prev is logically deleted.
        let mut anchor: *const Atomic<Node<K, V>> = std::ptr::null();
        let mut anchor_node: Shared<Node<K, V>> = Shared::null();
        let mut anchor_next: Shared<Node<K, V>> = Shared::null();

        let found = loop {
            // Line 10: protect cur; fail only if prev was invalidated.
            let src = prev_node;
            if !try_protect(&handle.hp_cur, &mut cur, unsafe { &*prev }, || {
                src_is_invalid(src)
            }) {
                return None; // line 11: restart
            }
            if cur.is_null() {
                break false;
            }
            let cur_node = unsafe { cur.deref() };
            let next = cur_node.next.load(Acquire);
            if !is_marked(next.tag()) {
                if cur_node.key < *key {
                    // Lines 14–16: advance; the chain (if any) ended.
                    prev = &cur_node.next;
                    prev_node = cur;
                    HazardPointer::swap(&mut handle.hp_cur, &mut handle.hp_prev);
                    cur = next.with_tag(0);
                    anchor = std::ptr::null();
                    anchor_node = Shared::null();
                    anchor_next = Shared::null();
                } else {
                    break cur_node.key == *key; // lines 17–18
                }
            } else {
                // Lines 19–25: step through a logically deleted node.
                if anchor.is_null() {
                    anchor = prev;
                    anchor_node = prev_node;
                    anchor_next = cur;
                    HazardPointer::swap(&mut handle.hp_anchor, &mut handle.hp_prev);
                } else if anchor_next == prev_node {
                    HazardPointer::swap(&mut handle.hp_anchor_next, &mut handle.hp_prev);
                }
                prev = &cur_node.next;
                prev_node = cur;
                HazardPointer::swap(&mut handle.hp_prev, &mut handle.hp_cur);
                cur = next.with_tag(0);
            }
        };

        if !anchor.is_null() {
            // Lines 26–29: unlink the whole chain [anchor_next .. cur).
            let anchor_atomic = anchor;
            let expected = anchor_next;
            let target = cur;
            let unlinked = unsafe {
                handle.thread.try_unlink(&[target], || {
                    unsafe { &*anchor_atomic }
                        .compare_exchange(expected, target, AcqRel, Acquire)
                        .ok()
                        .map(|_| {
                            // Collect the detached chain. The links are
                            // frozen (all marked), so a relaxed walk is fine.
                            // One- and two-node chains — the common case —
                            // use the allocation-free variants.
                            let second =
                                unsafe { expected.deref() }.next.load(Relaxed).with_tag(0);
                            if second == target {
                                return Unlinked::single(expected);
                            }
                            let third =
                                unsafe { second.deref() }.next.load(Relaxed).with_tag(0);
                            if third == target {
                                return Unlinked::pair(expected, second);
                            }
                            let mut nodes = vec![expected, second];
                            let mut p = third;
                            while p != target {
                                nodes.push(p);
                                p = unsafe { p.deref() }.next.load(Relaxed).with_tag(0);
                            }
                            Unlinked::new(nodes)
                        })
                })
            };
            if unlinked {
                // Line 28: prev ← anchor.
                prev = anchor;
                prev_node = anchor_node;
                HazardPointer::swap(&mut handle.hp_prev, &mut handle.hp_anchor);
            } else {
                return None; // line 29
            }
        }
        let _ = prev_node;

        // Line 30: if cur has been logically deleted since, restart.
        if !cur.is_null() && is_marked(unsafe { cur.deref() }.next.load(Acquire).tag()) {
            return None;
        }
        Some(SearchResult { found, prev, cur })
    }

    fn search(&self, key: &K, handle: &mut Handle) -> SearchResult<K, V> {
        loop {
            if let Some(r) = self.try_search(key, handle) {
                return r;
            }
        }
    }

    pub(crate) fn get_impl(&self, handle: &mut Handle, key: &K) -> Option<V>
    where
        V: Clone,
    {
        // Optimistic get (Herlihy & Shavit): hand-over-hand protection but
        // no cleanup — logically deleted nodes are walked straight through.
        // Wait-free modulo protection failures (paper §4.3: lock-free).
        'retry: loop {
            let mut prev: *const Atomic<Node<K, V>> = &self.head;
            let mut prev_node: Shared<Node<K, V>> = Shared::null();
            let mut cur = unsafe { &*prev }.load(Acquire).with_tag(0);
            loop {
                let src = prev_node;
                if !try_protect(&handle.hp_cur, &mut cur, unsafe { &*prev }, || {
                    src_is_invalid(src)
                }) {
                    continue 'retry;
                }
                if cur.is_null() {
                    handle.reset();
                    return None;
                }
                let node = unsafe { cur.deref() };
                let next = node.next.load(Acquire);
                match node.key.cmp(key) {
                    std::cmp::Ordering::Less => {
                        prev = &node.next;
                        prev_node = cur;
                        HazardPointer::swap(&mut handle.hp_prev, &mut handle.hp_cur);
                        cur = next.with_tag(0);
                    }
                    std::cmp::Ordering::Equal => {
                        let out = if is_marked(next.tag()) {
                            None
                        } else {
                            Some(node.value.clone())
                        };
                        handle.reset();
                        return out;
                    }
                    std::cmp::Ordering::Greater => {
                        handle.reset();
                        return None;
                    }
                }
            }
        }
    }

    pub(crate) fn insert_impl(&self, handle: &mut Handle, key: K, value: V) -> bool {
        let mut node = Box::new(Node {
            next: Atomic::null(),
            key,
            value,
        });
        let mut backoff = Backoff::new();
        let out = loop {
            let r = self.search(&node.key, handle);
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
            let r = self.search(key, handle);
            if !r.found {
                break None;
            }
            let cur_node = unsafe { r.cur.deref() };
            let next = cur_node.next.fetch_or_tag(TAG_DELETED, AcqRel);
            if is_marked(next.tag()) {
                backoff.cas_failed();
                continue; // another deleter won; re-search
            }
            let value = cur_node.value.clone();
            // Eager physical deletion; on failure traversals clean up.
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

impl<K: Ord, V> Default for HHSList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Drop for HHSList<K, V> {
    fn drop(&mut self) {
        let mut cur = self.head.load_mut();
        while !cur.is_null() {
            let boxed = unsafe { Box::from_raw(cur.with_tag(0).as_raw()) };
            cur = boxed.next.load(Relaxed).with_tag(0);
        }
    }
}

impl<K, V> ConcurrentMap<K, V> for HHSList<K, V>
where
    K: Ord + Send + Sync,
    V: Clone + Send + Sync,
{
    type Handle = Handle;

    fn new() -> Self {
        HHSList::new()
    }

    fn handle(&self) -> Handle {
        Handle::new_in(self.domain)
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
        test_utils::check_sequential::<HHSList<u64, u64>>();
    }

    #[test]
    fn concurrent_stress() {
        test_utils::check_concurrent::<HHSList<u64, u64>>(8, 1024);
    }

    #[test]
    fn striped() {
        test_utils::check_striped::<HHSList<u64, u64>>(4, 64);
    }

    #[test]
    fn chain_unlink_through_deleted_nodes() {
        let m: HHSList<u64, u64> = HHSList::new();
        let mut h = ConcurrentMap::handle(&m);
        for k in 0..12 {
            assert!(ConcurrentMap::insert(&m, &mut h, k, k * 3));
        }
        // Delete a contiguous run, creating a marked chain.
        for k in 4..9 {
            assert_eq!(ConcurrentMap::remove(&m, &mut h, &k), Some(k * 3));
        }
        for k in 0..12 {
            let expected = if (4..9).contains(&k) { None } else { Some(k * 3) };
            assert_eq!(ConcurrentMap::get(&m, &mut h, &k), expected);
        }
        // And a search past the chain still inserts correctly.
        assert!(ConcurrentMap::insert(&m, &mut h, 6, 66));
        assert_eq!(ConcurrentMap::get(&m, &mut h, &6), Some(66));
    }

    #[test]
    fn heavy_churn_bounded_garbage() {
        let m: HHSList<u64, u64> = HHSList::new();
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
