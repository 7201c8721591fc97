//! Harris's list + wait-free get under CDRC reference counting.
//!
//! Chain unlinks transfer one count to the new link and release the chain
//! head's count; the rest of the chain is freed by the destruction cascade
//! (each dying node decrements its successor).

use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

use cdrc::{alloc, defer_decr, incr, Counted, LocalHandle};
use smr_common::tagged::TAG_DELETED;
use smr_common::{Atomic, Backoff, ConcurrentMap, Shared};

use super::Node;

type Ptr<K, V> = Shared<Counted<Node<K, V>>>;

/// Harris's list with wait-free get, CDRC flavor.
pub struct HHSList<K, V> {
    head: Atomic<Counted<Node<K, V>>>,
}

unsafe impl<K: Send + Sync, V: Send + Sync> Send for HHSList<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for HHSList<K, V> {}

struct FindResult<K, V> {
    found: bool,
    prev: *const Atomic<Counted<Node<K, V>>>,
    cur: Ptr<K, V>,
}

impl<K, V> HHSList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Creates an empty list.
    pub fn new() -> Self {
        Self {
            head: Atomic::null(),
        }
    }

    fn find(&self, key: &K, guard: &cdrc::Guard<'_>) -> FindResult<K, V> {
        'retry: loop {
            let mut prev: *const Atomic<Counted<Node<K, V>>> = &self.head;
            let mut chain_start = unsafe { &*prev }.load(Acquire).with_tag(0);
            let mut cur = chain_start;

            let found = loop {
                if cur.is_null() {
                    break false;
                }
                let cur_node = unsafe { cur.deref() };
                let next = cur_node.next.load(Acquire);
                if next.tag() & TAG_DELETED != 0 {
                    cur = next.with_tag(0);
                    continue;
                }
                match cur_node.key.cmp(key) {
                    std::cmp::Ordering::Less => {
                        prev = &cur_node.next;
                        chain_start = next.with_tag(0);
                        cur = chain_start;
                    }
                    std::cmp::Ordering::Equal => break true,
                    std::cmp::Ordering::Greater => break false,
                }
            };

            if chain_start != cur {
                // Unlink [chain_start .. cur): prev takes a count on cur...
                if !cur.is_null() {
                    unsafe { incr(cur) };
                }
                match unsafe { &*prev }.compare_exchange(chain_start, cur, AcqRel, Acquire) {
                    Ok(_) => {
                        // ...and releases chain_start; the cascade frees the
                        // interior (each node decrements its successor).
                        unsafe { defer_decr(guard, chain_start) };
                    }
                    Err(_) => {
                        if !cur.is_null() {
                            unsafe { defer_decr(guard, cur) };
                        }
                        continue 'retry;
                    }
                }
            }
            return FindResult { found, prev, cur };
        }
    }

    pub(crate) fn get_impl(&self, handle: &mut LocalHandle, key: &K) -> Option<V> {
        // Wait-free: walk straight through marked nodes, no cleanup.
        let guard = handle.pin();
        let _ = &guard;
        let mut cur = self.head.load(Acquire).with_tag(0);
        while !cur.is_null() {
            let node = unsafe { cur.deref() };
            let next = node.next.load(Acquire);
            match node.key.cmp(key) {
                std::cmp::Ordering::Less => cur = next.with_tag(0),
                std::cmp::Ordering::Equal => {
                    return if next.tag() & TAG_DELETED == 0 {
                        Some(node.value.clone())
                    } else {
                        None
                    };
                }
                std::cmp::Ordering::Greater => return None,
            }
        }
        None
    }

    pub(crate) fn insert_impl(&self, handle: &mut LocalHandle, key: K, value: V) -> bool {
        let guard = handle.pin();
        let node = alloc(Node {
            next: Atomic::null(),
            key,
            value,
        });
        let node_ref = unsafe { node.deref() };
        let mut backoff = Backoff::new();
        loop {
            let r = self.find(&node_ref.key, &guard);
            if r.found {
                unsafe { defer_decr(&guard, node) };
                return false;
            }
            let old_next = node_ref.next.load(Relaxed);
            if old_next != r.cur {
                if !r.cur.is_null() {
                    unsafe { incr(r.cur) };
                }
                node_ref.next.store(r.cur, Relaxed);
                if !old_next.with_tag(0).is_null() {
                    unsafe { defer_decr(&guard, old_next.with_tag(0)) };
                }
            }
            match unsafe { &*r.prev }.compare_exchange(r.cur, node, AcqRel, Acquire) {
                Ok(_) => {
                    if !r.cur.is_null() {
                        unsafe { defer_decr(&guard, r.cur) };
                    }
                    return true;
                }
                Err(_) => {
                    backoff.cas_failed();
                    continue;
                }
            }
        }
    }

    pub(crate) fn remove_impl(&self, handle: &mut LocalHandle, key: &K) -> Option<V> {
        let guard = handle.pin();
        let mut backoff = Backoff::new();
        loop {
            let r = self.find(key, &guard);
            if !r.found {
                return None;
            }
            let cur_node = unsafe { r.cur.deref() };
            let next = cur_node.next.fetch_or_tag(TAG_DELETED, AcqRel);
            if next.tag() & TAG_DELETED != 0 {
                backoff.cas_failed();
                continue;
            }
            let value = cur_node.value.clone();
            let next_clean = next.with_tag(0);
            if !next_clean.is_null() {
                unsafe { incr(next_clean) };
            }
            if unsafe { &*r.prev }
                .compare_exchange(r.cur, next_clean, AcqRel, Acquire)
                .is_ok()
            {
                unsafe { defer_decr(&guard, r.cur) };
            } else if !next_clean.is_null() {
                unsafe { defer_decr(&guard, next_clean) };
            }
            return Some(value);
        }
    }
}

impl<K, V> Default for HHSList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Drop for HHSList<K, V> {
    fn drop(&mut self) {
        // See `hm_list::drop_list_via_cascade`: pending deferred decrements
        // forbid freeing in place.
        super::hm_list::drop_list_via_cascade(&self.head);
    }
}

impl<K, V> ConcurrentMap<K, V> for HHSList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    type Handle = LocalHandle;

    fn new() -> Self {
        HHSList::new()
    }

    fn handle(&self) -> LocalHandle {
        cdrc::default_collector().register()
    }

    fn get(&self, handle: &mut LocalHandle, key: &K) -> Option<V> {
        self.get_impl(handle, key)
    }

    fn insert(&self, handle: &mut LocalHandle, key: K, value: V) -> bool {
        self.insert_impl(handle, key, value)
    }

    fn remove(&self, handle: &mut LocalHandle, key: &K) -> Option<V> {
        self.remove_impl(handle, key)
    }
}
