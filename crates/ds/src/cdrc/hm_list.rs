//! Harris–Michael list under CDRC reference counting.

use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

use cdrc::{alloc, defer_decr, incr, Counted, LocalHandle};
use smr_common::tagged::TAG_DELETED;
use smr_common::{Atomic, Backoff, ConcurrentMap, Shared};

use super::Node;

type Ptr<K, V> = Shared<Counted<Node<K, V>>>;

/// Harris–Michael list, CDRC flavor.
pub struct HMList<K, V> {
    head: Atomic<Counted<Node<K, V>>>,
}

unsafe impl<K: Send + Sync, V: Send + Sync> Send for HMList<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for HMList<K, V> {}

struct FindResult<K, V> {
    found: bool,
    prev: *const Atomic<Counted<Node<K, V>>>,
    cur: Ptr<K, V>,
}

impl<K, V> HMList<K, V>
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
            let mut cur = unsafe { &*prev }.load(Acquire);
            loop {
                if cur.is_null() {
                    return FindResult {
                        found: false,
                        prev,
                        cur,
                    };
                }
                let cur_node = unsafe { cur.deref() };
                let next = cur_node.next.load(Acquire);
                if next.tag() & TAG_DELETED != 0 {
                    let next_clean = next.with_tag(0);
                    // The prev link will own a count on next.
                    if !next_clean.is_null() {
                        unsafe { incr(next_clean) };
                    }
                    match unsafe { &*prev }.compare_exchange(cur, next_clean, AcqRel, Acquire) {
                        Ok(_) => {
                            // prev's count on cur is released.
                            unsafe { defer_decr(guard, cur) };
                            cur = next_clean;
                            continue;
                        }
                        Err(_) => {
                            if !next_clean.is_null() {
                                unsafe { defer_decr(guard, next_clean) };
                            }
                            continue 'retry;
                        }
                    }
                }
                match cur_node.key.cmp(key) {
                    std::cmp::Ordering::Less => {
                        prev = &cur_node.next;
                        cur = next;
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

    pub(crate) fn get_impl(&self, handle: &mut LocalHandle, key: &K) -> Option<V> {
        let guard = handle.pin();
        let r = self.find(key, &guard);
        if r.found {
            Some(unsafe { r.cur.deref() }.value.clone())
        } else {
            None
        }
    }

    pub(crate) fn insert_impl(&self, handle: &mut LocalHandle, key: K, value: V) -> bool {
        let guard = handle.pin();
        // The node starts with one count: the eventual prev link.
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
                // Never shared: release our reference (cascade frees it).
                unsafe { defer_decr(&guard, node) };
                return false;
            }
            // node.next takes a count on cur.
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
                    // prev released its count on cur; node.next now owns one.
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

impl<K, V> Default for HMList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Drop for HMList<K, V> {
    fn drop(&mut self) {
        // Deferred decrements targeting these nodes may still be queued in
        // EBR bags, so the list cannot free them directly; it releases its
        // own (head) reference through the same deferred path and lets the
        // cascade finish the job.
        drop_list_via_cascade(&self.head);
    }
}

pub(crate) fn drop_list_via_cascade<K, V>(head: &Atomic<Counted<Node<K, V>>>) {
    let h = unsafe { &*(head as *const Atomic<Counted<Node<K, V>>>) }.load(Relaxed);
    let h = h.with_tag(0);
    if !h.is_null() {
        let mut handle = cdrc::default_collector().register();
        let guard = handle.pin();
        unsafe { defer_decr(&guard, h) };
    }
}

impl<K, V> ConcurrentMap<K, V> for HMList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    type Handle = LocalHandle;

    fn new() -> Self {
        HMList::new()
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
