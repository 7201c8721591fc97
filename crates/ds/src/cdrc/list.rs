//! The CDRC list, written once: one node type, one `insert`, one `remove`,
//! and the two searches of [`crate::list`], chosen by the same markers.
//!
//! * [`Michael`](crate::list::Michael) — the Harris–Michael search: each
//!   marked node is unlinked before the search steps past it; `get` is a
//!   search.
//! * [`Harris`](crate::list::Harris) — Harris's search walks through chains
//!   of marked nodes and unlinks a whole chain with one CAS. The unlink
//!   transfers one count to the new link and releases the chain head's
//!   count; the rest of the chain is freed by the destruction cascade (each
//!   dying node decrements its successor). `get` is the Herlihy–Shavit
//!   wait-free walk.

use std::cmp::Ordering::{Equal, Greater, Less};
use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

use cdrc::{alloc, defer_decr, incr, Counted, Edges, LocalHandle};
use smr_common::tagged::TAG_DELETED;
use smr_common::{Atomic, Backoff, ConcurrentMap, SchemeDomain, Shared};

use crate::list::Search;

/// List node with a counted next link.
struct Node<K, V> {
    next: Atomic<Counted<Node<K, V>>>,
    key: K,
    value: V,
}

impl<K, V> Edges for Node<K, V> {
    fn edges(&self, out: &mut Vec<Shared<Counted<Self>>>) {
        let next = self.next.load(Relaxed).with_tag(0);
        if !next.is_null() {
            out.push(next);
        }
    }
}

/// A sorted lock-free linked-list map under CDRC, searched by `T`.
pub struct List<K, V, T> {
    head: Atomic<Counted<Node<K, V>>>,
    _marker: PhantomData<fn() -> T>,
}

struct FindResult<K, V> {
    found: bool,
    prev: *const Atomic<Counted<Node<K, V>>>,
    cur: Shared<Counted<Node<K, V>>>,
}

impl<K, V, T> List<K, V, T>
where
    K: Ord + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    T: Search,
{
    fn find(&self, key: &K, guard: &cdrc::Guard<'_>) -> FindResult<K, V> {
        if T::OPTIMISTIC {
            self.find_harris(key, guard)
        } else {
            self.find_michael(key, guard)
        }
    }

    fn find_michael(&self, key: &K, guard: &cdrc::Guard<'_>) -> FindResult<K, V> {
        'retry: loop {
            let mut prev: *const Atomic<Counted<Node<K, V>>> = &self.head;
            let mut cur = unsafe { &*prev }.load(Acquire);
            let found = loop {
                if cur.is_null() {
                    break false;
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
                    Less => {
                        prev = &cur_node.next;
                        cur = next;
                    }
                    Equal => break true,
                    Greater => break false,
                }
            };
            return FindResult { found, prev, cur };
        }
    }

    fn find_harris(&self, key: &K, guard: &cdrc::Guard<'_>) -> FindResult<K, V> {
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
                    Less => {
                        prev = &cur_node.next;
                        chain_start = next.with_tag(0);
                        cur = chain_start;
                    }
                    Equal => break true,
                    Greater => break false,
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
}

impl<K, V, T> Drop for List<K, V, T> {
    fn drop(&mut self) {
        // Deferred decrements targeting these nodes may still be queued in
        // EBR bags, so the list cannot free them directly; it releases its
        // own (head) reference through the same deferred path and lets the
        // cascade finish the job.
        let h = self.head.load(Relaxed).with_tag(0);
        if !h.is_null() {
            let mut handle = cdrc::default_collector().register();
            let guard = handle.pin();
            unsafe { defer_decr(&guard, h) };
        }
    }
}

impl<K, V, T> ConcurrentMap<K, V> for List<K, V, T>
where
    K: Ord + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    T: Search,
{
    type Handle = LocalHandle;

    fn new() -> Self {
        Self {
            head: Atomic::null(),
            _marker: PhantomData,
        }
    }

    fn handle(&self) -> LocalHandle {
        cdrc::default_collector().register()
    }

    fn get(&self, handle: &mut LocalHandle, key: &K) -> Option<V> {
        let guard = handle.pin();
        if !T::OPTIMISTIC {
            let r = self.find(key, &guard);
            return r.found.then(|| unsafe { r.cur.deref() }.value.clone());
        }
        // Wait-free: walk straight through marked nodes, no cleanup.
        let mut cur = self.head.load(Acquire).with_tag(0);
        while !cur.is_null() {
            let node = unsafe { cur.deref() };
            let next = node.next.load(Acquire);
            match node.key.cmp(key) {
                Less => cur = next.with_tag(0),
                Equal => return (next.tag() & TAG_DELETED == 0).then(|| node.value.clone()),
                Greater => return None,
            }
        }
        None
    }

    fn insert(&self, handle: &mut LocalHandle, key: K, value: V) -> bool {
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
                Err(_) => backoff.cas_failed(),
            }
        }
    }

    fn remove(&self, handle: &mut LocalHandle, key: &K) -> Option<V> {
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
