//! Harris–Michael list with original hazard pointers (paper Fig. 3).

use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

use hp::HazardPointer;
use smr_common::tagged::TAG_DELETED;
use smr_common::{Atomic, Backoff, ConcurrentMap, Shared};

pub(crate) struct Node<K, V> {
    pub(crate) next: Atomic<Node<K, V>>,
    pub(crate) key: K,
    pub(crate) value: V,
}

/// Per-thread state: HP registration plus the two hand-over-hand hazard
/// pointers of Fig. 3.
pub struct Handle {
    pub(crate) thread: hp::Thread,
    pub(crate) hp_prev: HazardPointer,
    pub(crate) hp_cur: HazardPointer,
}

impl Handle {
    /// Registers with the default HP domain.
    pub fn new() -> Self {
        let mut thread = hp::default_domain().register();
        let hp_prev = thread.hazard_pointer();
        let hp_cur = thread.hazard_pointer();
        Self {
            thread,
            hp_prev,
            hp_cur,
        }
    }
}

impl Default for Handle {
    fn default() -> Self {
        Self::new()
    }
}

/// Harris–Michael list protected by the original HP.
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

    /// Fig. 3's traversal: protect `cur`, validate that `prev_link` still
    /// holds exactly `cur` (which simultaneously checks "prev not marked"
    /// and "cur not unlinked"), restart from head on failure.
    fn find(&self, key: &K, handle: &mut Handle) -> FindResult<K, V> {
        'retry: loop {
            let mut prev: *const Atomic<Node<K, V>> = &self.head;
            let mut cur = unsafe { &*prev }.load(Acquire);
            loop {
                if cur.is_null() {
                    return FindResult {
                        found: false,
                        prev,
                        cur,
                    };
                }
                // Announce + validate (over-approximating unreachability).
                if handle
                    .hp_cur
                    .try_protect(cur.with_tag(0), unsafe { &*prev })
                    .is_err()
                {
                    continue 'retry;
                }
                let cur_node = unsafe { cur.deref() };
                let next = cur_node.next.load(Acquire);
                if next.tag() & TAG_DELETED != 0 {
                    let next_clean = next.with_tag(0);
                    match unsafe { &*prev }.compare_exchange(cur, next_clean, AcqRel, Acquire) {
                        Ok(_) => {
                            unsafe { handle.thread.retire(cur.as_raw()) };
                            cur = next_clean;
                            continue;
                        }
                        Err(_) => continue 'retry,
                    }
                }
                match cur_node.key.cmp(key) {
                    std::cmp::Ordering::Less => {
                        prev = &cur_node.next;
                        HazardPointer::swap(&mut handle.hp_prev, &mut handle.hp_cur);
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
        handle.hp_cur.reset();
        handle.hp_prev.reset();
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
        handle.hp_cur.reset();
        handle.hp_prev.reset();
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
            if next.tag() & TAG_DELETED != 0 {
                backoff.cas_failed();
                continue;
            }
            let value = cur_node.value.clone();
            if unsafe { &*r.prev }
                .compare_exchange(r.cur, next.with_tag(0), AcqRel, Acquire)
                .is_ok()
            {
                unsafe { handle.thread.retire(r.cur.as_raw()) };
            }
            break Some(value);
        };
        handle.hp_cur.reset();
        handle.hp_prev.reset();
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
    fn heavy_churn_reclaims_memory() {
        // Insert/remove churn far beyond the reclamation threshold; the
        // thread's retired bag must stay bounded (robustness of HP).
        let m: HMList<u64, u64> = HMList::new();
        let mut h = ConcurrentMap::handle(&m);
        for round in 0..200u64 {
            for k in 0..10 {
                ConcurrentMap::insert(&m, &mut h, k, round);
            }
            for k in 0..10 {
                ConcurrentMap::remove(&m, &mut h, &k);
            }
        }
        // The handle's own count: the process-global counters also move
        // with every sibling test running in parallel.
        let garbage = h.thread.retired_count() as u64;
        assert!(
            garbage < 2 * hp::RECLAIM_THRESHOLD as u64 + 64,
            "garbage grew unboundedly: {garbage}"
        );
    }
}
