//! Treiber's stack under HP++ — the smallest complete `try_unlink` client.
//!
//! A popped head node's frontier is its successor (the new head): it is
//! reachable by one link from the unlinked node and is not itself
//! unlinked. Head nodes are immutable once pushed (Assumption 1 holds for
//! free, §4.2). CAS retry loops back off via [`smr_common::Backoff`].

use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};

use hp_plus::{try_protect, HazardPointer, Invalidate, Unlinked};
use smr_common::tagged::TAG_INVALIDATED;
use smr_common::{Atomic, Backoff, Shared};

struct Node<T> {
    next: Atomic<Node<T>>,
    value: Option<T>,
}

unsafe impl<T> Invalidate for Node<T> {
    unsafe fn invalidate(ptr: *mut Self) {
        let node = unsafe { &*ptr };
        let cur = node.next.load(Relaxed);
        node.next
            .store(cur.with_tag(cur.tag() | TAG_INVALIDATED), Release);
    }
}

/// A lock-free stack (Treiber 1986) reclaimed with HP++.
pub struct TreiberStack<T> {
    head: Atomic<Node<T>>,
}

unsafe impl<T: Send + Sync> Send for TreiberStack<T> {}
unsafe impl<T: Send + Sync> Sync for TreiberStack<T> {}

/// Per-thread state.
pub struct StackHandle {
    thread: hp_plus::Thread,
    hp: HazardPointer,
}

impl StackHandle {
    /// Registers with the default HP++ domain.
    pub fn new() -> Self {
        let mut thread = hp_plus::default_domain().register();
        let hp = thread.hazard_pointer();
        Self { thread, hp }
    }
}

impl Default for StackHandle {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TreiberStack<T> {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self {
            head: Atomic::null(),
        }
    }

    /// Creates a per-thread handle.
    pub fn handle(&self) -> StackHandle {
        StackHandle::new()
    }

    /// Pushes a value.
    pub fn push(&self, value: T) {
        let node = Shared::from_owned(Node {
            next: Atomic::null(),
            value: Some(value),
        });
        let node_ref = unsafe { node.deref() };
        let mut head = self.head.load(Relaxed);
        let mut backoff = Backoff::new();
        loop {
            node_ref.next.store(head, Relaxed);
            match self.head.compare_exchange(head, node, AcqRel, Acquire) {
                Ok(_) => return,
                Err(h) => {
                    head = h;
                    backoff.cas_failed();
                }
            }
        }
    }

    /// Pops the top value: protect via `try_protect` (source = the head
    /// link, never invalid), detach via `try_unlink` (frontier = successor).
    pub fn pop(&self, handle: &mut StackHandle) -> Option<T>
    where
        T: Send,
    {
        let mut backoff = Backoff::new();
        loop {
            let mut h = self.head.load(Acquire).with_tag(0);
            if h.is_null() {
                return None;
            }
            if !try_protect(&handle.hp, &mut h, &self.head, || false) {
                backoff.cas_failed();
                continue;
            }
            if h.is_null() {
                return None;
            }
            let next = unsafe { h.deref() }.next.load(Acquire).with_tag(0);
            let head = &self.head;
            let unlinked = unsafe {
                handle.thread.try_unlink(&[next], || {
                    head.compare_exchange(h, next, AcqRel, Acquire)
                        .ok()
                        .map(|_| Unlinked::single(h))
                })
            };
            if unlinked {
                let value = unsafe { (*h.as_raw()).value.take() };
                handle.hp.reset();
                return value;
            }
            backoff.cas_failed();
        }
    }

    /// Whether the stack is (momentarily) empty.
    pub fn is_empty(&self) -> bool {
        self.head.load(Acquire).is_null()
    }
}

impl<T> Default for TreiberStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for TreiberStack<T> {
    fn drop(&mut self) {
        let mut cur = self.head.load_mut().with_tag(0);
        while !cur.is_null() {
            let node = unsafe { Box::from_raw(cur.as_raw()) };
            cur = node.next.load(Relaxed).with_tag(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed as R};

    #[test]
    fn push_pop_lifo() {
        let s = TreiberStack::new();
        let mut h = s.handle();
        for i in 0..10 {
            s.push(i);
        }
        for i in (0..10).rev() {
            assert_eq!(s.pop(&mut h), Some(i));
        }
        assert_eq!(s.pop(&mut h), None);
    }

    #[test]
    fn concurrent_push_pop_conserves_sum() {
        let s = TreiberStack::new();
        let popped_sum = AtomicU64::new(0);
        let pushed_sum = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let s = &s;
                let pushed_sum = &pushed_sum;
                scope.spawn(move || {
                    for i in 0..1000 {
                        let v = t * 10_000 + i;
                        s.push(v);
                        pushed_sum.fetch_add(v, R);
                    }
                });
            }
            for _ in 0..4 {
                let s = &s;
                let popped_sum = &popped_sum;
                scope.spawn(move || {
                    let mut h = s.handle();
                    let mut got = 0;
                    while got < 1000 {
                        if let Some(v) = s.pop(&mut h) {
                            popped_sum.fetch_add(v, R);
                            got += 1;
                        }
                    }
                });
            }
        });
        assert_eq!(popped_sum.load(R), pushed_sum.load(R));
    }

    #[test]
    fn garbage_stays_bounded() {
        let s = TreiberStack::new();
        let mut h = s.handle();
        for round in 0..400u64 {
            for i in 0..8 {
                s.push(round * 8 + i);
            }
            for _ in 0..8 {
                s.pop(&mut h);
            }
        }
        // The handle's own count: the process-global counters also move
        // with every sibling test running in parallel.
        let grown = h.thread.garbage_count() as u64;
        assert!(grown < 2 * hp_plus::RECLAIM_PERIOD as u64 + 64, "grew {grown}");
    }
}
