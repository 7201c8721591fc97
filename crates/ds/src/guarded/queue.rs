//! Michael–Scott queue for guard-based schemes — the paper's §4.2 example
//! of a structure satisfying Assumption 1 "for free" (only the tail node is
//! ever mutated, and the tail is never unlinked).

use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};

use smr_common::{Atomic, Backoff, GuardedScheme, SchemeGuard, Shared};

struct Node<T> {
    next: Atomic<Node<T>>,
    value: Option<T>,
}

/// A lock-free FIFO queue (Michael & Scott 1996), guard-based flavor.
pub struct MSQueue<T, S> {
    head: Atomic<Node<T>>,
    tail: Atomic<Node<T>>,
    _marker: PhantomData<S>,
}

unsafe impl<T: Send + Sync, S> Send for MSQueue<T, S> {}
unsafe impl<T: Send + Sync, S> Sync for MSQueue<T, S> {}

impl<T, S> MSQueue<T, S>
where
    T: Send,
    S: GuardedScheme,
{
    /// Creates an empty queue (one sentinel node).
    pub fn new() -> Self {
        let sentinel = Shared::from_owned(Node {
            next: Atomic::null(),
            value: None,
        });
        Self {
            head: Atomic::from(sentinel),
            tail: Atomic::from(sentinel),
            _marker: PhantomData,
        }
    }

    /// Creates a per-thread handle.
    pub fn handle(&self) -> S::Handle {
        S::handle()
    }

    /// Enqueues at the tail.
    pub fn enqueue(&self, handle: &mut S::Handle, value: T) {
        let mut guard = S::pin(handle);
        let node = Shared::from_owned(Node {
            next: Atomic::null(),
            value: Some(value),
        });
        let mut backoff = Backoff::new();
        loop {
            if !guard.validate() {
                guard.refresh();
                continue;
            }
            let tail = self.tail.load(Acquire);
            let tail_node = unsafe { tail.deref() };
            let next = tail_node.next.load(Acquire);
            if !next.is_null() {
                // Help swing the lagging tail.
                let _ = self.tail.compare_exchange(tail, next, AcqRel, Acquire);
                continue;
            }
            if tail_node
                .next
                .compare_exchange(Shared::null(), node, AcqRel, Acquire)
                .is_ok()
            {
                let _ = self.tail.compare_exchange(tail, node, Release, Relaxed);
                return;
            }
            backoff.cas_failed();
        }
    }

    /// Dequeues from the head.
    pub fn dequeue(&self, handle: &mut S::Handle) -> Option<T> {
        let mut guard = S::pin(handle);
        let mut backoff = Backoff::new();
        loop {
            if !guard.validate() {
                guard.refresh();
                continue;
            }
            let head = self.head.load(Acquire);
            let next = unsafe { head.deref() }.next.load(Acquire);
            if next.is_null() {
                return None;
            }
            let tail = self.tail.load(Acquire);
            if head == tail {
                // Tail is lagging behind a non-empty queue; help it.
                let _ = self.tail.compare_exchange(tail, next, AcqRel, Acquire);
            }
            if self.head.compare_exchange(head, next, AcqRel, Acquire).is_ok() {
                // `next` becomes the new sentinel; take its value.
                let value = unsafe { (*next.as_raw()).value.take() };
                unsafe { guard.defer_destroy(head) };
                return value;
            }
            backoff.cas_failed();
        }
    }
}

impl<T: Send, S: GuardedScheme> Default for MSQueue<T, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, S> Drop for MSQueue<T, S> {
    fn drop(&mut self) {
        let mut cur = self.head.load_mut();
        while !cur.is_null() {
            // SAFETY: exclusive access; linked nodes are owned by the queue.
            unsafe {
                let next = cur.deref().next.load(Relaxed);
                cur.drop_owned();
                cur = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn fifo_order() {
        let q: MSQueue<u64, ebr::Ebr> = MSQueue::new();
        let mut h = q.handle();
        for i in 0..100 {
            q.enqueue(&mut h, i);
        }
        for i in 0..100 {
            assert_eq!(q.dequeue(&mut h), Some(i));
        }
        assert_eq!(q.dequeue(&mut h), None);
    }

    #[test]
    fn concurrent_no_loss_no_duplication() {
        let q: MSQueue<u64, ebr::Ebr> = MSQueue::new();
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.handle();
                    for i in 0..1000 {
                        q.enqueue(&mut h, t * 10_000 + i);
                    }
                });
            }
            for _ in 0..4 {
                let q = &q;
                let seen = &seen;
                s.spawn(move || {
                    let mut h = q.handle();
                    let mut got = 0;
                    while got < 1000 {
                        if let Some(v) = q.dequeue(&mut h) {
                            assert!(seen.lock().unwrap().insert(v), "duplicate {v}");
                            got += 1;
                        }
                    }
                });
            }
        });
        assert_eq!(seen.lock().unwrap().len(), 4000);
    }

    #[test]
    fn works_under_pebr_too() {
        let q: MSQueue<u64, pebr::Pebr> = MSQueue::new();
        let mut h = q.handle();
        for i in 0..50 {
            q.enqueue(&mut h, i);
        }
        for i in 0..50 {
            assert_eq!(q.dequeue(&mut h), Some(i));
        }
    }
}
