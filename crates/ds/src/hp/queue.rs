//! Michael–Scott queue with hazard pointers (Michael 2004's running
//! example). Dequeue protects the head (validated against the head
//! pointer) and its successor (validated against the head again — the MS
//! queue invariant makes head-stability imply successor reachability).

use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};

use hp::HazardPointer;
use smr_common::{fence, Atomic, Backoff, Shared};

struct Node<T> {
    next: Atomic<Node<T>>,
    value: Option<T>,
}

/// A lock-free FIFO queue reclaimed with the original HP.
pub struct MSQueue<T> {
    head: Atomic<Node<T>>,
    tail: Atomic<Node<T>>,
}

unsafe impl<T: Send + Sync> Send for MSQueue<T> {}
unsafe impl<T: Send + Sync> Sync for MSQueue<T> {}

/// Per-thread state: two hazard pointers (head, next).
pub struct QueueHandle {
    thread: hp::Thread,
    hp_head: HazardPointer,
    hp_next: HazardPointer,
}

impl QueueHandle {
    /// Registers with the default HP domain.
    pub fn new() -> Self {
        let mut thread = hp::default_domain().register();
        let hp_head = thread.hazard_pointer();
        let hp_next = thread.hazard_pointer();
        Self {
            thread,
            hp_head,
            hp_next,
        }
    }
}

impl Default for QueueHandle {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> MSQueue<T> {
    /// Creates an empty queue (one sentinel node).
    pub fn new() -> Self {
        let sentinel = Shared::from_owned(Node {
            next: Atomic::null(),
            value: None,
        });
        Self {
            head: Atomic::from(sentinel),
            tail: Atomic::from(sentinel),
        }
    }

    /// Creates a per-thread handle.
    pub fn handle(&self) -> QueueHandle {
        QueueHandle::new()
    }

    /// Enqueues at the tail.
    pub fn enqueue(&self, handle: &mut QueueHandle, value: T) {
        let node = Shared::from_owned(Node {
            next: Atomic::null(),
            value: Some(value),
        });
        let mut backoff = Backoff::new();
        loop {
            // Protect the tail so its next field stays dereferenceable.
            let tail = handle.hp_head.protect(&self.tail);
            let tail_node = unsafe { tail.deref() };
            let next = tail_node.next.load(Acquire);
            if !next.is_null() {
                let _ = self.tail.compare_exchange(tail, next, AcqRel, Acquire);
                continue;
            }
            if tail_node
                .next
                .compare_exchange(Shared::null(), node, AcqRel, Acquire)
                .is_ok()
            {
                let _ = self.tail.compare_exchange(tail, node, Release, Relaxed);
                handle.hp_head.reset();
                return;
            }
            backoff.cas_failed();
        }
    }

    /// Dequeues from the head.
    pub fn dequeue(&self, handle: &mut QueueHandle) -> Option<T> {
        let mut backoff = Backoff::new();
        loop {
            let head = handle.hp_head.protect(&self.head);
            let next = unsafe { head.deref() }.next.load(Acquire);
            if next.is_null() {
                handle.hp_head.reset();
                return None;
            }
            // Protect next; validate via the head pointer: while head is
            // unchanged, its successor cannot have been retired.
            handle.hp_next.protect_raw(next.as_raw());
            fence::light();
            if self.head.load(Acquire) != head {
                continue;
            }
            let tail = self.tail.load(Acquire);
            if head == tail {
                let _ = self.tail.compare_exchange(tail, next, AcqRel, Acquire);
            }
            if self.head.compare_exchange(head, next, AcqRel, Acquire).is_ok() {
                let value = unsafe { (*next.as_raw()).value.take() };
                handle.hp_head.reset();
                handle.hp_next.reset();
                unsafe { handle.thread.retire(head.as_raw()) };
                return value;
            }
            backoff.cas_failed();
        }
    }
}

impl<T: Send> Default for MSQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for MSQueue<T> {
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
        let q = MSQueue::new();
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
        let q = MSQueue::new();
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
    fn garbage_bounded_under_churn() {
        let q = MSQueue::new();
        let mut h = q.handle();
        // The scan trigger is max(threshold, k·H), and H counts every slot
        // sibling tests ever took from the default domain, so the churn is
        // sized from the bound: four times past it, or the check could not
        // fail.
        let bound = |h: &QueueHandle| 2 * h.thread.reclaim_threshold() + 64;
        let mut i = 0u64;
        while i < 2000 || i < 4 * bound(&h) as u64 {
            q.enqueue(&mut h, i);
            assert_eq!(q.dequeue(&mut h), Some(i));
            i += 1;
        }
        // The handle's own count: the process-global counters also move
        // with every sibling test running in parallel.
        let grown = h.thread.retired_count();
        assert!(grown < bound(&h), "grew {grown}");
    }
}
