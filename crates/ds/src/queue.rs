//! The Michael–Scott queue, written once — the paper's §4.2 example of a
//! structure satisfying Assumption 1 "for free" (only the tail node is ever
//! mutated, and the tail is never unlinked), and Michael 2004's running
//! example for hazard pointers.
//!
//! A dequeuer reads `next` out of the head node but retires the head by
//! swinging `head`, so the word that vouches for `next` is `head`, not the
//! link it was read from: while `head` is unchanged its successor cannot
//! have been retired. That is [`Protect::protect_by`](crate::protect::Protect::protect_by).

use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};

use smr_common::{Atomic, Backoff, Shared};

use crate::protect::{Retire, NO_SRC};

// Hazard roles: the end node an operation works on, and a dequeue's
// successor of the head.
const END: usize = 0;
const NEXT: usize = 1;
/// Hazard slots a handle of the queue holds.
pub(crate) const SLOTS: usize = 2;

struct Node<T> {
    next: Atomic<Node<T>>,
    value: Option<T>,
}

/// A lock-free FIFO queue (Michael & Scott 1996) over protection family `P`.
pub struct MSQueue<T, P> {
    head: Atomic<Node<T>>,
    tail: Atomic<Node<T>>,
    _marker: PhantomData<fn() -> P>,
}

impl<T: Send, P: Retire> MSQueue<T, P> {
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
    pub fn handle(&self) -> P::Handle {
        P::handle(P::default_domain())
    }

    /// Enqueues at the tail.
    pub fn enqueue(&self, handle: &mut P::Handle, value: T) {
        let mut op = P::enter(handle);
        let node = Shared::from_owned(Node {
            next: Atomic::null(),
            value: Some(value),
        });
        let mut backoff = Backoff::new();
        loop {
            // Protect the tail so its next field stays dereferenceable.
            let tail = self.tail.load(Acquire);
            if !P::protect_by(&mut op, END, tail, NO_SRC, || {
                self.tail.load(Acquire) == tail
            }) {
                continue;
            }
            // SAFETY: `END` protects the tail.
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
                break;
            }
            backoff.cas_failed();
        }
        P::exit(op);
    }

    /// Dequeues from the head.
    pub fn dequeue(&self, handle: &mut P::Handle) -> Option<T> {
        let mut op = P::enter(handle);
        let mut backoff = Backoff::new();
        let value = loop {
            let head = self.head.load(Acquire);
            let head_unmoved = || self.head.load(Acquire) == head;
            if !P::protect_by(&mut op, END, head, NO_SRC, head_unmoved) {
                continue;
            }
            // SAFETY: `END` protects the head.
            let next = unsafe { head.deref() }.next.load(Acquire);
            if next.is_null() {
                break None;
            }
            if !P::protect_by(&mut op, NEXT, next, NO_SRC, head_unmoved) {
                continue;
            }
            let tail = self.tail.load(Acquire);
            if head == tail {
                // Tail is lagging behind a non-empty queue; help it.
                let _ = self.tail.compare_exchange(tail, next, AcqRel, Acquire);
            }
            if self
                .head
                .compare_exchange(head, next, AcqRel, Acquire)
                .is_ok()
            {
                // SAFETY: `next` becomes the new sentinel and `NEXT` keeps
                // it alive; only the thread that swung `head` takes its
                // value. The old sentinel is now unreachable, and ours.
                unsafe {
                    let value = (*next.as_raw()).value.take();
                    P::retire(&mut op, head);
                    break value;
                }
            }
            backoff.cas_failed();
        };
        P::exit(op);
        value
    }
}

impl<T: Send, P: Retire> Default for MSQueue<T, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, P> Drop for MSQueue<T, P> {
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
    use crate::hp as dshp;

    #[test]
    fn garbage_bounded_under_churn() {
        let q = dshp::MSQueue::new();
        let mut h = q.handle();
        // The scan trigger is max(threshold, k·H), and H counts every slot
        // sibling tests ever took from the default domain, so the churn is
        // sized from the bound: four times past it, or the check could not
        // fail.
        let bound = |h: &dshp::QueueHandle| 2 * h.thread.reclaim_threshold() + 64;
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
