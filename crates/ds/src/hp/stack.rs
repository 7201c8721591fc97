//! Treiber's stack with hazard pointers — the paper's Figure 2.
//!
//! `pop` protects the head node and validates by re-reading `head` (a
//! proper over-approximation of reachability: if the node were retired it
//! could no longer be the head). CAS retry storms are damped with
//! [`smr_common::Backoff`].

use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

use hp::HazardPointer;
use smr_common::{Atomic, Backoff, Shared};

struct Node<T> {
    next: Atomic<Node<T>>,
    value: Option<T>,
}

/// A lock-free stack (Treiber 1986) reclaimed with the original HP.
pub struct TreiberStack<T> {
    head: Atomic<Node<T>>,
}

unsafe impl<T: Send + Sync> Send for TreiberStack<T> {}
unsafe impl<T: Send + Sync> Sync for TreiberStack<T> {}

/// Per-thread state: HP registration plus the one hazard pointer of Fig. 2.
pub struct StackHandle {
    thread: hp::Thread,
    hp: HazardPointer,
}

impl StackHandle {
    /// Registers with the default HP domain.
    pub fn new() -> Self {
        let mut thread = hp::default_domain().register();
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

    /// Pops the top value (Fig. 2: protect, validate against head, CAS).
    pub fn pop(&self, handle: &mut StackHandle) -> Option<T>
    where
        T: Send,
    {
        let mut backoff = Backoff::new();
        loop {
            // Lines 2-4: protect h and validate head still holds it.
            let h = handle.hp.protect(&self.head);
            if h.is_null() {
                return None;
            }
            // Line 5: safe dereference.
            let next = unsafe { h.deref() }.next.load(Acquire);
            // Line 6: CAS head from h to its successor.
            if self.head.compare_exchange(h, next, AcqRel, Acquire).is_ok() {
                // The value moves out; the node is retired.
                let value = unsafe { (*h.as_raw()).value.take() };
                handle.hp.reset();
                unsafe { handle.thread.retire(h.as_raw()) };
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
        let mut cur = self.head.load_mut();
        while !cur.is_null() {
            let node = unsafe { Box::from_raw(cur.as_raw()) };
            cur = node.next.load(Relaxed);
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
        let mut h = s.handle();
        assert_eq!(s.pop(&mut h), None);
    }
}
