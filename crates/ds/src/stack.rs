//! Treiber's stack, written once — the paper's Figure 2 under HP, and the
//! smallest complete `unlink` client under HP++.
//!
//! `pop` protects the head node from the head link (a root: never
//! invalid, and if the node were retired it could no longer be the head)
//! and detaches it with its successor — the new head — as frontier. Head
//! nodes are immutable once pushed, so Assumption 1 holds for free (§4.2).
//! CAS retry storms are damped with [`smr_common::Backoff`].

use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};

use smr_common::tagged::TAG_INVALIDATED;
use smr_common::{Atomic, Backoff, Shared};

use crate::protect::{self, Protect};

/// The one hazard role: the node being popped.
const TOP: usize = 0;

struct Node<T> {
    next: Atomic<Node<T>>,
    value: Option<T>,
}

// SAFETY: sets the bit `is_invalid` reads, in the node's own link.
unsafe impl<T> protect::Invalidate for Node<T> {
    unsafe fn invalidate(ptr: *mut Self) {
        // SAFETY: the caller passes a live, unlinked node.
        let node = unsafe { &*ptr };
        // A plain store suffices: a pushed node's link never changes.
        let next = node.next.load(Relaxed);
        node.next
            .store(next.with_tag(next.tag() | TAG_INVALIDATED), Release);
    }
}

impl<T> protect::Node for Node<T> {
    const INVALID_TAG: usize = TAG_INVALIDATED;

    fn is_invalid(&self) -> bool {
        self.next.load(Acquire).tag() & TAG_INVALIDATED != 0
    }
}

/// A lock-free stack (Treiber 1986) over protection family `P`.
pub struct TreiberStack<T, P> {
    head: Atomic<Node<T>>,
    _marker: PhantomData<fn() -> P>,
}

impl<T, P: Protect> TreiberStack<T, P> {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self {
            head: Atomic::null(),
            _marker: PhantomData,
        }
    }

    /// Creates a per-thread handle.
    pub fn handle(&self) -> P::Handle {
        P::handle(P::default_domain())
    }

    /// Pushes a value.
    pub fn push(&self, value: T) {
        let node = Shared::from_owned(Node {
            next: Atomic::null(),
            value: Some(value),
        });
        // SAFETY: not shared before the CAS below succeeds.
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

    /// Pops the top value.
    pub fn pop(&self, handle: &mut P::Handle) -> Option<T>
    where
        T: Send,
    {
        let mut op = P::enter(handle);
        let mut backoff = Backoff::new();
        let value = loop {
            let mut top = self.head.load(Acquire).with_tag(0);
            if !P::protect(&mut op, TOP, &mut top, &self.head) {
                continue; // the head moved under a careful protection
            }
            if top.is_null() {
                break None;
            }
            // SAFETY: `top` is protected.
            let next = unsafe { top.deref() }.next.load(Acquire).with_tag(0);
            let once = std::iter::once(top);
            // SAFETY: the CAS detaches exactly `top`, whose only link
            // leads to `next`.
            if unsafe { P::unlink(&mut op, &self.head, top, next, || [next], once) } {
                // SAFETY: `TOP` keeps the node alive past its retirement,
                // and only the thread that detached it takes the value.
                break unsafe { (*top.as_raw()).value.take() };
            }
            backoff.cas_failed();
        };
        P::exit(op);
        value
    }

    /// Whether the stack is (momentarily) empty.
    pub fn is_empty(&self) -> bool {
        self.head.load(Acquire).is_null()
    }
}

impl<T, P: Protect> Default for TreiberStack<T, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, P> Drop for TreiberStack<T, P> {
    fn drop(&mut self) {
        let mut cur = self.head.load_mut();
        while !cur.is_null() {
            let node = cur.with_tag(0);
            // SAFETY: linked nodes are owned by the stack.
            unsafe {
                cur = node.deref().next.load(Relaxed);
                node.drop_owned();
            }
        }
    }
}
