//! [`ConcurrentMap`] adapters for the stack/queue "bags".
//!
//! The bench workload engine drives everything through the
//! [`ConcurrentMap`] interface. Stacks and queues are *bags*: they hold
//! values, not key→value bindings. The adapter maps the operation mix onto
//! bag operations — `insert` adds the key as a value, `remove` takes an
//! arbitrary element (ignoring the key), and `get` takes one element and
//! immediately puts it back, so read-heavy mixes keep the bag populated
//! while still exercising the contended ends.
//!
//! Keys drawn by the sampler are uninterpreted payload here; contention is
//! structural: every operation hits the head/tail words.

use smr_common::ConcurrentMap;

use crate::protect::{Protect, Retire};
use crate::queue::MSQueue;
use crate::stack::TreiberStack;

/// A multiset of values with contended endpoints: stacks and queues.
pub trait ConcurrentBag<T>: Sized {
    /// Per-thread operation state.
    type Handle;

    /// Creates an empty bag.
    fn new() -> Self;

    /// Creates a per-thread handle.
    fn handle(&self) -> Self::Handle;

    /// Adds a value to the bag.
    fn add(&self, handle: &mut Self::Handle, value: T);

    /// Takes some value out of the bag (LIFO/FIFO order per structure).
    fn take(&self, handle: &mut Self::Handle) -> Option<T>;
}

impl<T: Send, P: Protect> ConcurrentBag<T> for TreiberStack<T, P> {
    type Handle = P::Handle;

    fn new() -> Self {
        TreiberStack::new()
    }

    fn handle(&self) -> P::Handle {
        TreiberStack::handle(self)
    }

    fn add(&self, _handle: &mut P::Handle, value: T) {
        self.push(value);
    }

    fn take(&self, handle: &mut P::Handle) -> Option<T> {
        self.pop(handle)
    }
}

impl<T: Send, P: Retire> ConcurrentBag<T> for MSQueue<T, P> {
    type Handle = P::Handle;

    fn new() -> Self {
        MSQueue::new()
    }

    fn handle(&self) -> P::Handle {
        MSQueue::handle(self)
    }

    fn add(&self, handle: &mut P::Handle, value: T) {
        self.enqueue(handle, value);
    }

    fn take(&self, handle: &mut P::Handle) -> Option<T> {
        self.dequeue(handle)
    }
}

/// Presents a [`ConcurrentBag`] as a `ConcurrentMap<u64, u64>` so the bench
/// runner can drive it unchanged.
pub struct BagMap<B> {
    bag: B,
}

unsafe impl<B: Send> Send for BagMap<B> {}
unsafe impl<B: Sync> Sync for BagMap<B> {}

impl<B: ConcurrentBag<u64>> ConcurrentMap<u64, u64> for BagMap<B> {
    type Handle = B::Handle;

    fn new() -> Self {
        Self { bag: B::new() }
    }

    fn handle(&self) -> B::Handle {
        self.bag.handle()
    }

    fn get(&self, handle: &mut B::Handle, _key: &u64) -> Option<u64> {
        // Take-and-put-back: a read op still collides on the hot ends but
        // leaves the population unchanged.
        let v = self.bag.take(handle)?;
        self.bag.add(handle, v);
        Some(v)
    }

    fn insert(&self, handle: &mut B::Handle, key: u64, _value: u64) -> bool {
        self.bag.add(handle, key);
        true
    }

    fn remove(&self, handle: &mut B::Handle, _key: &u64) -> Option<u64> {
        self.bag.take(handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{guarded, hp as dshp};

    fn exercise<B: ConcurrentBag<u64>>() {
        let m = BagMap::<B>::new();
        let mut h = m.handle();
        assert!(m.insert(&mut h, 7, 7));
        assert!(m.insert(&mut h, 9, 9));
        // get keeps the population intact.
        assert!(m.get(&mut h, &0).is_some());
        let a = m.remove(&mut h, &0).expect("two elements in");
        let b = m.remove(&mut h, &0).expect("one element left");
        assert_eq!(a + b, 16);
        assert_eq!(m.remove(&mut h, &0), None);
        assert_eq!(m.get(&mut h, &0), None);
    }

    #[test]
    fn map_adapter_over_every_bag() {
        exercise::<dshp::TreiberStack<u64>>();
        exercise::<crate::hpp::TreiberStack<u64>>();
        exercise::<dshp::MSQueue<u64>>();
        exercise::<guarded::MSQueue<u64, ebr::Ebr>>();
        exercise::<guarded::MSQueue<u64, nr::Nr>>();
    }
}
