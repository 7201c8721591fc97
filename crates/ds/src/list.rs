//! The sorted lock-free linked list, written once.
//!
//! Two traversals over one node type, one `insert`, one `remove`:
//!
//! * [`Michael`] — the *careful* Harris–Michael search (paper §2.2,
//!   Fig. 3): a logically deleted node is unlinked before the traversal
//!   steps past it, so no step ever leaves a marked node. Runs under every
//!   family.
//! * [`Harris`] — the *optimistic* Harris search with the Herlihy–Shavit
//!   wait-free `get` (§2.3, Fig. 4; Algorithm 4 under HP++): the search
//!   walks through chains of marked nodes, tracking `anchor` (the link out
//!   of the last unmarked node) and `anchor_next` (its successor then), and
//!   unlinks the whole chain `[anchor_next .. cur)` with one CAS. Needs an
//!   [`Optimistic`] family — original HP cannot run it.
//!
//! What a step costs under each family is in [`crate::protect`].

use std::cmp::Ordering::{Equal, Greater, Less};
use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};

use smr_common::tagged::{TAG_DELETED, TAG_INVALIDATED};
use smr_common::{Atomic, Backoff, ConcurrentMap, Shared};

use crate::InDomain;

use crate::protect::{self, protected_ref, Optimistic, Protect};

// Hazard roles (Algorithm 4). `Michael` uses the first two.
const PREV: usize = 0;
const CUR: usize = 1;
const ANCHOR: usize = 2;
const ANCHOR_NEXT: usize = 3;

/// Bit 0 of `next` is the logical deletion mark, bit 1 the HP++
/// invalidation mark.
struct Node<K, V> {
    next: Atomic<Node<K, V>>,
    key: K,
    value: V,
}

// SAFETY: sets the bit `is_invalid` reads, in the node's own link.
unsafe impl<K, V> protect::Invalidate for Node<K, V> {
    unsafe fn invalidate(ptr: *mut Self) {
        // SAFETY: the caller passes a live, unlinked node.
        let node = unsafe { &*ptr };
        // A plain store suffices: the node is unlinked, so its link no
        // longer changes (Assumption 1).
        let next = node.next.load(Relaxed);
        node.next
            .store(next.with_tag(next.tag() | TAG_INVALIDATED), Release);
    }
}

impl<K, V> protect::Node for Node<K, V> {
    fn is_invalid(&self) -> bool {
        self.next.load(Acquire).tag() & TAG_INVALIDATED != 0
    }
}

fn is_marked<K, V>(link: Shared<Node<K, V>>) -> bool {
    link.tag() & TAG_DELETED != 0
}

/// How a list searches; see the module docs. The CDRC list
/// (`crate::cdrc`) is searched by the same markers.
pub trait Search {
    /// Whether searches walk through marked nodes.
    const OPTIMISTIC: bool;
}

/// A [`Search`] that protection family `P` can run: Harris's needs
/// [`Optimistic`] protection.
pub trait Traversal<P>: Search {}

/// Harris–Michael traversal.
pub struct Michael;

/// Harris traversal with the wait-free `get`.
pub struct Harris;

impl Search for Michael {
    const OPTIMISTIC: bool = false;
}

impl Search for Harris {
    const OPTIMISTIC: bool = true;
}

impl<P: Protect> Traversal<P> for Michael {}

impl<P: Optimistic> Traversal<P> for Harris {}

/// A sorted lock-free linked-list map over protection family `P`,
/// searched by traversal `T`.
pub struct List<K, V, P: Protect, T> {
    head: Atomic<Node<K, V>>,
    /// Where handles returned by [`ConcurrentMap::handle`] register.
    domain: P::Domain,
    _marker: PhantomData<fn() -> T>,
}

/// A search result: `link` held `cur`, the first node with key ≥ the
/// target (or null), when the search ended; both are still protected.
struct Position<K, V> {
    found: bool,
    link: *const Atomic<Node<K, V>>,
    cur: Shared<Node<K, V>>,
}

/// The nodes of the frozen chain `[cur .. end)`.
struct Chain<K, V> {
    cur: Shared<Node<K, V>>,
    end: Shared<Node<K, V>>,
}

impl<K, V> Iterator for Chain<K, V> {
    type Item = Shared<Node<K, V>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == self.end {
            return None;
        }
        let node = self.cur;
        // SAFETY: the chain was just detached by this thread and is not
        // yet handed to the scheme; its links are frozen (all marked).
        self.cur = unsafe { node.deref() }.next.load(Relaxed).with_tag(0);
        Some(node)
    }
}

impl<K: Ord, V, P: Protect, T: Traversal<P>> List<K, V, P, T> {
    /// Creates an empty list in the family's default domain.
    pub fn new() -> Self {
        Self::in_domain(P::default_domain())
    }

    fn in_domain(domain: P::Domain) -> Self {
        Self {
            head: Atomic::null(),
            domain,
            _marker: PhantomData,
        }
    }

    fn find(&self, op: &mut P::Op<'_>, key: &K) -> Position<K, V> {
        if T::OPTIMISTIC {
            self.find_harris(op, key)
        } else {
            self.find_michael(op, key)
        }
    }

    /// Positions on the first node with key ≥ `key`, physically deleting
    /// every marked node on the way.
    fn find_michael(&self, op: &mut P::Op<'_>, key: &K) -> Position<K, V> {
        'retry: loop {
            let mut link: *const Atomic<Node<K, V>> = &self.head;
            let mut prev = Shared::null();
            // SAFETY (every `&*link` below): `link` is `head` or a field of
            // `prev`, which `PREV` protects.
            let mut cur = unsafe { &*link }.load(Acquire).with_tag(0);
            let found = loop {
                if !P::protect(op, CUR, &mut cur, unsafe { &*link }, prev) {
                    continue 'retry;
                }
                // SAFETY: `cur` is protected.
                let Some(node) = (unsafe { protected_ref(cur) }) else {
                    break false;
                };
                let next = node.next.load(Acquire);
                if is_marked(next) {
                    // Unlink `cur` before stepping past it; its successor
                    // is the frontier.
                    let next = next.with_tag(0);
                    let once = std::iter::once(cur);
                    // SAFETY: the CAS detaches exactly the marked `cur`.
                    if !unsafe { P::unlink(op, &*link, cur, next, || [next], once) } {
                        continue 'retry;
                    }
                    cur = next;
                    continue;
                }
                match node.key.cmp(key) {
                    Less => {
                        link = &node.next;
                        prev = cur;
                        P::swap(op, PREV, CUR);
                        cur = next.with_tag(0);
                    }
                    Equal => break true,
                    Greater => break false,
                }
            };
            return Position { found, link, cur };
        }
    }

    /// Algorithm 4's `TrySearch`, restarted until it succeeds.
    fn find_harris(&self, op: &mut P::Op<'_>, key: &K) -> Position<K, V> {
        'retry: loop {
            let mut link: *const Atomic<Node<K, V>> = &self.head;
            let mut prev = Shared::null();
            // SAFETY (every `&*link` / `&*anchor` below): each is `head`
            // or a field of the node `PREV` / `ANCHOR` protects.
            let mut cur = unsafe { &*link }.load(Acquire).with_tag(0);
            // Non-null iff `prev` is logically deleted.
            let mut anchor: *const Atomic<Node<K, V>> = std::ptr::null();
            let mut anchor_next = Shared::null();

            let found = loop {
                // Line 10.
                if !P::protect(op, CUR, &mut cur, unsafe { &*link }, prev) {
                    continue 'retry;
                }
                // SAFETY: `cur` is protected.
                let Some(node) = (unsafe { protected_ref(cur) }) else {
                    break false;
                };
                let next = node.next.load(Acquire);
                if !is_marked(next) {
                    if node.key >= *key {
                        break node.key == *key; // lines 17–18
                    }
                    // Lines 14–16: advance; the chain (if any) ended.
                    anchor = std::ptr::null();
                } else if anchor.is_null() {
                    // Lines 19–25: the first marked node of a chain.
                    anchor = link;
                    anchor_next = cur;
                    P::swap(op, ANCHOR, PREV);
                } else if anchor_next == prev {
                    P::swap(op, ANCHOR_NEXT, PREV);
                }
                link = &node.next;
                prev = cur;
                P::swap(op, PREV, CUR);
                cur = next.with_tag(0);
            };

            if !anchor.is_null() {
                // Lines 26–29: unlink the whole chain `[anchor_next .. cur)`.
                let chain = Chain {
                    cur: anchor_next,
                    end: cur,
                };
                // SAFETY: the CAS detaches exactly that chain — every node
                // of it marked — and `cur` is what it links to.
                if !unsafe { P::unlink(op, &*anchor, anchor_next, cur, || [cur], chain) } {
                    continue 'retry;
                }
                link = anchor;
                P::swap(op, PREV, ANCHOR);
            }
            // Line 30: `cur` may have been logically deleted since.
            // SAFETY: `cur` is protected.
            if unsafe { cur.as_ref() }.is_some_and(|n| is_marked(n.next.load(Acquire))) {
                continue 'retry;
            }
            return Position { found, link, cur };
        }
    }

    /// The Herlihy–Shavit search: hand-over-hand protection but no
    /// cleanup, marks checked only on the matching node. Wait-free unless
    /// a protection fails (PEBR ejection, HP++ invalidation — lock-free
    /// then, paper §4.3).
    fn lookup(&self, op: &mut P::Op<'_>, key: &K) -> Option<Shared<Node<K, V>>> {
        'retry: loop {
            // The step out of `head` first, then one step per node: every
            // step of the loop then has a source the compiler has seen
            // dereferenced, and the "is it the root?" test leaves the
            // pointer chase (25 instructions and 2 taken branches per node
            // under HP++, where one loop over both kinds of step was 30
            // and 4 — see EXPERIMENTS.md, PR 16 steadiness record).
            let mut cur = self.head.load(Acquire).with_tag(0);
            if !P::protect(op, CUR, &mut cur, &self.head, Shared::null()) {
                continue 'retry;
            }
            loop {
                // SAFETY: `cur` is protected, and stays so as the source
                // of the next step.
                let node = unsafe { protected_ref(cur) }?;
                let next = node.next.load(Acquire);
                if node.key >= *key {
                    return (node.key == *key && !is_marked(next)).then_some(cur);
                }
                P::swap(op, PREV, CUR);
                let mut succ = next.with_tag(0);
                if !P::protect(op, CUR, &mut succ, &node.next, cur) {
                    continue 'retry;
                }
                cur = succ;
            }
        }
    }

    /// Runs `f` on the value bound to `key` (or `None`) while the node is
    /// still protected: the operation ends only after `f` returns.
    pub fn get_with<R>(
        &self,
        handle: &mut P::Handle,
        key: &K,
        f: impl FnOnce(Option<&V>) -> R,
    ) -> R {
        let mut op = P::enter(handle);
        let node = if T::OPTIMISTIC {
            self.lookup(&mut op, key)
        } else {
            let at = self.find_michael(&mut op, key);
            at.found.then_some(at.cur)
        };
        // SAFETY: the search left `node` protected until `exit`.
        let out = f(node.map(|n| &unsafe { n.deref() }.value));
        P::exit(op);
        out
    }

    /// Number of reachable (non-deleted) nodes; not linearizable, test use.
    pub fn len_approx(&self) -> usize {
        let mut n = 0;
        let mut cur = self.head.load(Acquire);
        while !cur.is_null() {
            let node = unsafe { cur.with_tag(0).deref() };
            let next = node.next.load(Acquire);
            if next.tag() & TAG_DELETED == 0 {
                n += 1;
            }
            cur = next.with_tag(0);
        }
        n
    }
}

impl<K: Ord, V, P: Protect, T: Traversal<P>> Default for List<K, V, P, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, P: Protect, T> Drop for List<K, V, P, T> {
    fn drop(&mut self) {
        // Exclusive access: free every still-linked node.
        let mut cur = self.head.load_mut();
        while !cur.is_null() {
            let node = cur.with_tag(0);
            // SAFETY: linked nodes are owned by the list and were never
            // handed to the scheme.
            unsafe {
                cur = node.deref().next.load(Relaxed);
                node.drop_owned();
            }
        }
    }
}

impl<K, V, P, T> InDomain<K, V> for List<K, V, P, T>
where
    K: Ord + Send + Sync,
    V: Clone + Send + Sync,
    P: Protect,
    T: Traversal<P>,
{
    type Domain = P::Scheme;

    fn new_in(domain: &'static P::Scheme) -> Self {
        Self::in_domain(P::domain(domain))
    }

    fn handle_in(domain: &'static P::Scheme) -> P::Handle {
        P::register(domain)
    }
}

impl<K, V, P, T> ConcurrentMap<K, V> for List<K, V, P, T>
where
    K: Ord + Send + Sync,
    V: Clone + Send + Sync,
    P: Protect,
    T: Traversal<P>,
{
    type Handle = P::Handle;

    fn new() -> Self {
        List::new()
    }

    fn handle(&self) -> P::Handle {
        P::handle(self.domain)
    }

    fn get(&self, handle: &mut P::Handle, key: &K) -> Option<V> {
        self.get_with(handle, key, |value| value.cloned())
    }

    fn insert(&self, handle: &mut P::Handle, key: K, value: V) -> bool {
        let mut op = P::enter(handle);
        // Search first: an insert that finds its key allocates nothing.
        let mut at = self.find(&mut op, &key);
        if at.found {
            P::exit(op);
            return false;
        }
        let new = Shared::from_owned(Node {
            next: Atomic::from(at.cur),
            key,
            value,
        });
        // SAFETY: this thread's alone until a CAS below succeeds, and not
        // used after that.
        let node = unsafe { new.deref() };
        let mut backoff = Backoff::new();
        let inserted = loop {
            // SAFETY: `at.link` is `head` or a field of a protected node.
            if unsafe { &*at.link }
                .compare_exchange(at.cur, new, AcqRel, Acquire)
                .is_ok()
            {
                break true;
            }
            backoff.cas_failed();
            at = self.find(&mut op, &node.key);
            if at.found {
                // SAFETY: every CAS failed, so `new` was never shared.
                unsafe { new.drop_owned() };
                break false;
            }
            node.next.store(at.cur, Relaxed);
        };
        P::exit(op);
        inserted
    }

    fn remove(&self, handle: &mut P::Handle, key: &K) -> Option<V> {
        let mut op = P::enter(handle);
        let mut backoff = Backoff::new();
        let removed = loop {
            let at = self.find(&mut op, key);
            if !at.found {
                break None;
            }
            // SAFETY: `at.cur` is non-null and protected.
            let node = unsafe { at.cur.deref() };
            // Logical deletion. If another deleter marked first, re-search.
            let next = node.next.fetch_or_tag(TAG_DELETED, AcqRel);
            if is_marked(next) {
                backoff.cas_failed();
                continue;
            }
            let value = node.value.clone();
            // Eager physical deletion; a loser leaves it to later searches.
            let next = next.with_tag(0);
            let once = std::iter::once(at.cur);
            // SAFETY: `at.link` as above; the CAS detaches exactly the
            // node this thread marked, whose frozen successor is `next`.
            unsafe { P::unlink(&mut op, &*at.link, at.cur, next, || [next], once) };
            break Some(value);
        };
        P::exit(op);
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guarded::HMList;

    #[test]
    fn ordered_and_deduplicated() {
        let m: HMList<u64, u64, ebr::Ebr> = HMList::new();
        let mut h = ConcurrentMap::handle(&m);
        assert!(m.insert(&mut h, 5, 50));
        assert!(m.insert(&mut h, 1, 10));
        assert!(m.insert(&mut h, 3, 30));
        assert!(!m.insert(&mut h, 3, 31), "duplicate key must be rejected");
        assert_eq!(m.get(&mut h, &3), Some(30));
        assert_eq!(m.remove(&mut h, &3), Some(30));
        assert_eq!(m.get(&mut h, &3), None);
        assert_eq!(m.len_approx(), 2);
    }
}
