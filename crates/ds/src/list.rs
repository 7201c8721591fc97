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

use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};

use smr_common::tagged::{TAG_DELETED, TAG_INVALIDATED};
use smr_common::{Atomic, Backoff, ConcurrentMap, Shared};

use crate::InDomain;

use crate::protect::{self, protected_ref, untagged, Optimistic, Protect};

// Hazard slots (Algorithm 4's roles). `PREV` and `CUR` take the two
// hand-over-hand roles in turn (`alternate`); `Michael` uses only them.
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
    const INVALID_TAG: usize = TAG_INVALIDATED;

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

/// How a search step ended.
enum Step<T> {
    /// It moved one node on: take the next step.
    Next,
    /// The search is over, with this answer.
    Done(T),
    /// A protection failed: start again from `head`.
    Restart,
}

/// Runs a search's `step`s until one ends it (`None`: restart), handing
/// each the slot to announce its node in — `slots[0]` and `slots[1]` in
/// turn, the other one protecting the step's source. Two steps per turn,
/// so each announces in a constant slot: the hand-over-hand roles
/// alternate with no exchange through the handle, and both slot pointers
/// stay in registers.
#[inline(always)]
fn alternate<T>(slots: [usize; 2], mut step: impl FnMut(usize) -> Step<T>) -> Option<T> {
    loop {
        for slot in slots {
            match step(slot) {
                Step::Next => {}
                Step::Done(answer) => return Some(answer),
                Step::Restart => return None,
            }
        }
    }
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
    #[inline]
    fn find_michael(&self, op: &mut P::Op<'_>, key: &K) -> Position<K, V> {
        'retry: loop {
            let mut link: *const Atomic<Node<K, V>> = &self.head;
            // SAFETY (every `&*link` below): `link` is `head` or a field of
            // the node the other slot of the pair than `slot` protects.
            let mut cur = unsafe { &*link }.load(Acquire).with_tag(0);
            let found = alternate([CUR, PREV], |slot| loop {
                if !P::protect(op, slot, &mut cur, unsafe { &*link }) {
                    return Step::Restart;
                }
                // SAFETY: `cur` is protected.
                let Some(node) = (unsafe { protected_ref(cur) }) else {
                    return Step::Done(false);
                };
                let next = node.next.load(Acquire);
                if is_marked(next) {
                    // Unlink `cur` before stepping past it; its successor
                    // is the frontier, and takes its place under `slot`.
                    let next = next.with_tag(0);
                    let once = std::iter::once(cur);
                    // SAFETY: the CAS detaches exactly the marked `cur`.
                    if !unsafe { P::unlink(op, &*link, cur, next, || [next], once) } {
                        return Step::Restart;
                    }
                    cur = next;
                    continue;
                }
                // Two compares, not `cmp`: a three-way `Ordering` is
                // materialised and tested again on every node.
                if node.key >= *key {
                    return Step::Done(node.key == *key);
                }
                link = &node.next;
                cur = untagged(next);
                return Step::Next;
            });
            let Some(found) = found else {
                continue 'retry;
            };
            return Position { found, link, cur };
        }
    }

    /// Algorithm 4's `TrySearch`, restarted until it succeeds.
    #[inline]
    fn find_harris(&self, op: &mut P::Op<'_>, key: &K) -> Position<K, V> {
        'retry: loop {
            let mut link: *const Atomic<Node<K, V>> = &self.head;
            let mut prev = Shared::null();
            // SAFETY (every `&*link` / `&*anchor` below): each is `head`
            // or a field of the node the other slot of the pair than
            // `slot` / `ANCHOR` protects.
            let mut cur = unsafe { &*link }.load(Acquire).with_tag(0);
            // Non-null iff `prev` is logically deleted.
            let mut anchor: *const Atomic<Node<K, V>> = std::ptr::null();
            let mut anchor_next = Shared::null();

            let found = alternate([CUR, PREV], |slot| {
                // Line 10.
                if !P::protect(op, slot, &mut cur, unsafe { &*link }) {
                    return Step::Restart;
                }
                // SAFETY: `cur` is protected.
                let Some(node) = (unsafe { protected_ref(cur) }) else {
                    return Step::Done(false);
                };
                let next = node.next.load(Acquire);
                if !is_marked(next) {
                    if node.key >= *key {
                        return Step::Done(node.key == *key); // lines 17–18
                    }
                    // Lines 14–16: advance; the chain (if any) ended.
                    anchor = std::ptr::null();
                } else if anchor.is_null() {
                    // Lines 19–25: the first marked node of a chain. The
                    // slot protecting `prev` (the other one of the pair)
                    // becomes `ANCHOR`'s, and `ANCHOR`'s joins the pair.
                    // Exchanged, not copied: a copy that a scan reads
                    // before it lands, and the original after it was
                    // overwritten, protects nothing.
                    anchor = link;
                    anchor_next = cur;
                    P::swap(op, ANCHOR, PREV + CUR - slot);
                } else if anchor_next == prev {
                    P::swap(op, ANCHOR_NEXT, PREV + CUR - slot);
                }
                link = &node.next;
                prev = cur;
                cur = untagged(next);
                Step::Next
            });
            let Some(found) = found else {
                continue 'retry;
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
                // `ANCHOR` protects the owner of the link returned.
                link = anchor;
            }
            // Line 30: `cur` may have been logically deleted since.
            // SAFETY: `cur` is protected.
            if unsafe { protected_ref(cur) }.is_some_and(|n| is_marked(n.next.load(Acquire))) {
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
        loop {
            // The step out of `head` first (a root link is never tagged),
            // then one step per node: every step then has a source the
            // compiler has seen dereferenced, and the "is it the root?"
            // test leaves the pointer chase. Under HP++ a node then costs
            // 14.5 instructions and 1.5 taken branches, and its one load of
            // `next` is the whole critical path (EXPERIMENTS.md, the
            // one-dependent-load record).
            let mut cur = self.head.load(Acquire).with_tag(0);
            if !P::protect(op, CUR, &mut cur, &self.head) {
                continue;
            }
            let found = alternate([PREV, CUR], |slot| {
                // SAFETY: `cur` is protected, and stays so as the source
                // of this step.
                let Some(node) = (unsafe { protected_ref(cur) }) else {
                    return Step::Done(None);
                };
                let next = node.next.load(Acquire);
                if node.key >= *key {
                    return Step::Done((node.key == *key && !is_marked(next)).then_some(cur));
                }
                let mut succ = untagged(next);
                if !P::protect(op, slot, &mut succ, &node.next) {
                    return Step::Restart;
                }
                cur = succ;
                Step::Next
            });
            if let Some(found) = found {
                return found;
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
    use crate::protect::{Careful, Guarded, Hpp};

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

    /// Logically deletes `key`'s node and leaves it linked, as a remover
    /// preempted between its mark and its unlink does.
    fn mark<P: Protect, T>(m: &List<u64, u64, P, T>, key: u64) {
        let mut cur = m.head.load(Acquire);
        // SAFETY: no other thread runs; every linked node is live.
        while let Some(node) = unsafe { cur.with_tag(0).as_ref() } {
            if node.key == key {
                node.next.fetch_or_tag(TAG_DELETED, AcqRel);
                return;
            }
            cur = node.next.load(Acquire);
        }
        panic!("no node with key {key}");
    }

    /// A get, an insert and a remove, each the first operation to walk a
    /// fresh `1..=5` whose node 3 is marked: each must step past it (the
    /// successor's tag-free word under `Harris`, an unlink under
    /// `Michael`), find the keys on both sides, and read 3 as absent.
    fn walks_past_a_marked_node<P: Protect, T: Traversal<P>>() {
        let fresh = || {
            let m = List::<u64, u64, P, T>::new();
            let mut h = ConcurrentMap::handle(&m);
            for k in 1..=5 {
                assert!(m.insert(&mut h, k, k * 10));
            }
            mark(&m, 3);
            (m, h)
        };

        let (m, mut h) = fresh();
        assert_eq!(m.get(&mut h, &4), Some(40));
        assert_eq!(m.get(&mut h, &3), None);
        assert_eq!(m.get(&mut h, &2), Some(20));
        assert_eq!(m.get(&mut h, &5), Some(50));

        let (m, mut h) = fresh();
        assert!(m.insert(&mut h, 6, 60));
        assert_eq!(m.get(&mut h, &6), Some(60));
        assert_eq!(m.get(&mut h, &3), None);
        assert_eq!(m.get(&mut h, &2), Some(20));
        assert_eq!(m.get(&mut h, &4), Some(40));

        let (m, mut h) = fresh();
        assert_eq!(m.remove(&mut h, &5), Some(50));
        assert_eq!(m.get(&mut h, &5), None);
        assert_eq!(m.get(&mut h, &3), None);
        assert_eq!(m.get(&mut h, &4), Some(40));
        assert_eq!(m.get(&mut h, &2), Some(20));
        assert_eq!(m.len_approx(), 3);
    }

    #[test]
    fn hhslist_ebr_walks_past_a_marked_node() {
        walks_past_a_marked_node::<Guarded<ebr::Ebr>, Harris>();
    }

    #[test]
    fn hmlist_hp_walks_past_a_marked_node() {
        walks_past_a_marked_node::<Careful<::hp::Domain, 2>, Michael>();
    }

    #[test]
    fn hhslist_hpp_walks_past_a_marked_node() {
        walks_past_a_marked_node::<Hpp<4>, Harris>();
    }

    /// Staged interleavings of one protection step: a reader's `get` stalls
    /// at the `nth` crossing of `point` (after an announcement, before its
    /// validating re-read) while `meddle` changes the list. Returns the
    /// get's answer and how often the reader crossed `point` in all — one
    /// crossing per step, so a restart from `head` shows up as the steps
    /// it repeats.
    #[cfg(feature = "fault-injection")]
    mod staged {
        use smr_common::fault::{self, FaultAction};

        use super::*;
        use crate::protect::STALL_VICTIM;

        const HPP_POINT: &str = "ds::hpp::protect::after_announce";
        const CAREFUL_POINT: &str = "ds::careful::protect::after_announce";

        fn staged_get<P: Protect, T: Traversal<P>>(
            m: &List<u64, u64, P, T>,
            key: u64,
            point: &'static str,
            nth: u64,
            meddle: impl FnOnce(),
        ) -> (Option<u64>, u64) {
            std::thread::scope(|s| {
                // Dropped before the scope joins, so a failed assertion
                // cannot leave the reader parked.
                let plan = fault::plan().at(point, nth, FaultAction::Stall).install();
                let reader = s.spawn(|| {
                    // Only this thread crosses the point, so the stall is
                    // its.
                    STALL_VICTIM.with(|v| v.set(true));
                    let mut h = ConcurrentMap::handle(m);
                    m.get(&mut h, &key)
                });
                while fault::stalled_count(point) == 0 {
                    assert!(!reader.is_finished(), "the reader never reached {point}");
                    std::thread::yield_now();
                }
                meddle();
                fault::release(point);
                let found = reader.join().expect("reader panicked");
                let hits = fault::hits(point);
                drop(plan);
                (found, hits)
            })
        }

        fn list<P: Protect, T: Traversal<P>>(keys: &[u64]) -> List<u64, u64, P, T> {
            let m = List::new();
            let mut h = ConcurrentMap::handle(&m);
            for &k in keys {
                assert!(m.insert(&mut h, k, k * 10));
            }
            m
        }

        /// The source is unlinked and invalidated between the reader's
        /// read of its link and the validation: the one load sees the
        /// invalidation bit, and the step restarts from `head`.
        #[test]
        fn hhslist_hpp_restarts_from_an_invalidated_source() {
            let m = list::<Hpp<4>, Harris>(&[1, 2, 3, 4, 5]);
            let mut h = ConcurrentMap::handle(&m);
            // Crossings: `head` → 1, 1 → 2, then 2 → 3 stalls.
            let (found, hits) = staged_get(&m, 5, HPP_POINT, 3, || {
                assert_eq!(m.remove(&mut h, &2), Some(20));
                h.thread.do_invalidation();
            });
            assert_eq!(found, Some(50));
            // The restart: `head` → 1, 1 → 3, 3 → 4, 4 → 5. Walking on
            // from the invalidated node would have made it 5.
            assert_eq!(
                hits,
                3 + 4,
                "the step out of an invalidated node must restart"
            );
        }

        /// The link moves under the announcement (an insert after the
        /// source): HP++ retargets to the new successor in place.
        #[test]
        fn hhslist_hpp_retargets_a_moved_link() {
            let m = list::<Hpp<4>, Harris>(&[10, 20, 30, 40]);
            let mut h = ConcurrentMap::handle(&m);
            // `head` → 10, then 10 → 20 stalls.
            let (found, hits) = staged_get(&m, 40, HPP_POINT, 2, || {
                assert!(m.insert(&mut h, 15, 150));
            });
            assert_eq!(found, Some(400));
            // 10 → 15 re-announced, then 15 → 20, 20 → 30, 30 → 40.
            assert_eq!(hits, 2 + 4, "HP++ retargets a moved link in place");
        }

        /// The same interleaving under original HP: the changed link fails
        /// the validation, and the search restarts from `head`.
        #[test]
        fn hmlist_hp_restarts_on_a_moved_link() {
            let m = list::<Careful<::hp::Domain, 2>, Michael>(&[10, 20, 30, 40]);
            let mut h = ConcurrentMap::handle(&m);
            let (found, hits) = staged_get(&m, 40, CAREFUL_POINT, 2, || {
                assert!(m.insert(&mut h, 15, 150));
            });
            assert_eq!(found, Some(400));
            // `head` → 10, 10 → 15, 15 → 20, 20 → 30, 30 → 40.
            assert_eq!(hits, 2 + 5, "HP restarts on a moved link");
        }
    }
}
