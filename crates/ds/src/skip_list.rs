//! The Herlihy–Shavit lock-free skiplist, written once.
//!
//! Removal marks the whole tower top-down (logical deletion) and `find`
//! unlinks marked nodes per level as it passes. The node leaves the
//! structure through up to [`MAX_HEIGHT`] plain CASes rather than one, and
//! its inserter may still be linking upper levels while that happens, so it
//! is retired by the *last detacher* (the crossbeam-skiplist idiom):
//! `Node::links` counts the levels the node is linked at plus one reference
//! the inserter holds while it builds the tower; every unlink CAS and the
//! inserter's exit drop one, and whoever takes the count to zero retires.
//! The remover that won the bottom-level mark runs one clean `find` pass,
//! and an inserter that finds its node marked runs one too, so no link
//! outlives both operations. The protection family must implement
//! [`Retire`]: every guard-based scheme, HP, and HP++ in hybrid mode (§4.2).
//!
//! `get` descends without helping and answers from the first level that
//! shows the key; a family that cannot step out of a marked node (careful
//! HP) fails the protection there and `get` falls back to `find`.

use std::cmp::Ordering::{Equal, Greater, Less};
use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, SeqCst};
use std::sync::atomic::{fence, AtomicUsize};

use rand::{rngs::SmallRng, Rng, SeedableRng};
use smr_common::tagged::TAG_DELETED;
use smr_common::{Atomic, Backoff, ConcurrentMap, Shared};

use crate::protect::{self, protected_ref, Retire};

/// Maximum tower height; 2^20 expected elements is ample for the paper's
/// key ranges.
pub const MAX_HEIGHT: usize = 20;

/// Hazard slots a hazard-pointer handle needs: one per level for the
/// predecessor and the successor, plus one for a node being inserted.
pub(crate) const SLOTS: usize = 2 * MAX_HEIGHT + 1;

const fn pred_slot(level: usize) -> usize {
    2 * level
}

const fn succ_slot(level: usize) -> usize {
    2 * level + 1
}

const NEW: usize = 2 * MAX_HEIGHT;

type Tower<K, V> = [Atomic<Node<K, V>>; MAX_HEIGHT];

struct Node<K, V> {
    next: Tower<K, V>,
    key: K,
    value: V,
    height: usize,
    /// Levels this node is linked at, plus one while its inserter is still
    /// building the tower. Whoever takes it to zero retires the node.
    links: AtomicUsize,
}

// SAFETY: never invalidated, and `is_invalid` says so.
unsafe impl<K, V> protect::Invalidate for Node<K, V> {
    unsafe fn invalidate(_: *mut Self) {
        unreachable!("towers leave through `Retire::retire`, never through an HP++ unlink");
    }
}

impl<K, V> protect::Node for Node<K, V> {
    const INVALID_TAG: usize = 0;

    fn is_invalid(&self) -> bool {
        false
    }
}

fn is_marked<K, V>(link: Shared<Node<K, V>>) -> bool {
    link.tag() & TAG_DELETED != 0
}

fn random_height() -> usize {
    thread_local! {
        static HEIGHT_RNG: std::cell::RefCell<SmallRng> =
            std::cell::RefCell::new(SmallRng::from_entropy());
    }
    // Geometric with p = 1/2, clamped to MAX_HEIGHT.
    let bits: u32 = HEIGHT_RNG.with(|rng| rng.borrow_mut().gen());
    ((bits.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
}

/// Lock-free skiplist map over protection family `P`.
pub struct SkipList<K, V, P> {
    head: Tower<K, V>,
    _marker: PhantomData<fn() -> P>,
}

struct FindResult<K, V> {
    found: Option<Shared<Node<K, V>>>,
    preds: [*const Atomic<Node<K, V>>; MAX_HEIGHT],
    succs: [Shared<Node<K, V>>; MAX_HEIGHT],
}

impl<K: Ord, V, P: Retire> SkipList<K, V, P> {
    /// Creates an empty skiplist.
    pub fn new() -> Self {
        Self {
            head: [(); MAX_HEIGHT].map(|_| Atomic::null()),
            _marker: PhantomData,
        }
    }

    /// Positions `preds`/`succs` around `key` at every level, unlinking any
    /// marked node encountered. Restarts wholesale on CAS failure, so a
    /// completed pass implies the searched key's marked nodes are detached.
    /// Level `l`'s predecessor and successor stay protected under
    /// `pred_slot(l)` / `succ_slot(l)`.
    fn find(&self, op: &mut P::Op<'_>, key: &K) -> FindResult<K, V> {
        'retry: loop {
            let mut result = FindResult {
                found: None,
                preds: [std::ptr::null(); MAX_HEIGHT],
                succs: [Shared::null(); MAX_HEIGHT],
            };
            let mut tower = &self.head;
            let mut pred = Shared::null();
            for level in (0..MAX_HEIGHT).rev() {
                // The predecessor is the head or a node protected at the
                // level above; carry that protection down.
                if !pred.is_null() {
                    P::dup(op, pred_slot(level), pred);
                }
                let mut link = &tower[level];
                let mut cur = link.load(Acquire).with_tag(0);
                loop {
                    if !P::protect(op, succ_slot(level), &mut cur, link) {
                        continue 'retry;
                    }
                    // SAFETY: `cur` is protected.
                    let Some(node) = (unsafe { protected_ref(cur) }) else {
                        break;
                    };
                    let next = node.next[level].load(Acquire);
                    if is_marked(next) {
                        // Unlink the marked node at this level only.
                        let next = next.with_tag(0);
                        if link.compare_exchange(cur, next, AcqRel, Acquire).is_err() {
                            continue 'retry;
                        }
                        // SAFETY: `cur` is protected, and that CAS took out
                        // a link `links` counted.
                        unsafe { Self::detach(op, cur) };
                        cur = next;
                    } else if node.key < *key {
                        tower = &node.next;
                        link = &tower[level];
                        pred = cur;
                        P::swap(op, pred_slot(level), succ_slot(level));
                        cur = next.with_tag(0);
                    } else {
                        break;
                    }
                }
                result.preds[level] = link;
                result.succs[level] = cur;
            }
            let bottom = result.succs[0];
            // SAFETY: `bottom` is protected under `succ_slot(0)`.
            if unsafe { bottom.as_ref() }.is_some_and(|n| n.key == *key) {
                result.found = Some(bottom);
            }
            return result;
        }
    }

    /// Descends without helping, through marked nodes where the family
    /// allows it. `Err` = a protection failed: ask `find`.
    fn lookup(&self, op: &mut P::Op<'_>, key: &K) -> Result<Option<Shared<Node<K, V>>>, ()> {
        let mut tower = &self.head;
        let mut pred = Shared::null();
        for level in (0..MAX_HEIGHT).rev() {
            if !pred.is_null() {
                P::dup(op, pred_slot(level), pred);
            }
            let mut link = &tower[level];
            let mut cur = link.load(Acquire).with_tag(0);
            loop {
                if !P::protect(op, succ_slot(level), &mut cur, link) {
                    return Err(());
                }
                // SAFETY: `cur` is protected.
                let Some(node) = (unsafe { protected_ref(cur) }) else {
                    break;
                };
                let next = node.next[level].load(Acquire);
                match node.key.cmp(key) {
                    Less => {
                        tower = &node.next;
                        link = &tower[level];
                        pred = cur;
                        P::swap(op, pred_slot(level), succ_slot(level));
                        cur = next.with_tag(0);
                    }
                    // Towers are marked top-down, so an unmarked link at
                    // any level means the bottom one was unmarked too.
                    Equal => return Ok((!is_marked(next)).then_some(cur)),
                    Greater => break,
                }
            }
        }
        Ok(None)
    }

    /// Drops one of `node`'s counted references — a level's link, or the
    /// inserter's hold — and retires the node with the last one.
    ///
    /// # Safety
    /// `node` is protected, and the caller took out the link (or holds the
    /// inserter's reference) it gives up.
    unsafe fn detach(op: &mut P::Op<'_>, node: Shared<Node<K, V>>) {
        // SAFETY: protected, per the contract.
        if unsafe { node.deref() }.links.fetch_sub(1, AcqRel) == 1 {
            // SAFETY: linked nowhere, and with the inserter's reference gone
            // never again; only one thread sees the count reach zero.
            unsafe { P::retire(op, node) };
        }
    }

    /// Links levels `1..height` of a node whose bottom level is in; stops
    /// as soon as the node is seen to be under removal. The caller holds the
    /// inserter's reference, so the count cannot reach zero in here.
    fn link_upper_levels(&self, op: &mut P::Op<'_>, node: Shared<Node<K, V>>, height: usize) {
        // SAFETY: `NEW` protects `node`.
        let node_ref = unsafe { node.deref() };
        for level in 1..height {
            loop {
                let next = node_ref.next[level].load(Acquire);
                if is_marked(next) {
                    return; // being removed already; stop building
                }
                let r = self.find(op, &node_ref.key);
                // The node may have been removed and even unlinked already.
                if r.found != Some(node) {
                    return;
                }
                if r.succs[level] != next
                    && node_ref.next[level]
                        .compare_exchange(next, r.succs[level], AcqRel, Acquire)
                        .is_err()
                {
                    return; // marked meanwhile
                }
                // A remover that marks and detaches the node from here on
                // is not seen by the CAS below, which then links a marked
                // node: `insert` cleans that up before it lets go.
                tower_build_fault_point();
                // Count the link before anyone can see (and unlink) it.
                // `Relaxed`: the link CAS below releases it, and a detacher
                // decrements only after acquiring that link.
                node_ref.links.fetch_add(1, Relaxed);
                // SAFETY: see `insert`.
                if unsafe { &*r.preds[level] }
                    .compare_exchange(r.succs[level], node, AcqRel, Acquire)
                    .is_ok()
                {
                    break;
                }
                // Not the last reference (the inserter's hold is out), so
                // nothing to acquire.
                node_ref.links.fetch_sub(1, Relaxed);
            }
        }
    }
}

/// The tower-build window's fault point. The engine counts hits
/// process-wide, so inside this crate's own (parallel) test suite only a
/// thread that opted in — a reproducer's inserter — crosses it, and a
/// battery row can never take the reproducer's stall.
#[inline(always)]
fn tower_build_fault_point() {
    #[cfg(all(test, feature = "fault-injection"))]
    if !tests::relink::STALL_VICTIM.with(std::cell::Cell::get) {
        return;
    }
    smr_common::fault_point!("ds::skiplist::insert::before_level_link");
}

impl<K: Ord, V, P: Retire> Default for SkipList<K, V, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, P> Drop for SkipList<K, V, P> {
    fn drop(&mut self) {
        // Walk the bottom level; every node is linked there.
        let mut cur = self.head[0].load_mut();
        while !cur.is_null() {
            let node = cur.with_tag(0);
            // SAFETY: linked nodes are owned by the list.
            unsafe {
                cur = node.deref().next[0].load(Relaxed);
                node.drop_owned();
            }
        }
    }
}

impl<K, V, P> ConcurrentMap<K, V> for SkipList<K, V, P>
where
    K: Ord + Send + Sync,
    V: Clone + Send + Sync,
    P: Retire,
{
    type Handle = P::Handle;

    fn new() -> Self {
        SkipList::new()
    }

    fn handle(&self) -> P::Handle {
        P::handle(P::default_domain())
    }

    fn get(&self, handle: &mut P::Handle, key: &K) -> Option<V> {
        let mut op = P::enter(handle);
        let node = match self.lookup(&mut op, key) {
            Ok(node) => node,
            Err(()) => self.find(&mut op, key).found,
        };
        // SAFETY: either search left `node` protected.
        let value = node.map(|n| unsafe { n.deref() }.value.clone());
        P::exit(op);
        value
    }

    fn insert(&self, handle: &mut P::Handle, key: K, value: V) -> bool {
        let mut op = P::enter(handle);
        // Search first: an insert that finds its key builds no tower.
        let mut r = self.find(&mut op, &key);
        if r.found.is_some() {
            P::exit(op);
            return false;
        }
        let height = random_height();
        let node = Shared::from_owned(Node {
            next: [(); MAX_HEIGHT].map(|_| Atomic::null()),
            key,
            value,
            height,
            // Level 0, counted before its link CAS, and this thread's hold.
            links: AtomicUsize::new(2),
        });
        // SAFETY: `NEW` protects the node from before it is shared, and the
        // reference counted above keeps it from being retired while this
        // thread is still building the tower.
        let node_ref = unsafe { node.deref() };
        P::dup(&mut op, NEW, node);

        let mut backoff = Backoff::new();
        let inserted = loop {
            // Wire the tower to the current successors, then link level 0.
            for (level, succ) in r.succs.iter().enumerate().take(height) {
                node_ref.next[level].store(*succ, Relaxed);
            }
            // SAFETY (this and the `preds` below): a `preds[l]` is a head
            // link or a field of the node `pred_slot(l)` protects.
            let bottom = unsafe { &*r.preds[0] };
            if bottom
                .compare_exchange(r.succs[0], node, AcqRel, Acquire)
                .is_ok()
            {
                break true;
            }
            backoff.cas_failed();
            r = self.find(&mut op, &node_ref.key);
            if r.found.is_some() {
                // SAFETY: never linked, so still exclusively owned.
                unsafe { node.drop_owned() };
                break false;
            }
        };
        if inserted {
            if height > 1 {
                self.link_upper_levels(&mut op, node, height);
                // A remover's clean pass may have run before the last level
                // went in. Link-then-check here against mark-then-pass in
                // `remove`: the fences make one of the two see the other.
                fence(SeqCst);
                if is_marked(node_ref.next[0].load(Acquire)) {
                    let _ = self.find(&mut op, &node_ref.key);
                }
            }
            // SAFETY: `NEW` protects the node; this is the inserter's hold.
            unsafe { Self::detach(&mut op, node) };
        }
        // `exit` may leave hazard slots announced; a node others remove
        // must not stay pinned until this handle's next insert.
        P::dup(&mut op, NEW, Shared::<Node<K, V>>::null());
        P::exit(op);
        inserted
    }

    fn remove(&self, handle: &mut P::Handle, key: &K) -> Option<V> {
        let mut op = P::enter(handle);
        let mut backoff = Backoff::new();
        let removed = loop {
            let Some(target) = self.find(&mut op, key).found else {
                break None;
            };
            // SAFETY: `find` left `target` protected under `succ_slot(0)`.
            let node = unsafe { target.deref() };
            // Mark the tower top-down; winning the bottom level designates
            // this thread as the deleter.
            for level in (1..node.height).rev() {
                node.next[level].fetch_or_tag(TAG_DELETED, AcqRel);
            }
            if is_marked(node.next[0].fetch_or_tag(TAG_DELETED, AcqRel)) {
                backoff.cas_failed();
                continue; // someone else won; re-find (helping detach it)
            }
            let value = node.value.clone();
            // One clean pass detaches the node at every level it is linked
            // at by now (see `insert` for the fence); whoever takes out its
            // last link — this pass, or its inserter — retires it.
            fence(SeqCst);
            let _ = self.find(&mut op, key);
            break Some(value);
        };
        P::exit(op);
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guarded::SkipList;

    #[test]
    fn towers_span_levels() {
        // With enough inserts some towers exceed level 1, exercising the
        // upper-level linking paths.
        let m: SkipList<u64, u64, ebr::Ebr> = SkipList::new();
        let mut h = ConcurrentMap::handle(&m);
        for k in 0..2000 {
            assert!(ConcurrentMap::insert(&m, &mut h, k, k));
        }
        let levels_used = (0..MAX_HEIGHT)
            .rev()
            .find(|&level| !m.head[level].load(Acquire).is_null())
            .map_or(0, |level| level + 1);
        assert!(levels_used >= 5, "expected tall towers, got {levels_used}");
        for k in (0..2000).step_by(3) {
            assert_eq!(ConcurrentMap::remove(&m, &mut h, &k), Some(k));
        }
        for k in 0..2000 {
            let expected = if k % 3 == 0 { None } else { Some(k) };
            assert_eq!(ConcurrentMap::get(&m, &mut h, &k), expected);
        }
    }

    /// The tower relink (DESIGN.md §1.3), staged with a stall at
    /// [`tower_build_fault_point`].
    #[cfg(feature = "fault-injection")]
    pub(super) mod relink {
        use super::*;
        use std::cell::Cell;
        use std::sync::Arc;

        const KEY: u64 = 1;

        thread_local! {
            /// Opts the current thread into [`tower_build_fault_point`].
            pub static STALL_VICTIM: Cell<bool> = const { Cell::new(false) };
        }

        /// A value whose original (not its clones) counts its drop: a node's
        /// free, as the test sees it.
        struct Canary(Option<Arc<AtomicUsize>>);

        impl Clone for Canary {
            fn clone(&self) -> Self {
                Canary(None)
            }
        }

        impl Drop for Canary {
            fn drop(&mut self) {
                if let Some(frees) = &self.0 {
                    frees.fetch_add(1, Relaxed);
                }
            }
        }

        /// The tower relink (DESIGN.md §1.3): an inserter stalled between its
        /// `find` and the upper-level link CAS links the node after a remover
        /// has marked it and detached it everywhere it was linked. Runs that
        /// schedule on `m` to completion; returns how many nodes went in
        /// (every one of them was removed again).
        fn remove_during_tower_build<S: smr_common::GuardedScheme>(
            m: &SkipList<u64, Canary, S>,
            frees: &Arc<AtomicUsize>,
        ) -> usize {
            use smr_common::fault::{self, FaultAction};

            const POINT: &str = "ds::skiplist::insert::before_level_link";
            let mut h = ConcurrentMap::handle(m);
            std::thread::scope(|s| {
                // Dropped before the scope joins, so a failed assertion below
                // cannot leave the inserter parked.
                let _plan = fault::plan().at(POINT, 1, FaultAction::Stall).install();
                let inserter = s.spawn(|| {
                    // Only this thread crosses the point, so the stall is its.
                    STALL_VICTIM.with(|v| v.set(true));
                    let mut h = ConcurrentMap::handle(m);
                    // Tower heights are random: insert until one is tall
                    // enough to reach the upper-level loop.
                    let mut inserted = 0;
                    loop {
                        assert!(m.insert(&mut h, KEY, Canary(Some(frees.clone()))));
                        inserted += 1;
                        if fault::hits(POINT) > 0 {
                            break inserted;
                        }
                        assert!(m.remove(&mut h, &KEY).is_some());
                    }
                });
                while fault::stalled_count(POINT) == 0 {
                    assert!(
                        !inserter.is_finished(),
                        "the inserter never reached {POINT}"
                    );
                    std::thread::yield_now();
                }
                // Level 0 is linked, so the key is present: this marks the
                // tower and detaches it everywhere it is linked so far.
                assert!(m.remove(&mut h, &KEY).is_some(), "remove must win");
                fault::release(POINT);
                inserter.join().expect("inserter panicked")
            })
        }

        /// The levels at which `m` still links a node for [`KEY`].
        fn linked_levels<S: smr_common::GuardedScheme>(m: &SkipList<u64, Canary, S>) -> Vec<usize> {
            let mut h = ConcurrentMap::handle(m);
            let _guard = S::pin(&mut h);
            let mut linked = Vec::new();
            for (level, head) in m.head.iter().enumerate() {
                let mut cur = head.load(Acquire).with_tag(0);
                // SAFETY: pinned, and with every operation over each node the
                // list links is live — the property under test.
                while let Some(node) = unsafe { cur.as_ref() } {
                    if node.key == KEY {
                        linked.push(level);
                    }
                    cur = node.next[level].load(Acquire).with_tag(0);
                }
            }
            linked
        }

        /// Under `Nr` nothing is freed, so a stale link is memory-safe to walk:
        /// this row shows the link itself.
        #[test]
        fn remove_during_tower_build_leaves_the_node_unlinked() {
            let m: SkipList<u64, Canary, nr::Nr> = SkipList::new();
            remove_during_tower_build(&m, &Default::default());
            let linked = linked_levels(&m);
            assert!(
                linked.is_empty(),
                "removed node still linked at levels {linked:?}"
            );
        }

        /// The same schedule under EBR, where the removed node is reclaimed:
        /// every node is freed exactly once, and none of them while linked —
        /// the walk after the frees, which the ASan row turns into a report.
        #[test]
        fn remove_during_tower_build_frees_the_node_once_unlinked() {
            let frees = Arc::new(AtomicUsize::new(0));
            let m: SkipList<u64, Canary, ebr::Ebr> = SkipList::new();
            let inserted = remove_during_tower_build(&m, &frees);
            // The inserter's handle donated its garbage on exit; flushes adopt
            // it and advance the epoch past it (sibling tests share the default
            // collector and may hold it back for a while).
            let mut h = smr_common::SchemeDomain::register(ebr::default_collector());
            for _ in 0..100_000 {
                if frees.load(Relaxed) == inserted {
                    break;
                }
                h.pin().flush();
                std::thread::yield_now();
            }
            assert_eq!(
                frees.load(Relaxed),
                inserted,
                "every removed node is freed once"
            );
            let linked = linked_levels(&m);
            assert!(
                linked.is_empty(),
                "freed node still linked at levels {linked:?}"
            );
        }
    }
}
