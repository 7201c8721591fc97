//! The Herlihy–Shavit lock-free skiplist, written once.
//!
//! Removal marks the whole tower top-down (logical deletion), `find`
//! unlinks marked nodes per level as it passes, and the thread that won the
//! bottom-level mark runs one clean `find` pass to detach the node before
//! retiring it. Because the node leaves the structure through up to
//! [`MAX_HEIGHT`] plain CASes rather than one, the protection family must
//! implement [`Retire`]: every guard-based scheme, HP, and HP++ in hybrid
//! mode (§4.2).
//!
//! `get` descends without helping and answers from the first level that
//! shows the key; a family that cannot step out of a marked node (careful
//! HP) fails the protection there and `get` falls back to `find`.

use std::cmp::Ordering::{Equal, Greater, Less};
use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

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
}

// SAFETY: never invalidated, and `is_invalid` says so.
unsafe impl<K, V> protect::Invalidate for Node<K, V> {
    unsafe fn invalidate(_: *mut Self) {
        unreachable!("towers leave through `Retire::retire`, never through an HP++ unlink");
    }
}

impl<K, V> protect::Node for Node<K, V> {
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
                    if !P::protect(op, succ_slot(level), &mut cur, link, pred) {
                        continue 'retry;
                    }
                    // SAFETY: `cur` is protected.
                    let Some(node) = (unsafe { protected_ref(cur) }) else {
                        break;
                    };
                    let next = node.next[level].load(Acquire);
                    if is_marked(next) {
                        // Unlink the marked node at this level only; its
                        // remover retires it after its own clean pass.
                        let next = next.with_tag(0);
                        if link.compare_exchange(cur, next, AcqRel, Acquire).is_err() {
                            continue 'retry;
                        }
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
                if !P::protect(op, succ_slot(level), &mut cur, link, pred) {
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

    /// Links levels `1..height` of a node whose bottom level is in; stops
    /// as soon as the node is seen to be under removal.
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
                // Nothing above re-checks the marks: a remover that marks,
                // detaches and retires the node from here on is not seen
                // by the CAS below, which then re-links a retired node
                // (DESIGN.md §1.3, shown defect).
                smr_common::fault_point!("ds::skiplist::insert::before_level_link");
                // SAFETY: see `insert`.
                if unsafe { &*r.preds[level] }
                    .compare_exchange(r.succs[level], node, AcqRel, Acquire)
                    .is_ok()
                {
                    break;
                }
            }
        }
    }
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
            // SAFETY: linked nodes are owned by the list.
            let node = unsafe { Box::from_raw(cur.with_tag(0).as_raw()) };
            cur = node.next[0].load(Relaxed);
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
        let height = random_height();
        let node = Shared::from_owned(Node {
            next: [(); MAX_HEIGHT].map(|_| Atomic::null()),
            key,
            value,
            height,
        });
        // SAFETY: `NEW` protects the node from before it is shared: once
        // level 0 links, a concurrent remove may retire it while this
        // thread is still building the tower.
        let node_ref = unsafe { node.deref() };
        P::dup(&mut op, NEW, node);

        let mut backoff = Backoff::new();
        let inserted = loop {
            let r = self.find(&mut op, &node_ref.key);
            if r.found.is_some() {
                // SAFETY: never linked, so still exclusively owned.
                unsafe { node.drop_owned() };
                break false;
            }
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
        };
        if inserted {
            self.link_upper_levels(&mut op, node, height);
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
                continue; // someone else won; re-find (they will retire it)
            }
            let value = node.value.clone();
            // One clean pass detaches the node at every level it is
            // linked at; then it is retired.
            let _ = self.find(&mut op, key);
            // SAFETY: this thread won the bottom-level mark, so it alone
            // retires the node, after the pass above detached it.
            unsafe { P::retire(&mut op, target) };
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

    /// Reproducer for the tower relink (DESIGN.md §1.3): an inserter
    /// stalled between its `find` and the upper-level link CAS re-links the
    /// node after a remover has marked, detached and retired it. Under `Nr`
    /// nothing is freed, so the walk below is memory-safe; under EBR/HP the
    /// same link is a use-after-free once the node is reclaimed.
    ///
    /// The stall takes the first thread to cross the point, so run it
    /// alone: `cargo test -p ds --features fault-injection -- --ignored`.
    #[cfg(feature = "fault-injection")]
    #[test]
    #[ignore = "tower relink after retire"]
    fn remove_during_tower_build_leaves_the_node_unlinked() {
        use smr_common::fault::{self, FaultAction};
        use std::time::{Duration, Instant};

        const POINT: &str = "ds::skiplist::insert::before_level_link";
        const KEY: u64 = 1;
        let m: SkipList<u64, u64, nr::Nr> = SkipList::new();

        std::thread::scope(|s| {
            // Dropped before the scope joins, so a failed assertion below
            // cannot leave the inserter parked.
            let _plan = fault::plan().at(POINT, 1, FaultAction::Stall).install();
            let inserter = s.spawn(|| {
                // Tower heights are random: insert until one is tall
                // enough to reach the upper-level loop.
                loop {
                    assert!(m.insert(&mut (), KEY, 0));
                    if fault::hits(POINT) > 0 {
                        break;
                    }
                    assert_eq!(m.remove(&mut (), &KEY), Some(0));
                }
            });
            let deadline = Instant::now() + Duration::from_secs(20);
            while fault::stalled_count(POINT) == 0 {
                assert!(
                    Instant::now() < deadline,
                    "the inserter never reached {POINT}"
                );
                std::thread::yield_now();
            }
            // Level 0 is linked, so the key is present: this marks the
            // tower, detaches it everywhere it is linked, and retires it.
            assert_eq!(m.remove(&mut (), &KEY), Some(0), "remove must win");
            fault::release(POINT);
            inserter.join().expect("inserter panicked");
        });

        let mut linked = Vec::new();
        for (level, head) in m.head.iter().enumerate() {
            let mut cur = head.load(Acquire).with_tag(0);
            // SAFETY: `Nr` never frees a node.
            while let Some(node) = unsafe { cur.as_ref() } {
                if node.key == KEY {
                    linked.push(level);
                }
                cur = node.next[level].load(Acquire).with_tag(0);
            }
        }
        assert!(
            linked.is_empty(),
            "retired node for key {KEY} still linked at levels {linked:?}"
        );
    }
}
