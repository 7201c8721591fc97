//! Per-thread HP++ state: unlinked nodes, epoched hazard pointers,
//! deferred invalidation, reclamation (Algorithms 3 and 5).

use std::borrow::{Borrow, BorrowMut};

use hp::HazardPointer;
use smr_common::{counters, Retired, Shared};

use crate::domain::Domain;
use crate::{Invalidate, INVALIDATE_PERIOD, RECLAIM_PERIOD};

/// The nodes detached by a successful unlink operation.
///
/// One of the [`IntoIterator`]s the `do_unlink` closure of
/// [`Thread::try_unlink`] may return; any other, such as an array or a
/// chain walk, works too. [`single`](Unlinked::single) is allocation-free.
pub struct Unlinked<T> {
    first: Option<Shared<T>>,
    rest: Vec<Shared<T>>,
}

impl<T> Unlinked<T> {
    /// Wraps the chain of nodes the unlink CAS detached.
    pub fn new(nodes: Vec<Shared<T>>) -> Self {
        Self {
            first: None,
            rest: nodes,
        }
    }

    /// A single detached node.
    pub fn single(node: Shared<T>) -> Self {
        Self {
            first: Some(node),
            rest: Vec::new(),
        }
    }
}

impl<T> IntoIterator for Unlinked<T> {
    type Item = Shared<T>;
    type IntoIter =
        std::iter::Chain<std::option::IntoIter<Shared<T>>, std::vec::IntoIter<Shared<T>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.rest)
    }
}

unsafe fn invalidate_erased<T: Invalidate>(ptr: *mut u8) {
    unsafe { T::invalidate(ptr.cast::<T>()) }
}

/// A detached node awaiting invalidation, with its type's invalidation.
type UnlinkedNode = (Retired, unsafe fn(*mut u8));

/// Invalidates every node of `unlinked` in place, calling `after_each`
/// after each one. Nothing is moved out, so a panic in `after_each` leaves
/// every node in `unlinked` for the next flush (invalidation is
/// idempotent).
fn invalidate_all(unlinked: &[UnlinkedNode], mut after_each: impl FnMut()) {
    for (node, invalidate) in unlinked {
        // SAFETY: every entry is a live node detached by a successful
        // `try_unlink` and not yet retired.
        unsafe { invalidate(node.ptr()) };
        after_each();
    }
}

/// A thread's registration with an HP++ [`Domain`].
///
/// Its unlink state is two flat vectors, reused in place: `unlinked` holds
/// Algorithm 3's `unlinkeds` (one entry per detached node) and `frontier`
/// the protections taken for them. A flush invalidates the nodes, retires
/// them, and parks `frontier` in Algorithm 5's `epoched_hps`.
pub struct Thread {
    pub(crate) inner: hp::Thread,
    domain: &'static Domain,
    /// Algorithm 3's thread-local `unlinkeds`: detached, not yet
    /// invalidated nodes.
    pub(crate) unlinked: Vec<UnlinkedNode>,
    /// Frontier protections of the unlinks in `unlinked`, announced until
    /// their nodes are invalidated and a fence has followed.
    frontier: Vec<HazardPointer>,
    /// Algorithm 5's `epoched_hps`: frontier protections awaiting a safe
    /// (fence-separated) revocation. Compacted in place via swap-remove.
    epoched_hps: Vec<(u64, HazardPointer)>,
    unlink_count: usize,
}

// SAFETY: the frontier and parked slots were taken from `inner` and travel
// with it (the `Send` contract of `hp::Thread`).
unsafe impl Send for Thread {}

impl Thread {
    pub(crate) fn new(domain: &'static Domain) -> Self {
        Self {
            inner: domain.hp.register(),
            domain,
            unlinked: Vec::new(),
            frontier: Vec::new(),
            epoched_hps: Vec::new(),
            unlink_count: 0,
        }
    }

    /// The domain this thread belongs to.
    pub fn domain(&self) -> &'static Domain {
        self.domain
    }

    /// Acquires a hazard pointer (cached slot if available).
    pub fn hazard_pointer(&mut self) -> HazardPointer {
        self.inner.hazard_pointer()
    }

    /// Returns a hazard pointer's slot to this thread's cache.
    pub fn recycle(&mut self, hp: HazardPointer) {
        self.inner.recycle(hp);
    }

    /// Plain HP retirement (hybrid use, §4.2): for nodes protected with the
    /// original over-approximating validation, no invalidation is needed.
    ///
    /// # Safety
    /// Same contract as [`hp::Thread::retire`].
    pub unsafe fn retire<T>(&mut self, ptr: *mut T) {
        self.inner.retire(ptr);
    }

    /// Algorithm 3's `TryUnlink`.
    ///
    /// 1. Protects every non-null pointer in `frontier` (no validation
    ///    needed — the caller guarantees the frontier was decided before
    ///    the unlink and cannot change, Assumption 1).
    /// 2. Runs `do_unlink` (typically one CAS detaching a chain), which
    ///    returns the detached nodes on success.
    /// 3. On success, schedules the detached nodes for deferred invalidation
    ///    and eventual reclamation; on failure, revokes the frontier
    ///    protections immediately.
    ///
    /// Returns whether the unlink succeeded.
    ///
    /// # Safety
    /// * `frontier` must contain every node reachable by one link from the
    ///   nodes `do_unlink` detaches that is not itself detached.
    /// * The detached nodes must be `Box`-allocated, detached exactly once,
    ///   with immutable links from before the unlink (Assumption 1).
    pub unsafe fn try_unlink<T: Invalidate, I: IntoIterator<Item = Shared<T>>>(
        &mut self,
        frontier: &[Shared<T>],
        do_unlink: impl FnOnce() -> Option<I>,
    ) -> bool {
        let held = self.frontier.len();
        // A null entry (a chain that ends the structure) needs no slot.
        for f in frontier.iter().filter(|f| !f.is_null()) {
            let hp = self.hazard_pointer();
            hp.protect_raw(f.as_raw());
            self.frontier.push(hp);
        }
        // Frontier protections are up but the unlink CAS has not run: a
        // thread preempted here holds hazards for still-reachable nodes.
        smr_common::fault_point!("hpp::try_unlink::after_frontier");

        let Some(detached) = do_unlink() else {
            for hp in self.frontier.drain(held..) {
                self.inner.recycle(hp);
            }
            return false;
        };
        let invalidate: unsafe fn(*mut u8) = invalidate_erased::<T>;
        self.unlinked.extend(
            detached
                .into_iter()
                .map(|s| (unsafe { Retired::new(s.as_raw()) }, invalidate)),
        );
        // Nodes are detached but not yet invalidated — the window HP++'s
        // deferred invalidation (Algorithm 3) leaves open.
        smr_common::fault_point!("hpp::try_unlink::after_detach");
        self.unlink_count += 1;
        // Reclaim every `RECLAIM_PERIOD` unlinks; the invalidation cadence
        // is only consulted when the reclaim defers.
        if self.unlink_count.is_multiple_of(RECLAIM_PERIOD) {
            counters::incr_policy_scan_forced();
            self.reclaim();
        } else if self.unlink_count.is_multiple_of(INVALIDATE_PERIOD) {
            self.do_invalidation();
        }
        true
    }

    /// Algorithm 5's `DoInvalidation`: invalidates every unlinked node,
    /// retires them, then parks the frontier protections in `epoched_hps`,
    /// stamped with the current fence epoch. Protections two epochs old are
    /// revoked for free — a heavy fence has provably passed between
    /// (Lemma A.2).
    pub fn do_invalidation(&mut self) {
        invalidate_all(&self.unlinked, || {
            // Nodes are invalidated but the frontier protections are still
            // announced and the nodes not yet in the retired bag.
            smr_common::fault_point!("hpp::try_unlink::mid_invalidation");
        });
        self.retire_unlinked();

        // The epoch is read *after* the invalidations above, so a parked
        // protection is only revoked once a heavy fence has separated it
        // from every invalidation it guards.
        let epoch = self.domain.read_epoch();
        let mut i = 0;
        while i < self.epoched_hps.len() {
            if self.epoched_hps[i].0 + 2 <= epoch {
                let (_, hp) = self.epoched_hps.swap_remove(i);
                self.inner.recycle(hp);
            } else {
                i += 1;
            }
        }
        self.epoched_hps
            .extend(self.frontier.drain(..).map(|hp| (epoch, hp)));
    }

    /// Moves the (invalidated) unlinked nodes into the retired bag.
    fn retire_unlinked(&mut self) {
        for (node, _) in self.unlinked.drain(..) {
            self.inner.push_retired(node);
        }
    }

    /// Algorithm 5's `Reclaim`: flush invalidations, take the retired set,
    /// issue the epoched heavy fence, revoke all parked frontier
    /// protections, then scan hazards and free the unprotected nodes.
    ///
    /// A thread alone in its domain skips the fence and leaves the fence
    /// epoch where it is: no other thread can hold a pointer into what it
    /// unlinked, so its frontier protections guard nothing and are revoked
    /// at once.
    pub fn reclaim(&mut self) {
        self.do_invalidation();
        let Self {
            inner,
            domain,
            epoched_hps,
            ..
        } = self;
        let parked: &[(u64, HazardPointer)] = epoched_hps;
        inner.reclaim_with_prefence(|alone| {
            smr_common::fault_point!("hpp::reclaim::before_revoke");
            if !alone {
                domain.fence_epoch_step();
            }
            for (_, hp) in parked {
                hp.reset();
            }
        });
        for (_, hp) in self.epoched_hps.drain(..) {
            self.inner.recycle(hp);
        }
    }
}

/// The plain HP thread inside: what its slots and plain retirements (the
/// §4.2 hybrid) go through.
impl Borrow<hp::Thread> for Thread {
    fn borrow(&self) -> &hp::Thread {
        &self.inner
    }
}

impl BorrowMut<hp::Thread> for Thread {
    fn borrow_mut(&mut self) -> &mut hp::Thread {
        &mut self.inner
    }
}

impl Drop for Thread {
    fn drop(&mut self) {
        // If the final reclaim panics (a worker dying mid-flush), the guard
        // below still invalidates every unlinked node and retires it before
        // the inner `hp::Thread` teardown donates it — donating an
        // un-invalidated node would let a reader follow links into freed
        // memory (the HP++ safety argument requires invalidate-then-retire).
        // It crosses no fault point: it may run while already unwinding.
        struct Salvage<'a>(&'a mut Thread);
        impl Drop for Salvage<'_> {
            fn drop(&mut self) {
                let t = &mut *self.0;
                invalidate_all(&t.unlinked, || {});
                t.retire_unlinked();
                // A heavy fence separates the invalidations above from the
                // donation scan in the inner teardown, standing in for the
                // epoched fence the aborted reclaim never issued. Dropping
                // the protections then releases their slots to the domain.
                smr_common::fence::heavy();
                t.frontier.clear();
                t.epoched_hps.clear();
            }
        }
        let g = Salvage(self);
        g.0.reclaim();
        // Anything still protected by other threads is donated to the
        // domain's orphan list by the inner thread's Drop.
    }
}
