//! The protection step — the one place the reclamation families differ.
//!
//! The paper's observation is that Harris's list, the Natarajan–Mittal tree
//! and friends stay *the same algorithm* under every scheme: only how a
//! traversal step is made safe ([`Protect::protect`]) and how a detaching
//! CAS hands its nodes over ([`Protect::unlink`]) change. Every structure in
//! `list.rs`, `skip_list.rs`, `nm_tree.rs`, `stack.rs`, `efrb_tree.rs`,
//! `queue.rs` and `bonsai.rs` is written once against [`Protect`]; this file
//! holds its three implementations, so the HP-vs-HP++ difference of any
//! structure can be read here alone:
//!
//! | hook | [`Guarded<S>`] (NR, EBR, PEBR, Hyaline) | [`Careful<D, H, LINGER>`] (HP; HP++ hybrid §4.2) | [`Hpp<H>`] (HP++ §3) |
//! |---|---|---|---|
//! | `enter` / `exit` | pin / unpin | — / clear the slots (unless `LINGER`: the skiplist) | — / clear the slots |
//! | `protect` | `validate()`, else `refresh()` and restart | announce, re-read the link: restart if it *changed or is marked* | announce, re-read the link: restart only if it carries the source's *invalidation bit*; a changed link retargets |
//! | `protect_by` (the queue, EFRB, each Bonsai step) | `validate()`, else `refresh()` and restart | announce, light fence, ask the *witness* (Bonsai: the root is still the snapshot) | announce, light fence, restart only if `src` is invalidated |
//! | `swap` / `dup` | no-op | exchange two slots / announce an already protected pointer | same |
//! | `unlink` | CAS, `defer_destroy` each node | CAS, `retire` each node | `try_unlink`: protect the frontier (only this family builds it), CAS, defer invalidation |
//! | [`Optimistic`] | ✓ | ✗ (paper Table 2) | ✓ |
//! | [`Retire`] | ✓ | ✓ | ✗ (needs the detaching CAS) |
//!
//! A hazard handle of `H = 0` slots (the Bonsai tree, whose build keeps
//! O(depth) nodes protected) grows a slot on first use instead.

use std::borrow::{Borrow, BorrowMut};
use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire};

use hp_plus::HazardPointer;
use smr_common::{fence, Atomic, GuardedScheme, SchemeDomain, SchemeGuard, Shared};

/// How an HP++ unlinker invalidates a node (§3.2); re-exported so that a
/// structure's file names no scheme crate.
pub use hp_plus::Invalidate;

/// What the protection step needs to know about a node: its HP++
/// invalidation bit. Only [`Hpp`] sets or reads it.
pub trait Node: Invalidate + Sized {
    /// The tag bit that [`Invalidate::invalidate`] sets on *every* link out
    /// of this node before it returns (0: the node is never invalidated).
    /// [`Hpp::protect`] reads it off the link it re-reads anyway, so a step
    /// validates with one load; a root link never carries it.
    const INVALID_TAG: usize;

    /// Whether an unlinker has invalidated this node.
    fn is_invalid(&self) -> bool;
}

/// The `src` of a [`Protect::protect_by`] in a structure that needs
/// [`Retire`] (the queue, the EFRB tree): only [`Hpp`] reads `src`, and it
/// runs no such structure.
pub(crate) const NO_SRC: Shared<NoSrc> = Shared::null();

/// A node that does not exist: the type of [`NO_SRC`].
pub(crate) enum NoSrc {}

// SAFETY: there is no such node to invalidate.
unsafe impl Invalidate for NoSrc {
    unsafe fn invalidate(_: *mut Self) {}
}

impl Node for NoSrc {
    const INVALID_TAG: usize = 0;

    fn is_invalid(&self) -> bool {
        match *self {}
    }
}

/// Dereferences a pointer [`Protect::protect`] has just returned `true`
/// for (`None` for null). Such a pointer is untagged by contract, which
/// lets this skip the tag mask `Shared::as_ref` applies: that mask sits on
/// the pointer-chasing critical path of every traversal step (load `next`,
/// mask, dereference), and LLVM proves it redundant only in some inlining
/// contexts — a fifth of a 512-node list `get` where it does not.
///
/// # Safety
/// `ptr` is null or protected, as for [`Shared::deref`].
#[inline]
pub unsafe fn protected_ref<'a, N>(ptr: Shared<N>) -> Option<&'a N> {
    debug_assert_eq!(ptr.tag(), 0, "protect returns untagged pointers");
    // SAFETY: no tag bits are set, so the word is the pointer.
    unsafe { (ptr.into_usize() as *const N).as_ref() }
}

/// Whether this thread crosses the fault points in the hazard families'
/// announce-to-validate windows. The engine counts hits process-wide, so
/// inside this crate's own (parallel) test suite only a thread that opted
/// in ([`STALL_VICTIM`]) does, and a battery row never takes a staged
/// test's stall.
#[inline(always)]
fn crosses_fault_points() -> bool {
    #[cfg(all(test, feature = "fault-injection"))]
    if !STALL_VICTIM.with(std::cell::Cell::get) {
        return false;
    }
    true
}

#[cfg(all(test, feature = "fault-injection"))]
thread_local! {
    /// Opts the current thread into [`crosses_fault_points`].
    pub(crate) static STALL_VICTIM: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

/// `word` without its tag bits: how a traversal step takes the successor
/// it announces next. A tag is rare (a marked or invalidated node), so the
/// mask runs on a cold branch and the common word goes to the next
/// dereference as loaded — the step's critical path is then the one load
/// of `next`, not the load and an `and`. `black_box` on the cold arm alone
/// keeps LLVM from folding the branch back into the mask.
#[inline(always)]
pub(crate) fn untagged<N>(word: Shared<N>) -> Shared<N> {
    if word.tag() == 0 {
        word
    } else {
        std::hint::cold_path();
        std::hint::black_box(word.with_tag(0))
    }
}

/// One reclamation family's way of making a traversal safe.
///
/// An operation runs between [`enter`](Self::enter) and
/// [`exit`](Self::exit) on the [`Op`](Self::Op) it got from `enter`. Slot
/// arguments name hazard slots (`0..H`); [`Guarded`] ignores them.
pub trait Protect: 'static {
    /// Per-thread state, the `Handle` of every map over this family.
    type Handle: Send;
    /// Where handles register and garbage is charged.
    type Scheme: SchemeDomain;
    /// What a structure keeps to register its handles: `&'static
    /// Self::Scheme` for the hazard families, nothing for [`Guarded`] (a
    /// list stays one word; its handles register with the default domain).
    type Domain: Copy + Send + Sync;
    /// An operation in progress, borrowing the handle.
    type Op<'h>;

    /// What a structure over `scheme` keeps.
    fn domain(scheme: &'static Self::Scheme) -> Self::Domain;

    /// What a structure over the process-wide default domain keeps.
    fn default_domain() -> Self::Domain {
        Self::domain(Self::Scheme::global())
    }

    /// Registers the calling thread with `domain`.
    fn handle(domain: Self::Domain) -> Self::Handle;

    /// Registers the calling thread with `scheme`.
    fn register(scheme: &'static Self::Scheme) -> Self::Handle {
        Self::handle(Self::domain(scheme))
    }

    /// Starts an operation.
    fn enter(handle: &mut Self::Handle) -> Self::Op<'_>;

    /// Ends an operation: nothing the operation protected may be
    /// dereferenced afterwards.
    fn exit(op: Self::Op<'_>);

    /// Makes `*ptr` — the untagged pointer just read from `link`, a field
    /// of a protected node or a root link — safe to dereference under
    /// `slot`. On `true`, `*ptr` is protected and is (for the hazard
    /// families) what `link` held at validation, untagged; it may have been
    /// retargeted. `false` means the traversal lost its footing and must
    /// restart from the root.
    fn protect<N: Node>(
        op: &mut Self::Op<'_>,
        slot: usize,
        ptr: &mut Shared<N>,
        link: &Atomic<N>,
    ) -> bool;

    /// Makes `ptr` safe to dereference under `slot` when the link it was
    /// read from does not vouch for it. The family picks what does:
    /// [`Careful`] asks `witness`, which re-reads the word that does (tags
    /// included) — the queue's `head`, an EFRB `update` word, the Bonsai
    /// root still being the attempt's snapshot; [`Hpp`] checks that `src`,
    /// the protected node `ptr` was read out of (null: a root), is not
    /// invalidated. That check is sound only where the link from `src`
    /// never changes: it holds for the Bonsai tree, whose published links
    /// are immutable, and vacuously for every structure that needs
    /// [`Retire`], which `Hpp` lacks (they pass [`NO_SRC`]). `false` means
    /// restart; null empties the slot.
    fn protect_by<N, S: Node>(
        op: &mut Self::Op<'_>,
        slot: usize,
        ptr: Shared<N>,
        src: Shared<S>,
        witness: impl FnOnce() -> bool,
    ) -> bool;

    /// Exchanges what slots `a` and `b` protect (hand-over-hand stepping).
    fn swap(op: &mut Self::Op<'_>, a: usize, b: usize);

    /// Protects `ptr`, which another slot already protects, under `slot`;
    /// null empties the slot.
    fn dup<N>(op: &mut Self::Op<'_>, slot: usize, ptr: Shared<N>);

    /// The detaching CAS `link: from → to`. On success hands every node of
    /// `detached` to the scheme and returns `true`; `detached` is consumed
    /// only then.
    ///
    /// # Safety
    /// * A successful CAS makes exactly the nodes of `detached` unreachable,
    ///   once, with links that no longer change (Assumption 1), and they
    ///   are `Box` allocations.
    /// * `frontier` builds the nodes still reachable that a detached node
    ///   links to (§3.1; a list's one successor, the Bonsai tree's shared
    ///   subtrees); the caller protects `from`'s chain up to them. Only
    ///   [`Hpp`] calls it.
    unsafe fn unlink<N: Node, F: AsRef<[Shared<N>]>>(
        op: &mut Self::Op<'_>,
        link: &Atomic<N>,
        from: Shared<N>,
        to: Shared<N>,
        frontier: impl FnOnce() -> F,
        detached: impl Iterator<Item = Shared<N>>,
    ) -> bool;
}

/// Families whose [`protect`](Protect::protect) succeeds out of a logically
/// deleted source, so a traversal may walk through marked nodes: Harris's
/// chain search, the wait-free `get`, the NM-tree seek. [`Careful`] does not
/// implement it — the paper's Table 2 (HP ✗ HHSList / NMTree).
pub trait Optimistic: Protect {}

/// Families that accept a node its remover detached with several plain
/// CASes (the skip list's tower) or away from the link a reader found it by
/// (an EFRB leaf, a queue's `next`). [`Hpp`] does not: HP++ must see the
/// detaching CAS to protect the frontier, so such a structure runs under
/// HP++ only as `Careful<hp_plus::Thread, _>` — the §4.2 hybrid.
pub trait Retire: Protect {
    /// Hands a fully detached node to the scheme.
    ///
    /// # Safety
    /// `node` is a `Box` allocation, unreachable from the structure, and
    /// retired once.
    unsafe fn retire<N>(op: &mut Self::Op<'_>, node: Shared<N>);
}

/// Critical-section protection: any [`GuardedScheme`].
pub struct Guarded<S>(PhantomData<S>);

impl<S: GuardedScheme> Protect for Guarded<S> {
    type Handle = S::Handle;
    type Scheme = S;
    type Domain = ();
    type Op<'h> = S::Guard<'h>;

    fn domain(_: &'static S) {}

    fn handle(_: ()) -> S::Handle {
        S::handle()
    }

    fn register(scheme: &'static S) -> S::Handle {
        scheme.register()
    }

    fn enter(handle: &mut S::Handle) -> S::Guard<'_> {
        S::pin(handle)
    }

    fn exit(op: S::Guard<'_>) {
        drop(op);
    }

    #[inline]
    fn protect<N: Node>(
        op: &mut S::Guard<'_>,
        _slot: usize,
        _ptr: &mut Shared<N>,
        _link: &Atomic<N>,
    ) -> bool {
        // A traverser preempted between validation and the dereference
        // that follows is exactly what ejection (PEBR) must survive.
        smr_common::fault_point!("ds::guarded::traverse::validate");
        if op.validate() {
            return true;
        }
        op.refresh();
        false
    }

    #[inline]
    fn protect_by<N, M: Node>(
        op: &mut S::Guard<'_>,
        _slot: usize,
        _ptr: Shared<N>,
        _src: Shared<M>,
        _witness: impl FnOnce() -> bool,
    ) -> bool {
        // The critical section vouches for everything read inside it.
        smr_common::fault_point!("ds::guarded::traverse::validate");
        if op.validate() {
            return true;
        }
        op.refresh();
        false
    }

    #[inline]
    fn swap(_: &mut S::Guard<'_>, _: usize, _: usize) {}

    #[inline]
    fn dup<N>(_: &mut S::Guard<'_>, _: usize, _: Shared<N>) {}

    #[inline]
    unsafe fn unlink<N: Node, F: AsRef<[Shared<N>]>>(
        op: &mut S::Guard<'_>,
        link: &Atomic<N>,
        from: Shared<N>,
        to: Shared<N>,
        _frontier: impl FnOnce() -> F,
        detached: impl Iterator<Item = Shared<N>>,
    ) -> bool {
        if link.compare_exchange(from, to, AcqRel, Acquire).is_err() {
            return false;
        }
        for node in detached {
            // SAFETY: the caller's contract is `defer_destroy`'s.
            unsafe { op.defer_destroy(node) };
        }
        true
    }
}

impl<S: GuardedScheme> Optimistic for Guarded<S> {}

impl<S: GuardedScheme> Retire for Guarded<S> {
    unsafe fn retire<N>(op: &mut S::Guard<'_>, node: Shared<N>) {
        // SAFETY: the caller's contract is `defer_destroy`'s.
        unsafe { op.defer_destroy(node) };
    }
}

/// Per-thread state of the hazard-pointer families: the scheme thread `T`
/// (`hp::Thread`, or `hp_plus::Thread`, which wraps one) and the `H` hazard
/// slots a structure's traversal roles index into. With `H = 0` (the Bonsai
/// tree) a slot is made the first time it is indexed instead.
pub struct HpHandle<T, const H: usize> {
    // Declared before `thread`, so they are released before its teardown
    // counts it out of the domain.
    slots: [HazardPointer; H],
    /// The slots of an `H = 0` handle.
    grown: Vec<HazardPointer>,
    pub(crate) thread: T,
}

// SAFETY: every slot here was taken from `thread` and travels with it, so
// the slots still announce only on the OS thread that holds the
// registration (the `Send` contract of `hp::Thread`).
unsafe impl<T: Send, const H: usize> Send for HpHandle<T, H> {}

impl<T: BorrowMut<hp::Thread>, const H: usize> HpHandle<T, H> {
    fn new(mut thread: T) -> Self {
        let slots = std::array::from_fn(|_| thread.borrow_mut().hazard_pointer());
        Self {
            slots,
            grown: Vec::new(),
            thread,
        }
    }

    /// Slot `i`; a constant `i` under a fixed `H` folds to the array index.
    #[inline]
    fn slot(&mut self, i: usize) -> &HazardPointer {
        if H > 0 {
            return &self.slots[i];
        }
        if i >= self.grown.len() {
            let Self { thread, grown, .. } = self;
            grown.resize_with(i + 1, || thread.borrow_mut().hazard_pointer());
        }
        &self.grown[i]
    }

    /// Exchanges slots `a` and `b`, as two scalar moves. `slots.swap` on
    /// adjacent slots compiles to one 16-byte shuffle, and the next step's
    /// 8-byte slot load then waits on that store: 6 % of an HP list `get`.
    fn swap(&mut self, a: usize, b: usize) {
        let [a, b] = self
            .slots
            .get_disjoint_mut([a, b])
            .expect("two distinct slots of the handle");
        HazardPointer::swap(a, b);
    }

    /// Ends an operation's protections.
    fn clear(&self) {
        for slot in &self.slots {
            slot.reset();
        }
        if H == 0 {
            for slot in &self.grown {
                slot.reset();
            }
        }
    }
}

impl<T, const H: usize> Borrow<T> for HpHandle<T, H> {
    fn borrow(&self) -> &T {
        &self.thread
    }
}

impl<T, const H: usize> BorrowMut<T> for HpHandle<T, H> {
    fn borrow_mut(&mut self) -> &mut T {
        &mut self.thread
    }
}

/// Original hazard pointers (§2.2): a protection is validated by re-reading
/// the link it came from, which fails whenever the source is marked or the
/// link moved — a sound over-approximation of "the target may be retired",
/// and the reason a traversal under it can never leave a deleted node.
/// `D` is `hp::Domain`, or `hp_plus::Domain` for the §4.2 hybrid.
///
/// `LINGER` leaves the slots announced at `exit` instead of clearing them.
/// Only the skiplist sets it: a store per slot per operation is a few
/// percent of an operation on its 41 slots, and what lingers until the next
/// operation overwrites it is bounded by `H`, which every garbage bound
/// already counts.
pub struct Careful<D, const H: usize, const LINGER: bool = false>(PhantomData<fn() -> D>);

impl<D, const H: usize, const LINGER: bool> Protect for Careful<D, H, LINGER>
where
    D: SchemeDomain,
    D::Handle: BorrowMut<hp::Thread> + Send,
{
    type Handle = HpHandle<D::Handle, H>;
    type Scheme = D;
    type Domain = &'static D;
    type Op<'h> = &'h mut Self::Handle;

    fn domain(scheme: &'static D) -> &'static D {
        scheme
    }

    fn handle(domain: &'static D) -> Self::Handle {
        HpHandle::new(domain.register())
    }

    fn enter(handle: &mut Self::Handle) -> &mut Self::Handle {
        handle
    }

    fn exit(op: &mut Self::Handle) {
        if !LINGER {
            op.clear();
        }
    }

    #[inline]
    fn protect<N: Node>(
        op: &mut &mut Self::Handle,
        slot: usize,
        ptr: &mut Shared<N>,
        link: &Atomic<N>,
    ) -> bool {
        // Nothing to protect at the end of a chain; the null was read from
        // a link whose owner the previous step validated.
        if ptr.is_null() {
            return true;
        }
        // `HazardPointer::try_protect`, with this crate's fault point.
        let slot = op.slot(slot);
        let word = fence::announce_then_validate(
            || {
                // Untagged by contract, so the word is the pointer.
                slot.protect_raw(ptr.into_usize() as *mut N);
                if crosses_fault_points() {
                    smr_common::fault_point!("ds::careful::protect::after_announce");
                }
            },
            || link.load(Acquire),
        );
        // Changed or marked: the target may be retired.
        if word == *ptr {
            return true;
        }
        slot.reset();
        false
    }

    #[inline]
    fn protect_by<N, S: Node>(
        op: &mut &mut Self::Handle,
        slot: usize,
        ptr: Shared<N>,
        _src: Shared<S>,
        witness: impl FnOnce() -> bool,
    ) -> bool {
        fence::announce_then_validate(|| op.slot(slot).protect_raw(ptr.as_raw()), witness)
    }

    #[inline]
    fn swap(op: &mut &mut Self::Handle, a: usize, b: usize) {
        op.swap(a, b);
    }

    #[inline]
    fn dup<N>(op: &mut &mut Self::Handle, slot: usize, ptr: Shared<N>) {
        op.slot(slot).protect_raw(ptr.as_raw());
    }

    #[inline]
    unsafe fn unlink<N: Node, F: AsRef<[Shared<N>]>>(
        op: &mut &mut Self::Handle,
        link: &Atomic<N>,
        from: Shared<N>,
        to: Shared<N>,
        _frontier: impl FnOnce() -> F,
        detached: impl Iterator<Item = Shared<N>>,
    ) -> bool {
        if link.compare_exchange(from, to, AcqRel, Acquire).is_err() {
            return false;
        }
        for node in detached {
            // SAFETY: the caller's contract is `retire`'s; every reader
            // validated its protection against a link that no longer
            // leads here.
            unsafe { op.thread.borrow_mut().retire(node.as_raw()) };
        }
        true
    }
}

impl<D, const H: usize, const LINGER: bool> Retire for Careful<D, H, LINGER>
where
    D: SchemeDomain,
    D::Handle: BorrowMut<hp::Thread> + Send,
{
    unsafe fn retire<N>(op: &mut &mut Self::Handle, node: Shared<N>) {
        // SAFETY: the caller's contract is `hp::Thread::retire`'s.
        unsafe { op.thread.borrow_mut().retire(node.as_raw()) };
    }
}

/// HP++ (§3): validation fails only when the *source node* has been
/// invalidated by its unlinker, so marked nodes are walked straight
/// through; in exchange every detaching CAS goes through `try_unlink`,
/// which protects the frontier and invalidates before anything is freed.
pub struct Hpp<const H: usize>;

impl<const H: usize> Protect for Hpp<H> {
    type Handle = HpHandle<hp_plus::Thread, H>;
    type Scheme = hp_plus::Domain;
    type Domain = &'static hp_plus::Domain;
    type Op<'h> = &'h mut HpHandle<hp_plus::Thread, H>;

    fn domain(scheme: &'static hp_plus::Domain) -> &'static hp_plus::Domain {
        scheme
    }

    fn handle(domain: &'static hp_plus::Domain) -> Self::Handle {
        HpHandle::new(domain.register())
    }

    fn enter(handle: &mut Self::Handle) -> &mut Self::Handle {
        handle
    }

    fn exit(op: &mut Self::Handle) {
        op.clear();
    }

    #[inline]
    fn protect<N: Node>(
        op: &mut &mut Self::Handle,
        slot: usize,
        ptr: &mut Shared<N>,
        link: &Atomic<N>,
    ) -> bool {
        // `hp_plus::try_protect` with the source's invalidity read off the
        // link itself (`Node::INVALID_TAG`): one load after the fence.
        let slot = op.slot(slot);
        loop {
            // Untagged by contract, so the word is the pointer.
            slot.protect_raw(ptr.into_usize() as *mut N);
            fence::light();
            // The announce-to-validate window: an unlinker may move `link`,
            // or detach and invalidate its owner, while this thread sleeps.
            if crosses_fault_points() {
                smr_common::fault_point!("ds::hpp::protect::after_announce");
            }
            let word = link.load(Acquire);
            // Unchanged and untagged: the straight line.
            if word == *ptr {
                return true;
            }
            // Both ways out — an invalidated source, a link that moved
            // under the announcement — are rare, and said to be.
            std::hint::cold_path();
            if word.tag() & N::INVALID_TAG != 0 {
                slot.reset();
                return false;
            }
            // Marked but valid (walked through), or retargeted.
            let new = word.with_tag(0);
            if new == *ptr {
                return true;
            }
            *ptr = new;
        }
    }

    #[inline]
    fn protect_by<N, S: Node>(
        op: &mut &mut Self::Handle,
        slot: usize,
        ptr: Shared<N>,
        src: Shared<S>,
        _witness: impl FnOnce() -> bool,
    ) -> bool {
        fence::announce_then_validate(
            || op.slot(slot).protect_raw(ptr.as_raw()),
            // SAFETY: as in `protect`.
            || !unsafe { protected_ref(src) }.is_some_and(S::is_invalid),
        )
    }

    #[inline]
    fn swap(op: &mut &mut Self::Handle, a: usize, b: usize) {
        op.swap(a, b);
    }

    #[inline]
    fn dup<N>(op: &mut &mut Self::Handle, slot: usize, ptr: Shared<N>) {
        op.slot(slot).protect_raw(ptr.as_raw());
    }

    #[inline]
    unsafe fn unlink<N: Node, F: AsRef<[Shared<N>]>>(
        op: &mut &mut Self::Handle,
        link: &Atomic<N>,
        from: Shared<N>,
        to: Shared<N>,
        frontier: impl FnOnce() -> F,
        detached: impl Iterator<Item = Shared<N>>,
    ) -> bool {
        let do_unlink = || {
            link.compare_exchange(from, to, AcqRel, Acquire)
                .ok()
                .map(|_| detached)
        };
        // SAFETY: the caller's contract is `try_unlink`'s.
        unsafe { op.thread.try_unlink(frontier().as_ref(), do_unlink) }
    }
}

impl<const H: usize> Optimistic for Hpp<H> {}
