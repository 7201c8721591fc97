//! The protection step — the one place the reclamation families differ.
//!
//! The paper's observation is that Harris's list, the Natarajan–Mittal tree
//! and friends stay *the same algorithm* under every scheme: only how a
//! traversal step is made safe ([`Protect::protect`]) and how a detaching
//! CAS hands its nodes over ([`Protect::unlink`]) change. Every structure in
//! `list.rs`, `skip_list.rs`, `nm_tree.rs`, `stack.rs`, `efrb_tree.rs` and
//! `queue.rs` is written once against [`Protect`]; this file holds its three
//! implementations, so the HP-vs-HP++ difference of any structure can be
//! read here alone:
//!
//! | hook | [`Guarded<S>`] (NR, EBR, PEBR, Hyaline) | [`Careful<T, H, LINGER>`] (HP; HP++ hybrid §4.2) | [`Hpp<H>`] (HP++ §3) |
//! |---|---|---|---|
//! | `enter` / `exit` | pin / unpin | — / clear the `H` slots (unless `LINGER`: the skiplist) | — / clear the `H` slots |
//! | `protect` | `validate()`, else `refresh()` and restart | announce, re-read the link: restart if it *changed or is marked* | announce, restart only if the *source node is invalidated*; a changed link retargets |
//! | `swap` / `dup` | no-op | exchange two slots / announce an already protected pointer | same |
//! | `unlink` | CAS, `defer_destroy` each node | CAS, `retire` each node | `try_unlink`: protect the frontier, CAS, defer invalidation |
//! | [`Optimistic`] | ✓ | ✗ (paper Table 2) | ✓ |
//! | [`Retire`] | ✓ | ✓ | ✗ (needs the detaching CAS) |
//! | [`Retire::protect_by`] | `validate()`, else `refresh()` and restart | announce, light fence, ask the *witness* | ✗ |

use std::borrow::{Borrow, BorrowMut};
use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire};

use hp_plus::HazardPointer;
use smr_common::{fence, Atomic, GuardedScheme, SchemeDomain, SchemeGuard, Shared};

use crate::hp_family::HpFamily;

/// How an HP++ unlinker invalidates a node (§3.2); re-exported so that a
/// structure's file names no scheme crate.
pub use hp_plus::Invalidate;

/// What the protection step needs to know about a node: its HP++
/// invalidation bit. Only [`Hpp`] sets or reads it.
pub trait Node: Invalidate + Sized {
    /// Whether an unlinker has invalidated this node.
    fn is_invalid(&self) -> bool;
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
    /// of `src` (itself untagged; null `src` = the structure's root, never
    /// reclaimed) — safe to dereference under `slot`. On `true`, `*ptr` is protected and is
    /// (for the hazard families) what `link` held at validation; it may
    /// have been retargeted. `false` means the traversal lost its footing
    /// and must restart from the root.
    fn protect<N: Node>(
        op: &mut Self::Op<'_>,
        slot: usize,
        ptr: &mut Shared<N>,
        link: &Atomic<N>,
        src: Shared<N>,
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
    /// * `frontier` is the one node still reachable that a detached node
    ///   links to (§3.1); the caller protects `from`'s chain up to it.
    unsafe fn unlink<N: Node>(
        op: &mut Self::Op<'_>,
        link: &Atomic<N>,
        from: Shared<N>,
        to: Shared<N>,
        frontier: Shared<N>,
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

    /// Makes `ptr` safe to dereference under `slot` when the word that
    /// vouches for it is not the link it was read from: `witness` re-reads
    /// that word (tags included) and says whether `ptr` was still unretired
    /// — the queue's `next` by `head`, an EFRB descriptor by the `update`
    /// word it came from. `false` means restart; null empties the slot.
    fn protect_by<N>(
        op: &mut Self::Op<'_>,
        slot: usize,
        ptr: Shared<N>,
        witness: impl FnOnce() -> bool,
    ) -> bool;
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
        _src: Shared<N>,
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
    fn swap(_: &mut S::Guard<'_>, _: usize, _: usize) {}

    #[inline]
    fn dup<N>(_: &mut S::Guard<'_>, _: usize, _: Shared<N>) {}

    #[inline]
    unsafe fn unlink<N: Node>(
        op: &mut S::Guard<'_>,
        link: &Atomic<N>,
        from: Shared<N>,
        to: Shared<N>,
        _frontier: Shared<N>,
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

    #[inline]
    fn protect_by<N>(
        op: &mut S::Guard<'_>,
        _slot: usize,
        _ptr: Shared<N>,
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
}

/// Per-thread state of the hazard-pointer families: the scheme thread and
/// the `H` hazard slots a structure's traversal roles index into.
pub struct HpHandle<T: HpFamily, const H: usize> {
    pub(crate) thread: T,
    slots: [HazardPointer; H],
}

impl<T: HpFamily, const H: usize> HpHandle<T, H> {
    /// Registers with `domain`: the family's default, or a structure's own
    /// (one per KV shard, say), so garbage pressure and collector stalls
    /// stay inside it.
    pub fn new_in(domain: &'static T::Domain) -> Self {
        let mut thread = domain.register();
        let slots = std::array::from_fn(|_| thread.hazard_pointer());
        Self { thread, slots }
    }

    /// Unreclaimed blocks charged to this handle's thread.
    pub fn garbage_count(&self) -> usize {
        T::Domain::garbage(&self.thread)
    }

    /// Forces one reclamation round now (HP++: invalidation included).
    pub fn reclaim(&mut self) {
        T::Domain::collect(&mut self.thread)
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
    }
}

impl<T: HpFamily, const H: usize> Borrow<T> for HpHandle<T, H> {
    fn borrow(&self) -> &T {
        &self.thread
    }
}

impl<T: HpFamily, const H: usize> BorrowMut<T> for HpHandle<T, H> {
    fn borrow_mut(&mut self) -> &mut T {
        &mut self.thread
    }
}

/// Original hazard pointers (§2.2): a protection is validated by re-reading
/// the link it came from, which fails whenever the source is marked or the
/// link moved — a sound over-approximation of "the target may be retired",
/// and the reason a traversal under it can never leave a deleted node.
/// `T` is `hp::Thread`, or `hp_plus::Thread` for the §4.2 hybrid.
///
/// `LINGER` leaves the slots announced at `exit` instead of clearing them.
/// Only the skiplist sets it: a store per slot per operation is a few
/// percent of an operation on its 41 slots, and what lingers until the next
/// operation overwrites it is bounded by `H`, which every garbage bound
/// already counts.
pub struct Careful<T, const H: usize, const LINGER: bool = false>(PhantomData<fn() -> T>);

impl<T: HpFamily, const H: usize, const LINGER: bool> Protect for Careful<T, H, LINGER> {
    type Handle = HpHandle<T, H>;
    type Scheme = T::Domain;
    type Domain = &'static T::Domain;
    type Op<'h> = &'h mut HpHandle<T, H>;

    fn domain(scheme: &'static T::Domain) -> &'static T::Domain {
        scheme
    }

    fn handle(domain: &'static T::Domain) -> HpHandle<T, H> {
        HpHandle::new_in(domain)
    }

    fn enter(handle: &mut HpHandle<T, H>) -> &mut HpHandle<T, H> {
        handle
    }

    fn exit(op: &mut HpHandle<T, H>) {
        if !LINGER {
            op.clear();
        }
    }

    #[inline]
    fn protect<N: Node>(
        op: &mut &mut HpHandle<T, H>,
        slot: usize,
        ptr: &mut Shared<N>,
        link: &Atomic<N>,
        _src: Shared<N>,
    ) -> bool {
        // Nothing to protect at the end of a chain; the null was read from
        // a link whose owner the previous step validated.
        ptr.is_null() || op.slots[slot].try_protect(*ptr, link).is_ok()
    }

    #[inline]
    fn swap(op: &mut &mut HpHandle<T, H>, a: usize, b: usize) {
        op.swap(a, b);
    }

    #[inline]
    fn dup<N>(op: &mut &mut HpHandle<T, H>, slot: usize, ptr: Shared<N>) {
        op.slots[slot].protect_raw(ptr.as_raw());
    }

    #[inline]
    unsafe fn unlink<N: Node>(
        op: &mut &mut HpHandle<T, H>,
        link: &Atomic<N>,
        from: Shared<N>,
        to: Shared<N>,
        _frontier: Shared<N>,
        detached: impl Iterator<Item = Shared<N>>,
    ) -> bool {
        if link.compare_exchange(from, to, AcqRel, Acquire).is_err() {
            return false;
        }
        for node in detached {
            // SAFETY: the caller's contract is `retire`'s; every reader
            // validated its protection against a link that no longer
            // leads here.
            unsafe { op.thread.retire(node.as_raw()) };
        }
        true
    }
}

impl<T: HpFamily, const H: usize, const LINGER: bool> Retire for Careful<T, H, LINGER> {
    unsafe fn retire<N>(op: &mut &mut HpHandle<T, H>, node: Shared<N>) {
        // SAFETY: the caller's contract is `HpFamily::retire`'s.
        unsafe { op.thread.retire(node.as_raw()) };
    }

    #[inline]
    fn protect_by<N>(
        op: &mut &mut HpHandle<T, H>,
        slot: usize,
        ptr: Shared<N>,
        witness: impl FnOnce() -> bool,
    ) -> bool {
        fence::announce_then_validate(|| op.slots[slot].protect_raw(ptr.as_raw()), witness)
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
        HpHandle::new_in(domain)
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
        src: Shared<N>,
    ) -> bool {
        hp_plus::try_protect(&op.slots[slot], ptr, link, || {
            // SAFETY: a non-null `src` is protected by the caller — it is
            // the node `link` belongs to. Unmasked like every step's
            // dereference, so a caller that has just dereferenced `src`
            // pays no second null test here.
            unsafe { protected_ref(src) }.is_some_and(N::is_invalid)
        })
    }

    #[inline]
    fn swap(op: &mut &mut Self::Handle, a: usize, b: usize) {
        op.swap(a, b);
    }

    #[inline]
    fn dup<N>(op: &mut &mut Self::Handle, slot: usize, ptr: Shared<N>) {
        op.slots[slot].protect_raw(ptr.as_raw());
    }

    #[inline]
    unsafe fn unlink<N: Node>(
        op: &mut &mut Self::Handle,
        link: &Atomic<N>,
        from: Shared<N>,
        to: Shared<N>,
        frontier: Shared<N>,
        detached: impl Iterator<Item = Shared<N>>,
    ) -> bool {
        let do_unlink = || {
            link.compare_exchange(from, to, AcqRel, Acquire)
                .ok()
                .map(|_| detached)
        };
        // SAFETY: the caller's contract is `try_unlink`'s.
        unsafe { op.thread.try_unlink(&[frontier], do_unlink) }
    }
}

impl<const H: usize> Optimistic for Hpp<H> {}
