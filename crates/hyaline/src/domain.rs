//! The hyaline domain: slots, batches, and the reference-counted handover.
//!
//! # Protocol (code-inspection notes)
//!
//! * **One slot per registered thread**, held in the same lock-free
//!   [`Registry`] EBR and PEBR use for participants. A slot is a pair of
//!   words: the packed `word` (`[batch-node head | ACTIVE/PENDING/EJECTED]`,
//!   pointers are 8-aligned so the low bits are free) and the announced
//!   `era`. The
//!   head pointer and the in-critical-section flag share one atomic word so
//!   a retirer's push and the owner's leave linearize on a single CAS/swap —
//!   no node can be pushed onto a slot that has already detached its list.
//! * **Enter** announces `(era, PENDING)`, issues the light fence, validates
//!   the global era, then upgrades `PENDING → ACTIVE` with a CAS. The CAS is
//!   the ejection point: a handover that finds a *stale, unvalidated* slot
//!   (PENDING with `era <` the batch's era) CASes in `EJECTED`, which makes
//!   the owner's upgrade fail and re-validate against the bumped era. The
//!   owner loses nothing (its critical section had not started) and the
//!   batch never needs to reach that slot — this is what keeps a thread
//!   stalled *mid-enter* from pinning garbage, unlike EBR's wedged epoch.
//! * **Retire** pushes the node onto a thread-local batch (O(1), no fence).
//!   When the trigger fires, **handover** bumps the global era (a release RMW
//!   — every retired node in the batch is ordered before the new era), issues
//!   the heavy fence, and walks the registry twice: pass 1 counts the slots
//!   the batch must reach (ACTIVE with a pre-bump era) and ejects stale
//!   PENDING slots; pass 2 pushes one batch node per such slot. The batch's
//!   reference count starts at 0, leavers decrement (possibly below zero),
//!   and the retirer finally adds the number of successful inserts: whichever
//!   operation lands the count on zero *after* the adjustment frees the whole
//!   batch. No epoch snapshot, no allocation on the reclamation path.
//! * **Leave** swaps the slot word to 0 (detaching the list and ending the
//!   critical section atomically) and decrements each traversed node's batch.
//!
//! # Why skipping is sound
//!
//! A batch handed over at era `E` may skip a slot only when its resident
//! provably cannot reach the batch's nodes:
//!
//! * **Inactive** (`word == 0`): by the announce/observe fence protocol, an
//!   enter that was invisible to the post-heavy-fence traversal validates
//!   against an era `≥ E`; reading `≥ E` from the release-RMW chain of era
//!   bumps happens-after every unlink in the batch, so the critical section
//!   cannot reach the retired nodes through the structure.
//! * **Era `≥ E`**: same happens-before edge, whether validated or not.
//! * **Stale PENDING**: ejected — the owner's upgrade CAS fails, and the
//!   failed CAS (acquire, reading the ejector's release store) forces the
//!   re-validation to observe an era `≥ E`.
//!
//! A slot that is ACTIVE with a pre-bump era gets a reference: its resident
//! may legitimately hold pointers to nodes retired after it entered (the
//! [`defer_destroy`](smr_common::SchemeGuard::defer_destroy) contract only
//! excludes threads that *start* after the call). A thread stalled inside a
//! validated critical section therefore pins garbage exactly like a stalled
//! EBR pin — that deviation from full Hyaline-S robustness (which protects
//! per-access, not per-section) is measured honestly by the fault matrix.
//!
//! # Departed threads
//!
//! A dying handle donates its unhanded batch to the domain's orphan list
//! (adopted into the next handover, so orphans flow through the same
//! reference-counted grace period) and marks its registry node dead. Dead
//! registry nodes unlinked by a traversal cannot ride a batch — a traverser
//! that never took a reference may still be parked on one — so they are
//! stamped with a fresh post-unlink era bump and freed once every announced
//! era in a later traversal has reached the stamp (`reap_dead_slots`).

use std::ptr;
use std::sync::atomic::{AtomicIsize, AtomicU64, AtomicUsize, Ordering};

use smr_common::guard::CriticalSection;
use smr_common::policy::Capped;
use smr_common::registry::{Node, Registry};
use smr_common::retired::Orphans;
use smr_common::{fence as smr_fence, CachePadded, Retired, SchemeDomain};

use crate::Guard;

/// Slot-word flag: the owner is inside a validated critical section; the
/// rest of the word is the head of the slot's retirement list.
const ACTIVE: usize = 1;
/// Slot-word flag: the owner announced an era but has not validated yet.
const PENDING: usize = 2;
/// Slot-word flag: a handover invalidated a stale PENDING announcement; the
/// owner's upgrade CAS must fail and re-validate.
const EJECTED: usize = 4;
/// Mask extracting the batch-node head pointer from a slot word.
const PTR_MASK: usize = !(ACTIVE | PENDING | EJECTED);

/// Hyaline's handover trigger: `batch ≥ max(128, 8 · slots)`, `slots`
/// being the live registered handle count. A handover must reach every
/// active slot (one node per slot), so the trigger grows as `k · slots` to
/// keep the traversal cost per retire O(k⁻¹) — and to guarantee the batch
/// always has enough nodes to serve every slot it must reach.
pub const TRIGGER: Capped = Capped { floor: 128, k: 8 };

/// One retired allocation riding a batch.
///
/// The same allocation serves three roles: it carries the payload, it is a
/// link on exactly one slot's retirement list (`next`), and the batch's
/// first node additionally holds the shared reference count (`refs`).
struct BatchNode {
    payload: Retired,
    /// Adjusted reference count; meaningful on the batch's first node only.
    refs: AtomicIsize,
    /// The batch's first node (self for the first node itself).
    refs_node: *mut BatchNode,
    /// Next node in the same batch (assembly order; walked when freeing).
    batch_next: *mut BatchNode,
    /// Next node on the same slot's retirement list; written by the pusher
    /// before the publishing CAS, read by the leaver after the detaching
    /// swap — ordered by that CAS/swap pair.
    next: *mut BatchNode,
}

/// Frees a whole batch: every payload, then every node allocation.
///
/// # Safety
/// `refs_node` must be a batch head whose adjusted reference count reached
/// zero (or be otherwise exclusively owned), and the batch freed only once.
unsafe fn free_batch(refs_node: *mut BatchNode) {
    let mut n = refs_node;
    while !n.is_null() {
        let node = unsafe { Box::from_raw(n) };
        n = node.batch_next;
        unsafe { node.payload.free() };
    }
}

/// Per-thread slot state. Cache padding comes from the registry node.
struct Slot {
    /// Packed `[head | flags]`; see the module docs.
    word: AtomicUsize,
    /// The era announced at enter; read by handovers to decide skips.
    era: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Self {
            word: AtomicUsize::new(0),
            era: AtomicU64::new(0),
        }
    }
}

/// The global side of a hyaline instance.
///
/// The process-wide default lives behind [`crate::default_domain`]; private
/// domains (per-shard stores, tests) are created with [`Domain::new`] and
/// leaked, mirroring `ebr::Collector`.
pub struct Domain {
    /// The global era; bumped by every handover (release RMW, so reading a
    /// later value happens-after every unlink in earlier batches).
    era: CachePadded<AtomicU64>,
    /// Lock-free slot registry; one node per registered thread.
    registry: Registry<Slot>,
    /// Unhanded batches donated by exited threads; adopted into the next
    /// handover so they flow through the normal grace period.
    orphans: Orphans<Retired>,
    /// Dead registry nodes awaiting the era-based reap (stamp, node).
    dead_slots: Orphans<(u64, Retired)>,
}

impl Default for Domain {
    fn default() -> Self {
        Self::new()
    }
}

impl Domain {
    /// Creates an independent domain (tests and per-shard stores use private
    /// instances; most users share [`crate::default_domain`]).
    pub const fn new() -> Self {
        Self {
            era: CachePadded::new(AtomicU64::new(0)),
            registry: Registry::new(),
            orphans: Orphans::new(),
            dead_slots: Orphans::new(),
        }
    }

    /// Current global era (for diagnostics and tests).
    pub fn era(&self) -> u64 {
        self.era.load(Ordering::Relaxed)
    }

    /// Number of currently registered handles (approximate).
    pub fn participants(&self) -> usize {
        self.registry.live()
    }

    /// Stamps freshly unlinked registry nodes with a post-unlink era bump
    /// and queues them for [`Self::reap_dead_slots`].
    ///
    /// The bump is *after* the unlinks in this thread's program order, so
    /// any slot that later announces an era `≥` the stamp happens-after the
    /// unlink and cannot walk onto the node.
    fn bury_slots(&self, unlinked: Vec<*mut Node<Slot>>) {
        if unlinked.is_empty() {
            return;
        }
        let stamp = self.era.fetch_add(1, Ordering::AcqRel) + 1;
        // Safety: each node came from `Box::into_raw` in `Registry::insert`,
        // and `traverse` hands each unlinked node out exactly once.
        let mut dead = unlinked
            .into_iter()
            .map(|node| (stamp, unsafe { Retired::new(node) }))
            .collect();
        self.dead_slots.donate(&mut dead);
    }

    /// Frees dead registry nodes whose stamp every announced era has passed.
    ///
    /// `min_era` must be the minimum announced era over all non-inactive
    /// slots observed by a post-heavy-fence registry traversal: every
    /// traversal runs inside a critical section, so a node stamped `≤`
    /// every announced era can no longer be reached by any walker.
    fn reap_dead_slots(&self, min_era: u64) {
        let Some(mut dead) = self.dead_slots.take() else {
            return; // none, or another thread is reaping
        };
        for (_, retired) in dead.extract_if(.., |(stamp, _)| *stamp <= min_era) {
            unsafe { retired.free() };
        }
        self.dead_slots.donate(&mut dead);
    }
}

impl SchemeDomain for Domain {
    type Handle = LocalHandle;
    const NAME: &'static str = "hyaline";

    fn global() -> &'static Domain {
        crate::default_domain()
    }

    fn register(&'static self) -> LocalHandle {
        LocalHandle {
            global: self,
            record: self.registry.insert(Slot::new()),
            batch_head: ptr::null_mut(),
            batch_len: 0,
            guard_live: false,
        }
    }

    /// The batch not yet handed over.
    fn garbage(handle: &LocalHandle) -> usize {
        handle.batch_len
    }

    /// The guard drop releases this handle's own reference to the batch
    /// the flush just handed over.
    fn collect(handle: &mut LocalHandle) {
        handle.pin().flush();
    }

    fn orphans(&self) -> usize {
        self.orphans.len()
    }

    /// Holds when no handle stalls *inside* a validated critical section
    /// (Table-1 row). Each of the `threads` handles accumulates at most one
    /// unhanded batch of [`TRIGGER`]`.threshold(threads)` nodes, and each
    /// live critical section pins at most one in-flight batch per
    /// overlapping handover — the same count again:
    /// `2 · threads · max(floor, k · threads)`, the hyaline analogue of
    /// HP's `k·H + floor`.
    fn garbage_bound(&self, threads: usize) -> Option<usize> {
        Some(2 * threads * TRIGGER.threshold(threads))
    }
}

impl Drop for Domain {
    fn drop(&mut self) {
        // Exclusive access, and `register` requires `'static`, so no handle
        // can be live: free donated payloads and unreaped slot records.
        for retired in self.orphans.get_mut().drain(..) {
            unsafe { retired.free() };
        }
        for (_, retired) in self.dead_slots.get_mut().drain(..) {
            unsafe { retired.free() };
        }
    }
}

/// A thread's registration with a [`Domain`].
///
/// Not `Sync`: one handle per thread. Dropping the handle unregisters the
/// thread and donates any unhanded batch to the domain's orphan list.
pub struct LocalHandle {
    global: &'static Domain,
    /// This thread's registry node; owned by the registry, valid for the
    /// handle's lifetime (only `Drop` marks it dead).
    record: *const Node<Slot>,
    /// The thread-local batch under assembly (linked via `batch_next`).
    batch_head: *mut BatchNode,
    batch_len: usize,
    guard_live: bool,
}

// The handle is only a registration token plus thread-local garbage; the
// registry node it points to is Sync.
unsafe impl Send for LocalHandle {}

impl LocalHandle {
    #[inline]
    fn slot(&self) -> &Slot {
        // Valid: the node is unlinked only after `Drop` marks it dead, and
        // freed only once every announced era passes its stamp.
        unsafe { (*self.record).data() }
    }

    /// Enters a critical section.
    #[inline]
    pub fn pin(&mut self) -> Guard<'_> {
        Guard::new(self)
    }

    /// Links a payload onto the local batch under assembly.
    fn link(&mut self, payload: Retired) {
        self.batch_head = Box::into_raw(Box::new(BatchNode {
            payload,
            refs: AtomicIsize::new(0),
            refs_node: ptr::null_mut(),
            batch_next: self.batch_head,
            next: ptr::null_mut(),
        }));
        self.batch_len += 1;
    }

    /// Folds donated payloads into the local batch so exited threads'
    /// garbage flows through the normal handover grace period.
    fn adopt_orphans(&mut self) {
        for retired in self.global.orphans.take().into_iter().flatten() {
            self.link(retired);
        }
    }

    /// Hands the local batch over to every slot that may still reach its
    /// nodes. Returns the minimum announced era observed (for the reap).
    fn handover(&mut self) -> u64 {
        let refs_node = self.batch_head;
        // Stitch the batch: every node points at the shared refs node, whose
        // count starts at zero (leavers may drive it negative before the
        // final adjustment).
        unsafe {
            (*refs_node).refs.store(0, Ordering::Relaxed);
            let mut n = refs_node;
            while !n.is_null() {
                (*n).refs_node = refs_node;
                n = (*n).batch_next;
            }
        }
        // Release RMW: every unlink feeding this batch is ordered before the
        // new era value — reading `era` (or later) from the bump chain
        // happens-after all of them.
        let era = self.global.era.fetch_add(1, Ordering::AcqRel) + 1;
        // Observer side of the announce/observe protocol: every slot state
        // stored before an enter's light fence is visible below, and any
        // enter invisible below validates against the bumped era.
        smr_fence::heavy();
        smr_common::fault_point!("hyaline::handover::before_traverse");

        // Pass 1: count the slots the batch must reach (ACTIVE, pre-bump
        // era), eject stale PENDING slots so they never become reachable,
        // collect the minimum announced era, and unlink dead records.
        let mut eligible = 0usize;
        let mut min_era = u64::MAX;
        let mut unlinked: Vec<*mut Node<Slot>> = Vec::new();
        self.global.registry.traverse(
            |slot| {
                let mut w = slot.word.load(Ordering::Acquire);
                loop {
                    if w == 0 {
                        break;
                    }
                    let announced = slot.era.load(Ordering::Relaxed);
                    min_era = min_era.min(announced);
                    if announced >= era || w & EJECTED != 0 {
                        break;
                    }
                    if w & ACTIVE != 0 {
                        eligible += 1;
                        break;
                    }
                    // Stale and unvalidated: eject instead of reserving a
                    // node. The release store pairs with the owner's acquire
                    // upgrade failure, forcing a fresh validation.
                    match slot.word.compare_exchange(
                        w,
                        w | EJECTED,
                        Ordering::Release,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => break,
                        Err(w2) => w = w2, // owner raced: re-decide
                    }
                }
                true
            },
            |node| unlinked.push(node),
        );

        // The handover needs one carrier node per reachable slot. A small
        // batch (an explicit flush) or a registration burst can leave fewer
        // nodes than slots; pad with empty carriers so the handover always
        // completes — flush must be able to drain. (The trigger
        // `max(floor, 8·slots)` makes this a cold path.)
        while eligible > self.batch_len {
            let filler = Box::into_raw(Box::new(BatchNode {
                // Safety: a fresh allocation, freed exactly once with the
                // batch.
                payload: unsafe { Retired::new(Box::into_raw(Box::new(0u8))) },
                refs: AtomicIsize::new(0),
                refs_node,
                batch_next: unsafe { (*refs_node).batch_next },
                next: ptr::null_mut(),
            }));
            unsafe { (*refs_node).batch_next = filler };
            self.batch_len += 1;
        }

        // Pass 2: push one node per reachable slot. `traverse_live` never
        // restarts, so each slot is visited at most once and pass 1's count
        // bounds the nodes consumed. A slot can newly become ACTIVE with a
        // pre-bump era only by winning the upgrade race against pass 1's
        // ejection — in which case pass 1 already counted it.
        let mut cursor = refs_node;
        let mut inserts = 0isize;
        self.global.registry.traverse_live(|slot| {
            let mut w = slot.word.load(Ordering::Acquire);
            loop {
                if w & ACTIVE == 0 || slot.era.load(Ordering::Relaxed) >= era {
                    break;
                }
                if cursor.is_null() {
                    // Unreachable: pass 1 reserved a node per reachable slot.
                    debug_assert!(false, "hyaline batch exhausted mid-handover");
                    break;
                }
                // Link before the publishing CAS; the leaver's detaching
                // swap (acquire) orders the read after this write.
                unsafe { (*cursor).next = (w & PTR_MASK) as *mut BatchNode };
                match slot.word.compare_exchange(
                    w,
                    cursor as usize | ACTIVE,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        inserts += 1;
                        cursor = unsafe { (*cursor).batch_next };
                        break;
                    }
                    Err(w2) => w = w2, // pushed-over or detached: re-decide
                }
            }
            true
        });

        // A retirer stalled here has published list entries whose batch
        // cannot be freed until the adjustment below lands — leavers only
        // drive the count negative.
        smr_common::fault_point!("hyaline::handover::before_adjust");
        let old = unsafe { (*refs_node).refs.fetch_add(inserts, Ordering::AcqRel) };
        if old + inserts == 0 {
            // Every reference already came back (or none was taken): the
            // adjustment itself is the zero transition.
            unsafe { free_batch(refs_node) };
        }
        self.batch_head = ptr::null_mut();
        self.batch_len = 0;
        self.global.bury_slots(unlinked);
        min_era
    }

    /// Heavy fence + registry walk computing the minimum announced era, for
    /// reaping dead slot records when there is no batch to hand over.
    fn scan_min_era(&mut self) -> u64 {
        smr_fence::heavy();
        let mut min_era = u64::MAX;
        let mut unlinked: Vec<*mut Node<Slot>> = Vec::new();
        self.global.registry.traverse(
            |slot| {
                if slot.word.load(Ordering::Acquire) != 0 {
                    min_era = min_era.min(slot.era.load(Ordering::Relaxed));
                }
                true
            },
            |node| unlinked.push(node),
        );
        self.global.bury_slots(unlinked);
        min_era
    }
}

unsafe impl CriticalSection for LocalHandle {
    #[inline]
    unsafe fn guard_live(&mut self) -> &mut bool {
        &mut self.guard_live
    }

    /// The enter path: announce `(era, PENDING)`, light fence, validate the
    /// era, then CAS-upgrade to ACTIVE. The upgrade fails if a handover
    /// ejected the stale announcement, forcing a re-validation that observes
    /// the bumped era.
    #[inline]
    unsafe fn enter(&mut self) {
        let slot = self.slot();
        let mut e = self.global.era.load(Ordering::Acquire);
        loop {
            let e2 = smr_fence::announce_then_validate(
                || {
                    slot.era.store(e, Ordering::Relaxed);
                    slot.word.store(PENDING, Ordering::Relaxed);
                    // The announce-to-validate window: a thread stalled here
                    // holds no critical section yet, so handovers eject the
                    // slot instead of handing it references — the stall EBR
                    // cannot bound (Table 1) and hyaline does.
                    smr_common::fault_point!("hyaline::enter::before_validate");
                },
                || self.global.era.load(Ordering::Acquire),
            );
            if e != e2 {
                e = e2;
                continue;
            }
            // Validated: upgrade unless a handover ejected us meanwhile. The
            // acquire failure load reads the ejector's release store, so the
            // retried validation observes its era bump.
            match slot
                .word
                .compare_exchange(PENDING, ACTIVE, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(_) => e = self.global.era.load(Ordering::Acquire),
            }
        }
    }

    /// The leave path: detach the retirement list and end the critical
    /// section with one swap, then drop a reference on each traversed
    /// node's batch, freeing batches that hit zero post-adjustment.
    #[inline]
    unsafe fn leave(&mut self) {
        let w = self.slot().word.swap(0, Ordering::AcqRel);
        debug_assert!(w & ACTIVE != 0, "leave without a critical section");
        let mut n = (w & PTR_MASK) as *mut BatchNode;
        if n.is_null() {
            return;
        }
        // A thread stalled here has detached its list but not yet released
        // its references: every batch on the list stays pinned — the
        // handover-decrement window Miri catches use-after-free in.
        smr_common::fault_point!("hyaline::leave::before_decrement");
        while !n.is_null() {
            // Read the link and the batch pointer *before* decrementing:
            // the decrement may free the batch, node included.
            let next = unsafe { (*n).next };
            let refs_node = unsafe { (*n).refs_node };
            let old = unsafe { (*refs_node).refs.fetch_sub(1, Ordering::AcqRel) };
            if old == 1 {
                // Post-adjustment zero transition: last reference out.
                unsafe { free_batch(refs_node) };
            }
            n = next;
        }
    }

    /// Links a retired payload onto the local batch, then attempts a
    /// handover if [`TRIGGER`] fires.
    unsafe fn retire(&mut self, retired: Retired) {
        self.link(retired);
        smr_common::fault_point!("hyaline::retire::after_link");
        if TRIGGER.should_reclaim(self.batch_len, self.global.registry.live()) {
            // SAFETY: `retire` runs pinned, as `collect` requires.
            unsafe { self.collect() };
        }
    }

    /// Adopts orphans, attempts a handover, and reaps dead slot records.
    ///
    /// Must be called inside a critical section (all callers hold a
    /// [`Guard`]): the registry traversals rely on the caller's own slot
    /// being ACTIVE, and the batch is pushed to it like any other.
    unsafe fn collect(&mut self) {
        self.adopt_orphans();
        let min_era = if !self.batch_head.is_null() {
            Some(self.handover())
        } else if !self.global.dead_slots.is_empty() {
            Some(self.scan_min_era())
        } else {
            None
        };
        if let Some(min_era) = min_era {
            self.global.reap_dead_slots(min_era);
        }
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        // Unregistration and donation must run even if teardown itself
        // panics (a dying worker must neither strand garbage nor leave a
        // live-looking slot), so both live in a guard that runs during
        // unwinding too.
        struct Teardown<'a>(&'a mut LocalHandle);
        impl Drop for Teardown<'_> {
            fn drop(&mut self) {
                let h = &mut *self.0;
                // Mark the registry node dead first so handovers stop
                // considering a slot that no longer runs.
                unsafe { h.global.registry.delete(h.record) };
                if !h.batch_head.is_null() {
                    let mut donated = Vec::with_capacity(h.batch_len);
                    let mut n = h.batch_head;
                    while !n.is_null() {
                        let node = unsafe { Box::from_raw(n) };
                        n = node.batch_next;
                        donated.push(node.payload);
                    }
                    h.batch_head = ptr::null_mut();
                    h.batch_len = 0;
                    h.global.orphans.donate(&mut donated);
                }
            }
        }
        let _g = Teardown(self);
        smr_common::fault_point!("hyaline::teardown::before_donate");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_common::{Atomic, Shared};
    use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};
    use std::sync::Arc;

    #[test]
    fn enter_leave_cycles() {
        let d = Box::leak(Box::new(Domain::new()));
        let mut h = d.register();
        for _ in 0..10 {
            let g = h.pin();
            drop(g);
        }
    }

    #[test]
    fn era_advances_on_handover() {
        let d = Box::leak(Box::new(Domain::new()));
        let mut h = d.register();
        let e0 = d.era();
        {
            let g = h.pin();
            unsafe { g.defer_destroy(Shared::from_owned(1u64)) };
            g.flush();
            drop(g);
        }
        assert!(d.era() > e0, "handover must bump the era");
    }

    #[test]
    fn deferred_destruction_runs() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Relaxed);
            }
        }

        let d = Box::leak(Box::new(Domain::new()));
        let mut h = d.register();
        {
            let g = h.pin();
            let node = Shared::from_owned(Canary);
            unsafe { g.defer_destroy(node) };
            // Handover pushes the batch onto our own slot; the node stays
            // alive until the guard leaves.
            g.flush();
            assert_eq!(DROPS.load(Relaxed), 0, "freed inside the retiring CS");
            drop(g);
        }
        assert_eq!(DROPS.load(Relaxed), 1, "leave must release the batch");
    }

    #[test]
    fn batch_survives_concurrent_holder() {
        // A second slot entered before the handover must hold the batch
        // alive until it leaves, even after the retirer is gone.
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Relaxed);
            }
        }

        let d = Box::leak(Box::new(Domain::new()));
        let mut holder = d.register();
        let mut retirer = d.register();
        let held = holder.pin();
        {
            let g = retirer.pin();
            unsafe { g.defer_destroy(Shared::from_owned(Canary)) };
            g.flush();
            drop(g);
        }
        assert_eq!(DROPS.load(Relaxed), 0, "holder's reference ignored");
        drop(held);
        assert_eq!(DROPS.load(Relaxed), 1, "holder's leave must free");
    }

    #[test]
    fn slot_entered_after_handover_takes_no_reference() {
        // A critical section that starts after the batch's era bump cannot
        // reach its nodes, so it must not delay the free.
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Relaxed);
            }
        }

        let d = Box::leak(Box::new(Domain::new()));
        let mut late = d.register();
        let mut retirer = d.register();
        {
            let g = retirer.pin();
            unsafe { g.defer_destroy(Shared::from_owned(Canary)) };
            g.flush();
            // Entered after the handover: skipped by era comparison.
            let late_guard = late.pin();
            drop(g); // retirer's own reference was the last one
            assert_eq!(DROPS.load(Relaxed), 1, "late slot delayed the free");
            drop(late_guard);
        }
    }

    #[test]
    fn register_unregister_churn_balances() {
        // Thread churn: handles come and go while retiring garbage, so
        // every drop donates to the orphan list and leaves a dead registry
        // node behind. Afterwards a survivor must be able to adopt and free
        // every single orphan — nothing stranded, nothing double-freed.
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Relaxed);
            }
        }

        let d: &'static Domain = Box::leak(Box::new(Domain::new()));
        let threads = 8;
        let lives: usize = if cfg!(miri) { 4 } else { 64 };
        let retires_per_life = 16;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(move || {
                    for _ in 0..lives {
                        let mut h = d.register();
                        let g = h.pin();
                        for _ in 0..retires_per_life {
                            unsafe { g.defer_destroy(Shared::from_owned(Canary)) };
                        }
                        drop(g);
                        // Handle drop: donate batch, mark registry node.
                    }
                });
            }
        });
        assert_eq!(d.participants(), 0);
        let expected = threads * lives * retires_per_life;
        let mut survivor = d.register();
        for _ in 0..8 {
            let g = survivor.pin();
            g.flush();
            drop(g);
            if DROPS.load(Relaxed) == expected {
                break;
            }
        }
        assert_eq!(DROPS.load(Relaxed), expected, "orphaned garbage stranded");
    }

    #[test]
    fn no_premature_free_under_concurrency() {
        // Readers hold critical sections while a writer swaps and retires
        // nodes; the value read under a guard must always be intact (drop
        // poisons it).
        struct Node {
            value: u64,
        }
        impl Drop for Node {
            fn drop(&mut self) {
                self.value = u64::MAX;
            }
        }

        let d: &'static Domain = Box::leak(Box::new(Domain::new()));
        let slot = Arc::new(Atomic::new(Node { value: 7 }));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let mut threads = Vec::new();
        for _ in 0..4 {
            let slot = slot.clone();
            let stop = stop.clone();
            threads.push(std::thread::spawn(move || {
                let mut h = d.register();
                while !stop.load(Relaxed) {
                    let g = h.pin();
                    let s = slot.load(Acquire);
                    let v = unsafe { s.deref() }.value;
                    assert_eq!(v, 7, "use-after-free detected");
                    drop(g);
                }
            }));
        }
        {
            let slot = slot.clone();
            let stop = stop.clone();
            let writes: u64 = if cfg!(miri) { 300 } else { 20_000 };
            threads.push(std::thread::spawn(move || {
                let mut h = d.register();
                for _ in 0..writes {
                    let g = h.pin();
                    let fresh = Shared::from_owned(Node { value: 7 });
                    let old = slot.swap(fresh, AcqRel);
                    unsafe { g.defer_destroy(old) };
                    drop(g);
                }
                stop.store(true, Relaxed);
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        unsafe {
            let last = slot.load(Relaxed);
            last.drop_owned();
            smr_common::counters::decr_garbage(0);
        }
    }

    #[test]
    fn repin_releases_references() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Relaxed);
            }
        }

        let d = Box::leak(Box::new(Domain::new()));
        let mut h = d.register();
        let mut g = h.pin();
        unsafe { g.defer_destroy(Shared::from_owned(Canary)) };
        g.flush();
        assert_eq!(DROPS.load(Relaxed), 0);
        // Leaving inside repin drops the reference the handover pushed.
        g.repin();
        assert_eq!(DROPS.load(Relaxed), 1, "repin must release the batch");
        drop(g);
    }
}
