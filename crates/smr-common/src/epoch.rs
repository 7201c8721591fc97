//! The epoch collector of EBR and PEBR, written once.
//!
//! PEBR is EBR that ejects. A zero-sized [`Scheme`] marker supplies the
//! only per-scheme facts — name, trigger, ejection threshold and
//! fault-point names — and `ebr::Collector`/`pebr::Collector` are
//! `Collector<ebr::Marker>`/`Collector<pebr::Marker>`. DESIGN.md §1.6 has
//! the code-inspection notes: a pin with no `SeqCst` fence and no RMW, a
//! lock-free participant [`Registry`] whose dead nodes retire through the
//! collector itself, sealed [`GenBags`], and the straggler memo that makes
//! a blocked advance cost one load (with its soundness argument).

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::bags::GenBags;
use crate::guard::{CriticalSection, Guard};
use crate::policy::Capped;
use crate::registry::{Node, Registry};
use crate::retired::Orphans;
use crate::{fence, CachePadded, GuardedScheme, Retired, SchemeDomain};

/// The per-scheme facts of an epoch collector, on a zero-sized marker.
pub trait Scheme: Sized + Send + Sync + 'static {
    /// The scheme's tag ([`SchemeDomain::NAME`]).
    const NAME: &'static str;
    /// When a retire collects; its `slots` are the live participants.
    const TRIGGER: Capped;
    /// Local garbage at which a collection ejects every straggler; `None`
    /// never ejects (and has no garbage bound).
    const EJECT: Option<usize>;
    /// The scheme's fault-point names.
    const FAULTS: FaultPoints;

    /// The process-wide default collector.
    fn global() -> &'static Collector<Self>;
}

/// An epoch collector's fault points by protocol step (`None`: the scheme
/// has none there). DESIGN.md §1.7 lists the window each one attacks.
pub struct FaultPoints {
    /// Epoch announced, not yet validated.
    pub pin_before_validate: Option<&'static str>,
    /// Block bagged, trigger not yet checked.
    pub retire_after_push: Option<&'static str>,
    /// Orphans adopted, advance not yet attempted.
    pub collect_after_adopt: Option<&'static str>,
    /// Heavy fence issued, registry not yet read.
    pub advance_before_traverse: Option<&'static str>,
    /// A straggler marked ejected that has not yet seen it.
    pub eject_after_mark: Option<&'static str>,
    /// Every participant observed the epoch, new epoch not yet published.
    pub advance_before_publish: Option<&'static str>,
    /// Handle unregistered, garbage not yet donated.
    pub teardown_before_donate: Option<&'static str>,
}

#[inline(always)]
fn fault_at(_point: Option<&'static str>) {
    #[cfg(feature = "fault-injection")]
    if let Some(point) = _point {
        crate::fault::hit(point);
    }
}

/// Per-participant state; cache padding comes from the registry node.
#[derive(Default)]
struct Participant {
    /// `(epoch << 1) | pinned`.
    state: AtomicU64,
    /// Set by an ejecting advance; only read by schemes that eject.
    ejected: AtomicBool,
}

/// The global side of an epoch collector.
pub struct Collector<S: Scheme> {
    epoch: CachePadded<AtomicU64>,
    /// One node per registered thread.
    registry: Registry<Participant>,
    /// Stamped garbage of exited threads, adopted by later collections.
    orphans: Orphans<(u64, Retired)>,
    /// Stragglers newly marked ejected (each one restart at most).
    ejections: AtomicU64,
    _scheme: PhantomData<S>,
}

impl<S: Scheme> Default for Collector<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Scheme> Collector<S> {
    /// Creates an independent collector.
    pub const fn new() -> Self {
        Self {
            epoch: CachePadded::new(AtomicU64::new(0)),
            registry: Registry::new(),
            orphans: Orphans::new(),
            ejections: AtomicU64::new(0),
            _scheme: PhantomData,
        }
    }

    /// Current global epoch (for diagnostics and tests).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Number of currently registered participants (approximate).
    pub fn participants(&self) -> usize {
        self.registry.live()
    }

    /// Stragglers this collector has newly marked ejected.
    pub fn ejections(&self) -> u64 {
        self.ejections.load(Ordering::Relaxed)
    }

    /// Retire count at which a thread collects: the trigger at the current
    /// participant count (tests derive EBR's churn slack from it).
    #[inline]
    pub fn collect_threshold(&self) -> usize {
        S::TRIGGER.threshold(self.registry.live())
    }
}

impl<S: Scheme> SchemeDomain for Collector<S> {
    type Handle = LocalHandle<S>;
    const NAME: &'static str = S::NAME;

    fn global() -> &'static Self {
        S::global()
    }

    fn register(&'static self) -> LocalHandle<S> {
        LocalHandle {
            global: self,
            record: self.registry.insert(Participant::default()),
            bags: GenBags::new(),
            memo: None,
            guard_live: false,
        }
    }

    fn garbage(handle: &LocalHandle<S>) -> usize {
        handle.bags.len()
    }

    fn collect(handle: &mut LocalHandle<S>) {
        handle.pin().flush();
    }

    fn orphans(&self) -> usize {
        self.orphans.len()
    }

    /// Without ejection, none: one stalled pin stops every free (Table 1).
    /// With it, per handle: the ejection threshold, plus two trigger batches
    /// stamped at the two epochs not yet expired. Holds while stragglers
    /// validate: the PEBR model ejects at `validate()` points (DESIGN.md §4).
    fn garbage_bound(&self, threads: usize) -> Option<usize> {
        S::EJECT.map(|eject| threads * (eject + 2 * S::TRIGGER.threshold(threads)))
    }
}

impl<S: Scheme> GuardedScheme for Collector<S> {
    type Guard<'a> = Guard<'a, LocalHandle<S>>;

    fn pin(handle: &mut LocalHandle<S>) -> Self::Guard<'_> {
        handle.pin()
    }
}

impl<S: Scheme> Drop for Collector<S> {
    fn drop(&mut self) {
        // `register` requires `'static`, so no handle is live: free the
        // donated garbage (the registry frees its own nodes).
        for (_, retired) in self.orphans.get_mut().drain(..) {
            unsafe { retired.free() };
        }
    }
}

/// The straggler that blocked an advance, the epoch read before, the state
/// word seen, and whether that pass ejected every straggler.
#[derive(Clone, Copy)]
struct Memo(*const Participant, u64, u64, bool);

/// A thread's registration with a [`Collector`]; dropping it unregisters
/// the thread and donates its garbage to the collector's orphans.
pub struct LocalHandle<S: Scheme> {
    global: &'static Collector<S>,
    /// This thread's registry node, live until `Drop` marks it dead.
    record: *const Node<Participant>,
    /// Epoch-stamped local garbage in sealed generation bags.
    bags: GenBags,
    memo: Option<Memo>,
    guard_live: bool,
}

// SAFETY: `global` is a shared `Sync` collector; `record` and the memo
// point at registry data, atomics any thread may read; `bags` own their
// blocks, which any thread may free; `guard_live` is plain data.
unsafe impl<S: Scheme> Send for LocalHandle<S> {}

impl<S: Scheme> LocalHandle<S> {
    #[inline]
    fn participant(&self) -> &Participant {
        // Valid: only `Drop` marks the node dead, before any unlink.
        unsafe { (*self.record).data() }
    }

    /// Pins the thread, entering a critical section.
    #[inline]
    pub fn pin(&mut self) -> Guard<'_, Self> {
        Guard::new(self)
    }

    /// Tries to advance the epoch, with `eject` marking every straggler
    /// ejected; returns the epoch afterwards. Runs pinned. One load if the
    /// memo answers (DESIGN.md §1.6); else one heavy fence, one traversal
    /// (unlinking dead participants into this handle's bags) and one CAS.
    fn try_advance(&mut self, eject: bool) -> u64 {
        let global = self.global;
        let e = global.epoch.load(Ordering::Relaxed);
        if let Some(Memo(straggler, epoch, state, marked)) = self.memo {
            // SAFETY: pinned, with the epoch still at the one read before
            // the traversal that saw the node: not freed (DESIGN.md §1.6).
            let unmoved = || unsafe { &*straggler }.state.load(Ordering::Relaxed) == state;
            if (marked || !eject) && epoch == e && unmoved() {
                return e;
            }
        }
        // Observer side of the announce/observe protocol: after this fence,
        // every participant state store made before the announcer's light
        // fence is visible below.
        fence::heavy();
        fault_at(S::FAULTS.advance_before_traverse);
        let mut blocker = None;
        let bags = &mut self.bags;
        global.registry.traverse(
            |p| {
                // Acquire, against the owner's Release pin and leave: its
                // earlier critical sections precede the frees this enables.
                let state = p.state.load(Ordering::Acquire);
                if state & 1 == 0 || state >> 1 == e {
                    return true;
                }
                blocker.get_or_insert(Memo(p, e, state, eject));
                if eject {
                    if !p.ejected.swap(true, Ordering::Release) {
                        global.ejections.fetch_add(1, Ordering::Relaxed);
                    }
                    fault_at(S::FAULTS.eject_after_mark);
                }
                eject
            },
            |node| {
                // Stamped with the epoch *now*, not `e`: a traverser that
                // pinned at `e + 1` after `e` was read may be parked on this
                // node, and nothing pinned at `e + 1` holds back `e + 2`.
                let stamp = global.epoch.load(Ordering::Relaxed);
                // SAFETY: from `Box::into_raw` in `Registry::insert`, and
                // `traverse` hands each unlinked node out exactly once.
                bags.push(stamp, unsafe { Retired::new(node) });
            },
        );
        self.memo = blocker;
        if blocker.is_some() {
            return e; // a straggler blocks the advance
        }
        // A collector stalled here has verified every participant but not
        // yet published — no other thread advances for it, epochs wedge.
        fault_at(S::FAULTS.advance_before_publish);
        let _ = global
            .epoch
            .compare_exchange(e, e + 1, Ordering::Release, Ordering::Relaxed);
        global.epoch.load(Ordering::Relaxed)
    }
}

unsafe impl<S: Scheme> CriticalSection for LocalHandle<S> {
    #[inline]
    unsafe fn guard_live(&mut self) -> &mut bool {
        &mut self.guard_live
    }

    /// Clears a pending ejection, then announces the epoch, light fence,
    /// validates that the epoch did not move. No `SeqCst` fence, no RMW.
    #[inline]
    unsafe fn enter(&mut self) {
        let p = self.participant();
        if S::EJECT.is_some() {
            p.ejected.store(false, Ordering::Relaxed);
        }
        let mut e = self.global.epoch.load(Ordering::Relaxed);
        loop {
            let e2 = fence::announce_then_validate(
                || {
                    p.state.store((e << 1) | 1, Ordering::Release);
                    // A thread stalled here has announced an epoch every
                    // advancer must honor, or get past by ejecting it.
                    fault_at(S::FAULTS.pin_before_validate);
                },
                || self.global.epoch.load(Ordering::Relaxed),
            );
            if e == e2 {
                break;
            }
            e = e2;
        }
    }

    #[inline]
    unsafe fn leave(&mut self) {
        self.participant().state.store(0, Ordering::Release);
    }

    /// Bags `retired` under the current epoch; collects if the trigger fires.
    #[inline]
    unsafe fn retire(&mut self, retired: Retired) {
        let epoch = self.global.epoch.load(Ordering::Relaxed);
        self.bags.push(epoch, retired);
        fault_at(S::FAULTS.retire_after_push);
        if S::TRIGGER.should_reclaim(self.bags.len(), self.global.registry.live()) {
            // SAFETY: `retire` runs pinned, as `collect` requires.
            unsafe { self.collect() };
        }
    }

    /// Adopts orphans, attempts an advance (ejecting once garbage reaches
    /// the scheme's threshold) and frees what expired. Runs pinned.
    unsafe fn collect(&mut self) {
        // Adopt orphans first so exited threads' garbage is not stranded.
        if let Some(orphans) = self.global.orphans.take() {
            self.bags
                .adopt(orphans, self.global.epoch.load(Ordering::Relaxed));
        }
        let eject = S::EJECT.is_some_and(|t| self.bags.len() >= t);
        fault_at(S::FAULTS.collect_after_adopt);
        let global_epoch = self.try_advance(eject);
        self.bags.collect_expired(global_epoch);
    }

    #[inline]
    fn is_valid(&self) -> bool {
        S::EJECT.is_none() || !self.participant().ejected.load(Ordering::Acquire)
    }
}

impl<S: Scheme> Drop for LocalHandle<S> {
    fn drop(&mut self) {
        // Unregister and donate even if teardown panics: a dying worker must
        // neither wedge the epoch nor strand garbage.
        struct Teardown<'a, S: Scheme>(&'a mut LocalHandle<S>);
        impl<S: Scheme> Drop for Teardown<'_, S> {
            fn drop(&mut self) {
                let h = &mut *self.0;
                // Dead first, so no advance waits on a thread that is gone.
                unsafe { h.global.registry.delete(h.record) };
                if !h.bags.is_empty() {
                    let mut donated = Vec::new();
                    h.bags.drain_into(&mut donated);
                    h.global.orphans.donate(&mut donated);
                }
            }
        }
        let _g = Teardown(self);
        fault_at(S::FAULTS.teardown_before_donate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atomic, Shared};
    use std::sync::atomic::{AtomicUsize, Ordering::*};
    use std::sync::Arc;

    /// EBR's facts under a test name: the tests exercise the collector
    /// without ejection (PEBR's own tests cover it).
    enum Plain {}

    impl Scheme for Plain {
        const NAME: &'static str = "epoch-test";
        const TRIGGER: Capped = Capped { floor: 128, k: 8 };
        const EJECT: Option<usize> = None;
        // None: these tests run beside the fault engine's own, which
        // assert on every point crossed while their plan is installed.
        const FAULTS: FaultPoints = FaultPoints {
            pin_before_validate: None,
            retire_after_push: None,
            collect_after_adopt: None,
            advance_before_traverse: None,
            eject_after_mark: None,
            advance_before_publish: None,
            teardown_before_donate: None,
        };

        fn global() -> &'static Collector {
            static DEFAULT: Collector = Collector::new();
            &DEFAULT
        }
    }

    type Collector = super::Collector<Plain>;

    #[test]
    fn pin_unpin_cycles() {
        let c = Box::leak(Box::new(Collector::new()));
        let mut h = c.register();
        for _ in 0..10 {
            let g = h.pin();
            drop(g);
        }
    }

    #[test]
    fn epoch_advances_when_unpinned() {
        let c = Box::leak(Box::new(Collector::new()));
        let mut h = c.register();
        let e0 = c.epoch();
        {
            let g = h.pin();
            g.flush();
            g.flush();
            drop(g);
        }
        let g = h.pin();
        g.flush();
        g.flush();
        drop(g);
        assert!(c.epoch() > e0);
    }

    #[test]
    fn pinned_thread_blocks_advance() {
        let c = Box::leak(Box::new(Collector::new()));
        let mut blocker = c.register();
        let mut worker = c.register();
        let _bg = blocker.pin(); // stays pinned
        let e_at_pin = c.epoch();
        for _ in 0..10 {
            let g = worker.pin();
            g.flush();
            drop(g);
        }
        // The blocker pinned at e_at_pin; epoch may advance at most once past
        // it before the blocker becomes a straggler.
        assert!(c.epoch() <= e_at_pin + 1);
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

        let c = Box::leak(Box::new(Collector::new()));
        let mut h = c.register();
        {
            let g = h.pin();
            let node = Shared::from_owned(Canary);
            unsafe { g.defer_destroy(node) };
            drop(g);
        }
        // Two unpinned flushes advance the epoch twice, freeing the node.
        for _ in 0..4 {
            let g = h.pin();
            g.flush();
            drop(g);
        }
        assert_eq!(DROPS.load(Relaxed), 1);
    }

    #[test]
    fn nothing_frees_before_two_epochs() {
        // End-to-end bag expiry: a block retired at epoch `e` must survive
        // the advance to `e+1` and die only when the epoch reaches `e+2`.
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Relaxed);
            }
        }

        let c = Box::leak(Box::new(Collector::new()));
        let mut h = c.register();
        let e = c.epoch();
        {
            let g = h.pin();
            unsafe { g.defer_destroy(Shared::from_owned(Canary)) };
        }
        {
            // Pinned at `e`: the flush advances to `e+1`, at which the
            // retired block is still one epoch short of expiry.
            let g = h.pin();
            g.flush();
            drop(g);
            assert_eq!(c.epoch(), e + 1);
            assert_eq!(DROPS.load(Relaxed), 0, "freed before epoch + 2");
        }
        {
            // Pinned at `e+1`: the flush advances to `e+2` and the block
            // becomes eligible in the same collection.
            let g = h.pin();
            g.flush();
            drop(g);
            assert_eq!(c.epoch(), e + 2);
            assert_eq!(DROPS.load(Relaxed), 1);
        }
    }

    #[test]
    fn advance_resumes_after_straggler_unpins() {
        let c = Box::leak(Box::new(Collector::new()));
        let mut blocker = c.register();
        let mut worker = c.register();
        let straggler = blocker.pin();
        let e_at_pin = c.epoch();
        for _ in 0..6 {
            let g = worker.pin();
            g.flush();
            drop(g);
        }
        // The straggler caps the advance at one epoch past its pin.
        assert!(c.epoch() <= e_at_pin + 1);
        drop(straggler);
        for _ in 0..3 {
            let g = worker.pin();
            g.flush();
            drop(g);
        }
        assert!(c.epoch() > e_at_pin + 1, "advance stuck after unpin");
    }

    #[test]
    fn blocked_advance_memoizes_the_straggler_until_it_moves() {
        let c = Box::leak(Box::new(Collector::new()));
        let mut blocker = c.register();
        let mut worker = c.register();
        let blocker_state: *const Participant = blocker.participant();
        let straggler = blocker.pin();
        let e = c.epoch();
        worker.pin().flush(); // the pin at `e` is current: advances
        worker.pin().flush(); // now it lags: blocked, remembered
        let Memo(node, epoch, _, _) = worker.memo.expect("a blocked advance leaves a memo");
        assert_eq!((epoch, c.epoch()), (e + 1, e + 1));
        assert_eq!(node, blocker_state);
        worker.pin().flush(); // answered by the memo: nothing changes
        assert_eq!(c.epoch(), e + 1);
        drop(straggler);
        worker.pin().flush(); // the straggler's state moved: traverse, advance
        assert!(worker.memo.is_none());
        assert_eq!(c.epoch(), e + 2);
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

        let c: &'static Collector = Box::leak(Box::new(Collector::new()));
        let threads = 8;
        let lives: usize = if cfg!(miri) { 4 } else { 64 };
        let retires_per_life = 16;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(move || {
                    for _ in 0..lives {
                        let mut h = c.register();
                        let g = h.pin();
                        for _ in 0..retires_per_life {
                            unsafe { g.defer_destroy(Shared::from_owned(Canary)) };
                        }
                        drop(g);
                        // Handle drop: donate garbage, mark registry node.
                    }
                });
            }
        });
        assert_eq!(c.participants(), 0);
        let expected = threads * lives * retires_per_life;
        let mut survivor = c.register();
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
        // Readers hold pins while a writer swaps and retires nodes; the
        // value read under a pin must always be intact (drop poisons it).
        struct Node {
            value: u64,
        }
        impl Drop for Node {
            fn drop(&mut self) {
                self.value = u64::MAX;
            }
        }

        let c: &'static Collector = Box::leak(Box::new(Collector::new()));
        let slot = Arc::new(Atomic::new(Node { value: 7 }));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let mut threads = Vec::new();
        for _ in 0..4 {
            let slot = slot.clone();
            let stop = stop.clone();
            threads.push(std::thread::spawn(move || {
                let mut h = c.register();
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
                let mut h = c.register();
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
            crate::counters::decr_garbage(0);
        }
    }
}
