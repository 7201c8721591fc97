//! Per-thread HP state: slot cache, retired bag, reclamation.

use smr_common::{fence, Retired};

use crate::domain::Domain;
use crate::hazard::{HazardPointer, HazardSlot};

/// A thread's registration with a [`Domain`].
///
/// Owns the thread's retired bag, a cache of released hazard slots, and the
/// persistent scan scratch that makes steady-state reclamation
/// allocation-free: the protected-pointer snapshot and the survivor swap
/// buffer are reused across scans, so after warm-up `reclaim` touches the
/// allocator only to *free* garbage, never to bookkeep it.
pub struct Thread {
    domain: &'static Domain,
    spare: Vec<*const HazardSlot>,
    retired: Vec<Retired>,
    /// Scan scratch: sorted snapshot of announced pointers. Cleared, never
    /// shrunk — capacity converges to the domain's hazard-slot count.
    scan_protected: Vec<usize>,
    /// Scan scratch: the bag under scan. `retired` is swapped in here at
    /// scan start and survivors are pushed back, so both vectors keep their
    /// capacities across cycles.
    scan_bag: Vec<Retired>,
}

// SAFETY: the raw slot pointers are the thread's own cached slots, and
// the slots travel with the registration: a `HazardPointer` is `!Send`, so
// every slot in use announces on the OS thread that holds the `Thread` it
// came from. That is what lets a reclaimer that counts itself the domain's
// only participant skip its heavy fence (DESIGN.md §1.5).
unsafe impl Send for Thread {}

impl Thread {
    pub(crate) fn new(domain: &'static Domain) -> Self {
        domain.join();
        Self {
            domain,
            spare: Vec::new(),
            retired: Vec::new(),
            scan_protected: Vec::new(),
            scan_bag: Vec::new(),
        }
    }

    /// The domain this thread belongs to.
    pub fn domain(&self) -> &'static Domain {
        self.domain
    }

    /// Acquires a hazard pointer (cached slot if available).
    ///
    /// The slot belongs to this registration: use it only while this
    /// `Thread` is live on the same OS thread. The handle is `!Send`, so it
    /// cannot leave that thread; a `Thread` sent elsewhere while such a
    /// handle is still in use, or dropped before it, would let a reclaimer
    /// count itself alone while the slot still announces.
    pub fn hazard_pointer(&mut self) -> HazardPointer {
        match self.spare.pop() {
            Some(slot) => HazardPointer::from_slot(slot),
            None => HazardPointer::from_slot(self.domain.hazards.acquire()),
        }
    }

    /// Returns a hazard pointer's slot to this thread's cache.
    ///
    /// Cheaper than dropping the handle (no global release/reacquire).
    pub fn recycle(&mut self, hp: HazardPointer) {
        hp.reset();
        self.spare.push(hp.into_slot());
    }

    /// The current scan threshold, [`crate::TRIGGER`] at the domain's
    /// hazard-slot count.
    #[inline]
    pub fn reclaim_threshold(&self) -> usize {
        crate::TRIGGER.threshold(self.domain.slot_capacity())
    }

    /// Retires `ptr`: the node becomes garbage and is freed by a later
    /// [`reclaim`](Thread::reclaim) once no hazard slot announces it.
    ///
    /// # Safety
    /// `ptr` must be a `Box`-allocated node unlinked from the structure,
    /// retired exactly once, and only accessed afterwards by threads that
    /// announced it before it became unreachable.
    pub unsafe fn retire<T>(&mut self, ptr: *mut T) {
        self.retire_record(unsafe { Retired::new(ptr) });
    }

    /// Retires with a custom deleter.
    ///
    /// # Safety
    /// Same contract as [`Thread::retire`].
    pub unsafe fn retire_with(&mut self, ptr: *mut u8, free_fn: unsafe fn(*mut u8)) {
        self.retire_record(unsafe { Retired::with_free(ptr, free_fn) });
    }

    /// Bags `r`, then scans if [`crate::TRIGGER`] fires.
    #[inline]
    fn retire_record(&mut self, r: Retired) {
        self.retired.push(r);
        smr_common::fault_point!("hp::retire::after_push");
        if crate::TRIGGER.should_reclaim(self.retired.len(), self.domain.slot_capacity()) {
            self.reclaim();
        }
    }

    /// Number of nodes retired by this thread and not yet freed.
    pub fn retired_count(&self) -> usize {
        self.retired.len()
    }

    /// Capacities of the persistent scan scratch `(protected snapshot,
    /// survivor bag)` — diagnostics for the allocation-free steady-state
    /// guarantee: once warm, neither capacity changes across scans.
    pub fn scan_scratch_capacity(&self) -> (usize, usize) {
        (self.scan_protected.capacity(), self.scan_bag.capacity())
    }

    /// Adds a [`Retired`] record without triggering reclamation (HP++'s
    /// deferred-retirement path, which builds the record at unlink time).
    pub fn push_retired(&mut self, r: Retired) {
        self.retired.push(r);
    }

    /// Scans hazard slots and frees every retired node not announced. The
    /// heavy fence is skipped when this thread is the domain's only
    /// participant: it would order nobody's announcements.
    pub fn reclaim(&mut self) {
        self.reclaim_with_prefence(|alone| {
            if !alone {
                fence::heavy();
            }
        });
    }

    /// Reclamation with a caller-supplied heavy fence (HP++'s Algorithm 5
    /// replaces the fence with its epoched variant). `prefence` is told
    /// whether the alone check found this thread the domain's only
    /// participant, in which case no fence is needed: any thread that
    /// registers later happens-after the check, and so after every unlink
    /// the caller made before this call.
    ///
    /// Allocation-free in steady state: the hazard snapshot and the bag
    /// under scan live in per-thread scratch buffers whose capacities are
    /// reused across calls (growth only while warming up or when the
    /// domain's hazard array grows).
    pub fn reclaim_with_prefence(&mut self, prefence: impl FnOnce(bool)) {
        // Adopt orphans so exited threads' garbage is not stranded (a
        // single atomic load when there are none).
        if let Some(mut orphans) = self.domain.orphans.take() {
            self.retired.append(&mut orphans);
        }
        if self.retired.is_empty() {
            prefence(self.domain.is_alone());
            return;
        }
        // An aborted scan (injected panic mid-reclaim) leaves its bag in
        // `scan_bag`; fold it back so those nodes are rescanned, not lost.
        if !self.scan_bag.is_empty() {
            self.retired.append(&mut self.scan_bag);
        }
        std::mem::swap(&mut self.retired, &mut self.scan_bag);
        smr_common::fault_point!("hp::reclaim::before_fence");
        let alone = self.domain.is_alone();
        // A thread that registers from here on happens-after every unlink
        // above, so it cannot reach a node of `scan_bag`.
        smr_common::fault_point!("hp::reclaim::after_alone_check");
        // Orders prior unlinks/retires against the hazard scan below: any
        // thread that announced one of `scan_bag` before its unlink is
        // visible to the scan; any thread that announces later will fail
        // validation.
        prefence(alone);
        self.scan_protected.clear();
        self.domain
            .hazards
            .collect_protected(&mut self.scan_protected);
        self.scan_protected.sort_unstable();
        smr_common::fault_point!("hp::reclaim::after_snapshot");
        for r in self.scan_bag.drain(..) {
            if self
                .scan_protected
                .binary_search(&(r.ptr() as usize))
                .is_ok()
            {
                self.retired.push(r);
            } else {
                unsafe { r.free() };
            }
        }
    }
}

impl Drop for Thread {
    fn drop(&mut self) {
        // The donation must happen even if the final reclaim panics (a
        // worker dying inside a scan must not strand its garbage), so it
        // lives in a guard that runs during unwinding too.
        struct Teardown<'a>(&'a mut Thread);
        impl Drop for Teardown<'_> {
            fn drop(&mut self) {
                let t = &mut *self.0;
                // An aborted scan leaves its bag in `scan_bag`.
                t.retired.append(&mut t.scan_bag);
                t.domain.orphans.donate(&mut t.retired);
                for slot in t.spare.drain(..) {
                    drop(HazardPointer::from_slot(slot));
                }
                // Last: slots cleared, leftovers donated. A panic above
                // leaves the thread counted, which only costs fences.
                t.domain.leave();
            }
        }
        let g = Teardown(self);
        smr_common::fault_point!("hp::teardown::before_reclaim");
        // One last attempt, then the guard donates leftovers.
        g.0.reclaim();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RECLAIM_THRESHOLD;
    use smr_common::{Atomic, SchemeDomain, Shared};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::*};
    use std::sync::Arc;

    fn new_domain() -> &'static Domain {
        Box::leak(Box::new(Domain::new()))
    }

    #[test]
    fn retire_and_reclaim_unprotected() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Relaxed);
            }
        }

        let d = new_domain();
        let mut t = d.register();
        let p = Box::into_raw(Box::new(Canary));
        unsafe { t.retire(p) };
        t.reclaim();
        assert_eq!(DROPS.load(Relaxed), 1);
        assert_eq!(t.retired_count(), 0);
    }

    #[test]
    fn protected_node_survives_reclaim() {
        let d = new_domain();
        let mut t = d.register();
        let hp = t.hazard_pointer();

        let p = Box::into_raw(Box::new(42u64));
        hp.protect_raw(p);
        unsafe { t.retire(p) };
        t.reclaim();
        assert_eq!(t.retired_count(), 1, "protected node must not be freed");
        // Value still readable.
        assert_eq!(unsafe { *p }, 42);

        hp.reset();
        t.reclaim();
        assert_eq!(t.retired_count(), 0);
    }

    #[test]
    fn reclaim_threshold_triggers() {
        let d = new_domain();
        let mut t = d.register();
        let bound = t.reclaim_threshold() * 2;
        for _ in 0..bound {
            let p = Box::into_raw(Box::new(0u64));
            unsafe { t.retire(p) };
        }
        assert!(t.retired_count() < bound);
    }

    #[test]
    fn threshold_adapts_to_slot_capacity() {
        let d = new_domain();
        let t = d.register();
        assert_eq!(t.reclaim_threshold(), RECLAIM_THRESHOLD, "floor applies");
        // Grow the hazard array until k·H dominates the fixed floor.
        let hps: Vec<_> = (0..RECLAIM_THRESHOLD).map(|_| d.hazard_pointer()).collect();
        assert!(d.slot_capacity() >= RECLAIM_THRESHOLD);
        assert_eq!(t.reclaim_threshold(), crate::RECLAIM_K * d.slot_capacity());
        drop(hps);
    }

    #[test]
    fn recycle_keeps_capacity_flat() {
        let d = new_domain();
        let mut t = d.register();
        let cap0 = {
            let hp = t.hazard_pointer();
            let c = d.slot_capacity();
            t.recycle(hp);
            c
        };
        for _ in 0..100 {
            let hp = t.hazard_pointer();
            t.recycle(hp);
        }
        assert_eq!(d.slot_capacity(), cap0);
    }

    #[test]
    fn reclaim_scratch_is_allocation_free_in_steady_state() {
        // Mirrors `recycle_keeps_capacity_flat` for the scan path: after one
        // warm-up cycle, 100 retire→reclaim cycles must not reallocate the
        // scan scratch (its capacities — our proxy for "no allocation in
        // `reclaim_with_prefence`" — stay exactly flat).
        let d = new_domain();
        let mut t = d.register();
        let hp = t.hazard_pointer();
        hp.protect_raw(0x100 as *mut u64); // a survivor keeps both paths hot

        let churn = |t: &mut Thread| {
            for _ in 0..64 {
                let p = Box::into_raw(Box::new(7u64));
                unsafe { t.retire(p) };
            }
            t.reclaim();
        };
        churn(&mut t); // warm-up
        let warm = t.scan_scratch_capacity();
        assert!(warm.0 > 0 && warm.1 > 0, "scratch warmed: {warm:?}");
        for cycle in 0..100 {
            churn(&mut t);
            assert_eq!(
                t.scan_scratch_capacity(),
                warm,
                "scratch reallocated on cycle {cycle}"
            );
        }
        hp.reset();
        t.reclaim();
    }

    #[test]
    fn adaptive_threshold_bounds_retired_count() {
        // Stress: concurrent retiring threads (with live hazard slots
        // inflating H) must each stay within k·H + RECLAIM_THRESHOLD
        // unreclaimed nodes — the bound the adaptive trigger guarantees.
        let d = new_domain();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut t = d.register();
                    let hps: Vec<_> = (0..8).map(|_| t.hazard_pointer()).collect();
                    for i in 0..20_000u64 {
                        let p = Box::into_raw(Box::new(i));
                        unsafe { t.retire(p) };
                        let bound = d.garbage_bound(1).unwrap();
                        assert!(
                            t.retired_count() <= bound,
                            "retired {} exceeds bound {bound}",
                            t.retired_count()
                        );
                    }
                    for hp in hps {
                        t.recycle(hp);
                    }
                });
            }
        });
    }

    #[test]
    fn protected_survivor_stays_within_the_bound_and_drains_after_reset() {
        // One live hazard slot (H = 1) protecting a retired node: every scan
        // carries it as a survivor, the backlog still never crosses
        // k·H + RECLAIM_THRESHOLD, and dropping the protection frees it.
        let d = new_domain();
        let mut t = d.register();
        let slot = t.hazard_pointer();
        let protected = Box::into_raw(Box::new(0xDEADu64));
        slot.protect_raw(protected);
        unsafe { t.retire(protected) };

        let bound = d.garbage_bound(1).unwrap();
        let mut peak = 0;
        for i in 0..8 * bound {
            unsafe { t.retire(Box::into_raw(Box::new(i as u64))) };
            peak = peak.max(t.retired_count());
        }
        assert!(
            peak <= bound,
            "churn peaked at {peak} > derived bound {bound}"
        );
        assert!(
            t.retired_count() >= 1,
            "the protected node must survive every scan"
        );

        slot.reset();
        t.reclaim();
        assert_eq!(t.retired_count(), 0, "unprotected survivor must drain");
        t.recycle(slot);
    }

    #[test]
    fn dead_threads_orphans_are_freed_by_survivor() {
        // A thread dies with unprotected garbage it never got to scan; a
        // surviving thread's next reclaim must adopt and free all of it.
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Relaxed);
            }
        }

        let d = new_domain();
        let mut survivor = d.register();
        // Handshake: the dying thread publishes its pointers, the survivor
        // protects them all, and only then does the dying thread retire and
        // exit — so its final reclaim can free nothing and must donate.
        let (ptr_tx, ptr_rx) = std::sync::mpsc::channel::<Vec<usize>>();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let mut dying = d.register();
            let ptrs: Vec<usize> = (0..10)
                .map(|_| Box::into_raw(Box::new(Canary)) as usize)
                .collect();
            ptr_tx.send(ptrs.clone()).unwrap();
            go_rx.recv().unwrap(); // survivor's protections are now up
            for &p in &ptrs {
                unsafe { dying.retire(p as *mut Canary) };
            }
            // `dying` drops here: its final reclaim sees every node
            // protected, so all 10 become orphans.
        });
        let ptrs = ptr_rx.recv().unwrap();
        let mut hps = Vec::new();
        for &p in &ptrs {
            let hp = survivor.hazard_pointer();
            hp.protect_raw(p as *mut Canary);
            hps.push(hp);
        }
        go_tx.send(()).unwrap();
        handle.join().unwrap();

        assert_eq!(DROPS.load(Relaxed), 0, "protected orphans must survive");
        assert_eq!(d.orphans(), 10, "all garbage donated");
        // Adoption moves the orphans to the survivor without freeing them.
        survivor.reclaim();
        assert_eq!(DROPS.load(Relaxed), 0);
        assert_eq!(survivor.retired_count(), 10, "survivor owns the orphans");
        assert_eq!(d.orphans(), 0, "orphan list drained");
        for hp in hps {
            survivor.recycle(hp);
        }
        survivor.reclaim();
        assert_eq!(DROPS.load(Relaxed), 10, "survivor freed every orphan");
    }

    #[test]
    fn concurrent_protect_vs_retire_no_uaf() {
        // Readers protect a shared slot's node, validate, and read a canary
        // value; a writer keeps swapping and retiring. Any use-after-free
        // corrupts the canary (drop poisons it).
        struct Node {
            value: u64,
        }
        impl Drop for Node {
            fn drop(&mut self) {
                self.value = u64::MAX;
            }
        }

        let d = new_domain();
        let slot = Arc::new(Atomic::new(Node { value: 7 }));
        let stop = Arc::new(AtomicBool::new(false));

        let mut threads = Vec::new();
        for _ in 0..4 {
            let slot = slot.clone();
            let stop = stop.clone();
            threads.push(std::thread::spawn(move || {
                let mut t = d.register();
                let hp = t.hazard_pointer();
                while !stop.load(Relaxed) {
                    let s = hp.protect(&slot);
                    if s.is_null() {
                        continue;
                    }
                    let v = unsafe { s.deref() }.value;
                    assert_eq!(v, 7, "use-after-free detected");
                    hp.reset();
                }
            }));
        }
        {
            let slot = slot.clone();
            let stop = stop.clone();
            threads.push(std::thread::spawn(move || {
                let mut t = d.register();
                for _ in 0..30_000 {
                    let fresh = Shared::from_owned(Node { value: 7 });
                    let old = slot.swap(fresh, AcqRel);
                    unsafe { t.retire(old.as_raw()) };
                }
                stop.store(true, Relaxed);
            }));
        }
        for th in threads {
            th.join().unwrap();
        }
        unsafe { slot.load(Relaxed).drop_owned() };
    }
}
