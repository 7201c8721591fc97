//! An HP++ domain: an HP domain plus the global fence epoch of Algorithm 5.

use std::sync::atomic::{AtomicU64, Ordering};

use hp::HazardPointer;
use smr_common::{fence, SchemeDomain};

use crate::thread::Thread;
use crate::RECLAIM_PERIOD;

/// The global side of an HP++ instance.
pub struct Domain {
    pub(crate) hp: hp::Domain,
    /// Algorithm 5's `fence_epoch`: numbers the periods delimited by heavy
    /// fences so threads can piggyback hazard revocation on each other's
    /// fences.
    pub(crate) fence_epoch: AtomicU64,
}

impl Default for Domain {
    fn default() -> Self {
        Self::new()
    }
}

impl Domain {
    /// Creates an independent domain.
    pub const fn new() -> Self {
        Self {
            hp: hp::Domain::new(),
            fence_epoch: AtomicU64::new(0),
        }
    }

    /// Registers the current thread.
    pub fn register(&'static self) -> Thread {
        Thread::new(self)
    }

    /// Acquires a hazard slot directly from the domain, which then counts
    /// it as a participant for good ([`hp::Domain::hazard_pointer`]).
    pub fn hazard_pointer(&'static self) -> HazardPointer {
        self.hp.hazard_pointer()
    }

    /// Algorithm 5's `FenceEpoch`: issue a heavy fence and advance the
    /// global fence epoch past it.
    pub(crate) fn fence_epoch_step(&self) {
        let e = self.fence_epoch.load(Ordering::Acquire);
        fence::heavy();
        let _ = self
            .fence_epoch
            .compare_exchange(e, e + 1, Ordering::AcqRel, Ordering::Relaxed);
    }

    /// Algorithm 5's `ReadEpoch`: a light fence bracketed by two equal reads
    /// of the fence epoch, guaranteeing the returned epoch's period covers
    /// the fence.
    pub(crate) fn read_epoch(&self) -> u64 {
        let mut e = self.fence_epoch.load(Ordering::Acquire);
        loop {
            fence::light();
            let e2 = self.fence_epoch.load(Ordering::Acquire);
            if e == e2 {
                return e;
            }
            e = e2;
        }
    }

    /// Current fence epoch (tests/diagnostics).
    pub fn fence_epoch_now(&self) -> u64 {
        self.fence_epoch.load(Ordering::Relaxed)
    }
}

impl SchemeDomain for Domain {
    type Handle = Thread;
    const NAME: &'static str = "hpp";

    fn global() -> &'static Domain {
        default_domain()
    }

    fn register(&'static self) -> Thread {
        Domain::register(self)
    }

    /// Counted at unlink: detached nodes awaiting invalidation, plus the
    /// inner HP bag.
    fn garbage(handle: &Thread) -> usize {
        handle.unlinked.len() + handle.inner.retired_count()
    }

    fn collect(handle: &mut Thread) {
        handle.reclaim();
    }

    /// Reclaims when the handle holds garbage and no other participant can
    /// announce: no heavy fence, so it is cheap enough for an idle worker.
    fn collect_idle(handle: &mut Thread) -> bool {
        let worth = Self::garbage(handle) > 0 && handle.domain().hp.participants() == 1;
        if worth {
            handle.reclaim();
        }
        worth
    }

    fn orphans(&self) -> usize {
        self.hp.orphans()
    }

    /// Per thread, the inner HP bag's bound plus up to [`RECLAIM_PERIOD`]
    /// unlinks of at most two nodes each awaiting the next reclaim.
    fn garbage_bound(&self, threads: usize) -> Option<usize> {
        let bags = self.hp.garbage_bound(threads)?;
        Some(bags + threads * 2 * RECLAIM_PERIOD)
    }
}

/// The process-wide default HP++ domain.
pub fn default_domain() -> &'static Domain {
    static DEFAULT: Domain = Domain::new();
    &DEFAULT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fence_epoch_advances() {
        let d: &'static Domain = Box::leak(Box::new(Domain::new()));
        let e0 = d.fence_epoch_now();
        d.fence_epoch_step();
        assert_eq!(d.fence_epoch_now(), e0 + 1);
        d.fence_epoch_step();
        assert_eq!(d.fence_epoch_now(), e0 + 2);
    }

    #[test]
    fn read_epoch_is_coherent() {
        let d: &'static Domain = Box::leak(Box::new(Domain::new()));
        let e = d.read_epoch();
        assert_eq!(e, d.fence_epoch_now());
        d.fence_epoch_step();
        assert_eq!(d.read_epoch(), e + 1);
    }

    #[test]
    fn concurrent_fence_epoch_steps_make_progress() {
        let d: &'static Domain = Box::leak(Box::new(Domain::new()));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        d.fence_epoch_step();
                    }
                });
            }
        });
        // CAS losers don't retry, so the epoch advances between 100 and 400.
        let e = d.fence_epoch_now();
        assert!((100..=400).contains(&e), "epoch = {e}");
    }
}
