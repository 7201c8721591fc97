//! PEBR — pointer- and epoch-based reclamation (behavioral model).
//!
//! PEBR (Kang & Jung, PLDI 2020) marries EBR's critical sections with HP's
//! robustness: when a pinned thread blocks the epoch for too long, the
//! reclaimer **ejects** (neutralizes) it. The ejected thread's critical
//! section is no longer protective; it must detect ejection at its next
//! validation point, abandon the traversal, and restart.
//!
//! This crate is a *behavioral model* of PEBR (see DESIGN.md §4
//! Substitutions): ejection sets a per-thread flag that the thread observes
//! at `validate()` points (every traversal step in the `ds` crate), rather
//! than being delivered through the original's fence/tag machinery. The
//! model is memory-safe without signals — the reclaimer never frees under a
//! live pin — and reproduces the phenomenon the paper measures: coarse-
//! grained neutralization forces long-running operations to restart
//! (Fig. 10), while garbage stays bounded as long as threads validate.
//!
//! The rest is EBR's collector, [`smr_common::epoch`]'s; this crate
//! supplies its [`Marker`]: the name, [`TRIGGER`], [`EJECT_THRESHOLD`] and
//! the fault points.

#![warn(missing_docs)]

use smr_common::epoch::{self, FaultPoints};
use smr_common::policy::Capped;

/// Retire this many blocks before attempting a collection. Public so tests
/// derive garbage bounds from the same constant the scheme enforces.
pub const COLLECT_THRESHOLD: usize = 128;
/// Local garbage level at which stragglers get ejected. Public for the same
/// derived-bound reason as [`COLLECT_THRESHOLD`].
pub const EJECT_THRESHOLD: usize = 1024;

/// PEBR's collection trigger: a plain fixed threshold, `garbage.len() ≥
/// COLLECT_THRESHOLD` (no slot-proportional term — robustness comes from
/// ejection, not from scaling the trigger).
pub const TRIGGER: Capped = Capped {
    floor: COLLECT_THRESHOLD,
    k: 0,
};

/// Named fault-injection points compiled into this crate (each a
/// `smr_common::fault_point!` site; no-ops without the `fault-injection`
/// feature). DESIGN.md §1.7 documents the invariant each one attacks.
pub const FAULT_POINTS: &[&str] = &[
    "pebr::pin::before_validate",
    "pebr::eject::after_mark",
    "pebr::collect::before_advance",
    "pebr::teardown::before_donate",
];

/// PEBR's [`epoch::Scheme`]: an epoch collector that ejects stragglers
/// once a handle holds [`EJECT_THRESHOLD`] blocks.
pub enum Marker {}

impl epoch::Scheme for Marker {
    const NAME: &'static str = "pebr";
    const TRIGGER: Capped = TRIGGER;
    const EJECT: Option<usize> = Some(EJECT_THRESHOLD);
    const FAULTS: FaultPoints = FaultPoints {
        pin_before_validate: Some(FAULT_POINTS[0]),
        retire_after_push: None,
        advance_before_traverse: None,
        eject_after_mark: Some(FAULT_POINTS[1]),
        advance_before_publish: None,
        collect_after_adopt: Some(FAULT_POINTS[2]),
        teardown_before_donate: Some(FAULT_POINTS[3]),
    };

    fn global() -> &'static Collector {
        default_collector()
    }
}

/// The global side of a PEBR instance.
pub type Collector = epoch::Collector<Marker>;

/// A thread's registration with a PEBR [`Collector`].
pub type LocalHandle = epoch::LocalHandle<Marker>;

/// An active PEBR critical section; protective while
/// [`is_valid`](smr_common::guard::Guard::is_valid).
pub type Guard<'a> = smr_common::guard::Guard<'a, LocalHandle>;

/// PEBR under its scheme name: the collector is its
/// [`GuardedScheme`](smr_common::GuardedScheme).
pub type Pebr = Collector;

/// Returns the process-wide default PEBR collector.
pub fn default_collector() -> &'static Collector {
    static DEFAULT: Collector = Collector::new();
    &DEFAULT
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_common::{SchemeDomain, SchemeGuard, Shared};

    #[test]
    fn pin_validate_refresh() {
        let c: &'static Collector = Box::leak(Box::new(Collector::new()));
        let mut h = c.register();
        let mut g = h.pin();
        assert!(g.validate());
        g.refresh();
        assert!(g.validate());
    }

    #[test]
    fn straggler_gets_ejected_under_pressure() {
        let c: &'static Collector = Box::leak(Box::new(Collector::new()));
        let mut straggler = c.register();
        let mut reclaimer = c.register();

        let sg = straggler.pin(); // long-running critical section
        assert!(sg.validate());

        // Reclaimer piles up garbage past the ejection threshold.
        {
            let rg = reclaimer.pin();
            for _ in 0..(EJECT_THRESHOLD + COLLECT_THRESHOLD * 2) {
                unsafe { rg.defer_destroy(Shared::from_owned(0u64)) };
            }
            drop(rg);
        }

        assert!(
            !sg.validate(),
            "straggler should be ejected once garbage exceeds the threshold"
        );
        assert!(c.ejections() > 0, "the ejection is counted");
    }

    #[test]
    fn refresh_clears_ejection_and_unblocks_epoch() {
        let c: &'static Collector = Box::leak(Box::new(Collector::new()));
        let mut straggler = c.register();
        let mut reclaimer = c.register();

        let mut sg = straggler.pin();
        {
            let rg = reclaimer.pin();
            for _ in 0..(EJECT_THRESHOLD + COLLECT_THRESHOLD * 2) {
                unsafe { rg.defer_destroy(Shared::from_owned(0u64)) };
            }
            drop(rg);
        }
        assert!(!sg.validate());
        sg.refresh();
        assert!(sg.validate());

        // The refreshed pin sits at the current epoch: the next collection
        // advances past it once, and no further.
        let e0 = c.epoch();
        let retire = |h: &mut LocalHandle, blocks: usize| {
            let rg = h.pin();
            for _ in 0..blocks {
                unsafe { rg.defer_destroy(Shared::from_owned(0u64)) };
            }
        };
        retire(&mut reclaimer, COLLECT_THRESHOLD);
        assert_eq!(c.epoch(), e0 + 1, "the refreshed pin allows one advance");
        // With the straggler gone, each fresh pin of the reclaimer's (over
        // the trigger, every retire collects) advances the epoch, and the
        // backlog expires.
        drop(sg);
        retire(&mut reclaimer, 1);
        retire(&mut reclaimer, 1);
        assert_eq!(
            c.epoch(),
            e0 + 3,
            "the epoch must move past the straggler's hold"
        );
        assert!(Collector::garbage(&reclaimer) < COLLECT_THRESHOLD);
    }

    #[test]
    fn garbage_is_reclaimed_when_quiet() {
        let c: &'static Collector = Box::leak(Box::new(Collector::new()));
        let mut h = c.register();
        for _ in 0..10 {
            let g = h.pin();
            for _ in 0..COLLECT_THRESHOLD {
                unsafe { g.defer_destroy(Shared::from_owned(0u64)) };
            }
            drop(g);
        }
        // Most of the garbage should have been freed along the way.
        let remaining = Collector::garbage(&h);
        assert!(
            remaining < 4 * COLLECT_THRESHOLD,
            "remaining garbage {remaining} should be bounded"
        );
    }
}
