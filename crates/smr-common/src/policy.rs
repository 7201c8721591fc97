//! The reclamation trigger.
//!
//! Every scheme in the workspace amortizes its retire→scan→free cost the
//! same way: retirement is O(1) and a *trigger* decides when to pay for a
//! scan (hp: `retired ≥ max(128, 2·H)`; ebr and hyaline: `≥ max(128,
//! 8·participants)`; pebr: `garbage ≥ 128`). Table 1's bounds are derived
//! from those formulas, and they are one parameterization, [`Capped`]: each
//! scheme exports its own as a `pub const TRIGGER`, and every retire is one
//! inlined [`Capped::should_reclaim`]. [`Capped::bound`] is the per-thread
//! cap `k·H + floor` from which `hp`'s
//! [`SchemeDomain::garbage_bound`](crate::SchemeDomain::garbage_bound)
//! derives. HP++'s reclaim cadence (every `hp_plus::RECLAIM_PERIOD`
//! unlinks) counts operations, not garbage, and stays inline in `hp-plus`.
//!
//! There is no choice of trigger and no knob: `eager` and a watchdog-driven
//! `adaptive` never beat `capped` in ten paired runs (EXPERIMENTS.md,
//! "Negative result: reclaim-trigger policies"), and no non-default
//! `floor` or `k` was ever recorded as a win.

use crate::counters;

/// A count trigger: fires once `retired ≥ max(floor, k·slots)`.
///
/// `slots` is the scheme's protection capacity: hazard slots for hp, live
/// participants for ebr and hyaline; pebr has `k = 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capped {
    /// Minimum retired count before the trigger can fire.
    pub floor: usize,
    /// Protection-slot multiplier.
    pub k: usize,
}

impl Capped {
    /// The trigger threshold at `slots` protection slots.
    #[inline]
    pub const fn threshold(&self, slots: usize) -> usize {
        let scaled = self.k.saturating_mul(slots);
        if scaled > self.floor {
            scaled
        } else {
            self.floor
        }
    }

    /// The derived worst-case cap `k·slots + floor` on one thread's retired
    /// backlog — the Table-1 bound.
    pub const fn bound(&self, slots: usize) -> usize {
        self.k.saturating_mul(slots).saturating_add(self.floor)
    }

    /// The scheme's whole per-retire trigger step: should the calling thread
    /// scan now? A firing trigger is counted in
    /// [`counters::policy_scans_forced`], so benches and the fault matrix
    /// can assert trigger behavior instead of inferring it from garbage
    /// peaks.
    #[inline]
    pub fn should_reclaim(&self, retired: usize, slots: usize) -> bool {
        let fire = retired >= self.threshold(slots);
        if fire {
            counters::incr_policy_scan_forced();
        }
        fire
    }
}

// ---- compatibility block: the names `benchmark/` spells -----------------
// `benchmark/` is the judge and stays byte-identical, so what it names lives
// on here, in `hp::legacy_trigger` and in `ShardStore::new_shard`'s ignored
// argument. Nothing else may reference these; the next `[benchmark]` PR
// (ROADMAP "Finish trustworthy measurement") deletes the block.
#[rustfmt::skip] #[allow(missing_docs)] #[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision { Reclaim, Skip }
/// A trigger's inputs; `ops` is ignored (no trigger counts operations).
#[rustfmt::skip] #[allow(missing_docs)] #[derive(Clone, Copy, Debug, Default)]
pub struct RetireStats { pub retired: usize, pub slots: usize, pub ops: u64 }
#[rustfmt::skip] #[allow(missing_docs)] #[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PolicyKind { #[default] Capped }
#[rustfmt::skip] #[allow(missing_docs)] #[derive(Debug)]
pub enum Policy { Capped(Capped) }
#[rustfmt::skip] #[allow(missing_docs)] #[derive(Clone, Copy, Debug, Default)]
pub struct PolicyConfig;
#[rustfmt::skip] #[allow(missing_docs)]
impl PolicyConfig {
    pub fn for_kind(_kind: PolicyKind) -> Self { Self }
    pub fn build(&self, legacy: Capped) -> Box<Policy> { Box::new(Policy::Capped(legacy)) }
}
/// [`Capped::should_reclaim`] on a bare trigger.
#[inline]
pub fn decide(policy: &Policy, stats: &RetireStats) -> Decision {
    let Policy::Capped(capped) = policy;
    if capped.should_reclaim(stats.retired, stats.slots) {
        Decision::Reclaim
    } else {
        Decision::Skip
    }
}
// ---- end of compatibility block ------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// The same xorshift the fault plans use — deterministic, no deps.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// Fuzzes `trigger` against a scheme's verbatim pre-policy predicate,
    /// and checks that exactly the firing decisions were counted.
    fn assert_matches(
        trigger: Capped,
        seed: u64,
        max_slots: u64,
        legacy: impl Fn(usize, usize) -> bool,
    ) {
        let _serial = counters::test_lock();
        let mut rng = XorShift(seed);
        let forced0 = counters::policy_scans_forced();
        let mut fired = 0;
        for _ in 0..4096 {
            let retired = (rng.next() % 4096) as usize;
            let slots = (rng.next() % max_slots) as usize;
            let got = trigger.should_reclaim(retired, slots);
            assert_eq!(
                got,
                legacy(retired, slots),
                "{trigger:?} at retired={retired} slots={slots}"
            );
            fired += u64::from(got);
        }
        assert_eq!(counters::policy_scans_forced() - forced0, fired);
    }

    #[test]
    fn capped_reproduces_legacy_hp_trigger_exactly() {
        // hp's pre-policy predicate: retired.len() >= max(128, k * slot_capacity).
        for k in [1usize, 2, 5] {
            assert_matches(Capped { floor: 128, k }, 0x9e3779b97f4a7c15, 512, |r, s| {
                r >= 128usize.max(k * s)
            });
        }
    }

    #[test]
    fn capped_reproduces_legacy_ebr_trigger_exactly() {
        // ebr's pre-policy predicate: bags.len() >= max(floor, 8 * participants).
        for floor in [1usize, 128, 400] {
            assert_matches(Capped { floor, k: 8 }, 0x2545f4914f6cdd1d, 64, |r, s| {
                r >= floor.max(8 * s)
            });
        }
    }

    #[test]
    fn capped_reproduces_legacy_pebr_trigger_exactly() {
        // pebr's pre-policy predicate: garbage.len() >= 128, no multiplier.
        assert_matches(
            Capped { floor: 128, k: 0 },
            0xdeadbeefcafef00d,
            64,
            |r, _| r >= 128,
        );
    }

    #[test]
    fn decide_counts_only_firing_triggers() {
        let _serial = counters::test_lock();
        let forced0 = counters::policy_scans_forced();
        let policy = Policy::Capped(Capped { floor: 4, k: 0 });
        let stats = |retired| RetireStats {
            retired,
            ..Default::default()
        };
        assert_eq!(decide(&policy, &stats(4)), Decision::Reclaim);
        assert_eq!(decide(&policy, &stats(0)), Decision::Skip);
        assert_eq!(decide(&policy, &stats(1)), Decision::Skip);
        assert_eq!(counters::policy_scans_forced() - forced0, 1);
    }
}
