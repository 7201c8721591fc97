//! The reclamation trigger.
//!
//! Every scheme in the workspace amortizes its retire→scan→free cost the
//! same way: retirement is O(1) and a *trigger predicate* decides when to
//! pay for a scan (hp: `retired ≥ max(128, k·H)`; ebr: `bags ≥ max(floor,
//! 8·participants)`; hp-plus: `unlinks % 128 == 0`; pebr: `garbage ≥ 128`).
//! Table 1's bounds are derived from those formulas, and they are one
//! parameterization, [`Capped`]: each domain/collector holds its own in a
//! [`PolicySlot`], built on first use from the scheme's `legacy_trigger()`
//! (env knobs included), and every retire is one inlined
//! [`PolicySlot::should_reclaim`]. [`Capped::bound`] is the single
//! definition of the cap `k·H + floor` that the Table-1 gate, the
//! robustness tests and the KV garbage bound share.
//!
//! There is no choice of trigger: `eager` and a watchdog-driven `adaptive`
//! never beat `capped` in ten paired runs (EXPERIMENTS.md, "Negative
//! result: reclaim-trigger policies").

use std::sync::OnceLock;

use crate::counters;

/// What the trigger tells the scheme to do right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Pay for a scan (hp scan, ebr collect, hpp reclaim, …) now.
    Reclaim,
    /// Defer; keep accumulating garbage.
    Skip,
}

/// The facts a scheme hands its trigger at each opportunity.
///
/// Schemes fill in the fields they track and zero the rest: hp/ebr/pebr
/// report `retired`+`slots`, hp-plus reports `ops` (its unlink counter).
#[derive(Clone, Copy, Debug, Default)]
pub struct RetireStats {
    /// Blocks retired to the calling thread and not yet reclaimed.
    pub retired: usize,
    /// Scheme-wide protection capacity: hazard slots for HP-family schemes,
    /// live participants for epoch schemes.
    pub slots: usize,
    /// Monotonic per-thread operation count for cadence-based triggers
    /// (HP++ unlink count); 0 when the scheme has no such counter.
    pub ops: u64,
}

/// The schemes' trigger formulas, bit-for-bit, as one parameterization.
///
/// Fires when **either** enabled branch says so:
///
/// * count branch (enabled when `floor > 0 || k > 0`):
///   `retired ≥ max(floor, k·slots)` — hp (`floor=128, k=HP_RECLAIM_K`),
///   ebr (`floor=EBR_COLLECT_THRESHOLD, k=8` over participants), pebr
///   (`floor=128, k=0`);
/// * cadence branch (enabled when `period > 0`):
///   `ops > 0 && ops % period == 0` — hp-plus's unlink-count reclaim
///   cadence (`period=HPP_RECLAIM_PERIOD`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capped {
    /// Minimum retired count before the count branch can fire.
    pub floor: usize,
    /// Hazard-slot multiplier of the count branch.
    pub k: usize,
    /// Operation cadence of the cadence branch (0 disables it).
    pub period: u64,
}

impl Capped {
    /// Count-branch trigger threshold at `slots` protection slots.
    pub fn threshold(&self, slots: usize) -> usize {
        self.floor.max(self.k.saturating_mul(slots))
    }

    /// The derived worst-case cap `k·slots + floor` on one thread's retired
    /// backlog — the Table-1 bound.
    pub fn bound(&self, slots: usize) -> usize {
        self.k.saturating_mul(slots).saturating_add(self.floor)
    }

    /// Decides whether the calling thread should scan now.
    #[inline]
    pub fn should_reclaim(&self, stats: &RetireStats) -> Decision {
        let count_armed = self.floor > 0 || self.k > 0;
        let by_count = count_armed && stats.retired >= self.threshold(stats.slots);
        let by_cadence =
            self.period > 0 && stats.ops > 0 && stats.ops.is_multiple_of(self.period);
        if by_count || by_cadence {
            Decision::Reclaim
        } else {
            Decision::Skip
        }
    }

    /// [`should_reclaim`](Self::should_reclaim), counting a firing trigger
    /// in [`counters::policy_scans_forced`] so benches and the fault matrix
    /// can assert trigger behavior instead of inferring it from garbage
    /// peaks.
    #[inline]
    fn decide(&self, stats: &RetireStats) -> Decision {
        let d = self.should_reclaim(stats);
        if d == Decision::Reclaim {
            counters::incr_policy_scan_forced();
        }
        d
    }
}

/// A domain's trigger: its scheme's [`Capped`], built on first use.
///
/// `const`-constructible so the static domains (`hp::default_domain`,
/// `ebr::default_collector`) embed one; `legacy()` reads the scheme's env
/// knobs, so it cannot run in a `const` context.
pub struct PolicySlot {
    legacy: fn() -> Capped,
    cell: OnceLock<Capped>,
}

impl PolicySlot {
    /// An empty slot that becomes `legacy()` on first use.
    pub const fn new(legacy: fn() -> Capped) -> Self {
        Self {
            legacy,
            cell: OnceLock::new(),
        }
    }

    /// The scheme's whole per-retire trigger step: should the calling
    /// thread scan now? `retired`/`slots`/`ops` as in [`RetireStats`].
    #[inline]
    pub fn should_reclaim(&self, retired: usize, slots: usize, ops: u64) -> bool {
        let stats = RetireStats {
            retired,
            slots,
            ops,
        };
        self.cell.get_or_init(self.legacy).decide(&stats) == Decision::Reclaim
    }
}

// ---- compatibility block (≤ 25 lines): the names `benchmark/` spells -----
// `benchmark/` is the judge and stays byte-identical, so what it names lives
// on here and in `ShardStore::new_shard`'s ignored argument. Nothing else may
// reference these; the next `[benchmark]` PR (ROADMAP "Finish trustworthy
// measurement") deletes the block.
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
/// [`PolicySlot::should_reclaim`]'s decision step on a bare trigger.
#[inline]
pub fn decide(policy: &Policy, stats: &RetireStats) -> Decision {
    let Policy::Capped(capped) = policy;
    capped.decide(stats)
}
// ---- end of compatibility block ------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(retired: usize, slots: usize) -> RetireStats {
        RetireStats {
            retired,
            slots,
            ..Default::default()
        }
    }

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

    #[test]
    fn capped_reproduces_legacy_hp_trigger_exactly() {
        // hp's pre-policy predicate: retired.len() >= max(128, k * slot_capacity).
        let mut rng = XorShift(0x9e3779b97f4a7c15);
        for k in [1usize, 2, 5] {
            let policy = Capped {
                floor: 128,
                k,
                period: 0,
            };
            for _ in 0..4096 {
                let retired = (rng.next() % 4096) as usize;
                let slots = (rng.next() % 512) as usize;
                let legacy = retired >= 128usize.max(k * slots);
                let got = policy.should_reclaim(&stats(retired, slots)) == Decision::Reclaim;
                assert_eq!(got, legacy, "hp mismatch at retired={retired} slots={slots} k={k}");
            }
        }
    }

    #[test]
    fn capped_reproduces_legacy_ebr_trigger_exactly() {
        // ebr's pre-policy predicate: bags.len() >= max(floor, 8 * participants).
        let mut rng = XorShift(0x2545f4914f6cdd1d);
        for floor in [1usize, 128, 400] {
            let policy = Capped {
                floor,
                k: 8,
                period: 0,
            };
            for _ in 0..4096 {
                let bags = (rng.next() % 4096) as usize;
                let live = (rng.next() % 64) as usize;
                let legacy = bags >= floor.max(8 * live);
                let got = policy.should_reclaim(&stats(bags, live)) == Decision::Reclaim;
                assert_eq!(got, legacy, "ebr mismatch at bags={bags} live={live} floor={floor}");
            }
        }
    }

    #[test]
    fn capped_reproduces_legacy_hpp_cadence_exactly() {
        // hp-plus's pre-policy predicate: unlink_count.is_multiple_of(period)
        // evaluated after the increment (so ops >= 1 always).
        let mut rng = XorShift(0xdeadbeefcafef00d);
        for period in [32u64, 128, 1] {
            let policy = Capped {
                floor: 0,
                k: 0,
                period,
            };
            for _ in 0..4096 {
                let ops = 1 + rng.next() % 1024;
                let legacy = ops.is_multiple_of(period);
                let s = RetireStats {
                    ops,
                    retired: (rng.next() % 64) as usize, // must be ignored: count branch unarmed
                    ..Default::default()
                };
                let got = policy.should_reclaim(&s) == Decision::Reclaim;
                assert_eq!(got, legacy, "hpp mismatch at ops={ops} period={period}");
            }
        }
    }

    #[test]
    fn capped_reproduces_legacy_pebr_trigger_exactly() {
        // pebr's pre-policy predicate: garbage.len() >= 128, no multiplier.
        let policy = Capped {
            floor: 128,
            k: 0,
            period: 0,
        };
        for retired in 0..512 {
            let legacy = retired >= 128;
            let got = policy.should_reclaim(&stats(retired, 7)) == Decision::Reclaim;
            assert_eq!(got, legacy, "pebr mismatch at retired={retired}");
        }
    }

    #[test]
    fn empty_slot_defaults_to_the_schemes_legacy_trigger() {
        let _serial = crate::counters::test_lock();
        let slot = PolicySlot::new(|| Capped {
            floor: 4,
            k: 0,
            period: 0,
        });
        let forced0 = counters::policy_scans_forced();
        assert!(!slot.should_reclaim(3, 0, 0));
        assert!(slot.should_reclaim(4, 0, 0));
        assert_eq!(counters::policy_scans_forced() - forced0, 1);
    }

    #[test]
    fn decide_counts_only_firing_triggers() {
        let _serial = crate::counters::test_lock();
        let forced0 = counters::policy_scans_forced();
        let policy = Policy::Capped(Capped {
            floor: 4,
            k: 0,
            period: 0,
        });
        assert_eq!(decide(&policy, &stats(4, 0)), Decision::Reclaim);
        assert_eq!(decide(&policy, &stats(0, 0)), Decision::Skip);
        assert_eq!(decide(&policy, &stats(1, 0)), Decision::Skip);
        assert_eq!(counters::policy_scans_forced() - forced0, 1);
    }
}
