//! Reclamation-trigger policies.
//!
//! Every scheme in the workspace amortizes its retire→scan→free cost the
//! same way: retirement is O(1) and a *trigger predicate* decides when to
//! pay for a scan (hp: `retired ≥ max(128, k·H)`; ebr: `bags ≥ max(floor,
//! 8·participants)`; hp-plus: `unlinks % 128 == 0`; pebr: `garbage ≥ 128`).
//! The predicate — not the scan mechanics — dominates the
//! throughput/memory-bound trade-off, so it is one enum, [`Policy`],
//! decided by one inlined `match` on the retire path:
//!
//! | policy | trigger | memory bound |
//! |---|---|---|
//! | [`Policy::Eager`] | every retirement | tightest (≈ 0 idle garbage) |
//! | [`Capped`] | the scheme's own formula, bit-for-bit | `k·H + floor` |
//! | [`Adaptive`] | [`Capped`] with a watchdog-driven threshold | `k·H + floor` |
//!
//! [`Adaptive`] closes the loop that the PR-4
//! [`GarbageWatchdog`](crate::watchdog::GarbageWatchdog) opened: while the
//! watchdog reports `Healthy`, each completed scan doubles the effective
//! threshold (fewer, better-amortized scans on read-heavy steady state);
//! the moment it reports `DegradedBounded`/`GrowingUnbounded`, the
//! threshold snaps to its floor (scan at every opportunity under a write
//! storm). The effective threshold is clamped to the derived Table-1 cap
//! `k·slots + floor` *by construction*, so relaxing never voids the
//! scheme's published bound.
//!
//! A scheme consults its policy through the [`PolicySlot`] embedded in its
//! domain/collector — one [`PolicySlot::should_reclaim`] call per retire.
//! The slot is installable once per domain ([`PolicySlot::install`]) and
//! defaults to [`PolicyConfig::from_env`] over the scheme's legacy
//! [`Capped`], so with `SMR_POLICY` unset the decisions are exactly the
//! scheme's own formula.

use std::sync::atomic::{AtomicI8, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use crate::counters;
use crate::watchdog::WatchdogStatus;

/// What a policy tells the scheme to do right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Pay for a scan (hp scan, ebr collect, hpp reclaim, …) now.
    Reclaim,
    /// Defer; keep accumulating garbage.
    Skip,
}

/// A payload-free mirror of [`WatchdogStatus`], cheap enough to store in an
/// atomic and feed back into trigger decisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Verdict {
    /// No watchdog has reported yet (treated as healthy for relaxation:
    /// bench harnesses without a watchdog still amortize).
    #[default]
    Unknown,
    /// Garbage within bound, collector making progress.
    Healthy,
    /// Stalled but within the derived bound.
    DegradedBounded,
    /// Stalled and past the bound — the Table-1 failure mode.
    GrowingUnbounded,
}

impl Verdict {
    /// Encodes the verdict for storage in an atomic (used by [`PolicySlot`]
    /// and by the kv-service per-shard health word).
    pub fn encode(self) -> u8 {
        match self {
            Verdict::Unknown => 0,
            Verdict::Healthy => 1,
            Verdict::DegradedBounded => 2,
            Verdict::GrowingUnbounded => 3,
        }
    }

    /// Inverse of [`encode`](Self::encode); unknown raw values decode to
    /// [`Verdict::Unknown`].
    pub fn decode(raw: u8) -> Self {
        match raw {
            1 => Verdict::Healthy,
            2 => Verdict::DegradedBounded,
            3 => Verdict::GrowingUnbounded,
            _ => Verdict::Unknown,
        }
    }

    /// Whether this verdict signals memory pressure (tighten) rather than
    /// health (relax).
    pub fn is_pressure(self) -> bool {
        matches!(self, Verdict::DegradedBounded | Verdict::GrowingUnbounded)
    }
}

impl From<&WatchdogStatus> for Verdict {
    fn from(status: &WatchdogStatus) -> Self {
        match status {
            WatchdogStatus::Healthy => Verdict::Healthy,
            WatchdogStatus::DegradedBounded { .. } => Verdict::DegradedBounded,
            WatchdogStatus::GrowingUnbounded { .. } => Verdict::GrowingUnbounded,
        }
    }
}

/// The facts a scheme hands its policy at each trigger opportunity.
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
    /// Latest watchdog verdict reported to the domain (only [`Adaptive`]
    /// reads it).
    pub verdict: Verdict,
}

/// A reclamation-trigger strategy. One instance is shared by every thread
/// registered with a domain, and [`should_reclaim`](Self::should_reclaim)
/// runs on every retirement.
#[derive(Debug)]
pub enum Policy {
    /// Reclaim at every opportunity: the zero-garbage, maximum-overhead
    /// corner of the ablation (fig12's lower bound on batching benefit).
    Eager,
    /// The scheme's own trigger formula.
    Capped(Capped),
    /// [`Capped`] with a watchdog-driven threshold.
    Adaptive(Adaptive),
}

impl Policy {
    /// Decides whether the calling thread should scan now.
    #[inline]
    pub fn should_reclaim(&self, stats: &RetireStats) -> Decision {
        match self {
            Policy::Eager => Decision::Reclaim,
            Policy::Capped(capped) => capped.should_reclaim(stats),
            Policy::Adaptive(adaptive) => adaptive.should_reclaim(stats),
        }
    }

    /// Feedback hook: the domain's watchdog produced a verdict.
    pub fn on_verdict(&self, verdict: Verdict) {
        if let Policy::Adaptive(adaptive) = self {
            adaptive.on_verdict(verdict);
        }
    }
}

/// Queries `policy` and counts a firing trigger in
/// [`counters::policy_scans_forced`], so benches and the fault matrix can
/// assert policy behavior instead of inferring it from garbage peaks.
#[inline]
pub fn decide(policy: &Policy, stats: &RetireStats) -> Decision {
    let d = policy.should_reclaim(stats);
    if d == Decision::Reclaim {
        counters::incr_policy_scan_forced();
    }
    d
}

/// The legacy trigger formulas, bit-for-bit, as one parameterization.
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

    /// The derived worst-case cap `k·slots + floor` (the Table-1 bound the
    /// adaptive policy must respect when relaxing).
    pub fn bound(&self, slots: usize) -> usize {
        self.k.saturating_mul(slots).saturating_add(self.floor)
    }

    fn count_armed(&self) -> bool {
        self.floor > 0 || self.k > 0
    }

    fn fires(&self, stats: &RetireStats, threshold: usize, period: u64) -> bool {
        let by_count = self.count_armed() && stats.retired >= threshold;
        let by_cadence = period > 0 && stats.ops > 0 && stats.ops.is_multiple_of(period);
        by_count || by_cadence
    }

    /// Decides whether the calling thread should scan now.
    #[inline]
    pub fn should_reclaim(&self, stats: &RetireStats) -> Decision {
        if self.fires(stats, self.threshold(stats.slots), self.period) {
            Decision::Reclaim
        } else {
            Decision::Skip
        }
    }
}

/// How far [`Adaptive`] may tighten below the base threshold (2³ = 8×).
const ADAPTIVE_LEVEL_MIN: i8 = -3;
/// How far [`Adaptive`] may relax above it — the clamp to the derived cap
/// makes higher levels indistinguishable anyway.
const ADAPTIVE_LEVEL_MAX: i8 = 2;
/// Tightening never pushes a count threshold below this (a scan per retire
/// costs more than it frees) …
const ADAPTIVE_MIN_THRESHOLD: usize = 16;
/// … nor a cadence period below this.
const ADAPTIVE_MIN_PERIOD: u64 = 8;

/// [`Capped`] whose effective threshold breathes with the watchdog verdict.
///
/// A signed level shifts the base threshold geometrically:
/// `eff = clamp(base · 2^level, floor-side minimum, k·slots + floor)`.
/// [`Adaptive::on_verdict`] snaps the level to `ADAPTIVE_LEVEL_MIN` on
/// any pressure verdict (tighten within one watchdog sample); each scan
/// that fires while the verdict is `Healthy`/`Unknown` raises the level by
/// one ([`counters::adaptive_relaxes`]). The upper clamp is the same
/// `k·H + floor` expression the robustness tests derive from Table 1, so
/// relaxation can never grow past the scheme's published bound.
#[derive(Debug)]
pub struct Adaptive {
    /// Base (legacy) trigger this policy breathes around.
    pub base: Capped,
    level: AtomicI8,
}

impl Adaptive {
    /// Starts at the base threshold (level 0).
    pub fn new(base: Capped) -> Self {
        Self {
            base,
            level: AtomicI8::new(0),
        }
    }

    /// Current adaptation level (tests only; negative = tightened).
    pub fn level(&self) -> i8 {
        self.level.load(Ordering::Relaxed)
    }

    /// Effective count threshold at `slots`, after applying the level and
    /// clamping into `[min(base, 16).max(1), k·slots + floor]`.
    pub fn effective_threshold(&self, slots: usize) -> usize {
        let base = self.base.threshold(slots);
        let lvl = self.level.load(Ordering::Relaxed);
        let shifted = if lvl >= 0 {
            base.checked_shl(lvl as u32).unwrap_or(usize::MAX)
        } else {
            base >> (-lvl) as u32
        };
        let lo = base.clamp(1, ADAPTIVE_MIN_THRESHOLD);
        let hi = self.base.bound(slots).max(lo);
        shifted.clamp(lo, hi)
    }

    /// Effective cadence period after the level: tightening shortens the
    /// period (more frequent scans), relaxing never stretches it past the
    /// base — cadence *is* the base amortization, there is nothing to relax.
    pub fn effective_period(&self) -> u64 {
        if self.base.period == 0 {
            return 0;
        }
        let lvl = self.level.load(Ordering::Relaxed);
        if lvl >= 0 {
            self.base.period
        } else {
            (self.base.period >> (-lvl) as u32)
                .max(ADAPTIVE_MIN_PERIOD)
                .min(self.base.period)
        }
    }

    /// Decides whether the calling thread should scan now, relaxing one
    /// level when a scan fires under a non-pressure verdict.
    pub fn should_reclaim(&self, stats: &RetireStats) -> Decision {
        let eff = self.effective_threshold(stats.slots);
        let period = self.effective_period();
        if self.base.fires(stats, eff, period) {
            // This scan completed under a healthy verdict: amortize harder
            // next time. CAS (not fetch_add) so concurrent triggers on the
            // same domain step the level at most once per scan wave.
            if !stats.verdict.is_pressure() {
                let lvl = self.level.load(Ordering::Relaxed);
                if lvl < ADAPTIVE_LEVEL_MAX
                    && self
                        .level
                        .compare_exchange(lvl, lvl + 1, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                {
                    counters::incr_adaptive_relax();
                }
            }
            Decision::Reclaim
        } else {
            Decision::Skip
        }
    }

    /// Feedback hook: any pressure verdict snaps the level to its floor.
    pub fn on_verdict(&self, verdict: Verdict) {
        if verdict.is_pressure() {
            let prev = self.level.swap(ADAPTIVE_LEVEL_MIN, Ordering::Relaxed);
            if prev != ADAPTIVE_LEVEL_MIN {
                counters::incr_adaptive_tighten();
            }
        }
    }
}

/// Which [`Policy`] to build — the value of `SMR_POLICY`/`KV_POLICY`, a
/// `KvConfig` field, and a bench CSV column.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// [`Policy::Eager`].
    Eager,
    /// [`Capped`] — the default: the scheme's own trigger formula.
    #[default]
    Capped,
    /// [`Adaptive`].
    Adaptive,
}

impl PolicyKind {
    /// Every kind, in fig12 column order.
    pub const ALL: [PolicyKind; 3] = [PolicyKind::Eager, PolicyKind::Capped, PolicyKind::Adaptive];

    /// The lower-case name used in env vars, CSV columns, and snapshot
    /// metric keys.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Eager => "eager",
            PolicyKind::Capped => "capped",
            PolicyKind::Adaptive => "adaptive",
        }
    }

    /// Parses a policy name (the inverse of [`PolicyKind::name`]).
    pub fn parse(raw: &str) -> Option<Self> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "eager" => Some(PolicyKind::Eager),
            "capped" => Some(PolicyKind::Capped),
            "adaptive" => Some(PolicyKind::Adaptive),
            _ => None,
        }
    }

    /// Reads a policy kind from env var `name`; a set-but-unrecognized
    /// value is counted/logged via [`crate::env::note_malformed`] and
    /// returns `None` (caller's default applies).
    pub fn from_env_var(name: &str) -> Option<Self> {
        let raw = std::env::var(name).ok()?;
        let kind = Self::parse(&raw);
        if kind.is_none() {
            crate::env::note_malformed(name, &raw);
        }
        kind
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s).ok_or_else(|| format!("unknown policy kind {s:?}"))
    }
}

/// Policy selection: which [`PolicyKind`] to build over a scheme's legacy
/// trigger. The trigger's parameters stay with the scheme (`HP_RECLAIM_K`,
/// `EBR_COLLECT_THRESHOLD`, `HPP_RECLAIM_PERIOD`, `HYALINE_BATCH_THRESHOLD`
/// feed the `legacy` [`Capped`] passed to [`PolicyConfig::build`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct PolicyConfig {
    /// Which implementation to build.
    pub kind: PolicyKind,
}

impl PolicyConfig {
    /// The process-wide config: `SMR_POLICY` = `eager` | `capped` |
    /// `adaptive` (default `capped`), parsed once so a malformed value
    /// warns once, not once per domain.
    pub fn from_env() -> Self {
        static CONFIG: OnceLock<PolicyConfig> = OnceLock::new();
        *CONFIG.get_or_init(|| {
            Self::for_kind(PolicyKind::from_env_var("SMR_POLICY").unwrap_or_default())
        })
    }

    /// A config selecting `kind` — how kv-service builds per-shard policies
    /// from `KV_POLICY` without going through the process-wide `SMR_POLICY`
    /// latch.
    pub fn for_kind(kind: PolicyKind) -> Self {
        Self { kind }
    }

    /// Builds the policy over the scheme's `legacy` trigger.
    pub fn build(&self, legacy: Capped) -> Arc<Policy> {
        Arc::new(match self.kind {
            PolicyKind::Eager => Policy::Eager,
            PolicyKind::Capped => Policy::Capped(legacy),
            PolicyKind::Adaptive => Policy::Adaptive(Adaptive::new(legacy)),
        })
    }
}

/// A domain's policy + latest watchdog verdict.
///
/// `const`-constructible so the static domains (`hp::default_domain`,
/// `ebr::default_collector`) embed one. The slot is install-once
/// (`OnceLock`): the first of `install` / first-trigger-lazy-default wins,
/// matching the "configure before first use" contract of every other knob
/// in the workspace.
pub struct PolicySlot {
    /// The owning scheme's trigger formula, read (env knobs included) when
    /// the slot defaults.
    legacy: fn() -> Capped,
    cell: OnceLock<Arc<Policy>>,
    verdict: AtomicU8,
}

impl PolicySlot {
    /// An empty slot that defaults, on first use, to
    /// [`PolicyConfig::from_env`] over `legacy()`.
    pub const fn new(legacy: fn() -> Capped) -> Self {
        Self {
            legacy,
            cell: OnceLock::new(),
            verdict: AtomicU8::new(0),
        }
    }

    /// Installs `policy`; returns false (and changes nothing) if a policy
    /// is already installed or defaulted.
    pub fn install(&self, policy: Arc<Policy>) -> bool {
        self.cell.set(policy).is_ok()
    }

    /// The scheme's whole per-retire policy step: should the calling
    /// thread scan now? `retired`/`slots`/`ops` as in [`RetireStats`].
    #[inline]
    pub fn should_reclaim(&self, retired: usize, slots: usize, ops: u64) -> bool {
        let policy = &**self
            .cell
            .get_or_init(|| PolicyConfig::from_env().build((self.legacy)()));
        let verdict = match policy {
            Policy::Adaptive(_) => self.verdict(),
            _ => Verdict::Unknown,
        };
        let stats = RetireStats {
            retired,
            slots,
            ops,
            verdict,
        };
        decide(policy, &stats) == Decision::Reclaim
    }

    /// The latest verdict reported to this slot.
    pub fn verdict(&self) -> Verdict {
        Verdict::decode(self.verdict.load(Ordering::Relaxed))
    }

    /// Stores a watchdog verdict and forwards it to the policy's feedback
    /// hook (if one is installed yet).
    pub fn report_verdict(&self, verdict: Verdict) {
        self.verdict.store(verdict.encode(), Ordering::Relaxed);
        if let Some(policy) = self.cell.get() {
            policy.on_verdict(verdict);
        }
    }
}

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
    fn eager_always_fires() {
        assert_eq!(Policy::Eager.should_reclaim(&stats(0, 0)), Decision::Reclaim);
        assert_eq!(Policy::Eager.should_reclaim(&stats(1, 999)), Decision::Reclaim);
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
    fn adaptive_tightens_on_pressure_and_relaxes_when_healthy() {
        let _serial = crate::counters::test_lock();
        let base = Capped {
            floor: 128,
            k: 2,
            period: 0,
        };
        let policy = Adaptive::new(base);
        let slots = 32;
        assert_eq!(policy.effective_threshold(slots), 128, "level 0 = legacy");

        let tight0 = counters::adaptive_tightens();
        policy.on_verdict(Verdict::GrowingUnbounded);
        assert_eq!(policy.level(), ADAPTIVE_LEVEL_MIN);
        assert_eq!(counters::adaptive_tightens() - tight0, 1);
        // Tightening again is idempotent — no double count.
        policy.on_verdict(Verdict::DegradedBounded);
        assert_eq!(counters::adaptive_tightens() - tight0, 1);
        let tightened = policy.effective_threshold(slots);
        assert_eq!(tightened, ADAPTIVE_MIN_THRESHOLD, "128 >> 3 = 16");

        // Healthy scans step the level back up, one per firing trigger.
        let relax0 = counters::adaptive_relaxes();
        let mut s = stats(tightened, slots);
        s.verdict = Verdict::Healthy;
        assert_eq!(policy.should_reclaim(&s), Decision::Reclaim);
        assert_eq!(policy.level(), ADAPTIVE_LEVEL_MIN + 1);
        assert_eq!(counters::adaptive_relaxes() - relax0, 1);

        // Under pressure a firing trigger does NOT relax.
        policy.on_verdict(Verdict::GrowingUnbounded);
        let mut storm = stats(4096, slots);
        storm.verdict = Verdict::GrowingUnbounded;
        assert_eq!(policy.should_reclaim(&storm), Decision::Reclaim);
        assert_eq!(policy.level(), ADAPTIVE_LEVEL_MIN);
    }

    #[test]
    fn adaptive_threshold_never_exceeds_derived_bound() {
        // Serialized: relaxation bumps the global adaptive counters that
        // the exact-delta tests read.
        let _serial = crate::counters::test_lock();
        let base = Capped {
            floor: 128,
            k: 2,
            period: 0,
        };
        let policy = Adaptive::new(base);
        for slots in [0usize, 1, 8, 33, 512] {
            // Walk the level across its whole range via verdicts + scans.
            policy.on_verdict(Verdict::GrowingUnbounded);
            for _ in 0..16 {
                let eff = policy.effective_threshold(slots);
                assert!(
                    eff <= base.bound(slots).max(ADAPTIVE_MIN_THRESHOLD),
                    "eff {eff} over bound {} at slots={slots}",
                    base.bound(slots)
                );
                assert!(eff >= 1);
                let mut s = stats(eff, slots);
                s.verdict = Verdict::Healthy;
                policy.should_reclaim(&s); // fires, relaxes one step
            }
            assert_eq!(
                policy.effective_threshold(slots),
                base.bound(slots).max(ADAPTIVE_MIN_THRESHOLD.min(base.threshold(slots))),
                "fully relaxed = clamped at the derived bound (slots={slots})"
            );
        }
    }

    #[test]
    fn adaptive_period_only_tightens() {
        let _serial = crate::counters::test_lock();
        let policy = Adaptive::new(Capped {
            floor: 0,
            k: 0,
            period: 128,
        });
        assert_eq!(policy.effective_period(), 128);
        policy.on_verdict(Verdict::DegradedBounded);
        assert_eq!(policy.effective_period(), ADAPTIVE_MIN_PERIOD.max(128 >> 3));
        // Relax all the way back: never past the base period.
        for _ in 0..8 {
            let s = RetireStats {
                ops: policy.effective_period(),
                verdict: Verdict::Healthy,
                ..Default::default()
            };
            policy.should_reclaim(&s);
        }
        assert_eq!(policy.effective_period(), 128);
    }

    #[test]
    fn kind_names_roundtrip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.name().parse::<PolicyKind>(), Ok(kind));
        }
        assert_eq!(PolicyKind::parse("ADAPTIVE"), Some(PolicyKind::Adaptive));
        assert_eq!(PolicyKind::parse("nope"), None);
    }

    #[test]
    fn removed_timed_kind_is_malformed_and_falls_back_to_capped() {
        let _serial = crate::counters::test_lock();
        assert_eq!(PolicyKind::parse("timed"), None);
        const VAR: &str = "SMR_TEST_REMOVED_POLICY_KIND";
        std::env::set_var(VAR, "timed");
        let malformed0 = counters::env_malformed();
        let kind = PolicyKind::from_env_var(VAR);
        std::env::remove_var(VAR);
        assert_eq!(kind, None);
        assert_eq!(counters::env_malformed() - malformed0, 1);
        assert_eq!(kind.unwrap_or_default(), PolicyKind::Capped);
    }

    #[test]
    fn config_build_selects_the_kind_over_legacy() {
        let legacy = Capped {
            floor: 128,
            k: 2,
            period: 0,
        };
        let p = PolicyConfig::default().build(legacy);
        assert!(matches!(*p, Policy::Capped(c) if c == legacy));
        assert_eq!(p.should_reclaim(&stats(127, 0)), Decision::Skip);
        assert_eq!(p.should_reclaim(&stats(128, 0)), Decision::Reclaim);

        assert!(matches!(*PolicyConfig::for_kind(PolicyKind::Eager).build(legacy), Policy::Eager));
        assert!(matches!(
            &*PolicyConfig::for_kind(PolicyKind::Adaptive).build(legacy),
            Policy::Adaptive(a) if a.base == legacy
        ));
    }

    #[test]
    fn slot_installs_once_and_forwards_verdicts() {
        let _serial = crate::counters::test_lock();
        let legacy = || Capped {
            floor: 128,
            k: 2,
            period: 0,
        };
        let slot = PolicySlot::new(legacy);
        assert_eq!(slot.verdict(), Verdict::Unknown);
        let policy = Arc::new(Policy::Adaptive(Adaptive::new(legacy())));
        let Policy::Adaptive(adaptive) = &*policy else {
            unreachable!()
        };
        assert!(slot.install(policy.clone()));
        assert!(!slot.install(Arc::new(Policy::Eager)), "second install rejected");
        assert!(!slot.should_reclaim(127, 0, 0), "adaptive at level 0, not eager");
        slot.report_verdict(Verdict::GrowingUnbounded);
        assert_eq!(slot.verdict(), Verdict::GrowingUnbounded);
        assert_eq!(adaptive.level(), ADAPTIVE_LEVEL_MIN, "verdict reached the policy");
        assert!(slot.should_reclaim(ADAPTIVE_MIN_THRESHOLD, 0, 0), "tightened trigger fires");
        assert_eq!(adaptive.level(), ADAPTIVE_LEVEL_MIN, "slot passed the pressure verdict on");
    }

    #[test]
    fn empty_slot_defaults_to_the_schemes_legacy_trigger() {
        // SMR_POLICY is unset under `cargo test`, so the default is Capped.
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
