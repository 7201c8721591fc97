//! Tunable exponential backoff for CAS retry loops.
//!
//! Every lock-free structure in `crates/ds` retries a failed
//! `compare_exchange` by re-entering the coherence storm immediately; under
//! write-heavy contention (the paper's fig9 sweep) that turns each cache
//! line into a ping-pong hot spot and — on oversubscribed hosts — burns
//! whole scheduler quanta spinning against a preempted winner. [`Backoff`]
//! is the shared damper: each failed attempt escalates through three
//! phases,
//!
//! 1. **spin** — `2^step` `spin_loop` hints, staying on-core (cheap when
//!    the winner is running on another core and will finish in nanoseconds),
//! 2. **yield** — `thread::yield_now`, giving a preempted winner its quantum
//!    back (the decisive phase when threads > cores),
//! 3. **park** — an exponentially growing, jittered sleep, bounded by
//!    [`BackoffConfig::max_exp`], for storms that outlast a quantum.
//!
//! Jitter decorrelates threads that failed on the same CAS so they do not
//! re-collide in lockstep. The jitter PRNG is seeded from a process-global
//! sequence (never from time or ASLR), so runs are deterministic under
//! Miri and under the fault-injection feature's replay schedules: the same
//! thread-creation order reproduces the same backoff decisions.
//!
//! One knob (read once per process): `SMR_NO_BACKOFF=1` — global opt-out:
//! every step becomes a no-op, so the fig9 orchestrator can bench "bare"
//! CAS loops against damped ones in the same binary. The phase lengths are
//! [`BackoffConfig::default`]'s constants (6 doubling spin steps, parks of
//! at most 2^10 µs); tests override them through [`Backoff::with_config`].
//!
//! Every step is reported to [`crate::counters`] so the bench harness can
//! print retry/backoff rates next to throughput, and the park path carries
//! a [`fault_point!`](crate::fault_point) (`backoff::park`) so the fault
//! matrix can stall a backer-off thread and prove garbage stays bounded.

use std::sync::OnceLock;

use crate::counters;

/// Yield-phase length: steps `spin_limit .. spin_limit + YIELD_STEPS` call
/// `yield_now` before the park phase begins.
const YIELD_STEPS: u32 = 4;

/// Park-phase base unit: the first park is `PARK_BASE_NS << 0` = 1 µs.
const PARK_BASE_NS: u64 = 1_000;

/// Named fault-injection points compiled into this crate.
pub const FAULT_POINTS: &[&str] = &["backoff::park"];

/// Resolved backoff tuning (the defaults, `SMR_NO_BACKOFF`, or test overrides).
#[derive(Debug, Clone, Copy)]
pub struct BackoffConfig {
    /// Doubling spin steps before escalating to the yield phase.
    pub spin_limit: u32,
    /// Cap on the park-phase exponent (`2^max_exp` µs per park at most).
    pub max_exp: u32,
    /// `SMR_NO_BACKOFF`: every step short-circuits to a no-op.
    pub disabled: bool,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        Self {
            spin_limit: 6,
            max_exp: 10,
            disabled: false,
        }
    }
}

fn process_config() -> &'static BackoffConfig {
    static CONFIG: OnceLock<BackoffConfig> = OnceLock::new();
    CONFIG.get_or_init(|| BackoffConfig {
        disabled: crate::env::parse_bool("SMR_NO_BACKOFF").unwrap_or(false),
        ..BackoffConfig::default()
    })
}

/// Deterministic per-thread seed sequence: each thread draws a distinct
/// 32-bit lane from a global counter at first use, then increments a local
/// counter per [`Backoff`] constructed. No time, no ASLR — a fixed
/// thread-creation order replays the same jitter everywhere (Miri, fault
/// replays, CI).
fn next_seed() -> u64 {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    static THREAD_LANE: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static LOCAL: Cell<u64> = const { Cell::new(0) };
    }
    LOCAL.with(|l| {
        let mut v = l.get();
        if v == 0 {
            v = THREAD_LANE.fetch_add(1, Ordering::Relaxed) << 32;
        }
        l.set(v + 1);
        v + 1
    })
}

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Exponential spin → yield → park backoff with seeded jitter.
///
/// Construct one per operation (cheap: one thread-local counter bump),
/// call [`snooze`](Backoff::snooze) — or [`cas_failed`](Backoff::cas_failed)
/// to also record the retry — after each failed attempt, and
/// [`reset`](Backoff::reset) after any success so the next conflict starts
/// cheap again.
#[derive(Debug)]
pub struct Backoff {
    step: u32,
    rng: u64,
    config: BackoffConfig,
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

impl Backoff {
    /// A fresh backoff using the process-wide [`BackoffConfig`].
    #[inline]
    pub fn new() -> Self {
        Self::with_config(*process_config(), next_seed())
    }

    /// A fresh backoff whose spin phase is spent: for a caller that ran its
    /// own on-core polls first, so its first [`snooze`](Backoff::snooze)
    /// yields.
    pub fn past_spin() -> Self {
        let mut backoff = Self::new();
        backoff.step = backoff.config.spin_limit;
        backoff
    }

    /// A backoff with an explicit config and jitter seed (tests, and the
    /// fault matrix's deterministic schedules).
    pub fn with_config(config: BackoffConfig, seed: u64) -> Self {
        Self {
            step: 0,
            rng: splitmix64(seed | 1),
            config,
        }
    }

    /// Next jitter word (xorshift64*); also usable by callers that need a
    /// cheap decorrelated draw.
    #[inline]
    pub fn jitter_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Forget accumulated pressure: the next [`snooze`](Backoff::snooze)
    /// starts back in the cheapest spin step.
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Whether the escalation has reached the park phase — the signal
    /// callers use to divert to their own wait (kv-service's ring parks on
    /// its doorbell / reply slot instead of sleeping blind).
    #[inline]
    pub fn is_parking(&self) -> bool {
        !self.config.disabled && self.step >= self.config.spin_limit + YIELD_STEPS
    }

    /// Records one failed `compare_exchange` in the global counters, then
    /// backs off one step. The single call CAS retry loops thread through.
    #[inline]
    pub fn cas_failed(&mut self) {
        counters::incr_cas_failure(1);
        self.snooze();
    }

    /// Backs off one step through spin → yield → park.
    #[inline]
    pub fn snooze(&mut self) {
        if self.config.disabled {
            return;
        }
        let step = self.step;
        self.step = step.saturating_add(1);
        if step < self.config.spin_limit {
            counters::incr_backoff_spin();
            for _ in 0..(1u32 << step.min(16)) {
                std::hint::spin_loop();
            }
        } else if step < self.config.spin_limit + YIELD_STEPS {
            counters::incr_backoff_yield();
            std::thread::yield_now();
        } else {
            let exp = (step - self.config.spin_limit - YIELD_STEPS).min(self.config.max_exp);
            let base = PARK_BASE_NS << exp;
            // Jitter in [base/2, base): decorrelates threads that failed on
            // the same CAS without ever exceeding the configured cap.
            let jittered = base / 2 + self.jitter_u64() % (base / 2).max(1);
            park(jittered);
        }
    }
}

/// The park primitive behind the backoff's third phase: a bounded sleep,
/// annotated with the `backoff::park` fault point so the adversarial matrix
/// can turn any parked thread into a stalled one.
///
/// Under Miri a sleep would only slow the interpreter, so the park
/// degenerates to a yield (the jitter arithmetic above stays exercised).
pub fn park(duration_ns: u64) {
    counters::incr_backoff_park();
    crate::fault_point!("backoff::park");
    #[cfg(miri)]
    {
        let _ = duration_ns;
        std::thread::yield_now();
    }
    #[cfg(not(miri))]
    std::thread::sleep(std::time::Duration::from_nanos(duration_ns));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> BackoffConfig {
        BackoffConfig {
            spin_limit: 2,
            max_exp: 3,
            disabled: false,
        }
    }

    #[test]
    fn same_seed_same_jitter_sequence() {
        let mut a = Backoff::with_config(test_config(), 42);
        let mut b = Backoff::with_config(test_config(), 42);
        for _ in 0..64 {
            assert_eq!(a.jitter_u64(), b.jitter_u64());
        }
        let mut c = Backoff::with_config(test_config(), 43);
        let diverged = (0..64).any(|_| a.jitter_u64() != c.jitter_u64());
        assert!(diverged, "different seeds must decorrelate");
    }

    #[test]
    fn phases_escalate_in_order_with_exact_counter_deltas() {
        let _serial = crate::counters::test_lock();
        let (s0, y0, p0) = counters::total_backoff();
        let mut b = Backoff::with_config(test_config(), 7);
        // spin_limit=2 spins, YIELD_STEPS yields, then parks forever after.
        for _ in 0..2 {
            assert!(!b.is_parking());
            b.snooze();
        }
        for _ in 0..YIELD_STEPS {
            assert!(!b.is_parking());
            b.snooze();
        }
        assert!(b.is_parking());
        for _ in 0..3 {
            b.snooze();
        }
        let (s1, y1, p1) = counters::total_backoff();
        assert_eq!(
            (s1 - s0, y1 - y0, p1 - p0),
            (2, YIELD_STEPS as u64, 3),
            "each phase must account its own steps"
        );
    }

    #[test]
    fn past_spin_starts_in_the_yield_phase() {
        let _serial = crate::counters::test_lock();
        let (s0, y0, _) = counters::total_backoff();
        let mut b = Backoff::past_spin();
        for _ in 0..YIELD_STEPS {
            assert!(!b.is_parking());
            b.snooze();
        }
        assert!(b.is_parking());
        let (s1, y1, _) = counters::total_backoff();
        assert_eq!((s1 - s0, y1 - y0), (0, YIELD_STEPS as u64));
    }

    #[test]
    fn park_exponent_is_monotone_and_capped() {
        // The park duration derives from min(step - spins - yields,
        // max_exp); replicate the arithmetic and check the cap holds.
        let cfg = test_config();
        let mut prev_cap = 0u64;
        for step in (cfg.spin_limit + YIELD_STEPS)..(cfg.spin_limit + YIELD_STEPS + 10) {
            let exp = (step - cfg.spin_limit - YIELD_STEPS).min(cfg.max_exp);
            let cap = PARK_BASE_NS << exp;
            assert!(cap >= prev_cap, "park bound must be monotone");
            assert!(
                cap <= PARK_BASE_NS << cfg.max_exp,
                "park bound must respect max_exp"
            );
            prev_cap = cap;
        }
        assert_eq!(prev_cap, PARK_BASE_NS << cfg.max_exp, "cap must be reached");
    }

    #[test]
    fn jittered_park_duration_stays_in_bounds() {
        let mut b = Backoff::with_config(test_config(), 99);
        for exp in 0..4u32 {
            let base = PARK_BASE_NS << exp;
            for _ in 0..256 {
                let jittered = base / 2 + b.jitter_u64() % (base / 2).max(1);
                assert!(jittered >= base / 2 && jittered < base);
            }
        }
    }

    #[test]
    fn disabled_short_circuits_everything() {
        let _serial = crate::counters::test_lock();
        let cfg = BackoffConfig {
            disabled: true,
            ..test_config()
        };
        let (s0, y0, p0) = counters::total_backoff();
        let mut b = Backoff::with_config(cfg, 1);
        let started = std::time::Instant::now();
        for _ in 0..10_000 {
            b.snooze();
        }
        assert!(!b.is_parking(), "disabled backoff never reports parking");
        assert_eq!(
            counters::total_backoff(),
            (s0, y0, p0),
            "disabled backoff must not account steps"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "10k disabled snoozes must be near-instant (no parks)"
        );
    }

    #[test]
    fn reset_returns_to_spin_phase() {
        // Snoozes bump the global step counters the exact-delta tests read.
        let _serial = crate::counters::test_lock();
        let mut b = Backoff::with_config(test_config(), 5);
        for _ in 0..(2 + YIELD_STEPS) {
            b.snooze();
        }
        assert!(b.is_parking());
        b.reset();
        assert!(!b.is_parking());
    }

    #[test]
    fn default_config_reads_like_the_docs() {
        let d = BackoffConfig::default();
        assert_eq!(d.spin_limit, 6);
        assert_eq!(d.max_exp, 10);
        assert!(!d.disabled);
    }
}
