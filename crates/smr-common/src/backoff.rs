//! Exponential backoff for CAS retry loops.
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
//! 3. **park** — an exponentially growing, jittered sleep of at most
//!    2^`MAX_PARK_EXP` µs, for storms that outlast a quantum.
//!
//! Jitter decorrelates threads that failed on the same CAS so they do not
//! re-collide in lockstep. The jitter PRNG is seeded from a process-global
//! sequence (never from time or ASLR), so runs are deterministic under
//! Miri and under the fault-injection feature's replay schedules: the same
//! thread-creation order reproduces the same backoff decisions.
//!
//! The phase lengths are constants (`SPIN_STEPS`, `YIELD_STEPS`,
//! `MAX_PARK_EXP`); EXPERIMENTS.md has the pairs that keep all three
//! phases (a bare CAS loop and a yield-only third phase both lose the
//! stack's write storm).
//!
//! Every step is reported to [`crate::counters`] so the bench harness can
//! print retry/backoff rates next to throughput, and the park path carries
//! a [`fault_point!`](crate::fault_point) (`backoff::park`) so the fault
//! matrix can stall a backer-off thread and prove garbage stays bounded.

use crate::counters;

/// Spin-phase length: steps `0 .. SPIN_STEPS` spin `2^step` times.
const SPIN_STEPS: u32 = 6;

/// Yield-phase length: steps `SPIN_STEPS .. SPIN_STEPS + YIELD_STEPS` call
/// `yield_now` before the park phase begins.
const YIELD_STEPS: u32 = 4;

/// Cap on the park-phase exponent: a park sleeps under `2^MAX_PARK_EXP` µs.
const MAX_PARK_EXP: u32 = 10;

/// Park-phase base unit: the first park is `PARK_BASE_NS << 0` = 1 µs.
const PARK_BASE_NS: u64 = 1_000;

/// Named fault-injection points compiled into this crate.
pub const FAULT_POINTS: &[&str] = &["backoff::park"];

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
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

impl Backoff {
    /// A fresh backoff in its cheapest spin step.
    #[inline]
    pub fn new() -> Self {
        Self::seeded(next_seed())
    }

    /// A fresh backoff whose spin phase is spent: for a caller that ran its
    /// own on-core polls first, so its first [`snooze`](Backoff::snooze)
    /// yields.
    pub fn past_spin() -> Self {
        Self {
            step: SPIN_STEPS,
            ..Self::new()
        }
    }

    /// A backoff with an explicit jitter seed.
    fn seeded(seed: u64) -> Self {
        Self {
            step: 0,
            rng: splitmix64(seed | 1),
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
        self.step >= SPIN_STEPS + YIELD_STEPS
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
        let step = self.step;
        self.step = step.saturating_add(1);
        if step < SPIN_STEPS {
            counters::incr_backoff_spin();
            for _ in 0..(1u32 << step.min(16)) {
                std::hint::spin_loop();
            }
        } else if step < SPIN_STEPS + YIELD_STEPS {
            counters::incr_backoff_yield();
            std::thread::yield_now();
        } else {
            let exp = (step - SPIN_STEPS - YIELD_STEPS).min(MAX_PARK_EXP);
            let base = PARK_BASE_NS << exp;
            // Jitter in [base/2, base): decorrelates threads that failed on
            // the same CAS without ever exceeding the cap.
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

    #[test]
    fn same_seed_same_jitter_sequence() {
        let mut a = Backoff::seeded(42);
        let mut b = Backoff::seeded(42);
        for _ in 0..64 {
            assert_eq!(a.jitter_u64(), b.jitter_u64());
        }
        let mut c = Backoff::seeded(43);
        let diverged = (0..64).any(|_| a.jitter_u64() != c.jitter_u64());
        assert!(diverged, "different seeds must decorrelate");
    }

    #[test]
    fn phases_escalate_in_order_with_exact_counter_deltas() {
        // The escalator the docs and EXPERIMENTS.md describe.
        assert_eq!((SPIN_STEPS, YIELD_STEPS, MAX_PARK_EXP), (6, 4, 10));
        let _serial = crate::counters::test_lock();
        let (s0, y0, p0) = counters::total_backoff();
        let mut b = Backoff::seeded(7);
        // SPIN_STEPS spins, YIELD_STEPS yields, then parks forever after.
        for _ in 0..SPIN_STEPS + YIELD_STEPS {
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
            (SPIN_STEPS as u64, YIELD_STEPS as u64, 3),
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
        // MAX_PARK_EXP); replicate the arithmetic and check the cap holds.
        let first_park = SPIN_STEPS + YIELD_STEPS;
        let mut prev_cap = 0u64;
        for step in first_park..first_park + MAX_PARK_EXP + 4 {
            let exp = (step - SPIN_STEPS - YIELD_STEPS).min(MAX_PARK_EXP);
            let cap = PARK_BASE_NS << exp;
            assert!(cap >= prev_cap, "park bound must be monotone");
            assert!(
                cap <= PARK_BASE_NS << MAX_PARK_EXP,
                "park bound must respect MAX_PARK_EXP"
            );
            prev_cap = cap;
        }
        assert_eq!(
            prev_cap,
            PARK_BASE_NS << MAX_PARK_EXP,
            "cap must be reached"
        );
    }

    #[test]
    fn jittered_park_duration_stays_in_bounds() {
        let mut b = Backoff::seeded(99);
        for exp in 0..4u32 {
            let base = PARK_BASE_NS << exp;
            for _ in 0..256 {
                let jittered = base / 2 + b.jitter_u64() % (base / 2).max(1);
                assert!(jittered >= base / 2 && jittered < base);
            }
        }
    }

    #[test]
    fn reset_returns_to_spin_phase() {
        // Snoozes bump the global step counters the exact-delta tests read.
        let _serial = crate::counters::test_lock();
        let mut b = Backoff::seeded(5);
        for _ in 0..SPIN_STEPS + YIELD_STEPS {
            b.snooze();
        }
        assert!(b.is_parking());
        b.reset();
        assert!(!b.is_parking());
    }
}
