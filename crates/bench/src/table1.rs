//! Table 1 (measured column): unreclaimed-object bounds under a stalled
//! thread — the robustness experiment.
//!
//! One thread enters a critical section (or parks on validated hazard
//! pointers) and stalls; the remaining threads churn insert/remove. Robust
//! schemes (HP, HP++, PEBR-after-ejection) keep garbage bounded; EBR and NR
//! grow without bound.
//!
//! A [`GarbageWatchdog`] samples each run every 25 ms — progress token =
//! [`counters::total_freed`] (moves iff reclamation moves, for every
//! scheme) — and the final verdict column classifies the run as `healthy`,
//! `degraded-bounded`, or `growing-unbounded`.
//!
//! With `--quick` the churn window shrinks to 300 ms and the subcommand
//! turns into a CI gate: it exits non-zero if the HP or HP++ peak exceeds the
//! bound its domain derives (`SchemeDomain::garbage_bound`: Michael's
//! `k·H + threshold` per participant; HP++ adds its deferred-invalidation
//! batches). The EBR/PEBR rows stay informational — their failure modes are
//! asserted by `tests/robustness.rs`.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::Duration;

use ds::InDomain;
use smr_common::counters;
use smr_common::watchdog::{GarbageWatchdog, WatchdogStatus};
use smr_common::{ConcurrentMap, GuardedScheme, SchemeDomain, SchemeGuard};

/// Threads churning against the one staller.
const CHURNERS: usize = 3;

/// Churns until `stop`; returns the blocks left in this thread's pool —
/// reclaimed and awaiting reuse, so never part of the garbage columns.
fn churn<M: ConcurrentMap<u64, u64> + Send + Sync>(map: &M, stop: &AtomicBool) -> usize {
    let mut h = map.handle();
    let mut k = 0u64;
    while !stop.load(Relaxed) {
        map.insert(&mut h, k % 64, k);
        map.remove(&mut h, &(k % 64));
        k += 1;
    }
    smr_common::pool::pooled_blocks()
}

/// The guarded list every pinned staller runs against.
type Guarded<S> = ds::guarded::HMList<u64, u64, S>;

fn nap_until(stop: &AtomicBool) {
    while !stop.load(Relaxed) {
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Non-cooperative staller: holds a pin (critical section) forever.
fn stalled_pin<S: GuardedScheme>(map: &Guarded<S>, stop: &AtomicBool)
where
    Guarded<S>: ConcurrentMap<u64, u64, Handle = S::Handle>,
{
    let mut h = map.handle();
    let _g = S::pin(&mut h);
    nap_until(stop);
}

/// The key a hazard staller parks on — far outside the churned range
/// (`0..64`), so no churner ever removes it and it sorts last.
const STALL_KEY: u64 = 1 << 32;

/// Parks on validated hazard pointers: inserts [`STALL_KEY`] and naps
/// inside `get_with` on it, so the hazard slots its traversal announced —
/// the node and its predecessor, a churned node — stay announced for the
/// whole run (a plain `get` clears them before it returns). `get_with` is
/// inherent on the list types, hence a closure per type, not a generic fn.
macro_rules! stalled_hazard {
    () => {
        |map, stop| {
            let mut h = map.handle();
            assert!(map.insert(&mut h, STALL_KEY, 0));
            map.get_with(&mut h, &STALL_KEY, |value| {
                assert!(value.is_some(), "nobody removes the staller's key");
                nap_until(stop);
            });
        }
    };
}

struct Measured {
    garbage: usize,
    peak: usize,
    bound: usize,
    verdict: &'static str,
}

fn measure<M, F>(name: &str, window: Duration, bound: usize, map: M, stall: F) -> Measured
where
    M: ConcurrentMap<u64, u64> + Send + Sync,
    F: FnOnce(&M, &AtomicBool) + Send,
{
    let stop = AtomicBool::new(false);
    let base = counters::garbage_now();
    // The stall window is a fraction of the run so a wedged scheme is
    // flagged within the window, not only at the final sample.
    let mut dog = GarbageWatchdog::new(bound, window / 4);
    let mut last = WatchdogStatus::Healthy;
    let pooled: usize = std::thread::scope(|s| {
        s.spawn(|| stall(&map, &stop));
        let churners: Vec<_> = (0..CHURNERS)
            .map(|_| s.spawn(|| churn(&map, &stop)))
            .collect();
        let deadline = std::time::Instant::now() + window;
        while std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(25));
            let garbage = counters::garbage_now().saturating_sub(base) as usize;
            last = dog.observe(counters::total_freed(), garbage);
        }
        stop.store(true, Relaxed);
        churners
            .into_iter()
            .map(|c| c.join().expect("a churner panicked"))
            .sum()
    });
    let garbage = counters::garbage_now().saturating_sub(base) as usize;
    let verdict = match last {
        WatchdogStatus::Healthy => "healthy",
        WatchdogStatus::DegradedBounded { .. } => "degraded-bounded",
        WatchdogStatus::GrowingUnbounded { .. } => "growing-unbounded",
    };
    let m = Measured {
        garbage,
        peak: dog.peak(),
        bound,
        verdict,
    };
    println!(
        "{name},{},{},{},{},{pooled}",
        m.garbage, m.peak, m.bound, m.verdict
    );
    m
}

/// The `--quick` gate as a pure decision: one message per violated bound.
///
/// HP and HP++ must hold their bound at every instant, so their *peaks* are
/// gated. Hyaline's formula bounds the *settled* state: a handed-over batch
/// legitimately floats until the slots active at its handover leave, so
/// the in-flight peak scales with retire-rate x scheduler quantum — a host
/// property no scheme constant derives. The robustness claim is that a
/// cooperative staller never wedges reclamation: garbage must settle back
/// under the derived bound and the watchdog must not classify the run as
/// unbounded growth (EBR's verdict).
fn gate_violations(hp: &Measured, hpp: &Measured, hyaline_coop: &Measured) -> Vec<String> {
    let mut violations = Vec::new();
    for (name, m) in [("hp", hp), ("hp++", hpp)] {
        if m.peak > m.bound {
            violations.push(format!(
                "{name} peak unreclaimed {} exceeds derived bound {}",
                m.peak, m.bound
            ));
        }
    }
    if hyaline_coop.garbage > hyaline_coop.bound {
        violations.push(format!(
            "hyaline-cooperative settled at {} unreclaimed, derived bound {}",
            hyaline_coop.garbage, hyaline_coop.bound
        ));
    }
    if hyaline_coop.verdict == "growing-unbounded" {
        violations.push("hyaline-cooperative classified as growing-unbounded".into());
    }
    violations
}

/// Each row's bound, read from its domain's
/// [`SchemeDomain::garbage_bound`] (with a 2x margin for PEBR, HP and
/// HP++). EBR has no bound, and the non-cooperative hyaline row grows like
/// EBR's: both give the watchdog four collection triggers, so a stalled pin
/// reads as growth, not noise.
#[derive(Debug, PartialEq, Eq)]
pub struct Bounds {
    /// `ebr-stalled-pin`'s watchdog trigger.
    pub ebr: usize,
    /// Both PEBR rows.
    pub pebr: usize,
    /// `hyaline-stalled-pin-noncooperative`'s watchdog trigger.
    pub hyaline_stall: usize,
    /// `hyaline-stalled-pin-cooperative`, gated on its settled count.
    pub hyaline_coop: usize,
    /// `hp-stalled-hazard`, gated on its peak.
    pub hp: usize,
    /// `hp++-stalled-hazard`, gated on its peak.
    pub hpp: usize,
}

impl Bounds {
    /// The bounds of a run whose HP and HP++ rows build their maps in `hp`
    /// and `hpp`, read before the run registers a slot there: the margin
    /// also covers the `k·H` of the slots the run then allocates.
    pub fn derive(hp: &hp::Domain, hpp: &hp_plus::Domain) -> Self {
        let participants = CHURNERS + 1;
        let stated = |bound: Option<usize>| bound.expect("a robust scheme states its bound");
        Self {
            ebr: 4 * ebr::default_collector().collect_threshold(),
            pebr: 2 * stated(pebr::default_collector().garbage_bound(participants)),
            hyaline_stall: 4 * hyaline::TRIGGER.threshold(participants),
            // The cooperative staller's row: hyaline's formula carries its
            // own slack, so no margin, and one more handle, an adopter of
            // the churners' orphans.
            hyaline_coop: stated(hyaline::default_domain().garbage_bound(participants + 1)),
            hp: 2 * stated(hp.garbage_bound(participants)),
            hpp: 2 * stated(hpp.garbage_bound(participants)),
        }
    }
}

/// `smr_bench table1 [--quick]`; the exit code (1 = the `--quick` gate
/// found a bound violation).
pub fn run(quick: bool) -> i32 {
    let window = if quick {
        Duration::from_millis(300)
    } else {
        Duration::from_millis(1500)
    };

    println!(
        "# Table 1: unreclaimed blocks after {:?} of churn with one stalled thread",
        window
    );
    println!("scheme,unreclaimed_blocks,peak_unreclaimed,bound,watchdog,pooled_blocks");

    // Private HP and HP++ domains: `H` counts only this table's slots.
    let (hp_domain, hpp_domain) = (hp::Domain::leak_new(), hp_plus::Domain::leak_new());
    let bounds = Bounds::derive(hp_domain, hpp_domain);

    // EBR: the stalled thread holds a pin forever — unbounded growth.
    let name = "ebr-stalled-pin";
    let map = Guarded::<ebr::Ebr>::new();
    measure(name, window, bounds.ebr, map, stalled_pin);

    // PEBR, non-cooperative staller: our behavioral model only neutralizes
    // threads at their validate() points, so this matches EBR (documented
    // deviation from real PEBR — see DESIGN.md).
    let name = "pebr-stalled-pin-noncooperative";
    let map = Guarded::<pebr::Pebr>::new();
    measure(name, window, bounds.pebr, map, stalled_pin);

    // PEBR, cooperative staller: checks validate() like a slow reader
    // would; ejection lands and garbage stays bounded.
    let name = "pebr-stalled-pin-cooperative";
    let map = Guarded::<pebr::Pebr>::new();
    measure(name, window, bounds.pebr, map, |map, stop| {
        let mut h = map.handle();
        let mut g = pebr::Pebr::pin(&mut h);
        while !stop.load(Relaxed) {
            if !g.validate() {
                g.refresh();
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    });

    // Hyaline, non-cooperative staller: a validated critical section that
    // never leaves keeps a reference on every batch handed over while it is
    // active, so garbage grows like EBR's stalled pin (informational row;
    // the *mid-enter* staller is ejected and bounded — proven
    // deterministically by tests/fault_matrix.rs).
    let name = "hyaline-stalled-pin-noncooperative";
    let map = Guarded::<hyaline::Hyaline>::new();
    measure(name, window, bounds.hyaline_stall, map, stalled_pin);

    // Hyaline, cooperative staller: re-crosses its critical-section
    // boundary on every poll (hyaline's unit of cooperation is the CS
    // boundary, as validate() is PEBR's), so each handed-over batch waits
    // at most one poll plus the scheduler's whims; garbage stays near the
    // derived in-flight bound.
    let name = "hyaline-stalled-pin-cooperative";
    let map = Guarded::<hyaline::Hyaline>::new();
    let hyaline_run = measure(name, window, bounds.hyaline_coop, map, |map, stop| {
        let mut h = map.handle();
        let mut g = hyaline::Hyaline::pin(&mut h);
        while !stop.load(Relaxed) {
            g.refresh();
            std::thread::yield_now();
        }
    });

    // HP: the stalled thread parks on a validated hazard pointer —
    // only the announced nodes stay unreclaimed.
    let name = "hp-stalled-hazard";
    let map = ds::hp::HMList::new_in(hp_domain);
    let hp_run = measure(name, window, bounds.hp, map, stalled_hazard!());

    // HP++: same, plus frontier protections — still bounded.
    let name = "hp++-stalled-hazard";
    let map = ds::hpp::HHSList::new_in(hpp_domain);
    let hpp_run = measure(name, window, bounds.hpp, map, stalled_hazard!());

    println!();
    println!("# Expectation (paper Table 1): EBR unbounded (grows with run time);");
    println!("# HP/HP++ O(hazards + thresholds); PEBR bounded after ejection;");
    println!("# hyaline bounded for any staller that keeps crossing CS boundaries");
    println!("# (non-cooperative validated stalls grow EBR-like — DESIGN.md §1.11).");

    if quick {
        let violations = gate_violations(&hp_run, &hpp_run, &hyaline_run);
        for v in &violations {
            eprintln!("BOUND VIOLATION: {v}");
        }
        if !violations.is_empty() {
            return 1;
        }
        println!("# --quick gate: HP/HP++ peaks and the hyaline cooperative settled");
        println!("# count within their derived bounds.");
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(garbage: usize, peak: usize, bound: usize, verdict: &'static str) -> Measured {
        Measured {
            garbage,
            peak,
            bound,
            verdict,
        }
    }

    #[test]
    fn gate_fails_exactly_the_rows_over_their_bound() {
        let within = row(10, 100, 100, "healthy");
        let over = row(10, 101, 100, "degraded-bounded");
        assert!(gate_violations(&within, &within, &within).is_empty());
        // HP/HP++ are gated on the peak, each on its own row.
        let v = gate_violations(&over, &within, &within);
        assert_eq!(v, ["hp peak unreclaimed 101 exceeds derived bound 100"]);
        let v = gate_violations(&within, &over, &within);
        assert_eq!(v, ["hp++ peak unreclaimed 101 exceeds derived bound 100"]);
        // Hyaline's in-flight peak may float; its settled count and the
        // watchdog verdict may not.
        assert!(gate_violations(&within, &within, &over).is_empty());
        for unsettled in [
            row(101, 500, 100, "healthy"),
            row(0, 0, 100, "growing-unbounded"),
        ] {
            assert_eq!(gate_violations(&within, &within, &unsettled).len(), 1);
        }
    }
}
