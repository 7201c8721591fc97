//! Run shape shared by every workload: warm-up, then measured windows.
//!
//! Loaders time themselves — there is no coordinator or sampler thread to
//! be starved on a 2-CPU host. Each loader walks the same list of phases,
//! checks the clock every few hundred ops, and snapshots the process CPU
//! clock and the `smr_common::counters` totals at every phase edge. Rates
//! are the median window, the garbage p99 the quietest window's; latency
//! samples pool all untraced windows.

use smr_common::counters;
use smr_common::time::mono_ns;

use crate::check::{Tally, Verdict};
use crate::placement::Placement;
use crate::recorder::{Recorder, TooFewSamples};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median and the last one is measured.
pub const SETUP_REPS: usize = 9;
pub const WARMUP_NS: u64 = 1_000_000_000;
const WINDOWS: u32 = 4;

#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub len_ns: u64,
    pub measured: bool,
    pub traced: bool,
}

/// Warm-up, then four windows sharing `seconds`. A traced run spends the
/// first two windows untraced — the reference for `trace_overhead_share` —
/// and halves all four, leaving the other half of `seconds` to the probes.
pub fn plan(seconds: u64, trace: bool) -> Vec<Phase> {
    let mut len_ns = seconds * 1_000_000_000 / WINDOWS as u64;
    if trace {
        len_ns /= 2;
    }
    let mut phases = vec![Phase {
        len_ns: WARMUP_NS,
        measured: false,
        traced: false,
    }];
    for w in 0..WINDOWS {
        phases.push(Phase {
            len_ns,
            measured: true,
            traced: trace && w >= WINDOWS / 2,
        });
    }
    phases
}

/// Process-wide readings at one phase edge.
#[derive(Clone, Copy, Debug, Default)]
pub struct Snap {
    pub t_ns: u64,
    pub cpu_ns: u64,
    pub retired: u64,
    pub freed: u64,
    pub cas_failures: u64,
    pub backoff_yields: u64,
    pub backoff_parks: u64,
    pub policy_scans: u64,
}

impl Snap {
    pub fn take() -> Self {
        let (_, backoff_yields, backoff_parks) = counters::total_backoff();
        Self {
            t_ns: mono_ns(),
            cpu_ns: crate::sys::process_cpu_ns(),
            retired: counters::total_retired(),
            freed: counters::total_freed(),
            cas_failures: counters::total_cas_failures(),
            backoff_yields,
            backoff_parks,
            policy_scans: counters::policy_scans_forced(),
        }
    }
}

/// What one loader measured in one phase.
pub struct PhaseOut {
    pub ops: u64,
    pub begin: Snap,
    pub end: Snap,
    pub latency: Recorder,
    pub garbage: Recorder,
}

/// Everything one workload run hands to the report.
pub struct RunData {
    /// CPUs the process was allowed before any thread was pinned.
    pub allowed: Vec<usize>,
    pub placement: Placement,
    /// Median of the set-up repetitions.
    pub setup_s: f64,
    pub phases: Vec<Phase>,
    /// `outs[thread][phase]`.
    pub outs: Vec<Vec<PhaseOut>>,
    pub tracers: Vec<Tracer>,
    /// Every op of the loaders, warm-up included.
    pub tally: Tally,
    pub verdict: Verdict,
}

/// The windows of one run, reduced.
pub struct Summary {
    pub ops_per_s: f64,
    pub cpu_us_per_op: f64,
    pub latency: Recorder,
    pub garbage: Recorder,
    /// The garbage samples of each untraced window; `garbage` pools them.
    pub garbage_windows: Vec<Recorder>,
    /// Ops in every measured window, traced ones included.
    pub measured_ops: u64,
    /// Edges of the measured span, as loader 0 saw them.
    pub first: Snap,
    pub last: Snap,
    /// Median-window rate of the traced windows; 0 without tracing.
    pub traced_ops_per_s: f64,
    /// Rate of each untraced window, in order; `ops_per_s` is their median.
    pub window_rates: Vec<f64>,
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// `outs[thread][phase]`, every thread having walked `phases`.
pub fn summarise(phases: &[Phase], outs: &[Vec<PhaseOut>]) -> Summary {
    let (mut rates, mut traced_rates, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let (mut latency, mut garbage) = (Recorder::new(), Recorder::new());
    let mut garbage_windows = Vec::new();
    let mut measured_ops = 0;
    for (p, phase) in phases.iter().enumerate().filter(|(_, ph)| ph.measured) {
        let ops: u64 = outs.iter().map(|t| t[p].ops).sum();
        // Loaders cross a phase edge a few hundred ops apart, so each
        // contributes its own rate over its own elapsed time.
        let rate: f64 = outs
            .iter()
            .map(|t| t[p].ops as f64 * 1e9 / (t[p].end.t_ns - t[p].begin.t_ns) as f64)
            .sum();
        measured_ops += ops;
        if phase.traced {
            traced_rates.push(rate);
            continue;
        }
        rates.push(rate);
        cpus.push((outs[0][p].end.cpu_ns - outs[0][p].begin.cpu_ns) as f64 / 1e3 / ops as f64);
        let mut window = Recorder::new();
        for t in outs {
            latency.merge(&t[p].latency);
            window.merge(&t[p].garbage);
        }
        garbage.merge(&window);
        garbage_windows.push(window);
    }
    let measured = |p: &(usize, &Phase)| p.1.measured;
    let first = phases
        .iter()
        .enumerate()
        .find(measured)
        .expect("no measured phase")
        .0;
    let last = phases
        .iter()
        .enumerate()
        .rfind(measured)
        .expect("no measured phase")
        .0;
    Summary {
        ops_per_s: median(&mut rates.clone()),
        window_rates: rates,
        cpu_us_per_op: median(&mut cpus),
        latency,
        garbage,
        garbage_windows,
        measured_ops,
        first: outs[0][first].begin,
        last: outs[0][last].end,
        traced_ops_per_s: if traced_rates.is_empty() {
            0.0
        } else {
            median(&mut traced_rates)
        },
    }
}

/// A percentile the report needs; a refusal ends the run without a result.
pub fn require(r: &Recorder, p: f64, what: &str) -> u64 {
    r.percentile(p)
        .unwrap_or_else(|TooFewSamples { samples, beyond }| {
            eprintln!(
                "error: {what} p{:.0} refused: {samples} samples leave {beyond} beyond it, \
             {} needed; run longer",
                p * 100.0,
                crate::recorder::MIN_TAIL_SAMPLES
            );
            std::process::exit(2)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_shapes() {
        let p = plan(12, false);
        assert_eq!(p.len(), 5);
        assert!(!p[0].measured && p[0].len_ns == WARMUP_NS);
        assert!(p[1..]
            .iter()
            .all(|w| w.measured && !w.traced && w.len_ns == 3_000_000_000));
        let t = plan(12, true);
        assert_eq!(t.iter().filter(|w| w.traced).count(), 2);
        assert!(t[1..].iter().all(|w| w.len_ns == 1_500_000_000));
        assert!(!t[1].traced && !t[2].traced && t[3].traced && t[4].traced);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn out(ops: u64, t0: u64, t1: u64, cpu0: u64, cpu1: u64, lat: u64) -> PhaseOut {
        let mut latency = Recorder::new();
        latency.record(lat);
        PhaseOut {
            ops,
            begin: Snap {
                t_ns: t0,
                cpu_ns: cpu0,
                ..Snap::default()
            },
            end: Snap {
                t_ns: t1,
                cpu_ns: cpu1,
                ..Snap::default()
            },
            latency,
            garbage: Recorder::new(),
        }
    }

    #[test]
    fn summary_takes_the_median_window_and_skips_warm_up() {
        let phases = [
            Phase {
                len_ns: 1,
                measured: false,
                traced: false,
            },
            Phase {
                len_ns: 1,
                measured: true,
                traced: false,
            },
            Phase {
                len_ns: 1,
                measured: true,
                traced: false,
            },
            Phase {
                len_ns: 1,
                measured: true,
                traced: true,
            },
        ];
        let s = 1_000_000_000;
        let thread = |scale: u64| {
            vec![
                out(999, 0, s, 0, 0, 1),
                out(100 * scale, s, 2 * s, 0, 2_000_000, 10),
                out(300 * scale, 2 * s, 3 * s, 2_000_000, 4_000_000, 30),
                out(50 * scale, 3 * s, 4 * s, 0, 0, 70),
            ]
        };
        let sum = summarise(&phases, &[thread(1), thread(1)]);
        assert_eq!(sum.ops_per_s, 400.0); // median of 200 and 600
        assert_eq!(sum.traced_ops_per_s, 100.0);
        assert_eq!(sum.measured_ops, 900);
        assert_eq!(sum.latency.count(), 4); // two threads × two untraced windows
        assert_eq!(sum.garbage_windows.len(), 2);
        // 2 ms CPU over 200 ops and over 600 ops: 10 and 3.33 µs/op.
        assert!((sum.cpu_us_per_op - (10.0 + 10.0 / 3.0) / 2.0).abs() < 1e-9);
        assert_eq!((sum.first.t_ns, sum.last.t_ns), (s, 4 * s));
    }
}
