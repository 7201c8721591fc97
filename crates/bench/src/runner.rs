//! The scenario runner: prefill, warmup, timed mixed workload, metric
//! collection.
//!
//! The measured hot loop is deliberately lean (see DESIGN.md §3 "Workload
//! engine"): key draws come from a precomputed [`ZipfSampler`] (one RNG
//! call, at most one table lookup, no division), operation selection from a
//! precomputed [`OpMix`] table (one RNG call, one 256-entry lookup, no
//! modulo), and latency recording writes into a thread-local stack array
//! (no allocation, no shared-cacheline traffic). Worker threads are pinned
//! round-robin.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use smr_common::time::mono_ns;
use smr_common::ConcurrentMap;

use crate::config::{cores, Ds, Scenario, Scheme};
use crate::metrics::{LatencyHistogram, Sampler, Stats};
use crate::workload::{pin_thread, Op, OpMix, ZipfSampler};

/// Phase machine paced by the main thread: warmup → measure → stop.
pub(crate) const PHASE_WARMUP: u8 = 0;
pub(crate) const PHASE_MEASURE: u8 = 1;
pub(crate) const PHASE_STOP: u8 = 2;

/// Fill to 50% with evenly spread keys, in parallel, in *random order* —
/// sorted insertion would degenerate the unbalanced external BSTs.
fn prefill<M>(map: &M, key_range: u64)
where
    M: ConcurrentMap<u64, u64> + Send + Sync,
{
    let fillers = cores().min(8) as u64;
    std::thread::scope(|s| {
        for f in 0..fillers {
            let map = &map;
            s.spawn(move || {
                let mut h = map.handle();
                let mut keys: Vec<u64> = (0..key_range)
                    .step_by(2)
                    .skip(f as usize)
                    .step_by(fillers as usize)
                    .collect();
                let mut rng = SmallRng::seed_from_u64(0xF111 ^ f);
                // Fisher–Yates shuffle.
                for i in (1..keys.len()).rev() {
                    keys.swap(i, rng.gen_range(0..=i));
                }
                for k in keys {
                    map.insert(&mut h, k, k);
                }
            });
        }
    });
}

/// Lists only (Fig. 10): descending keys insert at the head, making the
/// huge prefill O(n) instead of O(n^2).
fn prefill_descending<M: ConcurrentMap<u64, u64>>(map: &M, key_range: u64) {
    let mut h = map.handle();
    let mut k = key_range & !1;
    while k >= 2 {
        k -= 2;
        map.insert(&mut h, k, k);
    }
}

/// Paces warmup → measure → stop from the scope's main thread; returns
/// (elapsed measured seconds, (peak garbage, avg garbage, peak RSS), PEBR
/// ejections in the measured window).
///
/// The garbage/RSS sampler only runs during the measurement window, so
/// warmup churn does not pollute the peak columns.
fn pace_phases(
    phase: &AtomicU8,
    warmup: Duration,
    duration: Duration,
) -> (f64, (u64, u64, u64), u64) {
    std::thread::sleep(warmup);
    phase.store(PHASE_MEASURE, Relaxed);
    let ejected = pebr::default_collector().ejections();
    let sampler = Sampler::start(Duration::from_millis(10));
    let started = Instant::now();
    std::thread::sleep(duration);
    phase.store(PHASE_STOP, Relaxed);
    let elapsed = started.elapsed().as_secs_f64();
    let ejected = pebr::default_collector().ejections() - ejected;
    (elapsed, sampler.finish(), ejected)
}

/// Runs one scenario against a concrete map type: `sc.threads` measured
/// workers replay the scenario's operation mix.
///
/// In long-running mode (Fig. 10) the measured workers issue `get`s only,
/// over the whole (large) key range, while the same number of unmeasured
/// writers churn insert/remove over a small hot region near the head;
/// throughput and latency percentiles count completed reads only.
pub fn run_map<M>(sc: &Scenario) -> Stats
where
    M: ConcurrentMap<u64, u64> + Send + Sync,
{
    let map = M::new();
    // A long read must not run 63 more times past the stop flag, so the
    // phase is re-checked per operation there and per 64 otherwise.
    let (mix, batch) = if sc.long_running {
        prefill_descending(&map, sc.key_range);
        (OpMix::new(100, 0, 0), 1)
    } else {
        prefill(&map, sc.key_range);
        (OpMix::for_workload(sc.workload), 64)
    };

    let keys = ZipfSampler::new(sc.key_range, sc.zipf_theta);
    let phase = AtomicU8::new(PHASE_WARMUP);
    let total_ops = AtomicU64::new(0);
    let latencies = Mutex::new(LatencyHistogram::new());
    let mut elapsed = 0.0f64;
    let mut garbage = (0u64, 0u64, 0u64);
    let mut ejections = 0u64;

    std::thread::scope(|s| {
        for tid in 0..sc.threads {
            let map = &map;
            let keys = &keys;
            let mix = &mix;
            let phase = &phase;
            let total_ops = &total_ops;
            let latencies = &latencies;
            s.spawn(move || {
                pin_thread(tid);
                let mut h = map.handle();
                let mut rng = SmallRng::seed_from_u64(0x5EED ^ tid as u64);
                let mut apply = |op: Op, key: u64| match op {
                    Op::Get => {
                        std::hint::black_box(map.get(&mut h, &key));
                    }
                    Op::Insert => {
                        std::hint::black_box(map.insert(&mut h, key, key));
                    }
                    Op::Remove => {
                        std::hint::black_box(map.remove(&mut h, &key));
                    }
                };
                // Warmup: same op stream, nothing recorded.
                while phase.load(Relaxed) == PHASE_WARMUP {
                    for _ in 0..batch {
                        let key = keys.sample(&mut rng);
                        apply(mix.pick(rng.next_u64()), key);
                    }
                }
                // Measured hot loop: no division/modulo for key or op
                // selection, no allocation, latency into a stack-local
                // histogram.
                let mut ops = 0u64;
                let mut hist = LatencyHistogram::new();
                while phase.load(Relaxed) != PHASE_STOP {
                    for _ in 0..batch {
                        let key = keys.sample(&mut rng);
                        let op = mix.pick(rng.next_u64());
                        let t0 = mono_ns();
                        apply(op, key);
                        hist.record(mono_ns().saturating_sub(t0));
                        ops += 1;
                    }
                }
                total_ops.fetch_add(ops, Relaxed);
                latencies.lock().expect("histogram lock").merge(&hist);
            });
        }
        for tid in 0..if sc.long_running { sc.threads } else { 0 } {
            let map = &map;
            let phase = &phase;
            s.spawn(move || {
                pin_thread(sc.threads + tid);
                let mut h = map.handle();
                let mut rng = SmallRng::seed_from_u64(0xF00D ^ tid as u64);
                while phase.load(Relaxed) != PHASE_STOP {
                    // Head churn: push/pop small keys to force reclamation.
                    let key = rng.gen_range(0..64);
                    map.insert(&mut h, key, key);
                    map.remove(&mut h, &key);
                }
            });
        }
        (elapsed, garbage, ejections) = pace_phases(&phase, sc.warmup, sc.duration);
    });
    let ops = total_ops.load(Relaxed);
    if ejections > 0 {
        // Each ejection restarts a PEBR operation: per completed operation,
        // they tell a Fig. 10 slowdown from restarts apart from one from
        // slower steps.
        eprintln!(
            "# pebr ejections: {ejections} in the measured window, {:.5} per completed op",
            ejections as f64 / ops.max(1) as f64
        );
    }

    let (peak_garbage, avg_garbage, peak_rss) = garbage;
    let hist = latencies.into_inner().expect("histogram lock");
    Stats {
        throughput_mops: ops as f64 / elapsed / 1e6,
        peak_garbage,
        avg_garbage,
        peak_rss_mb: peak_rss as f64 / (1024.0 * 1024.0),
        p50_ns: hist.percentile_ns(0.50),
        p90_ns: hist.percentile_ns(0.90),
        p99_ns: hist.percentile_ns(0.99),
        p999_ns: hist.percentile_ns(0.999),
    }
}

/// [`run_map`] monomorphised for one (structure × scheme) pair.
type Runner = fn(&Scenario) -> Stats;

/// The concrete type behind a (structure, scheme) pair, or `None` where the
/// pair is not implemented: the paper's inapplicability results (Table 2)
/// plus the RC trees the paper omits.
fn runner_for(ds: Ds, scheme: Scheme) -> Option<Runner> {
    use ds::bag::BagMap;
    use ds::hash_map::HashMap;
    use ds::{cdrc, guarded, hp as dshp, hpp};

    // `$ty` with `$s` bound to each scheme that fields `ds::guarded`.
    macro_rules! guarded {
        ($s:ident => $ty:ty) => {
            match scheme {
                Scheme::Nr => {
                    type $s = nr::Nr;
                    run_map::<$ty> as Runner
                }
                Scheme::Ebr => {
                    type $s = ebr::Ebr;
                    run_map::<$ty>
                }
                Scheme::Pebr => {
                    type $s = pebr::Pebr;
                    run_map::<$ty>
                }
                Scheme::Hyaline => {
                    type $s = hyaline::Hyaline;
                    run_map::<$ty>
                }
                _ => return None,
            }
        };
    }

    Some(match (ds, scheme) {
        (Ds::HMList, Scheme::Hp) => run_map::<dshp::HMList<u64, u64>>,
        (Ds::HMList, Scheme::Hpp) => run_map::<hpp::HMList<u64, u64>>,
        (Ds::HMList, Scheme::Rc) => run_map::<cdrc::HMList<u64, u64>>,
        (Ds::HMList, _) => guarded!(S => guarded::HMList<u64, u64, S>),
        // HP cannot protect optimistic traversal (§2.3): no HP row for
        // HHSList or NMTree. CDRC is implemented for the list-shaped
        // structures only (the paper also omits the RC trees).
        (Ds::HHSList, Scheme::Hpp) => run_map::<hpp::HHSList<u64, u64>>,
        (Ds::HHSList, Scheme::Rc) => run_map::<cdrc::HHSList<u64, u64>>,
        (Ds::HHSList, _) => guarded!(S => guarded::HHSList<u64, u64, S>),
        // Paper §5: HMList buckets for HP, HHSList buckets otherwise.
        (Ds::HashMap, Scheme::Hp) => run_map::<dshp::HashMap<u64, u64>>,
        (Ds::HashMap, Scheme::Hpp) => run_map::<hpp::HashMap<u64, u64>>,
        (Ds::HashMap, Scheme::Rc) => run_map::<HashMap<u64, u64, cdrc::HHSList<u64, u64>>>,
        (Ds::HashMap, _) => guarded!(S => HashMap<u64, u64, guarded::HHSList<u64, u64, S>>),
        (Ds::SkipList, Scheme::Hp) => run_map::<dshp::SkipList<u64, u64>>,
        (Ds::SkipList, Scheme::Hpp) => run_map::<hpp::SkipList<u64, u64>>,
        (Ds::SkipList, _) => guarded!(S => guarded::SkipList<u64, u64, S>),
        (Ds::NMTree, Scheme::Hpp) => run_map::<hpp::NMTree<u64, u64>>,
        (Ds::NMTree, _) => guarded!(S => guarded::NMTree<u64, u64, S>),
        (Ds::EFRBTree, Scheme::Hp) => run_map::<dshp::EFRBTree<u64, u64>>,
        (Ds::EFRBTree, Scheme::Hpp) => run_map::<hpp::EFRBTree<u64, u64>>,
        (Ds::EFRBTree, _) => guarded!(S => guarded::EFRBTree<u64, u64, S>),
        (Ds::BonsaiTree, Scheme::Hp) => run_map::<dshp::BonsaiTree<u64, u64>>,
        (Ds::BonsaiTree, Scheme::Hpp) => run_map::<hpp::BonsaiTree<u64, u64>>,
        (Ds::BonsaiTree, _) => guarded!(S => guarded::BonsaiTree<u64, u64, S>),
        // Bags: the stack is HP-family only; MSQueue has HP and the guarded
        // flavors.
        (Ds::Stack, Scheme::Hp) => run_map::<BagMap<dshp::TreiberStack<u64>>>,
        (Ds::Stack, Scheme::Hpp) => run_map::<BagMap<hpp::TreiberStack<u64>>>,
        (Ds::Stack, _) => return None,
        (Ds::Queue, Scheme::Hp) => run_map::<BagMap<dshp::MSQueue<u64>>>,
        (Ds::Queue, _) => guarded!(S => BagMap<guarded::MSQueue<u64, S>>),
    })
}

/// Is this (structure, scheme) pair implemented?
pub fn applicable(ds: Ds, scheme: Scheme) -> bool {
    runner_for(ds, scheme).is_some()
}

/// Dispatches a scenario to the concrete (structure × scheme) type.
/// Returns `None` for inapplicable pairs.
pub fn run(sc: &Scenario) -> Option<Stats> {
    runner_for(sc.ds, sc.scheme).map(|run| run(sc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Workload;
    use std::time::Duration;

    /// Table-driven encoding of the paper's Table 2 inapplicability gaps:
    /// HP cannot field the optimistic-traversal structures, and CDRC is
    /// implemented only for the list-shaped ones (matching the paper's own
    /// RC omissions). Everything else must stay applicable.
    #[test]
    fn applicable_matches_paper_table2() {
        let gaps = [
            (Ds::HHSList, Scheme::Hp),
            (Ds::NMTree, Scheme::Hp),
            (Ds::SkipList, Scheme::Rc),
            (Ds::NMTree, Scheme::Rc),
            (Ds::EFRBTree, Scheme::Rc),
            (Ds::BonsaiTree, Scheme::Rc),
        ];
        for ds in Ds::ALL {
            for scheme in Scheme::ALL {
                let expected = !gaps.contains(&(ds, scheme));
                assert_eq!(
                    applicable(ds, scheme),
                    expected,
                    "({ds}, {scheme}) should be {}",
                    if expected { "applicable" } else { "a gap" }
                );
            }
        }
        // The headline asymmetry: HP++ covers every structure.
        assert!(Ds::ALL.iter().all(|&ds| applicable(ds, Scheme::Hpp)));
    }

    /// The bag structures have their own applicability rules: the stack is
    /// HP-family only, MSQueue adds the guarded schemes.
    #[test]
    fn bag_applicability_rules() {
        for scheme in Scheme::ALL {
            let stackish = matches!(scheme, Scheme::Hp | Scheme::Hpp);
            assert_eq!(applicable(Ds::Stack, scheme), stackish);
            assert_eq!(
                applicable(Ds::Queue, scheme),
                matches!(
                    scheme,
                    Scheme::Hp | Scheme::Nr | Scheme::Ebr | Scheme::Pebr | Scheme::Hyaline
                )
            );
        }
    }

    /// Bag smoke runs: drive a stack and a queue through the standard
    /// workload engine under a write-heavy mix.
    #[test]
    fn bag_smoke_runs() {
        for (ds, scheme) in [(Ds::Stack, Scheme::Hp), (Ds::Queue, Scheme::Ebr)] {
            let ms = Duration::from_millis;
            let sc = Scenario::new(ds, scheme, 2, 64, Workload::WriteOnly, ms(40));
            let sc = Scenario {
                warmup: ms(10),
                ..sc
            };
            let stats = run(&sc).expect("bag pair must be applicable");
            assert!(
                stats.throughput_mops > 0.0,
                "{ds}/{scheme} must make progress"
            );
        }
    }

    /// End-to-end smoke run exercising warmup, skewed keys, and the latency
    /// pipeline on the cheapest scheme.
    #[test]
    fn mixed_run_reports_latency_percentiles() {
        let ms = Duration::from_millis;
        let sc = Scenario {
            zipf_theta: 0.99,
            warmup: ms(20),
            ..Scenario::new(Ds::HMList, Scheme::Ebr, 2, 64, Workload::ReadWrite, ms(60))
        };
        let stats = run(&sc).expect("ebr applies to hmlist");
        assert!(stats.throughput_mops > 0.0);
        assert!(stats.p50_ns > 0, "median latency must be recorded");
        assert!(stats.p50_ns <= stats.p90_ns);
        assert!(stats.p90_ns <= stats.p99_ns);
        assert!(stats.p99_ns <= stats.p999_ns);
    }
}
