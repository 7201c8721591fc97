//! The scenario runner: prefill, warmup, timed mixed workload, metric
//! collection.
//!
//! The measured hot loop is deliberately lean (see DESIGN.md §3 "Workload
//! engine"): key draws come from a precomputed [`ZipfSampler`] (one RNG
//! call, at most one table lookup, no division), operation selection from a
//! precomputed [`OpMix`] table (one RNG call, one 256-entry lookup, no
//! modulo), and latency recording writes into a thread-local stack array
//! (no allocation, no shared-cacheline traffic). Worker threads are pinned
//! round-robin unless `SMR_NO_PIN=1`.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use smr_common::time::mono_ns;
use smr_common::ConcurrentMap;

use crate::config::{Ds, Scenario, Scheme};
use crate::metrics::{LatencyHistogram, Sampler, Stats};
use crate::workload::{pin_thread, Op, OpMix, ZipfSampler};

/// Phase machine paced by the main thread: warmup → measure → stop.
const PHASE_WARMUP: u8 = 0;
const PHASE_MEASURE: u8 = 1;
const PHASE_STOP: u8 = 2;

/// Runs one scenario against a concrete map type.
pub fn run_map<M>(sc: &Scenario) -> Stats
where
    M: ConcurrentMap<u64, u64> + Send + Sync,
{
    if sc.long_running {
        run_long_running::<M>(sc)
    } else {
        run_mixed::<M>(sc)
    }
}

fn prefill<M>(map: &M, key_range: u64)
where
    M: ConcurrentMap<u64, u64> + Send + Sync,
{
    // Fill to 50% with evenly spread keys, in parallel, in *random order* —
    // sorted insertion would degenerate the unbalanced external BSTs.
    let fillers = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4) as u64;
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

/// Paces warmup → measure → stop from the scope's main thread; returns
/// (elapsed measured seconds, (peak garbage, avg garbage, peak RSS)).
///
/// The garbage/RSS sampler only runs during the measurement window, so
/// warmup churn does not pollute the peak columns.
fn pace_phases(phase: &AtomicU8, warmup: Duration, duration: Duration) -> (f64, (u64, u64, u64)) {
    std::thread::sleep(warmup);
    phase.store(PHASE_MEASURE, Relaxed);
    let sampler = Sampler::start(Duration::from_millis(10));
    let started = Instant::now();
    std::thread::sleep(duration);
    phase.store(PHASE_STOP, Relaxed);
    let elapsed = started.elapsed().as_secs_f64();
    (elapsed, sampler.finish())
}

fn run_mixed<M>(sc: &Scenario) -> Stats
where
    M: ConcurrentMap<u64, u64> + Send + Sync,
{
    let map = M::new();
    prefill(&map, sc.key_range);

    let keys = ZipfSampler::new(sc.key_range, sc.zipf_theta);
    let mix = OpMix::for_workload(sc.workload);
    let phase = AtomicU8::new(PHASE_WARMUP);
    let total_ops = AtomicU64::new(0);
    let latencies = Mutex::new(LatencyHistogram::new());
    let mut elapsed = 0.0f64;
    let mut garbage = (0u64, 0u64, 0u64);

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
                // Warmup: same op stream, nothing recorded.
                while phase.load(Relaxed) == PHASE_WARMUP {
                    for _ in 0..64 {
                        let key = keys.sample(&mut rng);
                        match mix.pick(rng.next_u64()) {
                            Op::Get => {
                                std::hint::black_box(map.get(&mut h, &key));
                            }
                            Op::Insert => {
                                std::hint::black_box(map.insert(&mut h, key, key));
                            }
                            Op::Remove => {
                                std::hint::black_box(map.remove(&mut h, &key));
                            }
                        }
                    }
                }
                // Measured hot loop: no division/modulo for key or op
                // selection, no allocation, latency into a stack-local
                // histogram.
                let mut ops = 0u64;
                let mut hist = LatencyHistogram::new();
                while phase.load(Relaxed) != PHASE_STOP {
                    for _ in 0..64 {
                        let key = keys.sample(&mut rng);
                        let op = mix.pick(rng.next_u64());
                        let t0 = mono_ns();
                        match op {
                            Op::Get => {
                                std::hint::black_box(map.get(&mut h, &key));
                            }
                            Op::Insert => {
                                std::hint::black_box(map.insert(&mut h, key, key));
                            }
                            Op::Remove => {
                                std::hint::black_box(map.remove(&mut h, &key));
                            }
                        }
                        hist.record(mono_ns().saturating_sub(t0));
                        ops += 1;
                    }
                }
                total_ops.fetch_add(ops, Relaxed);
                latencies.lock().expect("histogram lock").merge(&hist);
            });
        }
        (elapsed, garbage) = pace_phases(&phase, sc.warmup, sc.duration);
    });

    let (peak_garbage, avg_garbage, peak_rss) = garbage;
    let hist = latencies.into_inner().expect("histogram lock");
    Stats {
        throughput_mops: total_ops.load(Relaxed) as f64 / elapsed / 1e6,
        peak_garbage,
        avg_garbage,
        peak_rss_mb: peak_rss as f64 / (1024.0 * 1024.0),
        p50_ns: hist.percentile_ns(0.50),
        p90_ns: hist.percentile_ns(0.90),
        p99_ns: hist.percentile_ns(0.99),
        p999_ns: hist.percentile_ns(0.999),
    }
}

/// Fig. 10: long-running read operations under heavy reclamation.
/// `sc.threads` readers issue `get`s over the whole (large) key range while
/// the same number of writers churn insert/remove over a small hot region
/// near the head. Throughput and latency percentiles count completed reads
/// only.
fn run_long_running<M>(sc: &Scenario) -> Stats
where
    M: ConcurrentMap<u64, u64> + Send + Sync,
{
    let map = M::new();
    // Lists only (Fig. 10): descending keys insert at the head, making the
    // huge prefill O(n) instead of O(n^2).
    {
        let mut h = map.handle();
        let mut k = sc.key_range & !1;
        while k >= 2 {
            k -= 2;
            map.insert(&mut h, k, k);
        }
    }

    let keys = ZipfSampler::new(sc.key_range, sc.zipf_theta);
    let phase = AtomicU8::new(PHASE_WARMUP);
    let read_ops = AtomicU64::new(0);
    let latencies = Mutex::new(LatencyHistogram::new());
    let mut elapsed = 0.0f64;
    let mut garbage = (0u64, 0u64, 0u64);

    std::thread::scope(|s| {
        for tid in 0..sc.threads {
            let map = &map;
            let keys = &keys;
            let phase = &phase;
            let read_ops = &read_ops;
            let latencies = &latencies;
            s.spawn(move || {
                pin_thread(tid);
                let mut h = map.handle();
                let mut rng = SmallRng::seed_from_u64(0xBEEF ^ tid as u64);
                while phase.load(Relaxed) == PHASE_WARMUP {
                    let key = keys.sample(&mut rng);
                    std::hint::black_box(map.get(&mut h, &key));
                }
                let mut ops = 0u64;
                let mut hist = LatencyHistogram::new();
                while phase.load(Relaxed) != PHASE_STOP {
                    let key = keys.sample(&mut rng);
                    let t0 = mono_ns();
                    std::hint::black_box(map.get(&mut h, &key));
                    hist.record(mono_ns().saturating_sub(t0));
                    ops += 1;
                }
                read_ops.fetch_add(ops, Relaxed);
                latencies.lock().expect("histogram lock").merge(&hist);
            });
        }
        for tid in 0..sc.threads {
            let map = &map;
            let phase = &phase;
            let writer_slot = sc.threads + tid;
            s.spawn(move || {
                pin_thread(writer_slot);
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
        (elapsed, garbage) = pace_phases(&phase, sc.warmup, sc.duration);
    });

    let (peak_garbage, avg_garbage, peak_rss) = garbage;
    let hist = latencies.into_inner().expect("histogram lock");
    Stats {
        throughput_mops: read_ops.load(Relaxed) as f64 / elapsed / 1e6,
        peak_garbage,
        avg_garbage,
        peak_rss_mb: peak_rss as f64 / (1024.0 * 1024.0),
        p50_ns: hist.percentile_ns(0.50),
        p90_ns: hist.percentile_ns(0.90),
        p99_ns: hist.percentile_ns(0.99),
        p999_ns: hist.percentile_ns(0.999),
    }
}

/// Is this (structure, scheme) pair implemented? The gaps are the paper's
/// inapplicability results (Table 2) plus the RC trees the paper omits.
pub fn applicable(ds: Ds, scheme: Scheme) -> bool {
    match (ds, scheme) {
        // HP cannot protect optimistic traversal (§2.3).
        (Ds::HHSList, Scheme::Hp) | (Ds::NMTree, Scheme::Hp) => false,
        // CDRC implemented for the list-shaped structures (the paper also
        // omits the RC trees).
        (Ds::SkipList | Ds::NMTree | Ds::EFRBTree | Ds::BonsaiTree, Scheme::Rc) => false,
        // Bags: the stack is HP-family only; MSQueue additionally has a
        // guarded flavor.
        (Ds::Stack, s) => matches!(s, Scheme::Hp | Scheme::Hpp),
        (Ds::Queue, s) => matches!(
            s,
            Scheme::Hp | Scheme::Nr | Scheme::Ebr | Scheme::Pebr | Scheme::Hyaline
        ),
        _ => true,
    }
}

/// Dispatches a scenario to the concrete (structure × scheme) type.
/// Returns `None` for inapplicable pairs.
pub fn run(sc: &Scenario) -> Option<Stats> {
    use ds::bag::BagMap;
    use ds::guarded;
    use ds::hp as dshp;
    use ds::hpp;

    if !applicable(sc.ds, sc.scheme) {
        return None;
    }

    macro_rules! guarded4 {
        ($list:ident) => {
            match sc.scheme {
                Scheme::Nr => Some(run_map::<guarded::$list<u64, u64, nr::Nr>>(sc)),
                Scheme::Ebr => Some(run_map::<guarded::$list<u64, u64, ebr::Ebr>>(sc)),
                Scheme::Pebr => Some(run_map::<guarded::$list<u64, u64, pebr::Pebr>>(sc)),
                Scheme::Hyaline => {
                    Some(run_map::<guarded::$list<u64, u64, hyaline::Hyaline>>(sc))
                }
                _ => None,
            }
        };
    }

    match sc.ds {
        Ds::HMList => guarded4!(HMList).or_else(|| match sc.scheme {
            Scheme::Hp => Some(run_map::<dshp::HMList<u64, u64>>(sc)),
            Scheme::Hpp => Some(run_map::<hpp::HMList<u64, u64>>(sc)),
            Scheme::Rc => Some(run_map::<ds::cdrc::HMList<u64, u64>>(sc)),
            _ => None,
        }),
        Ds::HHSList => guarded4!(HHSList).or_else(|| match sc.scheme {
            Scheme::Hpp => Some(run_map::<hpp::HHSList<u64, u64>>(sc)),
            Scheme::Rc => Some(run_map::<ds::cdrc::HHSList<u64, u64>>(sc)),
            _ => None,
        }),
        Ds::HashMap => match sc.scheme {
            // Paper §5: HMList buckets for HP, HHSList buckets otherwise.
            Scheme::Nr => Some(run_map::<
                ds::hash_map::HashMap<u64, u64, guarded::HHSList<u64, u64, nr::Nr>>,
            >(sc)),
            Scheme::Ebr => Some(run_map::<
                ds::hash_map::HashMap<u64, u64, guarded::HHSList<u64, u64, ebr::Ebr>>,
            >(sc)),
            Scheme::Pebr => Some(run_map::<
                ds::hash_map::HashMap<u64, u64, guarded::HHSList<u64, u64, pebr::Pebr>>,
            >(sc)),
            Scheme::Hp => Some(run_map::<dshp::HashMap<u64, u64>>(sc)),
            Scheme::Hpp => Some(run_map::<hpp::HashMap<u64, u64>>(sc)),
            Scheme::Rc => Some(run_map::<
                ds::hash_map::HashMap<u64, u64, ds::cdrc::HHSList<u64, u64>>,
            >(sc)),
            Scheme::Hyaline => Some(run_map::<
                ds::hash_map::HashMap<u64, u64, guarded::HHSList<u64, u64, hyaline::Hyaline>>,
            >(sc)),
        },
        Ds::SkipList => guarded4!(SkipList).or_else(|| match sc.scheme {
            Scheme::Hp => Some(run_map::<dshp::SkipList<u64, u64>>(sc)),
            Scheme::Hpp => Some(run_map::<hpp::SkipList<u64, u64>>(sc)),
            _ => None,
        }),
        Ds::NMTree => guarded4!(NMTree).or_else(|| match sc.scheme {
            Scheme::Hpp => Some(run_map::<hpp::NMTree<u64, u64>>(sc)),
            _ => None,
        }),
        Ds::EFRBTree => guarded4!(EFRBTree).or_else(|| match sc.scheme {
            Scheme::Hp => Some(run_map::<dshp::EFRBTree<u64, u64>>(sc)),
            Scheme::Hpp => Some(run_map::<hpp::EFRBTree<u64, u64>>(sc)),
            _ => None,
        }),
        Ds::BonsaiTree => guarded4!(BonsaiTree).or_else(|| match sc.scheme {
            Scheme::Hp => Some(run_map::<dshp::BonsaiTree<u64, u64>>(sc)),
            Scheme::Hpp => Some(run_map::<hpp::BonsaiTree<u64, u64>>(sc)),
            _ => None,
        }),
        Ds::Stack => match sc.scheme {
            Scheme::Hp => Some(run_map::<BagMap<dshp::TreiberStack<u64>>>(sc)),
            Scheme::Hpp => Some(run_map::<BagMap<hpp::TreiberStack<u64>>>(sc)),
            _ => None,
        },
        Ds::Queue => match sc.scheme {
            Scheme::Hp => Some(run_map::<BagMap<dshp::MSQueue<u64>>>(sc)),
            Scheme::Nr => Some(run_map::<BagMap<guarded::MSQueue<u64, nr::Nr>>>(sc)),
            Scheme::Ebr => Some(run_map::<BagMap<guarded::MSQueue<u64, ebr::Ebr>>>(sc)),
            Scheme::Pebr => Some(run_map::<BagMap<guarded::MSQueue<u64, pebr::Pebr>>>(sc)),
            Scheme::Hyaline => {
                Some(run_map::<BagMap<guarded::MSQueue<u64, hyaline::Hyaline>>>(sc))
            }
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let sc = Scenario {
                ds,
                scheme,
                threads: 2,
                key_range: 64,
                workload: crate::config::Workload::WriteOnly,
                zipf_theta: 0.0,
                warmup: Duration::from_millis(10),
                duration: Duration::from_millis(40),
                long_running: false,
            };
            let stats = run(&sc).expect("bag pair must be applicable");
            assert!(stats.throughput_mops > 0.0, "{ds}/{scheme} must make progress");
        }
    }

    /// End-to-end smoke run exercising warmup, skewed keys, and the latency
    /// pipeline on the cheapest scheme.
    #[test]
    fn mixed_run_reports_latency_percentiles() {
        let sc = Scenario {
            ds: Ds::HMList,
            scheme: Scheme::Ebr,
            threads: 2,
            key_range: 64,
            workload: crate::config::Workload::ReadWrite,
            zipf_theta: 0.99,
            warmup: Duration::from_millis(20),
            duration: Duration::from_millis(60),
            long_running: false,
        };
        let stats = run(&sc).expect("ebr applies to hmlist");
        assert!(stats.throughput_mops > 0.0);
        assert!(stats.p50_ns > 0, "median latency must be recorded");
        assert!(stats.p50_ns <= stats.p90_ns);
        assert!(stats.p90_ns <= stats.p99_ns);
        assert!(stats.p99_ns <= stats.p999_ns);
    }
}
