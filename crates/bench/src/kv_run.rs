//! The sharded KV service benchmark: the runner and the `kv` sweep.
//!
//! Drives [`kv_service::KvService`] with the PR-2 workload engine: client
//! threads sample keys from a Zipfian distribution, pick operations from an
//! [`OpMix`], and keep a pipeline of commands in flight per window so the
//! shard workers actually batch. Latency is measured client-side
//! (submit → reply, through the ring and doorbell) into log₂ histograms;
//! throughput is measured worker-side from per-shard op counters sampled at
//! the phase edges, so the reported Mops/s covers exactly the measure
//! window.
//!
//! [`sweep`] (`smr_bench kv [--quick]`) runs two sweeps over the read-mostly
//! Zipfian scenario (90/5/5, θ = 0.99) and prints one CSV to stdout:
//!
//! * `scaling` — HP++ store at 1, ⌈max/2⌉, and `max` shards: the
//!   throughput-scaling headline (per-shard reclamation domains mean
//!   shards add capacity without sharing a collector bottleneck). `max`
//!   is 4, or `KV_SHARDS` when set;
//! * `schemes` — HP++ vs per-shard EBR vs per-shard hyaline vs NR at `max`
//!   shards: what the reclamation scheme costs end-to-end, through rings,
//!   batching, and the map itself.
//!
//! CSV columns: [`HEADER`] (see EXPERIMENTS.md).
//!
//! The scaling verdict (max-shard ÷ 1-shard throughput) goes to stderr with
//! the host's core count: on a 1-core host every shard multiplexes the
//! same CPU, so the ratio measures batching overhead, not scaling — the
//! ≥ 4-core claim in EXPERIMENTS.md must come from a ≥ 4-core host.
//! `--quick` shrinks windows and key range for CI smoke runs.

use std::sync::atomic::{AtomicU8, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

use kv_service::{available_cores, EbrStore, HppStore, HyalineStore, NrStore};
use kv_service::{Command, KvConfig, KvError, KvService, ShardStore};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use smr_common::time::mono_ns;

use crate::metrics::LatencyHistogram;
use crate::runner::{PHASE_MEASURE, PHASE_STOP, PHASE_WARMUP};
use crate::workload::{Op, OpMix, ZipfSampler};

/// One KV benchmark scenario.
#[derive(Debug, Clone)]
pub struct KvRun {
    /// Shard (and worker-thread) count.
    pub shards: usize,
    /// Client threads generating load.
    pub clients: usize,
    /// Commands each client keeps in flight per submit/drain window.
    pub pipeline: usize,
    /// Worker batch limit per wakeup (`KV_BATCH` equivalent).
    pub batch: usize,
    /// Per-shard command ring depth.
    pub ring_depth: usize,
    /// Key range; prefilled to 50% before the run.
    pub keys: u64,
    /// Zipfian skew (0.0 = uniform).
    pub theta: f64,
    /// Operation mix percentages; must sum to 100.
    pub read_pct: u32,
    /// Insert percentage.
    pub insert_pct: u32,
    /// Remove percentage.
    pub remove_pct: u32,
    /// Unmeasured warmup window.
    pub warmup: Duration,
    /// Measured window.
    pub duration: Duration,
}

impl KvRun {
    /// The paper-style read-mostly skewed scenario (90/5/5, θ = 0.99)
    /// over `shards` shards — the headline configuration — shrunk for
    /// smoke tests and CI runs if `quick`.
    pub fn read_mostly(shards: usize, quick: bool) -> Self {
        Self {
            shards,
            clients: if quick { 2 } else { 4 },
            pipeline: 16,
            batch: 32,
            ring_depth: 1024,
            keys: if quick { 8_192 } else { 65_536 },
            theta: 0.99,
            read_pct: 90,
            insert_pct: 5,
            remove_pct: 5,
            warmup: Duration::from_millis(if quick { 50 } else { 300 }),
            duration: Duration::from_millis(if quick { 300 } else { 1_500 }),
        }
    }
}

/// Aggregated result of one [`run_kv`] call.
#[derive(Debug, Clone, Copy)]
pub struct KvResult {
    /// Total throughput across shards over the measure window (Mops/s).
    pub total_mops: f64,
    /// Slowest shard's throughput (Mops/s) — imbalance floor.
    pub min_shard_mops: f64,
    /// Fastest shard's throughput (Mops/s) — imbalance ceiling.
    pub max_shard_mops: f64,
    /// Median submit→reply latency (ns, log₂-bucketed).
    pub p50_ns: u64,
    /// 99th percentile latency (ns).
    pub p99_ns: u64,
    /// 99.9th percentile latency (ns).
    pub p999_ns: u64,
    /// Highest per-shard peak of unreclaimed nodes over the whole run.
    pub peak_shard_garbage: u64,
    /// Client-side completed (and latency-sampled) ops in the window.
    pub measured_ops: u64,
    /// Ops that blew their per-op deadline (`KvError::DeadlineExceeded`)
    /// instead of completing — a wedged shard turns into timeout rows in
    /// the CSV, not a hung benchmark.
    pub timeouts: u64,
}

/// Runs one scenario against a fresh service and tears it down.
pub fn run_kv<S: ShardStore>(rc: &KvRun) -> KvResult {
    let svc = KvService::<S>::start(KvConfig {
        shards: rc.shards,
        batch: rc.batch,
        ring_depth: rc.ring_depth,
        // ~4 keys per bucket at 50% occupancy, floor of 64.
        buckets: ((rc.keys / 8).max(64) as usize).next_power_of_two(),
        ..KvConfig::new()
    });

    // Prefill to 50% occupancy (even keys) so reads split hit/miss the way
    // the fig8 scenarios do. Pipelined: replies don't occupy ring slots, so
    // submitting everything before one drain cannot deadlock.
    {
        let mut c = svc.client();
        for k in (0..rc.keys).step_by(2) {
            c.submit(Command::Put { key: k, value: k }).expect("prefill");
        }
        c.drain(|_, r| {
            r.expect("prefill reply");
        });
    }

    let zipf = Arc::new(ZipfSampler::new(rc.keys, rc.theta));
    let phase = Arc::new(AtomicU8::new(PHASE_WARMUP));

    let mut hist = LatencyHistogram::new();
    let mut timeouts = 0u64;
    let mut shard_mops: Vec<f64> = Vec::new();
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for tid in 0..rc.clients {
            let mut client = svc.client();
            let zipf = Arc::clone(&zipf);
            let phase = Arc::clone(&phase);
            joins.push(s.spawn(move || {
                let mix = OpMix::new(rc.read_pct, rc.insert_pct, rc.remove_pct);
                let mut rng = SmallRng::seed_from_u64(0x5EED ^ tid as u64);
                let mut hist = LatencyHistogram::new();
                let mut timeouts = 0u64;
                let mut t0 = vec![0u64; rc.pipeline];
                let mut lat = vec![0u64; rc.pipeline];
                loop {
                    let ph = phase.load(SeqCst);
                    if ph == PHASE_STOP {
                        break;
                    }
                    let mut n = 0;
                    while n < rc.pipeline {
                        let key = zipf.sample(&mut rng);
                        let cmd = match mix.pick(rng.next_u64()) {
                            Op::Get => Command::Get { key },
                            Op::Insert => Command::Put { key, value: key.wrapping_add(1) },
                            Op::Remove => Command::Del { key },
                        };
                        t0[n] = mono_ns();
                        match client.submit(cmd) {
                            Ok(()) => n += 1,
                            Err(KvError::DeadlineExceeded) => {
                                timeouts += 1;
                                break;
                            }
                            Err(_) => break,
                        }
                    }
                    client.drain(|i, r| {
                        if matches!(r, Err(KvError::DeadlineExceeded)) {
                            timeouts += 1;
                        }
                        lat[i] = mono_ns().saturating_sub(t0[i]);
                    });
                    if ph == PHASE_MEASURE {
                        for &l in &lat[..n] {
                            hist.record(l);
                        }
                    }
                    if n == 0 {
                        break; // shard down: nothing more to do
                    }
                }
                (hist, timeouts)
            }));
        }

        std::thread::sleep(rc.warmup);
        let start = svc.stats();
        let t_start = mono_ns();
        phase.store(PHASE_MEASURE, SeqCst);
        std::thread::sleep(rc.duration);
        phase.store(PHASE_STOP, SeqCst);
        let end = svc.stats();
        let elapsed_s = (mono_ns() - t_start) as f64 / 1e9;

        // saturating: a respawn between the phase edges resets that shard's
        // counters, so the end sample can sit below the start sample.
        shard_mops = start
            .iter()
            .zip(&end)
            .map(|(a, b)| b.ops.saturating_sub(a.ops) as f64 / elapsed_s / 1e6)
            .collect();
        for j in joins {
            let (h, t) = j.join().expect("kv client thread");
            hist.merge(&h);
            timeouts += t;
        }
    });

    let final_stats = svc.shutdown();
    let peak_shard_garbage = final_stats.iter().map(|s| s.peak_garbage).max().unwrap_or(0);

    KvResult {
        total_mops: shard_mops.iter().sum(),
        min_shard_mops: shard_mops.iter().copied().fold(f64::INFINITY, f64::min),
        max_shard_mops: shard_mops.iter().copied().fold(0.0, f64::max),
        p50_ns: hist.percentile_ns(0.50),
        p99_ns: hist.percentile_ns(0.99),
        p999_ns: hist.percentile_ns(0.999),
        peak_shard_garbage,
        measured_ops: hist.count(),
        timeouts,
    }
}

/// Column names of the `kv` CSV.
pub const HEADER: &str = "section,scheme,shards,clients,pipeline,batch,ring,keys,theta,read_pct,\
warmup_ms,duration_ms,total_mops,min_shard_mops,max_shard_mops,p50_ns,p99_ns,p999_ns,\
peak_shard_garbage";

fn row<S: ShardStore>(section: &str, rc: &KvRun) -> KvResult {
    eprintln!("kv: {section} {} x{} shards…", S::SCHEME, rc.shards);
    let r = run_kv::<S>(rc);
    let prefix = format!(
        "{section},{},{},{},{},{},{},{},{},{},{},{}",
        S::SCHEME,
        rc.shards,
        rc.clients,
        rc.pipeline,
        rc.batch,
        rc.ring_depth,
        rc.keys,
        rc.theta,
        rc.read_pct,
        rc.warmup.as_millis(),
        rc.duration.as_millis(),
    );
    let stats = if r.timeouts > 0 {
        // Ops blew their per-op deadline: the fig9 convention — keep the
        // full column schema but put `timeout` in every stat column, so
        // numeric consumers skip the row without losing which
        // configuration wedged (and the bench never hangs on it).
        eprintln!(
            "kv: {section} {} x{}: {} ops exceeded the op deadline",
            S::SCHEME,
            rc.shards,
            r.timeouts
        );
        ["timeout"; 7].join(",")
    } else {
        format!(
            "{:.4},{:.4},{:.4},{},{},{},{}",
            r.total_mops,
            r.min_shard_mops,
            r.max_shard_mops,
            r.p50_ns,
            r.p99_ns,
            r.p999_ns,
            r.peak_shard_garbage,
        )
    };
    println!("{prefix},{stats}");
    r
}

/// `smr_bench kv`: the scaling and scheme sweeps (module docs); the exit
/// code.
pub fn sweep(quick: bool) -> i32 {
    println!("{HEADER}");

    // The sweep's top shard count tracks the config: `KV_SHARDS` overrides
    // the default 4.
    let max_shards = smr_common::env::parse_usize("KV_SHARDS")
        .filter(|&n| n > 0)
        .unwrap_or(4);
    let mut shard_counts = vec![1usize, max_shards.div_ceil(2), max_shards];
    shard_counts.sort_unstable();
    shard_counts.dedup();

    let scaling: Vec<KvResult> = shard_counts
        .iter()
        .map(|&shards| row::<HppStore>("scaling", &KvRun::read_mostly(shards, quick)))
        .collect();

    let rc = KvRun::read_mostly(max_shards, quick);
    row::<HppStore>("schemes", &rc);
    row::<EbrStore>("schemes", &rc);
    row::<HyalineStore>("schemes", &rc);
    row::<NrStore>("schemes", &rc);

    // `shard_counts` is sorted: first = 1 shard, last = `max_shards`.
    let ratio = scaling[scaling.len() - 1].total_mops / scaling[0].total_mops.max(1e-9);
    let cores = available_cores();
    eprintln!(
        "kv: 1→{max_shards} shard scaling {ratio:.2}x on a {cores}-core host{}",
        if cores >= max_shards {
            ""
        } else {
            " (shards time-share the same cores here; measure scaling on >=4 cores)"
        }
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_sane_numbers() {
        let mut rc = KvRun::read_mostly(2, true);
        rc.warmup = Duration::from_millis(20);
        rc.duration = Duration::from_millis(100);
        rc.keys = 1_024;
        let r = run_kv::<HppStore>(&rc);
        assert!(r.total_mops > 0.0, "no throughput measured: {r:?}");
        assert!(r.measured_ops > 0, "no latencies sampled");
        assert!(r.p50_ns > 0 && r.p50_ns <= r.p99_ns && r.p99_ns <= r.p999_ns);
        assert!(r.min_shard_mops <= r.max_shard_mops);
        assert_eq!(r.timeouts, 0, "healthy quick run must not time out");
    }
}
