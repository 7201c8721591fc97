//! Perf-trajectory snapshots: measure a quick, fixed suite and emit or
//! gate against the committed `BENCH_pr<N>.json` baseline.
//!
//! ```text
//! bench_snapshot --emit [--pr N] [--out PATH]   measure, write snapshot
//! bench_snapshot --compare BASE.json CUR.json   compare two files
//! bench_snapshot --gate [--dir PATH]            measure, compare vs max
//!                                               committed BENCH_pr*.json,
//!                                               exit 1 on regression
//! ```
//!
//! The suite is the headline subset of the full harness: protection/
//! reclamation micro costs (`ns.*`), fig8-style map throughput and peak
//! garbage (`mops.*` / `garbage.*`), the contended-bag throughput the
//! contention machinery targets, and the sharded KV service headline
//! (`mops.kv.*` / `ns.kv.p99.*`). Tolerance is 10% unless
//! `SMR_BENCH_TOLERANCE` overrides; see `bench::snapshot` for the format.
//!
//! Snapshots carry a meta block (host core count + active `SMR_*`/`KV_*`
//! env overrides). When baseline and current were measured on different
//! host shapes, `--compare` and `--gate` print the table but only warn:
//! scaling-sensitive metrics move with core count, so a cross-shape
//! verdict would gate on the machine, not the change.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bench::kv_run::{run_kv, run_kv_recovery, KvResult, KvRun};
use bench::snapshot::{compare, find_baseline, host_shape_mismatch, tolerance_from_env, Snapshot};
use bench::{run, Ds, Scenario, Scheme, Workload};
use kv_service::HppStore;
use smr_common::{Atomic, Shared};

/// Times `f` over `iters` iterations, repeated `REPS` times, returning the
/// best (minimum) ns/iter. Scheduler noise and cold-allocator effects are
/// strictly additive, so min-of-N is the stable statistic for the gate —
/// a single-rep measurement of the reclaim loop was observed to swing 60%
/// between back-to-back runs.
fn per_op_ns<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    const REPS: u32 = 5;
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

fn micro_protect(snap: &mut Snapshot) {
    const ITERS: u64 = 400_000;
    {
        let domain: &'static hp::Domain = Box::leak(Box::new(hp::Domain::new()));
        let mut thread = domain.register();
        let slot = thread.hazard_pointer();
        let atomic = Atomic::new(42u64);
        snap.record(
            "ns.protect.hp",
            per_op_ns(ITERS, || {
                let p = atomic.load(std::sync::atomic::Ordering::Acquire);
                std::hint::black_box(slot.try_protect(p, &atomic).is_ok());
            }),
        );
        unsafe {
            atomic.into_owned();
        }
    }
    {
        let domain: &'static hp_plus::Domain = Box::leak(Box::new(hp_plus::Domain::new()));
        let mut thread = domain.register();
        let slot = thread.hazard_pointer();
        let atomic = Atomic::new(42u64);
        snap.record(
            "ns.protect.hpp",
            per_op_ns(ITERS, || {
                let mut p = atomic.load(std::sync::atomic::Ordering::Acquire).with_tag(0);
                std::hint::black_box(hp_plus::try_protect(&slot, &mut p, &atomic, || false));
            }),
        );
        unsafe {
            atomic.into_owned();
        }
    }
    {
        let collector: &'static ebr::Collector = Box::leak(Box::new(ebr::Collector::new()));
        let mut handle = collector.register();
        snap.record(
            "ns.pin.ebr",
            per_op_ns(ITERS, || {
                let g = handle.pin();
                std::hint::black_box(&g);
            }),
        );
    }
    {
        let domain: &'static hyaline::Domain = Box::leak(Box::new(hyaline::Domain::new()));
        let mut handle = domain.register();
        snap.record(
            "ns.pin.hyaline",
            per_op_ns(ITERS, || {
                let g = handle.pin();
                std::hint::black_box(&g);
            }),
        );
    }
}

fn micro_reclaim(snap: &mut Snapshot) {
    const ITERS: u64 = 150_000;
    {
        let domain: &'static hp::Domain = Box::leak(Box::new(hp::Domain::new()));
        let mut thread = domain.register();
        let _slot = thread.hazard_pointer();
        snap.record(
            "ns.reclaim.hp",
            per_op_ns(ITERS, || {
                let p = Box::into_raw(Box::new(0u64));
                unsafe { thread.retire(p) };
            }),
        );
    }
    {
        let collector: &'static ebr::Collector = Box::leak(Box::new(ebr::Collector::new()));
        let mut handle = collector.register();
        snap.record(
            "ns.reclaim.ebr",
            per_op_ns(ITERS, || {
                let guard = handle.pin();
                let node = Shared::from_owned(0u64);
                unsafe { guard.defer_destroy(node) };
            }),
        );
    }
    {
        let domain: &'static hyaline::Domain = Box::leak(Box::new(hyaline::Domain::new()));
        let mut handle = domain.register();
        snap.record(
            "ns.reclaim.hyaline",
            per_op_ns(ITERS, || {
                let guard = handle.pin();
                let node = Shared::from_owned(0u64);
                unsafe { guard.defer_destroy(node) };
            }),
        );
    }
}

fn quick_scenario(ds: Ds, scheme: Scheme, threads: usize, workload: Workload) -> Scenario {
    Scenario {
        ds,
        scheme,
        threads,
        key_range: if ds.is_bag() { 256 } else { 1_000 },
        workload,
        zipf_theta: 0.0,
        warmup: Duration::from_millis(50),
        duration: Duration::from_millis(300),
        long_running: false,
    }
}

/// Runs a scenario twice and keeps the run with the higher throughput —
/// same rationale as `per_op_ns`'s min-of-N, mirrored for a
/// higher-is-better metric (a ~22% swing between back-to-back single runs
/// was observed on a loaded host).
fn best_of_2(sc: &Scenario) -> Option<bench::Stats> {
    match (run(sc), run(sc)) {
        (Some(a), Some(b)) => Some(if a.throughput_mops >= b.throughput_mops { a } else { b }),
        (one, two) => one.or(two),
    }
}

fn fig8_headline(snap: &mut Snapshot) {
    for scheme in bench::schemes::FIG8_HEADLINE {
        let sc = quick_scenario(Ds::HMList, scheme, 2, Workload::ReadWrite);
        if let Some(stats) = best_of_2(&sc) {
            let tag = scheme.to_string().replace("++", "p");
            snap.record(&format!("mops.fig8.hmlist.{tag}.t2"), stats.throughput_mops);
            snap.record(
                &format!("garbage.fig8.hmlist.{tag}.t2"),
                stats.peak_garbage as f64,
            );
        }
    }
}

fn contended_bags(snap: &mut Snapshot) {
    for (ds, scheme) in [(Ds::Stack, Scheme::Hp), (Ds::Queue, Scheme::Ebr)] {
        let sc = quick_scenario(ds, scheme, 4, Workload::WriteOnly);
        if let Some(stats) = best_of_2(&sc) {
            snap.record(
                &format!("mops.contend.{ds}.{scheme}.t4"),
                stats.throughput_mops,
            );
        }
    }
}

/// Best-of-5 on total throughput — same rationale as [`per_op_ns`]'s
/// min-of-5: scheduler preemption of a client or worker thread is strictly
/// subtractive, so the max over reps is the stable statistic.
fn kv_best_of_5(rc: &KvRun) -> KvResult {
    let mut best = run_kv::<HppStore>(rc);
    for _ in 0..4 {
        let r = run_kv::<HppStore>(rc);
        if r.total_mops > best.total_mops {
            best = r;
        }
    }
    best
}

fn kv_headline(snap: &mut Snapshot) {
    // Single-shard baseline plus the widest shard count this host can run
    // in parallel (≤ 4). Oversubscribed shard counts are deliberately NOT
    // gated on: on a 1-core host a 4-shard run measures the scheduler, not
    // the service (back-to-back swings of 45% were observed). The shard
    // count is visible in the metric name and the host shape is in the
    // snapshot meta, so a cross-shape gate downgrades to a warning instead
    // of comparing different configurations.
    let shards = kv_service::available_cores().clamp(1, 4);
    let mut rcs = vec![1usize];
    if shards > 1 {
        rcs.push(shards);
    }
    let mut widest = None;
    for &n in &rcs {
        let mut rc = KvRun::read_mostly(n).quick();
        // One client: the gate statistic should time the service protocol
        // (ring, doorbell, batched worker), not multi-client scheduler
        // jitter — kv_bench's CSV covers the contended configurations.
        rc.clients = 1;
        rc.warmup = Duration::from_millis(50);
        rc.duration = Duration::from_millis(300);
        let r = kv_best_of_5(&rc);
        snap.record(&format!("mops.kv.hpp.s{n}"), r.total_mops);
        widest = Some((n, r));
    }
    if let Some((n, r)) = widest {
        snap.record(&format!("ns.kv.p99.hpp.s{n}"), r.p99_ns as f64);
        snap.record(&format!("garbage.kv.peakshard.hpp.s{n}"), r.peak_shard_garbage as f64);
    }
}

fn recovery_headline(snap: &mut Snapshot) {
    // Crash → quarantine → respawn cycles on a supervised single shard.
    // Both metrics are informational (snapshot::gates exempts them):
    // respawn latency is mostly thread spawn + supervisor wakeup, pure
    // scheduler noise on a loaded host — tracked for trajectory, not gated.
    let r = run_kv_recovery::<HppStore>(4, 512);
    snap.record("ns.kv.respawn", r.mean_respawn_ns as f64);
    snap.record("mops.kv.recovery", r.recovery_mops);
}

fn policy_headline(snap: &mut Snapshot) {
    // Policy × single-shard KV: in-process per-policy runs are sound here
    // because `KvRun::policy` reaches each shard's domain as an explicit
    // constructor parameter — no dependence on the process-wide
    // `SMR_POLICY` latch (scheme-level policy sweeps need subprocesses;
    // see fig12). `garbage.*` metrics are informational (never gated), so
    // recording adaptive's batching headroom here can't flake the gate.
    for policy in smr_common::policy::PolicyKind::ALL {
        let mut rc = KvRun::read_mostly(1).quick().with_policy(policy);
        rc.clients = 1;
        rc.warmup = Duration::from_millis(50);
        rc.duration = Duration::from_millis(300);
        let r = kv_best_of_5(&rc);
        snap.record(&format!("mops.policy.{policy}.kv.hpp.s1"), r.total_mops);
        snap.record(
            &format!("garbage.policy.{policy}.kv.hpp.s1"),
            r.peak_shard_garbage as f64,
        );
    }
}

fn measure() -> Snapshot {
    let mut snap = Snapshot::new();
    eprintln!("bench_snapshot: micro protect…");
    micro_protect(&mut snap);
    eprintln!("bench_snapshot: micro reclaim…");
    micro_reclaim(&mut snap);
    eprintln!("bench_snapshot: fig8 headline…");
    fig8_headline(&mut snap);
    eprintln!("bench_snapshot: contended bags…");
    contended_bags(&mut snap);
    eprintln!("bench_snapshot: kv service headline…");
    kv_headline(&mut snap);
    eprintln!("bench_snapshot: kv recovery headline…");
    recovery_headline(&mut snap);
    eprintln!("bench_snapshot: policy headline…");
    policy_headline(&mut snap);
    snap.record_host_meta();
    snap
}

fn load(path: &Path) -> Snapshot {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Snapshot::from_json(&text).unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()))
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let dir = arg_value(&args, "--dir").map(PathBuf::from).unwrap_or_else(|| PathBuf::from("."));

    if args.iter().any(|a| a == "--compare") {
        let i = args.iter().position(|a| a == "--compare").unwrap();
        let base = load(Path::new(&args[i + 1]));
        let cur = load(Path::new(&args[i + 2]));
        let cmp = compare(&base, &cur, tolerance_from_env());
        print!("{}", cmp.render());
        if let Some(why) = host_shape_mismatch(&base, &cur) {
            eprintln!("warning: host shape mismatch ({why}); comparison is informational, not a verdict");
            std::process::exit(0);
        }
        std::process::exit(if cmp.failed() { 1 } else { 0 });
    }

    if args.iter().any(|a| a == "--emit") {
        let snap = measure();
        let pr: u32 = arg_value(&args, "--pr")
            .map(|v| v.parse().expect("bad --pr"))
            .unwrap_or_else(|| find_baseline(&dir).map(|(n, _)| n + 1).unwrap_or(1));
        let out = arg_value(&args, "--out")
            .map(PathBuf::from)
            .unwrap_or_else(|| dir.join(format!("BENCH_pr{pr}.json")));
        std::fs::write(&out, snap.to_json())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
        println!("wrote {}", out.display());
        return;
    }

    if args.iter().any(|a| a == "--gate") {
        let Some((n, path)) = find_baseline(&dir) else {
            // First PR with the gate: nothing to compare against. Succeed
            // loudly so the baseline gets committed rather than CI wedged.
            println!("no BENCH_pr*.json baseline found; emit one with --emit");
            return;
        };
        let base = load(&path);
        let cur = measure();
        let cmp = compare(&base, &cur, tolerance_from_env());
        println!("gating against BENCH_pr{n}.json (tolerance {:.0}%):", tolerance_from_env() * 100.0);
        print!("{}", cmp.render());
        if let Some(why) = host_shape_mismatch(&base, &cur) {
            // A baseline from a different machine shape says nothing about
            // this change: scaling metrics move with core count. Report and
            // pass; same-shape hosts (and local re-runs) still gate hard.
            println!("perf trajectory gate SKIPPED: host shape mismatch ({why})");
            return;
        }
        if cmp.failed() {
            eprintln!("perf trajectory gate FAILED vs BENCH_pr{n}.json");
            std::process::exit(1);
        }
        println!("perf trajectory gate passed");
        return;
    }

    eprintln!("usage: bench_snapshot --emit [--pr N] [--out PATH] | --compare A B | --gate [--dir PATH]");
    std::process::exit(2);
}
