//! Figure 12: the reclamation-policy ablation.
//!
//! Sweeps the [`smr_common::policy`] enum — `eager`, `capped` (the
//! default), `adaptive` — across schemes and three workload shapes:
//!
//! * **read-heavy** — 90/5/5 on the hash map: retires are rare, so policy
//!   overhead and missed batching show up directly in throughput;
//! * **write-storm** — 50/50 insert/delete on a small hot range: maximum
//!   retire pressure, where the peak-garbage column shows what each policy
//!   lets accumulate;
//! * **scan-storm** — read-mostly on the optimistic list with a
//!   long-running scanner pinned through the structure: the stalled-reader
//!   shape the `Adaptive` feedback loop is built for.
//!
//! Scheme-level runs go through `smr_bench` subprocesses with `SMR_POLICY`
//! set per run (the policy config latches process-wide at first retire, so
//! each policy needs a fresh process). The KV section runs in-process:
//! `KvRun::policy` reaches each shard's domain as an explicit constructor
//! parameter, bypassing the env latch.
//!
//! Output: two CSV sections (scheme-level, then KV). `--quick` trims the
//! scheme set and shrinks windows for the CI smoke run.

use bench::kv_run::{run_kv, KvRun};
use bench::orchestrate::{emit_timeout, run_scenario_env, Opts, Outcome};
use bench::{Ds, Scenario, Scheme, Workload};
use kv_service::HppStore;
use smr_common::policy::PolicyKind;

struct Cell {
    name: &'static str,
    ds: Ds,
    workload: Workload,
    key_range: u64,
    long_running: bool,
}

const CELLS: [Cell; 3] = [
    Cell {
        name: "read-heavy",
        ds: Ds::HashMap,
        workload: Workload::ReadMost,
        key_range: 10_000,
        long_running: false,
    },
    Cell {
        name: "write-storm",
        ds: Ds::HashMap,
        workload: Workload::WriteOnly,
        key_range: 1_000,
        long_running: false,
    },
    Cell {
        name: "scan-storm",
        ds: Ds::HHSList,
        workload: Workload::ReadMost,
        key_range: 2_000,
        long_running: true,
    },
];

fn main() {
    let opts = Opts::parse();
    let threads = if opts.quick { 2 } else { 4 };
    // The scheme sets come from the shared registry (bench::schemes), so a
    // scheme that grows a PolicySlot joins the ablation by being listed
    // there once.
    let schemes: &[Scheme] = if opts.quick {
        &bench::schemes::POLICY_QUICK
    } else {
        &bench::schemes::POLICY
    };

    println!("# Figure 12: reclamation-policy ablation (policy x scheme x workload)");
    println!("workload,ds,scheme,policy,threads,throughput_mops,peak_garbage,avg_garbage");
    for cell in &CELLS {
        for &scheme in schemes {
            for policy in PolicyKind::ALL {
                let sc = Scenario {
                    ds: cell.ds,
                    scheme,
                    threads,
                    key_range: if opts.quick {
                        cell.key_range / 10
                    } else {
                        cell.key_range
                    },
                    workload: cell.workload,
                    zipf_theta: opts.zipf,
                    warmup: opts.warmup(),
                    duration: opts.duration(),
                    long_running: cell.long_running,
                };
                match run_scenario_env(&sc, &opts, &[("SMR_POLICY", policy.name())]) {
                    Outcome::Done(stats) => println!(
                        "{},{},{scheme},{policy},{threads},{:.4},{},{}",
                        cell.name, cell.ds, stats.throughput_mops, stats.peak_garbage,
                        stats.avg_garbage
                    ),
                    Outcome::Timeout => emit_timeout("fig12", &sc),
                    Outcome::Skipped | Outcome::Failed => {}
                }
            }
        }
    }

    println!();
    println!("# KV service: per-shard policy through KvRun::policy (HP++ store)");
    println!("scheme,shards,policy,total_mops,p99_ns,peak_shard_garbage");
    for policy in PolicyKind::ALL {
        let mut rc = KvRun::read_mostly(1).with_policy(policy);
        if opts.quick {
            rc = rc.quick();
        }
        let r = run_kv::<HppStore>(&rc);
        println!(
            "hpp,1,{policy},{:.4},{},{}",
            r.total_mops, r.p99_ns, r.peak_shard_garbage
        );
    }

    println!();
    println!("# Expectation: capped == the legacy trigger bit-for-bit; eager pays a");
    println!("# scan per retire (throughput floor, zero garbage); adaptive relaxes");
    println!("# toward larger batches on healthy read-heavy runs and must never");
    println!("# exceed the k*slots+floor bound under the write storm.");
}
