//! Figure 9: maximum throughput per category (list / tree), HP vs HP++,
//! small and big key ranges — the contention crossover. Plus the
//! contention-machinery section: bags (stacks/queues) under oversubscribed
//! write storms, bare CAS loops vs adaptive backoff.

use bench::orchestrate::{emit_timeout, run_scenario, run_scenario_env, Opts, Outcome};
use bench::{thread_sweep, Ds, Scenario, Scheme, Workload};

fn best(
    structures: &[Ds],
    scheme: Scheme,
    threads: usize,
    small: bool,
    opts: &Opts,
) -> Option<(Ds, f64)> {
    let mut best: Option<(Ds, f64)> = None;
    for &ds in structures {
        let key_range = if small {
            ds.small_range()
        } else if opts.quick {
            ds.big_range() / 10
        } else {
            ds.big_range()
        };
        let sc = Scenario {
            ds,
            scheme,
            threads,
            key_range,
            workload: Workload::ReadWrite,
            zipf_theta: opts.zipf,
            warmup: opts.warmup(),
            duration: opts.duration(),
            long_running: false,
        };
        match run_scenario(&sc, opts) {
            Outcome::Done(stats) => {
                if best.map(|(_, b)| stats.throughput_mops > b).unwrap_or(true) {
                    best = Some((ds, stats.throughput_mops));
                }
            }
            // A wedged point must leave a trace with its full scenario
            // (including the thread count), not silently vanish from the
            // category maximum.
            Outcome::Timeout => emit_timeout("fig9", &sc),
            Outcome::Skipped | Outcome::Failed => {}
        }
    }
    best
}

/// Oversubscription sweep for the bags: thread counts *beyond* the host's
/// parallelism, where descheduled CAS owners make spin-only retries
/// pathological and yield/park backoff pays off.
fn contention_threads(quick: bool) -> Vec<usize> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    if quick {
        // Always oversubscribed on small CI hosts: 2x and 4x one core.
        vec![cores, cores * 2, cores * 4]
    } else {
        vec![cores, cores * 2, cores * 3, cores * 4]
    }
}

/// One bag scenario under a write-only storm.
fn bag_scenario(ds: Ds, scheme: Scheme, threads: usize, opts: &Opts) -> Scenario {
    Scenario {
        ds,
        scheme,
        threads,
        key_range: 256,
        workload: Workload::WriteOnly,
        zipf_theta: 0.0,
        warmup: opts.warmup(),
        duration: opts.duration(),
        long_running: false,
    }
}

/// A/B row: the same scenario with backoff disabled (`bare`) and enabled
/// (`backoff`). Bare runs go through `run_scenario_env` so the subprocess
/// reads `SMR_NO_BACKOFF=1` at startup.
fn contention_section(opts: &Opts) {
    println!();
    println!("# Contention machinery: bags under oversubscribed write storms");
    println!("ds,scheme,threads,mode,throughput_mops");
    let pairs = [
        (Ds::Stack, Scheme::Hp),
        (Ds::Stack, Scheme::Hpp),
        (Ds::Queue, Scheme::Ebr),
        (Ds::Queue, Scheme::Pebr),
    ];
    for threads in contention_threads(opts.quick) {
        for (ds, scheme) in pairs {
            for (mode, env) in [
                ("bare", &[("SMR_NO_BACKOFF", "1")][..]),
                ("backoff", &[][..]),
            ] {
                let sc = bag_scenario(ds, scheme, threads, opts);
                match run_scenario_env(&sc, opts, env) {
                    Outcome::Done(stats) => {
                        println!("{ds},{scheme},{threads},{mode},{:.4}", stats.throughput_mops);
                    }
                    Outcome::Timeout => emit_timeout("fig9", &sc),
                    Outcome::Skipped | Outcome::Failed => {}
                }
            }
        }
    }
    println!();
    println!("# Expectation: at threads > cores, backoff beats bare (descheduled");
    println!("# CAS winners stall spinners).");
}

/// Adversarial mix: long-running scans (read-most over a big range) racing
/// a write storm on the same structure class — checks that the contention
/// machinery does not starve readers.
fn scan_storm_section(opts: &Opts) {
    println!();
    println!("# Long-running scans + write storm (lists, read-most vs write-only)");
    println!("ds,scheme,threads,workload,throughput_mops,peak_garbage");
    let sweep = contention_threads(opts.quick);
    let threads = sweep[1.min(sweep.len() - 1)];
    for scheme in bench::schemes::SCAN_STORM {
        for workload in [Workload::ReadMost, Workload::WriteOnly] {
            let sc = Scenario {
                ds: Ds::HHSList,
                scheme,
                threads,
                key_range: if opts.quick { 1_000 } else { 10_000 },
                workload,
                zipf_theta: opts.zipf,
                warmup: opts.warmup(),
                duration: opts.duration(),
                long_running: false,
            };
            match run_scenario(&sc, opts) {
                Outcome::Done(stats) => println!(
                    "{},{scheme},{threads},{workload},{:.4},{}",
                    sc.ds, stats.throughput_mops, stats.peak_garbage
                ),
                Outcome::Timeout => emit_timeout("fig9", &sc),
                Outcome::Skipped | Outcome::Failed => {}
            }
        }
    }
}

fn main() {
    let opts = Opts::parse();
    println!("# Figure 9: best-in-category throughput, HP vs HP++");
    println!("category,key_range,threads,scheme,best_ds,throughput_mops");
    let lists = [Ds::HMList, Ds::HHSList];
    let trees = [Ds::EFRBTree, Ds::NMTree];
    for (cat, structures) in [("list", &lists[..]), ("tree", &trees[..])] {
        for small in [true, false] {
            for threads in thread_sweep(opts.quick) {
                for scheme in [Scheme::Hp, Scheme::Hpp] {
                    if let Some((ds, mops)) = best(structures, scheme, threads, small, &opts) {
                        let range = if small { "small" } else { "big" };
                        println!("{cat},{range},{threads},{scheme},{ds},{mops:.4}");
                    }
                }
            }
        }
    }
    println!();
    println!("# Expectation (paper): under heavy contention (small range) or for");
    println!("# trees, HP++'s access to the optimistic structures (HHSList, NMTree)");
    println!("# beats the best HP-compatible structure by a large margin.");

    contention_section(&opts);
    scan_storm_section(&opts);
}
