//! The paper's sweeps. Figures 8, 10, 11 and the appendix are rows of one
//! declarative table driven by [`sweep`]; Figure 9 and the ablations print
//! their own row shapes but run every scenario through the same [`Sweep`].

use crate::cli::Opts;
use crate::config::{cores, thread_sweep, Ds, Scenario, Scheme, Workload};
use crate::orchestrate::Sweep;
use crate::schemes;

/// One figure: the (workload × structure × x-axis point × scheme) grid it
/// sweeps into `results/<name>.csv`.
pub struct Figure {
    /// Subcommand and CSV name.
    pub name: &'static str,
    title: &'static str,
    /// Operation mixes swept.
    pub workloads: &'static [Workload],
    /// Structures swept.
    pub structures: &'static [Ds],
    /// Schemes swept on each structure they apply to.
    pub schemes: &'static [Scheme],
    /// Figure 10's shape: the x axis is the key range instead of the thread
    /// count, readers run against head-churning writers, and HP gets HMList
    /// while every other scheme gets HHSList (as in the paper).
    pub long_running: bool,
    expectation: &'static [&'static str],
}

/// Figure 8 (throughput) and Figure 11 (the same rows' `peak_garbage`
/// column; for RC the paper leaves that metric undefined, fn. 13).
pub const FIG8: Figure = Figure {
    name: "fig8",
    title: "Figures 8 + 11: read-write throughput and peak unreclaimed blocks, big key range",
    workloads: &[Workload::ReadWrite],
    structures: &Ds::ALL,
    schemes: &Scheme::ALL,
    long_running: false,
    expectation: &[
        "(paper) peak_garbage = Fig. 11: NR grows without bound; EBR spikes under",
        "oversubscription; HP stays lowest; HP++ tracks HP's trend with a",
        "constant overhead from frontier protection / deferred retirement.",
    ],
};

/// Figure 10: long-running reads over lists with growing key ranges
/// (2^18 … 2^26 in the paper) while writer threads churn the head.
pub const FIG10: Figure = Figure {
    name: "fig10",
    title: "Figure 10: long-running read throughput vs key range",
    workloads: &[Workload::ReadMost], // ignored in long-running mode
    structures: &[Ds::HMList, Ds::HHSList],
    schemes: &Scheme::ALL,
    long_running: true,
    expectation: &[
        "(paper) PEBR's relative throughput plunges at large key ranges (reads get",
        "ejected and restart); HP++ tracks EBR/NR.",
    ],
};

/// Appendix C (Figs. 12–23): throughput, peak and average unreclaimed
/// blocks and peak memory for all three mixes — one run yields all four
/// metrics, `plot --metric <column>` picks one.
pub const APPENDIX: Figure = Figure {
    name: "appendix",
    title: "Appendix C (Figs. 12-23): every workload mix, all metrics",
    workloads: &[Workload::WriteOnly, Workload::ReadWrite, Workload::ReadMost],
    structures: &Ds::ALL,
    schemes: &Scheme::ALL,
    long_running: false,
    expectation: &[],
};

impl Figure {
    /// The x axis for `ds` as (threads, key range) points.
    fn points(&self, ds: Ds, opts: &Opts) -> Vec<(usize, u64)> {
        if !self.long_running {
            let key_range = opts.big_range(ds);
            return thread_sweep(opts.quick)
                .into_iter()
                .map(|t| (t, key_range))
                .collect();
        }
        let (exponents, readers) = if opts.paper {
            ((18..=26).step_by(1), 32)
        } else if opts.quick {
            ((14..=18).step_by(2), (cores() / 2).max(2))
        } else {
            ((16..=22).step_by(2), (cores() / 2).max(2))
        };
        exponents.map(|exp| (readers, 1u64 << exp)).collect()
    }

    /// Every applicable scenario of the figure, in sweep order.
    pub fn scenarios(&self, opts: &Opts) -> Vec<Scenario> {
        let mut out = Vec::new();
        for &workload in self.workloads {
            for &ds in self.structures {
                for (threads, key_range) in self.points(ds, opts) {
                    for &scheme in self.schemes {
                        let paired = (ds == Ds::HMList) == (scheme == Scheme::Hp);
                        if crate::applicable(ds, scheme) && (paired || !self.long_running) {
                            let mut sc = opts.scenario(ds, scheme, threads, key_range, workload);
                            sc.long_running = self.long_running;
                            out.push(sc);
                        }
                    }
                }
            }
        }
        out
    }
}

fn expectation(lines: &[&str]) {
    if !lines.is_empty() {
        println!("\n# Expectation:");
        for line in lines {
            println!("# {line}");
        }
    }
}

/// Sweeps one table row into `results/<name>.csv`; exit code 1 if any
/// scenario's child failed.
pub fn sweep(fig: &Figure, opts: &Opts) -> i32 {
    println!("# {}", fig.title);
    println!("{}", Scenario::CSV_HEADER);
    let mut sweep = Sweep::start(fig.name);
    for sc in fig.scenarios(opts) {
        if let Some(stats) = sweep.run(&sc, &[]) {
            sweep.emit(&sc, &stats);
        }
    }
    expectation(fig.expectation);
    sweep.finish()
}

/// Oversubscription sweep for the bags: thread counts *beyond* the host's
/// parallelism, where descheduled CAS owners make spin-only retries
/// pathological and yield/park backoff pays off.
fn contention_threads(quick: bool) -> Vec<usize> {
    // Always oversubscribed on small CI hosts: 2x and 4x one core.
    let factors: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 3, 4] };
    factors.iter().map(|f| cores() * f).collect()
}

/// Figure 9: maximum throughput per category (list / tree), HP vs HP++,
/// small and big key ranges — the contention crossover. Plus the
/// contention-machinery sections: bags under oversubscribed write storms
/// and scans racing a write storm.
pub fn fig9(opts: &Opts) -> i32 {
    let mut sweep = Sweep::start("fig9");
    println!("# Figure 9: best-in-category throughput, HP vs HP++");
    println!("category,key_range,threads,scheme,best_ds,throughput_mops");
    let lists = [Ds::HMList, Ds::HHSList];
    let trees = [Ds::EFRBTree, Ds::NMTree];
    for (cat, structures) in [("list", lists), ("tree", trees)] {
        for (range, small) in [("small", true), ("big", false)] {
            for threads in thread_sweep(opts.quick) {
                for scheme in [Scheme::Hp, Scheme::Hpp] {
                    // A wedged point leaves its timeout row (full scenario,
                    // thread count included) instead of silently vanishing
                    // from the category maximum.
                    let run = |&ds: &Ds| {
                        let big = opts.big_range(ds);
                        let range = if small { ds.small_range() } else { big };
                        let sc = opts.scenario(ds, scheme, threads, range, Workload::ReadWrite);
                        Some((ds, sweep.run(&sc, &[])?.throughput_mops))
                    };
                    let ran = structures.iter().filter_map(run);
                    let best = ran.reduce(|best, next| if next.1 > best.1 { next } else { best });
                    if let Some((ds, mops)) = best {
                        println!("{cat},{range},{threads},{scheme},{ds},{mops:.4}");
                    }
                }
            }
        }
    }
    expectation(&[
        "(paper) under heavy contention (small range) or for trees, HP++'s access",
        "to the optimistic structures (HHSList, NMTree) beats the best",
        "HP-compatible structure by a large margin.",
    ]);

    println!();
    println!("# Contention machinery: bags under oversubscribed write storms");
    println!("ds,scheme,threads,throughput_mops");
    let pairs = [
        (Ds::Stack, Scheme::Hp),
        (Ds::Stack, Scheme::Hpp),
        (Ds::Queue, Scheme::Ebr),
        (Ds::Queue, Scheme::Pebr),
    ];
    let storm_threads = contention_threads(opts.quick);
    for &threads in &storm_threads {
        for (ds, scheme) in pairs {
            let mut sc = opts.scenario(ds, scheme, threads, 256, Workload::WriteOnly);
            sc.zipf_theta = 0.0;
            if let Some(stats) = sweep.run(&sc, &[]) {
                let mops = stats.throughput_mops;
                println!("{ds},{scheme},{threads},{mops:.4}");
            }
        }
    }
    expectation(&[
        "every row runs the spin/yield/park escalator; in EXPERIMENTS.md's pairs",
        "a bare CAS loop or a yield-only third phase read x 0.67-0.83 of it on",
        "the stack at 1-4x cores; the queues read the same in all three.",
    ]);

    // Adversarial mix: read-most scans over a big range racing a write storm
    // on the same structure class — the contention machinery must not
    // starve readers.
    println!();
    println!("# Long-running scans + write storm (lists, read-most vs write-only)");
    println!("ds,scheme,threads,workload,throughput_mops,peak_garbage");
    let threads = storm_threads[1];
    for scheme in schemes::SCAN_STORM {
        for workload in [Workload::ReadMost, Workload::WriteOnly] {
            let key_range = opts.big_range(Ds::HHSList);
            let sc = opts.scenario(Ds::HHSList, scheme, threads, key_range, workload);
            if let Some(stats) = sweep.run(&sc, &[]) {
                println!(
                    "{},{scheme},{threads},{workload},{:.4},{}",
                    sc.ds, stats.throughput_mops, stats.peak_garbage
                );
            }
        }
    }
    sweep.finish()
}

/// Ablation of the asymmetric fences (DESIGN.md, paper §3.4):
/// `SMR_NO_MEMBARRIER=1` forces the symmetric SC-fence fallback; HP++ and
/// HP run both ways.
pub fn ablation(opts: &Opts) -> i32 {
    let mut sweep = Sweep::start("ablation");
    let (threads, keys) = (cores().min(8), opts.big_range(Ds::HHSList));
    let hpp = opts.scenario(Ds::HHSList, Scheme::Hpp, threads, keys, Workload::ReadWrite);
    let hp = opts.scenario(Ds::HMList, Scheme::Hp, threads, keys, Workload::ReadWrite);
    let mut row = |label: &str, sc: &Scenario, env: &[(&str, &str)]| {
        if let Some(stats) = sweep.run(sc, env) {
            println!("{label},{},{}", sc.csv_prefix(), stats.csv_suffix());
        }
    };

    println!("# Ablation: asymmetric vs symmetric fences (HP++ on HHSList, HP on HMList)");
    println!("variant,{}", Scenario::CSV_HEADER);
    for sc in [&hpp, &hp] {
        row("asymmetric", sc, &[]);
        row("symmetric", sc, &[("SMR_NO_MEMBARRIER", "1")]);
    }
    expectation(&[
        "the symmetric variant pays an SC fence per protection, so",
        "hazard-based schemes slow down, most visibly on read-heavy paths.",
    ]);
    sweep.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn scale(quick: bool, paper: bool, zipf: f64) -> Opts {
        Opts { quick, paper, zipf }
    }
    const SCALES: [Opts; 3] = [
        scale(true, false, 0.0),
        scale(false, false, 0.99),
        scale(false, true, 0.0),
    ];

    /// Figure 8 used to be swept three times (fig8, fig11, the appendix's
    /// read-write third); it is the same scenario set.
    #[test]
    fn fig8_is_the_read_write_third_of_the_appendix() {
        for opts in &SCALES {
            let mut appendix = APPENDIX.scenarios(opts);
            appendix.retain(|sc| sc.workload == Workload::ReadWrite);
            assert!(!appendix.is_empty());
            assert_eq!(FIG8.scenarios(opts), appendix);
        }
    }

    #[test]
    fn every_structure_of_a_row_gets_a_scheme() {
        for fig in [&FIG8, &FIG10, &APPENDIX] {
            for opts in &SCALES {
                let scenarios = fig.scenarios(opts);
                for ds in fig.structures {
                    assert!(
                        fig.schemes
                            .iter()
                            .any(|&scheme| crate::applicable(*ds, scheme)),
                        "{}: no scheme in the row applies to {ds}",
                        fig.name
                    );
                    assert!(
                        scenarios.iter().any(|sc| sc.ds == *ds),
                        "{}: no {ds} run",
                        fig.name
                    );
                }
                for sc in &scenarios {
                    assert!(crate::applicable(sc.ds, sc.scheme));
                    assert_eq!(sc.long_running, fig.long_running);
                    assert_eq!((sc.zipf_theta, sc.duration), (opts.zipf, opts.windows().1));
                }
            }
        }
    }

    #[test]
    fn fig10_pairs_hp_with_hmlist_and_the_rest_with_hhslist() {
        let scenarios = FIG10.scenarios(&SCALES[0]);
        for scheme in Scheme::ALL {
            let expected = if scheme == Scheme::Hp {
                Ds::HMList
            } else {
                Ds::HHSList
            };
            let mut rows = scenarios.iter().filter(|sc| sc.scheme == scheme).peekable();
            assert!(rows.peek().is_some(), "{scheme} missing from fig10");
            assert!(
                rows.all(|sc| sc.ds == expected),
                "{scheme} must run on {expected}"
            );
        }
        let ranges: Vec<u64> = scenarios
            .iter()
            .filter(|sc| sc.scheme == Scheme::Hpp)
            .map(|sc| sc.key_range)
            .collect();
        assert_eq!(ranges, [1 << 14, 1 << 16, 1 << 18]);
    }
}
