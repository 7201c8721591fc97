//! Benchmark scenario configuration (paper §5 "Methodology").

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// Which data structure to benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ds {
    /// Harris–Michael list.
    HMList,
    /// Harris list + wait-free get.
    HHSList,
    /// Chaining hash map.
    HashMap,
    /// Herlihy–Shavit skiplist.
    SkipList,
    /// Natarajan–Mittal tree.
    NMTree,
    /// Ellen et al. tree.
    EFRBTree,
    /// Non-blocking Bonsai tree (COW path-copy).
    BonsaiTree,
    /// Treiber stack (bag adapter).
    Stack,
    /// Michael–Scott queue (bag adapter).
    Queue,
}

impl Ds {
    /// All *map* structures, in the paper's presentation order. The bag
    /// structures (stacks/queues) are deliberately excluded: they are driven
    /// by the contention-machinery benches, not the paper's figure sweeps.
    pub const ALL: [Ds; 7] = [
        Ds::HMList,
        Ds::HHSList,
        Ds::HashMap,
        Ds::SkipList,
        Ds::NMTree,
        Ds::EFRBTree,
        Ds::BonsaiTree,
    ];

    /// The bag structures benchmarked by the contention-machinery section.
    pub const BAGS: [Ds; 2] = [Ds::Stack, Ds::Queue];

    /// Is this a bag (stack/queue) rather than a map?
    pub fn is_bag(self) -> bool {
        matches!(self, Ds::Stack | Ds::Queue)
    }

    /// Is this a list-shaped structure (paper: small range 16 / big 10K)?
    pub fn is_list(self) -> bool {
        matches!(self, Ds::HMList | Ds::HHSList)
    }

    /// The paper's big key range for this structure.
    pub fn big_range(self) -> u64 {
        if self.is_list() {
            10_000
        } else {
            100_000
        }
    }

    /// The paper's small (contended) key range for this structure.
    pub fn small_range(self) -> u64 {
        if self.is_list() {
            16
        } else {
            128
        }
    }
}

/// Which reclamation scheme to benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No reclamation (leaking baseline).
    Nr,
    /// Epoch-based reclamation.
    Ebr,
    /// Pointer- and epoch-based reclamation.
    Pebr,
    /// Original hazard pointers.
    Hp,
    /// HP++ (this paper).
    Hpp,
    /// CDRC reference counting.
    Rc,
    /// Hyaline snapshot-free reclamation (reference-counted batch handover).
    Hyaline,
}

impl Scheme {
    /// All schemes, in the paper's legend order; post-paper additions
    /// (hyaline) append at the end so existing figure legends keep their
    /// positions.
    pub const ALL: [Scheme; 7] = [
        Scheme::Nr,
        Scheme::Ebr,
        Scheme::Pebr,
        Scheme::Hp,
        Scheme::Hpp,
        Scheme::Rc,
        Scheme::Hyaline,
    ];
}

/// Operation mix (paper §5: write-only, read-write, read-most).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// 50% inserts, 50% deletes.
    WriteOnly,
    /// 50% reads, 25% inserts, 25% deletes.
    ReadWrite,
    /// 90% reads, 5% inserts, 5% deletes.
    ReadMost,
}

impl Workload {
    /// The full (read, insert, remove) percentage split.
    pub fn mix_pcts(self) -> (u32, u32, u32) {
        match self {
            Workload::WriteOnly => (0, 50, 50),
            Workload::ReadWrite => (50, 25, 25),
            Workload::ReadMost => (90, 5, 5),
        }
    }
}

/// One name table per enum: `Display` prints the first name of a variant,
/// `FromStr` accepts it and the aliases after `|`.
macro_rules! names {
    ($ty:ident, $what:literal: $($variant:ident => $name:literal $(| $alias:literal)*,)+) => {
        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(match self {
                    $($ty::$variant => $name,)+
                })
            }
        }

        impl FromStr for $ty {
            type Err = String;
            fn from_str(s: &str) -> Result<Self, String> {
                match s {
                    $($name $(| $alias)* => Ok($ty::$variant),)+
                    _ => Err(format!("unknown {}: {s}", $what)),
                }
            }
        }
    };
}

names!(Ds, "data structure":
    HMList => "hmlist",
    HHSList => "hhslist",
    HashMap => "hashmap",
    SkipList => "skiplist",
    NMTree => "nmtree",
    EFRBTree => "efrbtree",
    BonsaiTree => "bonsai",
    Stack => "stack",
    Queue => "queue",
);

names!(Scheme, "scheme":
    Nr => "nr",
    Ebr => "ebr",
    Pebr => "pebr",
    Hp => "hp",
    Hpp => "hp++" | "hpp",
    Rc => "rc",
    Hyaline => "hyaline",
);

names!(Workload, "workload":
    WriteOnly => "write-only" | "wo",
    ReadWrite => "read-write" | "rw",
    ReadMost => "read-most" | "rm",
);

/// One benchmark scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Data structure under test.
    pub ds: Ds,
    /// Reclamation scheme.
    pub scheme: Scheme,
    /// Worker thread count.
    pub threads: usize,
    /// Keys are drawn from `0..key_range`, Zipfian with exponent
    /// [`Scenario::zipf_theta`] (`0` = uniform, the paper's methodology).
    pub key_range: u64,
    /// Operation mix.
    pub workload: Workload,
    /// Zipfian skew of the key stream; `0.0` reproduces the seed harness's
    /// uniform draws bit-for-bit.
    pub zipf_theta: f64,
    /// Warmup window run before measurement starts (ops are executed but
    /// not counted, timed, or garbage-sampled).
    pub warmup: Duration,
    /// Measurement duration.
    pub duration: Duration,
    /// Long-running-reader mode (Fig. 10): `threads` readers plus
    /// `threads` head-churning writers; throughput counts reads only.
    pub long_running: bool,
}

impl Scenario {
    /// The one constructor: a uniform-key, no-warmup, short-operation
    /// scenario. Callers that want skew, a warmup window or long-running
    /// mode set those three fields with struct-update syntax.
    pub fn new(
        ds: Ds,
        scheme: Scheme,
        threads: usize,
        key_range: u64,
        workload: Workload,
        duration: Duration,
    ) -> Self {
        Self {
            ds,
            scheme,
            threads,
            key_range,
            workload,
            zipf_theta: 0.0,
            warmup: Duration::ZERO,
            duration,
            long_running: false,
        }
    }

    /// CSV header matching [`Scenario::csv_prefix`] plus the measured
    /// columns of `Stats`.
    pub const CSV_HEADER: &'static str = "ds,scheme,threads,key_range,workload,zipf_theta,\
         warmup_ms,throughput_mops,peak_garbage,avg_garbage,peak_rss_mb,\
         p50_ns,p90_ns,p99_ns,p999_ns";

    /// The `smr_bench run` flags that reproduce this scenario in a child
    /// process (`crate::cli` parses them back).
    pub fn to_args(&self) -> Vec<String> {
        let flags = format!(
            "--ds {} --scheme {} --threads {} --key-range {} --workload {} --zipf {} \
             --warmup-ms {} --duration-ms {}{}",
            self.ds,
            self.scheme,
            self.threads,
            self.key_range,
            self.workload,
            self.zipf_theta,
            self.warmup.as_millis(),
            self.duration.as_millis(),
            if self.long_running {
                " --long-running"
            } else {
                ""
            },
        );
        flags.split(' ').map(String::from).collect()
    }

    /// The scenario part of a CSV row.
    pub fn csv_prefix(&self) -> String {
        format!(
            "{},{},{},{},{},{},{}",
            self.ds,
            self.scheme,
            self.threads,
            self.key_range,
            self.workload,
            self.zipf_theta,
            self.warmup.as_millis()
        )
    }
}

/// Hardware threads available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Thread counts to sweep, scaled to this machine. The paper used
/// 1,8,16,…,80 on a 64-HW-thread box; we cap at 2× available parallelism
/// (the grey oversubscription region of Fig. 8).
pub fn thread_sweep(quick: bool) -> Vec<usize> {
    let cores = cores();
    if quick {
        return [1, 2, 4]
            .into_iter()
            .filter(|&t| t <= cores.max(1))
            .collect();
    }
    let step = (cores / 4).max(2);
    std::iter::once(1)
        .chain((step..=cores * 2).step_by(step))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ds_roundtrip() {
        for ds in Ds::ALL.into_iter().chain(Ds::BAGS) {
            assert_eq!(ds.to_string().parse::<Ds>().unwrap(), ds);
        }
        assert!("noexist".parse::<Ds>().is_err());
    }

    #[test]
    fn bags_are_disjoint_from_maps() {
        for bag in Ds::BAGS {
            assert!(bag.is_bag());
            assert!(!Ds::ALL.contains(&bag), "bags stay out of figure sweeps");
        }
        for ds in Ds::ALL {
            assert!(!ds.is_bag());
        }
    }

    #[test]
    fn scheme_roundtrip() {
        for scheme in Scheme::ALL {
            assert_eq!(scheme.to_string().parse::<Scheme>().unwrap(), scheme);
        }
        assert_eq!("hpp".parse::<Scheme>().unwrap(), Scheme::Hpp);
        assert!("gc".parse::<Scheme>().is_err());
    }

    #[test]
    fn workload_roundtrip_and_mix() {
        for (w, pct) in [
            (Workload::WriteOnly, 0),
            (Workload::ReadWrite, 50),
            (Workload::ReadMost, 90),
        ] {
            assert_eq!(w.to_string().parse::<Workload>().unwrap(), w);
            let (r, i, d) = w.mix_pcts();
            assert_eq!(r, pct);
            assert_eq!(r + i + d, 100);
            assert_eq!(i, d, "paper mixes split writes evenly");
        }
        assert_eq!("rw".parse::<Workload>().unwrap(), Workload::ReadWrite);
    }

    #[test]
    fn ranges_match_paper() {
        assert_eq!(Ds::HMList.big_range(), 10_000);
        assert_eq!(Ds::HMList.small_range(), 16);
        assert_eq!(Ds::NMTree.big_range(), 100_000);
        assert_eq!(Ds::NMTree.small_range(), 128);
    }

    #[test]
    fn thread_sweep_is_sane() {
        let quick = thread_sweep(true);
        assert!(!quick.is_empty() && quick[0] == 1);
        let full = thread_sweep(false);
        assert!(full.windows(2).all(|w| w[0] < w[1]), "must be increasing");
    }

    #[test]
    fn csv_prefix_shape() {
        let sc = Scenario {
            zipf_theta: 0.99,
            warmup: Duration::from_millis(500),
            ..Scenario::new(
                Ds::HHSList,
                Scheme::Hpp,
                8,
                10_000,
                Workload::ReadWrite,
                Duration::from_secs(1),
            )
        };
        assert_eq!(sc.csv_prefix(), "hhslist,hp++,8,10000,read-write,0.99,500");
        assert_eq!(
            Scenario::CSV_HEADER.split(',').count(),
            sc.csv_prefix().split(',').count() + 8
        );
    }
}
