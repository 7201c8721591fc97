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

impl fmt::Display for Ds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ds::HMList => "hmlist",
            Ds::HHSList => "hhslist",
            Ds::HashMap => "hashmap",
            Ds::SkipList => "skiplist",
            Ds::NMTree => "nmtree",
            Ds::EFRBTree => "efrbtree",
            Ds::BonsaiTree => "bonsai",
            Ds::Stack => "stack",
            Ds::Queue => "queue",
        };
        f.write_str(s)
    }
}

impl FromStr for Ds {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "hmlist" => Ok(Ds::HMList),
            "hhslist" => Ok(Ds::HHSList),
            "hashmap" => Ok(Ds::HashMap),
            "skiplist" => Ok(Ds::SkipList),
            "nmtree" => Ok(Ds::NMTree),
            "efrbtree" => Ok(Ds::EFRBTree),
            "bonsai" => Ok(Ds::BonsaiTree),
            "stack" => Ok(Ds::Stack),
            "queue" => Ok(Ds::Queue),
            _ => Err(format!("unknown data structure: {s}")),
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

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scheme::Nr => "nr",
            Scheme::Ebr => "ebr",
            Scheme::Pebr => "pebr",
            Scheme::Hp => "hp",
            Scheme::Hpp => "hp++",
            Scheme::Rc => "rc",
            Scheme::Hyaline => "hyaline",
        };
        f.write_str(s)
    }
}

impl FromStr for Scheme {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "nr" => Ok(Scheme::Nr),
            "ebr" => Ok(Scheme::Ebr),
            "pebr" => Ok(Scheme::Pebr),
            "hp" => Ok(Scheme::Hp),
            "hp++" | "hpp" => Ok(Scheme::Hpp),
            "rc" => Ok(Scheme::Rc),
            "hyaline" => Ok(Scheme::Hyaline),
            _ => Err(format!("unknown scheme: {s}")),
        }
    }
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
    /// Percentage of get operations.
    pub fn read_pct(self) -> u32 {
        self.mix_pcts().0
    }

    /// The full (read, insert, remove) percentage split.
    pub fn mix_pcts(self) -> (u32, u32, u32) {
        match self {
            Workload::WriteOnly => (0, 50, 50),
            Workload::ReadWrite => (50, 25, 25),
            Workload::ReadMost => (90, 5, 5),
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Workload::WriteOnly => "write-only",
            Workload::ReadWrite => "read-write",
            Workload::ReadMost => "read-most",
        };
        f.write_str(s)
    }
}

impl FromStr for Workload {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "write-only" | "wo" => Ok(Workload::WriteOnly),
            "read-write" | "rw" => Ok(Workload::ReadWrite),
            "read-most" | "rm" => Ok(Workload::ReadMost),
            _ => Err(format!("unknown workload: {s}")),
        }
    }
}

/// One benchmark scenario.
#[derive(Debug, Clone)]
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
    /// CSV header matching [`Scenario::csv_prefix`] plus the measured
    /// columns of `Stats`.
    pub const CSV_HEADER: &'static str = "ds,scheme,threads,key_range,workload,zipf_theta,\
         warmup_ms,throughput_mops,peak_garbage,avg_garbage,peak_rss_mb,\
         p50_ns,p90_ns,p99_ns,p999_ns";

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

/// Thread counts to sweep, scaled to this machine. The paper used
/// 1,8,16,…,80 on a 64-HW-thread box; we cap at 2× available parallelism
/// (the grey oversubscription region of Fig. 8).
pub fn thread_sweep(quick: bool) -> Vec<usize> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    if quick {
        let mut v = vec![1];
        if cores >= 2 {
            v.push(2);
        }
        if cores >= 4 {
            v.push(4);
        }
        v
    } else {
        let mut v = vec![1];
        let step = (cores / 4).max(2);
        let mut t = step;
        while t <= cores * 2 {
            v.push(t);
            t += step;
        }
        v
    }
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
            assert_eq!(w.read_pct(), pct);
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
            ds: Ds::HHSList,
            scheme: Scheme::Hpp,
            threads: 8,
            key_range: 10_000,
            workload: Workload::ReadWrite,
            zipf_theta: 0.99,
            warmup: Duration::from_millis(500),
            duration: Duration::from_secs(1),
            long_running: false,
        };
        assert_eq!(sc.csv_prefix(), "hhslist,hp++,8,10000,read-write,0.99,500");
        assert_eq!(
            Scenario::CSV_HEADER.split(',').count(),
            sc.csv_prefix().split(',').count() + 8
        );
    }
}
