//! The `smr_bench` command line: one subcommand table, one flag parser.
//!
//! Every subcommand declares the flags it accepts; anything else — a
//! misspelt flag, a flag of another subcommand, a value flag at the end of
//! the line — is rejected with [`USAGE`] and exit code 2 instead of
//! silently running the default-scale sweep.

use std::str::FromStr;
use std::time::Duration;

use crate::config::{Ds, Scenario, Scheme, Workload};
use crate::figures::{self, APPENDIX, FIG10, FIG8};
use crate::{plot, table1, verdict};

/// Printed to stderr with every rejected command line.
pub const USAGE: &str = "\
usage: smr_bench <run|fig8|fig9|fig10|appendix|table1|table2|ablation|verdict|plot> [flags]
  fig8 fig9 fig10 appendix  [--quick|--paper] [--zipf <theta>]
  table1 ablation           [--quick]
  table2 verdict
  run   --ds <ds> --scheme <scheme> --threads <n> --key-range <n> --workload <wo|rw|rm>
        --duration-ms <ms> [--zipf <theta>] [--warmup-ms <ms>] [--long-running]
  plot  <results.csv> [--metric <column>] [--x threads|key_range] [--log]";

/// A flag a subcommand accepts, and whether the next argument is its value.
type Flag = (&'static str, bool);

const SCALE: &[Flag] = &[("--quick", false), ("--paper", false), ("--zipf", true)];
const QUICK: &[Flag] = &[("--quick", false)];
const RUN: &[Flag] = &[
    ("--ds", true),
    ("--scheme", true),
    ("--threads", true),
    ("--key-range", true),
    ("--workload", true),
    ("--duration-ms", true),
    ("--zipf", true),
    ("--warmup-ms", true),
    ("--long-running", false),
];
const PLOT: &[Flag] = &[("--metric", true), ("--x", true), ("--log", false)];

/// A subcommand's body: `Ok` = the exit code, `Err` = a usage error.
type Body = fn(&Flags) -> Result<i32, String>;

/// One row of the subcommand table.
struct Sub {
    name: &'static str,
    flags: &'static [Flag],
    positionals: usize,
    body: Body,
}

const fn sub(name: &'static str, flags: &'static [Flag], body: Body) -> Sub {
    Sub {
        name,
        flags,
        positionals: 0,
        body,
    }
}

/// A sweep's body: parses the scale flags, then runs it.
fn scaled(flags: &Flags, sweep: fn(&Opts) -> i32) -> Result<i32, String> {
    Ok(sweep(&Opts::from_flags(flags)?))
}

const SUBCOMMANDS: &[Sub] = &[
    sub("run", RUN, run_one),
    sub("fig8", SCALE, |f| scaled(f, |o| figures::sweep(&FIG8, o))),
    sub("fig9", SCALE, |f| scaled(f, figures::fig9)),
    sub("fig10", SCALE, |f| scaled(f, |o| figures::sweep(&FIG10, o))),
    sub("appendix", SCALE, |f| {
        scaled(f, |o| figures::sweep(&APPENDIX, o))
    }),
    sub("table1", QUICK, |f| Ok(table1::run(f.has("--quick")))),
    sub("table2", &[], |_| Ok(table2())),
    sub("ablation", QUICK, |f| scaled(f, figures::ablation)),
    sub("verdict", &[], |_| Ok(verdict::run())),
    Sub {
        positionals: 1,
        ..sub("plot", PLOT, plot::run)
    },
];

/// A subcommand's parsed command line.
#[derive(Debug, Default)]
pub(crate) struct Flags {
    set: Vec<(&'static str, String)>,
    positional: Vec<String>,
}

impl Flags {
    /// Checks `args` against the `accepted` flags and the expected number of
    /// positional arguments.
    fn parse(args: &[String], accepted: &[Flag], positionals: usize) -> Result<Self, String> {
        let mut out = Flags::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                out.positional.push(arg.clone());
                continue;
            }
            let &(name, takes_value) = accepted
                .iter()
                .find(|(name, _)| name == arg)
                .ok_or_else(|| format!("unknown flag {arg}"))?;
            let value = if takes_value {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                value.clone()
            } else {
                String::new()
            };
            out.set.push((name, value));
        }
        if out.positional.len() != positionals {
            return Err(format!(
                "expected {positionals} positional argument(s), got {:?}",
                out.positional
            ));
        }
        Ok(out)
    }

    /// Was `name` given?
    pub fn has(&self, name: &str) -> bool {
        self.set.iter().any(|(n, _)| *n == name)
    }

    /// The parsed value of `name`, if it was given.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.set.iter().find(|(n, _)| *n == name) {
            Some((_, v)) => v.parse().map(Some).map_err(|_| format!("bad {name}: {v}")),
            None => Ok(None),
        }
    }

    fn require<T: FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?.ok_or_else(|| format!("missing {name}"))
    }

    /// The `i`-th positional argument (the parser has checked the count).
    pub fn positional(&self, i: usize) -> &str {
        &self.positional[i]
    }
}

/// The scale of a sweep.
pub(crate) struct Opts {
    /// CI-scale run: fewer threads, shorter durations, smaller ranges.
    pub quick: bool,
    /// Paper-scale run: 10 s × full sweeps.
    pub paper: bool,
    /// Zipfian skew of the key stream (`--zipf <theta>`, default 0 =
    /// uniform, the paper's methodology).
    pub zipf: f64,
}

impl Opts {
    fn from_flags(flags: &Flags) -> Result<Self, String> {
        let opts = Self {
            quick: flags.has("--quick"),
            paper: flags.has("--paper"),
            zipf: flags.get("--zipf")?.unwrap_or(0.0),
        };
        if opts.quick && opts.paper {
            return Err("--quick and --paper exclude each other".into());
        }
        Ok(opts)
    }

    /// (warmup, measured window) per scenario; the warmup is excluded from
    /// measurement and zero in quick mode so CI sweeps stay fast.
    pub fn windows(&self) -> (Duration, Duration) {
        let ms = Duration::from_millis;
        if self.paper {
            (ms(2_000), ms(10_000))
        } else if self.quick {
            (ms(0), ms(300))
        } else {
            (ms(500), ms(3_000))
        }
    }

    /// `range`, a tenth of it in quick mode.
    pub fn scaled(&self, range: u64) -> u64 {
        range / if self.quick { 10 } else { 1 }
    }

    /// The paper's big key range for `ds`, [`Opts::scaled`].
    pub fn big_range(&self, ds: Ds) -> u64 {
        self.scaled(ds.big_range())
    }

    /// A scenario at this scale's duration, warmup and skew.
    pub fn scenario(
        &self,
        ds: Ds,
        scheme: Scheme,
        threads: usize,
        key_range: u64,
        workload: Workload,
    ) -> Scenario {
        let (warmup, duration) = self.windows();
        let mut sc = Scenario::new(ds, scheme, threads, key_range, workload, duration);
        sc.warmup = warmup;
        sc.zipf_theta = self.zipf;
        sc
    }
}

impl Scenario {
    /// Inverse of [`Scenario::to_args`].
    fn from_flags(f: &Flags) -> Result<Self, String> {
        Ok(Scenario {
            zipf_theta: f.get("--zipf")?.unwrap_or(0.0),
            warmup: Duration::from_millis(f.get("--warmup-ms")?.unwrap_or(0)),
            long_running: f.has("--long-running"),
            ..Scenario::new(
                f.require("--ds")?,
                f.require("--scheme")?,
                f.require("--threads")?,
                f.require("--key-range")?,
                f.require("--workload")?,
                Duration::from_millis(f.require("--duration-ms")?),
            )
        })
    }
}

/// `run`: one scenario in this process, one CSV row on stdout — what every
/// sweep spawns per scenario.
fn run_one(flags: &Flags) -> Result<i32, String> {
    let sc = Scenario::from_flags(flags)?;
    let Some(stats) = crate::run(&sc) else {
        eprintln!("scheme {} not applicable to {}", sc.scheme, sc.ds);
        return Ok(2);
    };
    println!("{},{}", sc.csv_prefix(), stats.csv_suffix());
    Ok(0)
}

/// Table 2: the applicability matrix, regenerated from what actually
/// compiles in `crates/ds` (the dispatch table of [`crate::applicable`]).
fn table2() -> i32 {
    println!("# Table 2: applicability of reclamation schemes (this repository)");
    print!("{:<12}", "structure");
    for scheme in Scheme::ALL {
        print!("{:>8}", scheme.to_string());
    }
    println!();
    for ds in Ds::ALL {
        print!("{:<12}", ds.to_string());
        for scheme in Scheme::ALL {
            let mark = if crate::applicable(ds, scheme) {
                "yes"
            } else {
                "-"
            };
            print!("{mark:>8}");
        }
        println!();
    }
    println!();
    println!("# '-' entries are the paper's inapplicability results: HP cannot");
    println!("# protect optimistic traversal (HHSList, NMTree; §2.3), and RC is");
    println!("# implemented for the list-shaped structures (the paper likewise");
    println!("# omits the RC trees, whose descriptors form cycles; fn. 12).");
    0
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    let (name, rest) = args.split_first().ok_or("missing subcommand")?;
    let sub = SUBCOMMANDS
        .iter()
        .find(|sub| sub.name == name)
        .ok_or_else(|| format!("unknown subcommand {name}"))?;
    (sub.body)(&Flags::parse(rest, sub.flags, sub.positionals)?)
}

/// Runs `smr_bench <args>` and returns its exit code.
pub fn main(args: &[String]) -> i32 {
    dispatch(args).unwrap_or_else(|msg| {
        eprintln!("smr_bench: {msg}\n{USAGE}");
        2
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// The usage string and the dispatch table must name the same
    /// subcommands, and nothing else may dispatch.
    #[test]
    fn every_subcommand_in_the_usage_string_dispatches() {
        let list = USAGE.split_once('<').unwrap().1.split_once('>').unwrap().0;
        let named: Vec<&str> = list.split('|').collect();
        let table: Vec<&str> = SUBCOMMANDS.iter().map(|sub| sub.name).collect();
        assert_eq!(named, table);
        // Instant subcommands run; a bogus flag proves the others are found.
        assert_eq!(main(&strings(&["table2"])), 0);
        for name in named {
            let err = dispatch(&strings(&[name, "--no-such-flag"])).unwrap_err();
            assert_eq!(err, "unknown flag --no-such-flag", "{name}");
        }
        for bogus in ["fig11", "smr_bench", "--quick"] {
            let err = dispatch(&strings(&[bogus])).unwrap_err();
            assert_eq!(err, format!("unknown subcommand {bogus}"));
            assert_eq!(main(&strings(&[bogus])), 2);
        }
        assert_eq!(main(&[]), 2);
    }

    #[test]
    fn misspelt_flags_and_missing_values_are_rejected() {
        let parse = |args: &[&str]| Flags::parse(&strings(args), SCALE, 0);
        assert!(parse(&["--quick", "--zipf", "0.5"]).is_ok());
        assert_eq!(parse(&["--quik"]).unwrap_err(), "unknown flag --quik");
        assert_eq!(
            parse(&["--metric", "x"]).unwrap_err(),
            "unknown flag --metric"
        );
        assert_eq!(parse(&["--zipf"]).unwrap_err(), "--zipf needs a value");
        assert!(parse(&["stray"]).is_err());
        let opts = |args: &[&str]| Opts::from_flags(&parse(args).unwrap()).map(|o| o.zipf);
        assert_eq!(opts(&["--zipf", "0.5"]), Ok(0.5));
        assert_eq!(
            opts(&["--zipf", "--quick"]).unwrap_err(),
            "bad --zipf: --quick"
        );
        assert!(opts(&["--quick", "--paper"]).is_err());
        // End to end: no sweep starts, usage goes to stderr, exit code 2.
        assert_eq!(main(&strings(&["fig8", "--quik"])), 2);
        assert_eq!(main(&strings(&["fig10", "--quick", "--zipf"])), 2);
    }

    /// What a sweep hands its child is what the child runs.
    #[test]
    fn scenario_survives_the_trip_through_run_flags() {
        let base = Scenario::new(
            Ds::HHSList,
            Scheme::Hpp,
            8,
            10_000,
            Workload::ReadMost,
            Duration::from_millis(300),
        );
        let skewed = Scenario {
            zipf_theta: 0.99,
            warmup: Duration::from_millis(500),
            long_running: true,
            ..base.clone()
        };
        for sc in [base, skewed] {
            let flags = Flags::parse(&sc.to_args(), RUN, 0).unwrap();
            assert_eq!(Scenario::from_flags(&flags).unwrap(), sc);
        }
        let flags = Flags::parse(&strings(&["--ds", "hmlist"]), RUN, 0).unwrap();
        assert_eq!(
            Scenario::from_flags(&flags).unwrap_err(),
            "missing --scheme"
        );
    }
}
