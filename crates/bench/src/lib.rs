//! The benchmark harness reproducing the paper's evaluation (§5).
//!
//! One binary, `smr_bench <subcommand>` ([`cli`]): `fig8` (with Figure 11
//! as its `peak_garbage` column), `fig10` and `appendix` (Figs. 12–23) are
//! rows of the `figures` table; `fig9` and `ablation` (the design-choice
//! experiments called out in DESIGN.md) print their own row shapes;
//! `table1`, `table2`, `verdict` and `plot` complete the evaluation.
//! `run` executes a single scenario — every sweep spawns `smr_bench run …`
//! per scenario (`orchestrate`), so each one gets a clean global garbage
//! counter and address space.
//!
//! Scenarios follow the paper's methodology: structures prefilled to 50% of
//! the key range, fixed-duration runs (with an unmeasured warmup window),
//! throughput in Mops/s, per-operation latency percentiles from thread-local
//! log₂ histograms, and garbage metrics sampled at 10 ms. Keys are drawn
//! uniformly by default; `Scenario::zipf_theta > 0` switches the [`workload`]
//! engine to a precomputed Zipfian sampler for skewed traffic.

#![warn(missing_docs)]

pub mod cli;
pub mod config;
mod figures;
pub mod metrics;
mod orchestrate;
mod plot;
pub mod runner;
pub mod schemes;
pub mod table1;
mod verdict;
pub mod workload;

pub use config::{thread_sweep, Ds, Scenario, Scheme, Workload};
pub use metrics::{LatencyHistogram, Stats};
pub use runner::{applicable, run, run_map};
pub use workload::{pin_thread, Op, OpMix, ZipfSampler};
