//! Shared infrastructure for safe memory reclamation (SMR) schemes.
//!
//! This crate hosts the pieces that every reclamation scheme and every
//! concurrent data structure in the workspace builds on:
//!
//! * [`tagged`] — bit-twiddling helpers for pointer tagging (logical deletion
//!   marks, HP++ invalidation marks).
//! * [`atomic`] — [`Atomic<T>`](atomic::Atomic) / [`Shared<T>`](atomic::Shared),
//!   tagged atomic pointers used by all schemes and data structures.
//! * [`fence`] — the asymmetric light/heavy fence pair from HP++ §3.4,
//!   implemented with Linux `membarrier(2)` when available and falling back to
//!   plain `SeqCst` fences elsewhere.
//! * [`counters`] — global garbage + contention accounting used by the
//!   benchmark harness to reproduce the paper's "unreclaimed blocks"
//!   figures and to report CAS retry/backoff rates.
//! * [`backoff`] — the spin/yield/park exponential [`Backoff`] threaded
//!   through every CAS retry loop in `crates/ds`.
//! * [`map`] — the [`ConcurrentMap`] trait every
//!   benchmarked structure implements, plus the [`GuardedScheme`]
//!   abstraction shared by the guard-based schemes (NR, EBR, PEBR,
//!   Hyaline).
//! * [`domain`] — [`SchemeDomain`], the one seam between a scheme's
//!   domain and its consumers: register, garbage, collect, orphans and the
//!   derived garbage bound, implemented once per scheme crate.
//! * [`guard`] — the one critical-section [`Guard`](guard::Guard) of EBR,
//!   PEBR and Hyaline, over each scheme's
//!   [`CriticalSection`](guard::CriticalSection) handle.
//! * [`registry`] — a lock-free intrusive list of per-thread records
//!   (Harris-style mark-then-unlink deletion) backing EBR's and PEBR's
//!   participant registries and Hyaline's slots.
//! * [`time`] — a minimal monotonic-nanosecond clock used by the benchmark
//!   harness's per-operation latency recording.
//! * [`fault`] — named fault-injection points (compile-time no-ops unless
//!   the `fault-injection` feature is on) driving the adversarial
//!   robustness matrix in `tests/fault_matrix.rs`.
//! * [`watchdog`] — [`GarbageWatchdog`](watchdog::GarbageWatchdog), which
//!   classifies a run as healthy / degraded-bounded / growing-unbounded
//!   from sampled progress + garbage counters (the Table 1 failure modes).
//! * [`policy`] — the reclaim trigger: each scheme's `const TRIGGER` is a
//!   [`Capped`](policy::Capped), consulted by its retire path with one
//!   [`Capped::should_reclaim`](policy::Capped::should_reclaim) call.
//! * [`retired`] — [`Retired`], a type-erased block that counts itself as
//!   garbage from construction to [`Retired::free`], and
//!   [`Orphans`](retired::Orphans), the list a dying thread donates its
//!   garbage to.
//! * [`bags`] — [`GenBags`](bags::GenBags), the three sealed epoch
//!   generations that hold `ebr`'s and `pebr`'s thread-local garbage.
//! * [`epoch`] — the one epoch [`Collector`](epoch::Collector) of `ebr`
//!   and `pebr`, over a zero-sized [`Scheme`](epoch::Scheme) marker whose
//!   consts are the only per-scheme facts.
//! * [`pool`] — the per-thread block pool node allocation and
//!   [`Retired::free`] go through, so a reclaim pass feeds the next inserts
//!   without the allocator.

#![warn(missing_docs)]

pub mod atomic;
pub mod backoff;
pub mod bags;
pub mod counters;
pub mod domain;
pub mod epoch;
pub mod fault;
pub mod fence;
pub mod guard;
pub mod map;
pub mod policy;
pub mod pool;
pub mod registry;
pub mod retired;
pub mod tagged;
pub mod time;
pub mod util;
pub mod watchdog;

pub use atomic::{Atomic, Shared};
pub use backoff::Backoff;
pub use domain::SchemeDomain;
pub use map::{ConcurrentMap, GuardedScheme, SchemeGuard};
pub use retired::Retired;
pub use util::CachePadded;

/// Named fault-injection points compiled into this crate (each a
/// [`fault_point!`] site; no-ops without the `fault-injection` feature).
pub const FAULT_POINTS: &[&str] = backoff::FAULT_POINTS;
