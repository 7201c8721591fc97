//! The workload engine: skewed key sampling, branch-lean operation mixing,
//! and thread pinning — everything the measured hot loop draws from.
//!
//! Design constraints (see DESIGN.md §3 "Workload engine"):
//!
//! * A key draw is **one RNG call and at most one table lookup** — uniform
//!   keys use a widening multiply (no division), skewed keys an alias table
//!   built once per run.
//! * Operation selection is **one RNG call and one 256-entry table lookup**,
//!   with no division, modulo, or data-dependent branching on percentages.
//! * Nothing in this module allocates after construction.

use rand::RngCore;

use crate::config::Workload;

// ---------------------------------------------------------------------------
// Zipfian key sampling
// ---------------------------------------------------------------------------

/// One alias-table slot: a 64-bit acceptance threshold plus the two keys the
/// slot can yield. Storing the *keys* (not the ranks) keeps sampling at a
/// single table lookup.
#[derive(Clone, Copy)]
struct AliasEntry {
    threshold: u64,
    primary: u64,
    alias: u64,
}

/// Rejection-free sampler over `0..key_range`, Zipfian with exponent
/// `theta` (rank `r` drawn with probability ∝ `1/(r+1)^theta`).
///
/// `theta = 0` degenerates to the uniform distribution and takes a
/// table-free fast path that is *bit-for-bit identical* to
/// `rng.gen_range(0..key_range)` with the vendored `rand` (same widening
/// multiply on the same single `next_u64` draw).
///
/// For `theta > 0` the constructor builds a Vose alias table over the ranks
/// and sampling costs one `next_u64`: the high bits of the 128-bit widening
/// product pick the slot, the low bits serve as the acceptance coin. Hot
/// ranks are spread over the key space by a fixed multiplicative bijection
/// (so skew does not degenerate into "hot head of the list" unless the
/// structure sorts by key anyway).
pub struct ZipfSampler {
    key_range: u64,
    /// `None` for the uniform (`theta = 0`) fast path.
    table: Option<Box<[AliasEntry]>>,
    /// Multiplier of the rank→key spreading bijection (coprime to
    /// `key_range`).
    spread: u64,
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl ZipfSampler {
    /// Builds a sampler for `0..key_range` with skew `theta ≥ 0`.
    ///
    /// Build cost is O(key_range) time and 24 bytes per key of table when
    /// `theta > 0`; `theta = 0` builds nothing.
    pub fn new(key_range: u64, theta: f64) -> Self {
        assert!(key_range > 0, "empty key range");
        assert!(theta >= 0.0 && theta.is_finite(), "bad zipf theta {theta}");

        // Rank→key spreading: golden-ratio multiplier, nudged to coprimality
        // so the map is a bijection on 0..key_range.
        let mut spread = ((key_range as f64 * 0.618_033_988_749_894_9) as u64) | 1;
        while gcd(spread, key_range) != 1 {
            spread += 2;
        }

        if theta == 0.0 {
            return Self {
                key_range,
                table: None,
                spread,
            };
        }

        let n = key_range as usize;
        // Normalized Zipf weights, scaled so the mean slot weight is 1.
        let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(theta)).collect();
        let sum: f64 = weights.iter().sum();
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * n as f64 / sum).collect();

        // Vose's alias method.
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        let mut prob = vec![1.0f64; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            prob[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] -= 1.0 - scaled[s as usize];
            if scaled[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers (float round-off) keep prob = 1, alias = self.

        let key_of = |rank: u32| ((rank as u128 * spread as u128) % key_range as u128) as u64;
        let table: Box<[AliasEntry]> = (0..n)
            .map(|i| AliasEntry {
                // Saturating cast: prob = 1.0 maps to u64::MAX (off by one
                // ulp from 2^64, which is unrepresentable — negligible).
                threshold: (prob[i] * 18_446_744_073_709_551_616.0) as u64,
                primary: key_of(i as u32),
                alias: key_of(alias[i]),
            })
            .collect();

        Self {
            key_range,
            table: Some(table),
            spread,
        }
    }

    /// Draws one key: exactly one `next_u64` and (when skewed) one table
    /// lookup. No division, no modulo, no rejection loop.
    #[inline]
    pub fn sample<R: RngCore>(&self, rng: &mut R) -> u64 {
        let r = rng.next_u64();
        // Widening multiply: high 64 bits map r uniformly onto 0..n, the low
        // 64 bits are a uniform fraction reusable as the alias coin.
        let m = r as u128 * self.key_range as u128;
        let hi = (m >> 64) as u64;
        match &self.table {
            None => hi,
            Some(table) => {
                let e = &table[hi as usize];
                if (m as u64) < e.threshold {
                    e.primary
                } else {
                    e.alias
                }
            }
        }
    }

    /// The key the spreading bijection assigns to Zipf rank `rank`
    /// (rank 0 is the hottest). Exposed so tests and analysis tools can
    /// recover the rank→frequency curve.
    pub fn key_for_rank(&self, rank: u64) -> u64 {
        debug_assert!(rank < self.key_range);
        ((rank as u128 * self.spread as u128) % self.key_range as u128) as u64
    }
}

// ---------------------------------------------------------------------------
// Operation mixing
// ---------------------------------------------------------------------------

/// One operation of the mixed workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `get` (read).
    Get,
    /// `insert`.
    Insert,
    /// `remove`.
    Remove,
}

/// A precomputed 256-entry operation-mix table, indexed by one random byte.
///
/// Replaces the seed harness's `gen_range(0..100)` + `dice % 2` pattern,
/// which cost a second RNG draw's worth of multiply work per op and — for
/// odd read percentages — correlated the insert/remove coin with the
/// threshold parity. Rounding to 1/256 granularity keeps every configured
/// percentage within 0.2% of its target (the paper's mixes are exact).
pub struct OpMix {
    table: [Op; 256],
}

impl OpMix {
    /// Builds a mix table from percentages summing to 100. The non-read
    /// share is split between insert and remove proportionally, with insert
    /// taking the floor.
    pub fn new(read_pct: u32, insert_pct: u32, remove_pct: u32) -> Self {
        assert_eq!(
            read_pct + insert_pct + remove_pct,
            100,
            "op mix must sum to 100%"
        );
        let reads = (read_pct as usize * 256 + 50) / 100;
        let rest = 256 - reads;
        let inserts = if rest == 0 {
            0
        } else {
            rest * insert_pct as usize / (insert_pct + remove_pct) as usize
        };
        let mut table = [Op::Remove; 256];
        table[..reads].fill(Op::Get);
        table[reads..reads + inserts].fill(Op::Insert);
        Self { table }
    }

    /// The mix table for a paper workload.
    pub fn for_workload(w: Workload) -> Self {
        let (r, i, d) = w.mix_pcts();
        Self::new(r, i, d)
    }

    /// Picks an operation from the low byte of `r` — one table lookup, no
    /// division or modulo.
    #[inline]
    pub fn pick(&self, r: u64) -> Op {
        self.table[(r & 0xFF) as usize]
    }
}

// ---------------------------------------------------------------------------
// Thread pinning
// ---------------------------------------------------------------------------

/// Pins the calling thread to CPU `tid % available_parallelism`, so a sweep
/// of worker indices lands on distinct cores (wrapping under
/// oversubscription). Returns whether a pin was applied — `false` when
/// unsupported on this platform.
pub fn pin_thread(tid: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut set: libc::cpu_set_t = unsafe { std::mem::zeroed() };
        libc::CPU_ZERO(&mut set);
        libc::CPU_SET(tid % cores, &mut set);
        unsafe { libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = tid;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn uniform_path_is_bit_for_bit_gen_range() {
        // theta = 0 must reproduce the seed harness's key stream exactly:
        // same RNG state in, same keys out, for a full 1M-draw replay.
        for key_range in [16u64, 10_000, 100_000] {
            let sampler = ZipfSampler::new(key_range, 0.0);
            let mut a = SmallRng::seed_from_u64(0x5EED);
            let mut b = SmallRng::seed_from_u64(0x5EED);
            for _ in 0..1_000_000 {
                assert_eq!(sampler.sample(&mut a), b.gen_range(0..key_range));
            }
        }
    }

    #[test]
    fn zipf_stays_in_range_and_spread_is_bijective() {
        let n = 1000;
        let sampler = ZipfSampler::new(n, 0.99);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100_000 {
            assert!(sampler.sample(&mut rng) < n);
        }
        let mut seen = vec![false; n as usize];
        for r in 0..n {
            let k = sampler.key_for_rank(r) as usize;
            assert!(!seen[k], "spread map not a bijection");
            seen[k] = true;
        }
    }

    #[test]
    fn zipf_rank_frequency_monotone_and_head_heavy() {
        // theta = 0.99 over 1000 keys: frequencies must fall with rank, and
        // the 10 hottest ranks must carry a large share of the mass
        // (analytically ~38%; uniform would give 1%).
        let n = 1000u64;
        let samples = 400_000u64;
        let sampler = ZipfSampler::new(n, 0.99);
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        let mut freq = vec![0u64; n as usize];
        for _ in 0..samples {
            freq[sampler.sample(&mut rng) as usize] += 1;
        }
        let by_rank: Vec<u64> = (0..n)
            .map(|r| freq[sampler.key_for_rank(r) as usize])
            .collect();
        assert!(
            by_rank[0] > by_rank[9] && by_rank[9] > by_rank[99] && by_rank[99] > by_rank[999],
            "rank frequencies not decreasing: r0={} r9={} r99={} r999={}",
            by_rank[0],
            by_rank[9],
            by_rank[99],
            by_rank[999]
        );
        let head: u64 = by_rank[..10].iter().sum();
        let head_share = head as f64 / samples as f64;
        assert!(
            head_share > 0.30,
            "top-10 ranks carry only {head_share:.3} of the mass"
        );
    }

    #[test]
    fn mix_matches_configured_percentages_within_one_percent() {
        // Satellite: the seed's `dice % 2` split correlated insert/remove
        // with threshold parity. The table must hit every configured
        // percentage — and the insert/remove *balance* — within 1% over 1M
        // samples.
        for w in [Workload::WriteOnly, Workload::ReadWrite, Workload::ReadMost] {
            let (r_pct, i_pct, d_pct) = w.mix_pcts();
            let mix = OpMix::for_workload(w);
            let mut rng = SmallRng::seed_from_u64(42);
            let (mut r, mut i, mut d) = (0u64, 0u64, 0u64);
            let total = 1_000_000u64;
            for _ in 0..total {
                match mix.pick(rng.next_u64()) {
                    Op::Get => r += 1,
                    Op::Insert => i += 1,
                    Op::Remove => d += 1,
                }
            }
            let pct = |c: u64| c as f64 * 100.0 / total as f64;
            assert!((pct(r) - r_pct as f64).abs() < 1.0, "{w}: reads {}", pct(r));
            assert!(
                (pct(i) - i_pct as f64).abs() < 1.0,
                "{w}: inserts {}",
                pct(i)
            );
            assert!(
                (pct(d) - d_pct as f64).abs() < 1.0,
                "{w}: removes {}",
                pct(d)
            );
            assert!(
                (pct(i) - pct(d)).abs() < 1.0,
                "{w}: insert/remove imbalance ({} vs {})",
                pct(i),
                pct(d)
            );
        }
    }

    #[test]
    fn mix_table_is_exact_for_paper_workloads() {
        // All three paper mixes divide 256 exactly after rounding, so the
        // table itself (not just samples of it) must match.
        for (w, reads, inserts) in [
            (Workload::WriteOnly, 0usize, 128usize),
            (Workload::ReadWrite, 128, 64),
            (Workload::ReadMost, 230, 13),
        ] {
            let mix = OpMix::for_workload(w);
            let r = mix.table.iter().filter(|o| **o == Op::Get).count();
            let i = mix.table.iter().filter(|o| **o == Op::Insert).count();
            assert_eq!((r, i), (reads, inserts), "{w}");
        }
    }

    #[test]
    fn pin_thread_does_not_fail_catastrophically() {
        // Either pins (linux, enabled) or reports false; never panics.
        let _ = pin_thread(0);
        let _ = pin_thread(usize::MAX - 1); // wraps via modulo
    }
}
