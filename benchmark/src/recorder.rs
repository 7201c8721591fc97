//! Fixed-memory value recorder with ≤ 1 % relative resolution.
//!
//! A log₂ histogram rounds 600 ns and 1 000 ns into the same bucket, so its
//! p99 flips between two powers of two from run to run. This one splits
//! every octave into 128 linear sub-buckets (values below 128 are exact),
//! and its memory does not grow with the sample count, so the benchmark's
//! own buffers do not move `rss_peak_mb`.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// A percentile is refused unless this many samples lie beyond it.
pub const MIN_TAIL_SAMPLES: u64 = 10;

#[derive(Clone)]
pub struct Recorder {
    counts: Vec<u64>,
    n: u64,
    max: u64,
}

#[derive(Debug, PartialEq, Eq)]
pub struct TooFewSamples {
    pub samples: u64,
    pub beyond: u64,
}

#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (((shift + 1) as usize) << SUB_BITS) | ((v >> shift) & (SUB - 1)) as usize
}

/// The bucket's lowest value and how many values it spans.
fn range_of_bucket(b: usize) -> (u64, u64) {
    if b < SUB as usize {
        return (b as u64, 1);
    }
    let shift = (b >> SUB_BITS) as u32 - 1;
    ((SUB + (b as u64 & (SUB - 1))) << shift, 1 << shift)
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            n: 0,
            max: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.n += 1;
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &Recorder) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Nearest-rank percentile, `p` in `(0, 1)`, placed inside its bucket by
    /// the sample's rank among the bucket's own (a bucket at 80 µs is 512 ns
    /// wide, and its midpoint would read the same run after run). Refused
    /// when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it: such a
    /// percentile is set by a handful of outliers and does not repeat.
    pub fn percentile(&self, p: f64) -> Result<u64, TooFewSamples> {
        let rank = ((p * self.n as f64).ceil() as u64).clamp(1, self.n.max(1));
        let beyond = self.n.saturating_sub(rank);
        if beyond < MIN_TAIL_SAMPLES {
            return Err(TooFewSamples {
                samples: self.n,
                beyond,
            });
        }
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (low, width) = range_of_bucket(b);
                // The k-th of c samples, spread evenly over the bucket.
                let k = rank - seen;
                return Ok(low + (width as u128 * (2 * k - 1) as u128 / (2 * c) as u128) as u64);
            }
            seen += c;
        }
        unreachable!("rank {rank} exceeds the {} recorded samples", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut r = Recorder::new();
        for v in 1..=100u64 {
            r.record(v);
        }
        assert_eq!(r.percentile(0.50), Ok(50));
        assert_eq!(r.percentile(0.90), Ok(90));
        assert_eq!(r.count(), 100);
        assert_eq!(r.max(), 100);
    }

    #[test]
    fn resolution_is_within_one_percent_everywhere() {
        let mut v = 1u64;
        while v < 1 << 40 {
            for probe in [v, v + v / 3, v + v / 2, 2 * v - 1] {
                let (low, width) = range_of_bucket(bucket_of(probe));
                assert!((low..low + width).contains(&probe), "{probe} misfiled");
                let err = (width - 1) as f64 / low as f64;
                assert!(err <= 0.01, "{probe} is only known to {err}");
            }
            v *= 2;
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn buckets_are_monotonic() {
        let mut last = 0;
        for v in (0..1_000_000u64).step_by(7) {
            let b = bucket_of(v);
            assert!(b >= last, "bucket went backwards at {v}");
            last = b;
        }
    }

    #[test]
    fn percentiles_of_a_known_distribution() {
        // 1 µs … 100 µs in 10 ns steps: p50 = 50.5 µs, p99 = 99.01 µs.
        let mut r = Recorder::new();
        for i in 0..9_901u64 {
            r.record(1_000 + 10 * i);
        }
        for (p, exact) in [(0.50, 50_500.0), (0.99, 99_010.0)] {
            let got = r.percentile(p).unwrap() as f64;
            assert!(
                (got - exact).abs() / exact <= 0.01,
                "p{p}: {got} vs {exact}"
            );
        }
        // 25 samples share the p50's 256 ns bucket; its rank among them
        // places it far closer than the bucket is wide.
        assert!(r.percentile(0.50).unwrap().abs_diff(50_500) <= 10);
        // log₂ buckets would report 65 536 for both 70 µs and 100 µs.
        assert_ne!(bucket_of(70_000), bucket_of(100_000));
    }

    #[test]
    fn refuses_a_percentile_with_fewer_than_ten_samples_beyond_it() {
        let mut r = Recorder::new();
        for v in 0..999u64 {
            r.record(v);
        }
        // p99 of 999 samples: rank 990, 9 beyond.
        assert_eq!(
            r.percentile(0.99),
            Err(TooFewSamples {
                samples: 999,
                beyond: 9
            })
        );
        r.record(999);
        assert!(
            r.percentile(0.99).is_ok(),
            "1000 samples leave 10 beyond p99"
        );
        assert!(r.percentile(0.50).is_ok());
        assert!(Recorder::new().percentile(0.5).is_err());
    }

    #[test]
    fn merge_adds_up() {
        let (mut a, mut b) = (Recorder::new(), Recorder::new());
        (0..50u64).for_each(|v| a.record(v));
        (50..100u64).for_each(|v| b.record(v));
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.max(), 99);
        assert_eq!(a.percentile(0.5), Ok(49));
    }
}
