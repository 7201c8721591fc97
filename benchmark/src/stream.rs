//! Seeded operation streams: the only inputs the program ever sees.
//!
//! Every loader thread replays a pre-generated array of `(op, key)` pairs,
//! so random-number cost stays outside the timed loop and two workloads
//! given the same spec and seed receive byte-identical inputs (that is how
//! `hashmap_write_hpp` and `hashmap_write_ebr` are compared).

/// Pairs per thread; loaders wrap around when they run past the end.
pub const STREAM_LEN: usize = 1 << 22;

const KEY_BITS: u32 = 30;
const KEY_MASK: u32 = (1 << KEY_BITS) - 1;
/// The mix is exact over every block of this many operations.
const MIX_BLOCK: usize = 100;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Get,
    Insert,
    Remove,
}

/// Operation mix in percent; sums to 100.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub get: u32,
    pub insert: u32,
    pub remove: u32,
}

#[derive(Clone, Copy, Debug)]
pub enum KeyDist {
    Uniform,
    /// Zipfian over ranks `0..keys` with the given θ; rank 0 is hottest.
    Zipf(f64),
}

#[derive(Clone, Copy, Debug)]
pub struct StreamSpec {
    pub keys: u64,
    pub mix: Mix,
    pub dist: KeyDist,
}

/// The value every key maps to, so any `get`/`remove` result is checkable
/// without a model of the map.
#[inline]
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5851_F42D_4C95_7F2D
}

/// SplitMix64: small, seedable, and the same on every platform.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` by widening multiply.
    #[inline]
    fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Gray et al.'s constant-time Zipfian sampler (the YCSB generator).
struct Zipf {
    n: f64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    fn new(n: u64, theta: f64) -> Self {
        assert!(
            n >= 2 && theta > 0.0 && theta < 1.0,
            "zipf needs n >= 2 and 0 < theta < 1"
        );
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Self {
            n: n as f64,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            let rank = (self.n * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
            rank.min(self.n as u64 - 1)
        }
    }
}

/// One thread's pre-generated inputs, packed `op << 30 | key`.
pub struct OpStream {
    packed: Vec<u32>,
}

impl OpStream {
    /// Same `(spec, seed, thread)` gives the same bytes.
    pub fn generate(spec: &StreamSpec, seed: u64, thread: u64, len: usize) -> Self {
        let Mix {
            get,
            insert,
            remove,
        } = spec.mix;
        assert_eq!(
            get + insert + remove,
            MIX_BLOCK as u32,
            "mix must sum to 100"
        );
        assert!(
            spec.keys >= 2 && spec.keys <= KEY_MASK as u64 + 1,
            "key range out of bounds"
        );

        let mut rng = SplitMix64::new(seed ^ thread.wrapping_mul(0xA076_1D64_78BD_642F));
        let zipf = match spec.dist {
            KeyDist::Uniform => None,
            KeyDist::Zipf(theta) => Some(Zipf::new(spec.keys, theta)),
        };
        let mut block: Vec<Op> = Vec::with_capacity(MIX_BLOCK);
        block.extend(std::iter::repeat_n(Op::Get, get as usize));
        block.extend(std::iter::repeat_n(Op::Insert, insert as usize));
        block.extend(std::iter::repeat_n(Op::Remove, remove as usize));

        let mut packed = Vec::with_capacity(len);
        while packed.len() < len {
            // Fisher–Yates: every block holds the mix exactly, in random order.
            for i in (1..MIX_BLOCK).rev() {
                block.swap(i, rng.below(i as u64 + 1) as usize);
            }
            for &op in block.iter().take(len - packed.len()) {
                let key = match &zipf {
                    None => rng.below(spec.keys),
                    Some(z) => z.sample(&mut rng),
                };
                packed.push((op as u32) << KEY_BITS | key as u32);
            }
        }
        Self { packed }
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// The pair at `*cursor`, which then advances and wraps around the end.
    #[inline]
    pub fn next(&self, cursor: &mut usize) -> (Op, u64) {
        let pair = self.at(*cursor);
        *cursor += 1;
        if *cursor == self.packed.len() {
            *cursor = 0;
        }
        pair
    }

    #[inline]
    pub fn at(&self, i: usize) -> (Op, u64) {
        let w = self.packed[i];
        let op = match w >> KEY_BITS {
            0 => Op::Get,
            1 => Op::Insert,
            _ => Op::Remove,
        };
        (op, (w & KEY_MASK) as u64)
    }

    #[cfg(test)]
    fn bytes(&self) -> &[u32] {
        &self.packed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    const LEN: usize = 200_000;

    fn shares(s: &OpStream) -> [f64; 3] {
        let mut n = [0u64; 3];
        for i in 0..s.len() {
            n[s.at(i).0 as usize] += 1;
        }
        n.map(|c| c as f64 / s.len() as f64)
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in workloads::ALL {
            let a = OpStream::generate(&w.stream, 7, 0, LEN);
            let b = OpStream::generate(&w.stream, 7, 0, LEN);
            assert_eq!(a.bytes(), b.bytes(), "{}: same seed must repeat", w.name);
            let c = OpStream::generate(&w.stream, 8, 0, LEN);
            assert_ne!(a.bytes(), c.bytes(), "{}: seed must matter", w.name);
            let d = OpStream::generate(&w.stream, 7, 1, LEN);
            assert_ne!(a.bytes(), d.bytes(), "{}: threads must differ", w.name);
        }
    }

    #[test]
    fn hpp_and_ebr_hashmap_workloads_get_identical_streams() {
        let hpp = workloads::by_name("hashmap_write_hpp").unwrap();
        let ebr = workloads::by_name("hashmap_write_ebr").unwrap();
        for thread in 0..2 {
            let a = OpStream::generate(&hpp.stream, 42, thread, LEN);
            let b = OpStream::generate(&ebr.stream, 42, thread, LEN);
            assert_eq!(a.bytes(), b.bytes());
        }
    }

    #[test]
    fn measured_mix_is_within_one_percent_of_nominal() {
        for w in workloads::ALL {
            let s = OpStream::generate(&w.stream, 3, 0, LEN);
            let Mix {
                get,
                insert,
                remove,
            } = w.stream.mix;
            for (got, want) in shares(&s).iter().zip([get, insert, remove]) {
                assert!(
                    (got - want as f64 / 100.0).abs() < 0.01,
                    "{}: share {got} vs nominal {want} %",
                    w.name
                );
            }
        }
    }

    #[test]
    fn keys_stay_in_range_and_zipf_is_skewed() {
        for w in workloads::ALL {
            let s = OpStream::generate(&w.stream, 5, 0, LEN);
            let mut hottest = 0u64;
            for i in 0..s.len() {
                let (_, key) = s.at(i);
                assert!(key < w.stream.keys, "{}: key {key} out of range", w.name);
                hottest += (key == 0) as u64;
            }
            let share = hottest as f64 / LEN as f64;
            match w.stream.dist {
                // θ = 0.99 over 65 536 keys puts ≈ 8.6 % of draws on rank 0.
                KeyDist::Zipf(_) => assert!(share > 0.05, "{}: rank-0 share {share}", w.name),
                KeyDist::Uniform => assert!(share < 0.01, "{}: rank-0 share {share}", w.name),
            }
        }
    }

    #[test]
    fn wraps_around() {
        let w = workloads::by_name("list_read_hpp").unwrap();
        let s = OpStream::generate(&w.stream, 1, 0, 1000);
        let mut cursor = 998;
        let seen = [
            s.next(&mut cursor),
            s.next(&mut cursor),
            s.next(&mut cursor),
        ];
        assert_eq!(seen, [s.at(998), s.at(999), s.at(0)]);
        assert_eq!(cursor, 1);
    }
}
