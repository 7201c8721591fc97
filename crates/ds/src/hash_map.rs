//! Chaining hash table: a fixed array of buckets, one list per bucket
//! (paper §5: HMList buckets for HP, HHSList buckets for the others).

use std::hash::{Hash, Hasher};

use smr_common::ConcurrentMap;

/// Default bucket count, sized for the paper's big key range (100 K keys at
/// ~50% fill → load factor ≈ 1.7).
pub const DEFAULT_BUCKETS: usize = 30029;

/// The bucket of `key` among `buckets`: a Fibonacci hash of the key's
/// 64-bit words, scaled onto `[0, buckets)` by the high half of a widening
/// multiply — no division, and the hash's best-mixed high bits pick the
/// bucket. Unseeded, so a map's layout is the same on every run.
#[inline]
pub fn bucket_of<K: Hash + ?Sized>(key: &K, buckets: usize) -> usize {
    let mut hasher = Fibonacci(0);
    key.hash(&mut hasher);
    ((hasher.finish() as u128 * buckets as u128) >> 64) as usize
}

/// Folds each 64-bit word into the state and multiplies by 2⁶⁴/φ.
struct Fibonacci(u64);

impl Hasher for Fibonacci {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(26) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    /// Little-endian 8-byte chunks, the last one zero-padded, so every
    /// `K: Hash` has a bucket.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A chaining hash map over any list-shaped `ConcurrentMap`.
pub struct HashMap<K, V, L> {
    buckets: Vec<L>,
    _marker: std::marker::PhantomData<(K, V)>,
}

impl<K, V, L> HashMap<K, V, L>
where
    K: Hash,
    L: ConcurrentMap<K, V>,
{
    /// Creates a map with [`DEFAULT_BUCKETS`] buckets.
    pub fn new() -> Self {
        Self::with_buckets(DEFAULT_BUCKETS)
    }

    /// Creates a map with `n` buckets.
    pub fn with_buckets(n: usize) -> Self {
        Self::with_buckets_by(n, L::new)
    }

    /// Creates a map with `n` buckets built by `make`. Per-instance state
    /// — most importantly a dedicated reclamation domain shared by every
    /// bucket of one map — threads through the closure.
    pub fn with_buckets_by(n: usize, mut make: impl FnMut() -> L) -> Self {
        assert!(n > 0, "bucket count must be positive");
        Self {
            buckets: (0..n).map(|_| make()).collect(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    fn bucket(&self, key: &K) -> &L {
        &self.buckets[bucket_of(key, self.buckets.len())]
    }
}

impl<K, V, L> Default for HashMap<K, V, L>
where
    K: Hash,
    L: ConcurrentMap<K, V>,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, L> ConcurrentMap<K, V> for HashMap<K, V, L>
where
    K: Hash + Send + Sync,
    V: Send + Sync,
    L: ConcurrentMap<K, V> + Send + Sync,
{
    /// The scheme handle is shared across buckets: all lists of one map use
    /// the same per-thread state.
    type Handle = L::Handle;

    fn new() -> Self {
        HashMap::new()
    }

    fn handle(&self) -> L::Handle {
        self.buckets[0].handle()
    }

    fn get(&self, handle: &mut L::Handle, key: &K) -> Option<V> {
        self.bucket(key).get(handle, key)
    }

    fn insert(&self, handle: &mut L::Handle, key: K, value: V) -> bool {
        let bucket = self.bucket(&key);
        bucket.insert(handle, key, value)
    }

    fn remove(&self, handle: &mut L::Handle, key: &K) -> Option<V> {
        self.bucket(key).remove(handle, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guarded::HHSList;

    #[test]
    fn small_bucket_count_forces_collisions() {
        let m: HashMap<u64, u64, HHSList<u64, u64, ebr::Ebr>> = HashMap::with_buckets(2);
        let mut h = ConcurrentMap::handle(&m);
        for k in 0..100 {
            assert!(ConcurrentMap::insert(&m, &mut h, k, k * 2));
        }
        for k in 0..100 {
            assert_eq!(ConcurrentMap::get(&m, &mut h, &k), Some(k * 2));
        }
        for k in (0..100).step_by(2) {
            assert_eq!(ConcurrentMap::remove(&m, &mut h, &k), Some(k * 2));
        }
        for k in 0..100 {
            let expected = if k % 2 == 0 { None } else { Some(k * 2) };
            assert_eq!(ConcurrentMap::get(&m, &mut h, &k), expected);
        }
    }

    #[test]
    fn buckets_stay_one_word_under_guards_and_two_under_hpp() {
        // The buckets of the benchmark's `hashmap_write_ebr` and
        // `hashmap_write_hpp` maps: a guarded list keeps no domain, or
        // EBR's 65 536-bucket array would double from 512 KiB; an HP++
        // list keeps its domain beside its head.
        assert_eq!(std::mem::size_of::<HHSList<u64, u64, ebr::Ebr>>(), 8);
        assert_eq!(std::mem::size_of::<crate::hpp::HHSList<u64, u64>>(), 16);
    }

    #[test]
    fn structured_keys_spread_at_least_as_evenly_as_siphash() {
        const KEYS: u64 = 65_536;
        // Key set, and the longest chain `DefaultHasher` + `%` built from
        // it at 30 029 and 8 192 buckets (its χ²/n read 0.98–1.03 on all).
        type KeySet = (&'static str, fn(u64) -> u64, [u32; 2]);
        let sets: [KeySet; 8] = [
            ("dense", |k| k, [10, 20]),
            ("even", |k| 2 * k, [10, 19]),
            ("k·2^12", |k| k << 12, [11, 22]),
            ("k·2^32", |k| k << 32, [11, 21]),
            ("k·2^48", |k| k << 48, [10, 20]),
            ("k·1000", |k| k * 1000, [11, 23]),
            ("k·30029", |k| k * 30_029, [10, 21]),
            ("k·8192+7", |k| k * 8192 + 7, [11, 20]),
        ];
        for (name, key, siphash_longest) in sets {
            for (buckets, siphash_longest) in
                [DEFAULT_BUCKETS, 8192].into_iter().zip(siphash_longest)
            {
                let mut chains = vec![0u32; buckets];
                for k in 0..KEYS {
                    chains[bucket_of(&key(k), buckets)] += 1;
                }
                // χ² over the bucket count: ≈ 1.0 for a random hash, lower
                // for a more even spread.
                let expect = KEYS as f64 / buckets as f64;
                let chi2: f64 = chains
                    .iter()
                    .map(|&c| (c as f64 - expect).powi(2) / expect)
                    .sum::<f64>()
                    / buckets as f64;
                let longest = *chains.iter().max().unwrap();
                assert!(chi2 <= 1.2, "{name} at {buckets} buckets: χ²/n {chi2:.3}");
                assert!(
                    longest <= siphash_longest,
                    "{name} at {buckets} buckets: longest chain {longest} > SipHash's {siphash_longest}"
                );
            }
        }
    }
}
