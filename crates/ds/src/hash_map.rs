//! Chaining hash table: a fixed array of buckets, one list per bucket
//! (paper §5: HMList buckets for HP, HHSList buckets for the others).

use std::hash::{Hash, Hasher};

use smr_common::ConcurrentMap;

/// Default bucket count, sized for the paper's big key range (100 K keys at
/// ~50% fill → load factor ≈ 1.7).
pub const DEFAULT_BUCKETS: usize = 30029; // prime

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
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        let idx = (hasher.finish() as usize) % self.buckets.len();
        &self.buckets[idx]
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
}
