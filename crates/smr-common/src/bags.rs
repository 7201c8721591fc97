//! Sealed per-epoch generation bags: the thread-local garbage of the two
//! epoch schemes, `ebr` and `pebr`.
//!
//! A flat `Vec<(epoch, Retired)>` would be rescanned in full by every
//! collection, testing each item's stamp even when nothing was eligible.
//! The generation bags exploit that an epoch scheme only ever needs to
//! distinguish **three** stamps: with
//! the global epoch at `g`, garbage stamped `g` and `g-1` must wait, and
//! everything stamped `≤ g-2` is free in one go. So garbage is kept in a
//! ring of three bags keyed by `stamp % 3` — one *current* bag plus two
//! *sealed* generations. Sealing is implicit: when the epoch advances, new
//! pushes simply land in the next ring slot. A collection compares three
//! stamps and drains whole expired bags in O(freed); ineligible items are
//! never re-examined.

use crate::Retired;

/// The number of distinguishable generations (current + two sealed).
const GENERATIONS: usize = 3;

/// A thread's epoch-stamped garbage, segregated by generation.
pub struct GenBags {
    /// `bags[s]` holds garbage stamped `stamps[s]`; `s == stamps[s] % 3`.
    bags: [Vec<Retired>; GENERATIONS],
    stamps: [u64; GENERATIONS],
    /// Total items across all bags, so threshold checks are O(1).
    len: usize,
}

impl Default for GenBags {
    fn default() -> Self {
        Self::new()
    }
}

impl GenBags {
    /// Empty bags.
    pub const fn new() -> Self {
        Self {
            bags: [Vec::new(), Vec::new(), Vec::new()],
            stamps: [0; GENERATIONS],
            len: 0,
        }
    }

    /// Number of retired-but-unfreed blocks held.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no garbage is held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `retired`, stamped with `epoch` (a current read of the global
    /// epoch, or an adopted orphan's original — possibly older — stamp).
    ///
    /// If the target ring slot still holds an older generation, that
    /// generation is stamped `epoch - 3` or less, hence already expired
    /// (the pusher read `epoch` from the global counter, so
    /// `stamp + 2 < epoch ≤ global`), and is freed on the spot. A stamp
    /// *older* than the slot's current generation is folded into the newer
    /// bag: that only delays its free, which is always safe.
    pub fn push(&mut self, epoch: u64, retired: Retired) {
        let slot = (epoch % GENERATIONS as u64) as usize;
        if self.bags[slot].is_empty() {
            self.stamps[slot] = epoch;
        } else if self.stamps[slot] < epoch {
            self.free_bag(slot);
            self.stamps[slot] = epoch;
        }
        self.bags[slot].push(retired);
        self.len += 1;
    }

    /// Frees every bag whose generation has expired under `global_epoch`
    /// (stamp + 2 ≤ global). Whole-bag: no per-item stamp checks.
    pub fn collect_expired(&mut self, global_epoch: u64) {
        for slot in 0..GENERATIONS {
            if !self.bags[slot].is_empty() && self.stamps[slot] + 2 <= global_epoch {
                self.free_bag(slot);
            }
        }
    }

    /// Takes in stamped orphans (a dead thread's [`drain_into`](Self::drain_into)):
    /// frees those already expired under `global_epoch` on the spot and
    /// bags the rest under their original stamps.
    pub fn adopt(&mut self, orphans: Vec<(u64, Retired)>, global_epoch: u64) {
        for (stamp, retired) in orphans {
            if stamp + 2 <= global_epoch {
                // Safety: expired — no pinned thread can still reach it.
                unsafe { retired.free() };
            } else {
                self.push(stamp, retired);
            }
        }
    }

    /// Moves everything into `out` as `(stamp, retired)` pairs (orphan
    /// donation on thread exit).
    pub fn drain_into(&mut self, out: &mut Vec<(u64, Retired)>) {
        for slot in 0..GENERATIONS {
            let stamp = self.stamps[slot];
            out.extend(self.bags[slot].drain(..).map(|r| (stamp, r)));
        }
        self.len = 0;
    }

    fn free_bag(&mut self, slot: usize) {
        self.len -= self.bags[slot].len();
        for retired in self.bags[slot].drain(..) {
            // Safety: the bag's generation has expired — no pinned thread
            // can still hold a reference (upheld by the callers' epoch
            // arguments, documented at each call site).
            unsafe { retired.free() };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Canary;
    impl Drop for Canary {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Relaxed);
        }
    }

    /// `DROPS` is shared: tests asserting its deltas run one at a time.
    fn drops_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn retired_canary() -> Retired {
        unsafe { Retired::new(Box::into_raw(Box::new(Canary))) }
    }

    #[test]
    fn nothing_frees_before_epoch_plus_two() {
        let _serial = drops_lock();
        let drops0 = DROPS.load(Relaxed);
        let mut bags = GenBags::new();
        bags.push(5, retired_canary());
        assert_eq!(bags.len(), 1);
        // Not expired at global 5 or 6.
        bags.collect_expired(5);
        bags.collect_expired(6);
        assert_eq!(DROPS.load(Relaxed), drops0);
        assert_eq!(bags.len(), 1);
        // Expired at exactly stamp + 2.
        bags.collect_expired(7);
        assert_eq!(DROPS.load(Relaxed), drops0 + 1);
        assert_eq!(bags.len(), 0);
    }

    #[test]
    fn push_evicts_only_expired_generations() {
        let _serial = drops_lock();
        let drops0 = DROPS.load(Relaxed);
        let mut bags = GenBags::new();
        // Three consecutive generations occupy the whole ring.
        bags.push(3, retired_canary());
        bags.push(4, retired_canary());
        bags.push(5, retired_canary());
        assert_eq!(DROPS.load(Relaxed), drops0);
        // Epoch 6 reuses generation 3's slot: that bag (stamped 6-3) is
        // expired by the time any thread reads 6, so it frees in-line.
        bags.push(6, retired_canary());
        assert_eq!(DROPS.load(Relaxed), drops0 + 1);
        assert_eq!(bags.len(), 3);
        // An old orphan stamp folds into the newer resident generation
        // rather than resurrecting an older one.
        bags.push(3, retired_canary());
        assert_eq!(DROPS.load(Relaxed), drops0 + 1);
        assert_eq!(bags.len(), 4);
        bags.collect_expired(8);
        assert_eq!(DROPS.load(Relaxed), drops0 + 5);
        assert_eq!(bags.len(), 0);
    }

    #[test]
    fn adopt_frees_expired_orphans_and_bags_the_rest() {
        let _serial = drops_lock();
        let drops0 = DROPS.load(Relaxed);
        let mut bags = GenBags::new();
        bags.adopt(vec![(3, retired_canary()), (4, retired_canary())], 5);
        assert_eq!(DROPS.load(Relaxed), drops0 + 1, "stamp 3 expired at 5");
        assert_eq!(bags.len(), 1);
        bags.collect_expired(6);
        assert_eq!(DROPS.load(Relaxed), drops0 + 2);
        assert!(bags.is_empty());
    }

    #[test]
    fn drain_preserves_stamps() {
        let _serial = drops_lock();
        let mut bags = GenBags::new();
        bags.push(7, retired_canary());
        bags.push(8, retired_canary());
        let mut out = Vec::new();
        bags.drain_into(&mut out);
        assert_eq!(bags.len(), 0);
        let mut stamps: Vec<u64> = out.iter().map(|(s, _)| *s).collect();
        stamps.sort_unstable();
        assert_eq!(stamps, vec![7, 8]);
        for (_, r) in out {
            unsafe { r.free() };
        }
    }
}
