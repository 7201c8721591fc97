//! The crate's test batteries and the one table that instantiates them.
//!
//! A battery is a generic check over any [`ConcurrentMap`] (or
//! [`ConcurrentBag`]); a row of [`battery_table!`] runs one battery on one
//! concrete type with fixed parameters and is one `#[test]`. Checks that
//! need a structure's private fields stay in that structure's file.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};
use std::sync::Mutex;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use smr_common::{ConcurrentMap, SchemeDomain};

use crate::bag::{BagMap, ConcurrentBag};
use crate::hash_map::HashMap;
use crate::{cdrc, guarded, hp as dshp, hpp};

/// Random single-threaded trace cross-checked against a `BTreeMap`.
fn sequential<M: ConcurrentMap<u64, u64>>() {
    let m = M::new();
    let mut h = m.handle();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);

    for i in 0..4000u64 {
        let key = rng.gen_range(0..64);
        match rng.gen_range(0..3) {
            0 => {
                let expected = !model.contains_key(&key);
                let got = m.insert(&mut h, key, i);
                assert_eq!(got, expected, "insert({key}) mismatch at step {i}");
                if expected {
                    model.insert(key, i);
                }
            }
            1 => {
                let expected = model.remove(&key);
                let got = m.remove(&mut h, &key);
                assert_eq!(got, expected, "remove({key}) mismatch at step {i}");
            }
            _ => {
                let expected = model.get(&key).copied();
                let got = m.get(&mut h, &key);
                assert_eq!(got, expected, "get({key}) mismatch at step {i}");
            }
        }
    }
    // Final sweep.
    for key in 0..64 {
        assert_eq!(m.get(&mut h, &key), model.get(&key).copied());
    }
}

/// Multi-threaded stress with per-key accounting.
///
/// Threads hammer a small key range with random inserts/removes/gets. Every
/// successful insert/remove updates a per-key net counter; when the dust
/// settles, each key's net count must be 0 or 1 and must match the final
/// map contents — any lost update, double free observable as a wrong value,
/// or resurrected node breaks the balance.
fn concurrent<M>(threads: usize, ops_per_thread: usize)
where
    M: ConcurrentMap<u64, u64> + Send + Sync,
{
    const KEYS: usize = 64;
    let m = M::new();
    let net: Vec<AtomicI64> = (0..KEYS).map(|_| AtomicI64::new(0)).collect();

    std::thread::scope(|s| {
        for tid in 0..threads {
            let m = &m;
            let net = &net;
            s.spawn(move || {
                let mut h = m.handle();
                let mut rng = SmallRng::seed_from_u64(tid as u64);
                for i in 0..ops_per_thread {
                    let key = rng.gen_range(0..KEYS as u64);
                    match rng.gen_range(0..3) {
                        0 => {
                            // Value encodes the key so torn reads are visible.
                            if m.insert(&mut h, key, key * 1000) {
                                net[key as usize].fetch_add(1, Relaxed);
                            }
                        }
                        1 => {
                            if let Some(v) = m.remove(&mut h, &key) {
                                assert_eq!(v, key * 1000, "corrupt value for {key}");
                                net[key as usize].fetch_sub(1, Relaxed);
                            }
                        }
                        _ => {
                            if let Some(v) = m.get(&mut h, &key) {
                                assert_eq!(v, key * 1000, "corrupt value for {key}");
                            }
                        }
                    }
                    let _ = i;
                }
            });
        }
    });

    let mut h = m.handle();
    for key in 0..KEYS as u64 {
        let n = net[key as usize].load(Relaxed);
        assert!(
            n == 0 || n == 1,
            "key {key}: net insert count {n} out of range"
        );
        let present = m.get(&mut h, &key).is_some();
        assert_eq!(
            present,
            n == 1,
            "key {key}: presence {present} disagrees with net count {n}"
        );
    }
}

/// Heavier mixed workload used by a few spot tests: disjoint stripes per
/// thread, so the final contents are exactly predictable.
fn striped<M>(threads: usize, keys_per_thread: u64)
where
    M: ConcurrentMap<u64, u64> + Send + Sync,
{
    let m = M::new();
    std::thread::scope(|s| {
        for tid in 0..threads as u64 {
            let m = &m;
            s.spawn(move || {
                let mut h = m.handle();
                let base = tid * keys_per_thread;
                // Insert everything, remove odd keys, re-check.
                for k in base..base + keys_per_thread {
                    assert!(m.insert(&mut h, k, k + 7));
                }
                for k in (base..base + keys_per_thread).filter(|k| k % 2 == 1) {
                    assert_eq!(m.remove(&mut h, &k), Some(k + 7));
                }
                for k in base..base + keys_per_thread {
                    let expected = if k % 2 == 0 { Some(k + 7) } else { None };
                    assert_eq!(m.get(&mut h, &k), expected, "stripe check key {k}");
                }
            });
        }
    });
}

/// Insert/remove churn far beyond every reclamation threshold; afterwards
/// `garbage_and_bound` reads the handle's own unreclaimed count (the
/// process-global counters also move with every sibling test running in
/// parallel) and the bound it must stay under. Runs `rounds` rounds and on
/// until the removes are four times that bound — a run that retires less
/// than its bound could not fail, and HP's bound floats (see its row).
fn heavy_churn<M: ConcurrentMap<u64, u64>>(
    rounds: u64,
    keys: u64,
    garbage_and_bound: impl Fn(&M::Handle) -> (usize, usize),
) {
    let m = M::new();
    let mut h = m.handle();
    let mut round = 0;
    while round < rounds || round * keys < 4 * garbage_and_bound(&h).1 as u64 {
        for k in 0..keys {
            m.insert(&mut h, k, round);
        }
        for k in 0..keys {
            m.remove(&mut h, &k);
        }
        round += 1;
    }
    let (garbage, bound) = garbage_and_bound(&h);
    assert!(
        garbage < bound,
        "garbage grew unboundedly: {garbage} >= {bound}"
    );
}

/// Removes the contiguous run `lo..hi` of `0..n` — under an optimistic
/// traversal a chain of marked nodes that one search unlinks whole — and
/// checks reads and a re-insert through it.
fn marked_run<M: ConcurrentMap<u64, u64>>(n: u64, lo: u64, hi: u64) {
    let m = M::new();
    let mut h = m.handle();
    for k in 0..n {
        assert!(m.insert(&mut h, k, k * 3));
    }
    for k in lo..hi {
        assert_eq!(m.remove(&mut h, &k), Some(k * 3));
    }
    for k in 0..n {
        let expected = (!(lo..hi).contains(&k)).then_some(k * 3);
        assert_eq!(m.get(&mut h, &k), expected);
    }
    let mid = (lo + hi) / 2;
    assert!(m.insert(&mut h, mid, 66));
    assert_eq!(m.get(&mut h, &mid), Some(66));
}

/// One key inserted, read, removed and read again, `rounds` times.
fn same_key_churn<M: ConcurrentMap<u64, u64>>(rounds: u64) {
    let m = M::new();
    let mut h = m.handle();
    for i in 0..rounds {
        assert!(m.insert(&mut h, 42, i));
        assert_eq!(m.get(&mut h, &42), Some(i));
        assert_eq!(m.remove(&mut h, &42), Some(i));
        assert_eq!(m.get(&mut h, &42), None);
    }
}

fn lifo<B: ConcurrentBag<u64>>() {
    let s = B::new();
    let mut h = s.handle();
    for i in 0..10 {
        s.add(&mut h, i);
    }
    for i in (0..10).rev() {
        assert_eq!(s.take(&mut h), Some(i));
    }
    assert_eq!(s.take(&mut h), None);
}

fn fifo<B: ConcurrentBag<u64>>() {
    let q = B::new();
    let mut h = q.handle();
    for i in 0..100 {
        q.add(&mut h, i);
    }
    for i in 0..100 {
        assert_eq!(q.take(&mut h), Some(i));
    }
    assert_eq!(q.take(&mut h), None);
}

/// Four producers of 1000 distinct values each against four consumers:
/// every value comes out exactly once.
fn no_loss_no_duplication<B: ConcurrentBag<u64> + Sync>() {
    let s = B::new();
    let seen = Mutex::new(HashSet::new());
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let s = &s;
            scope.spawn(move || {
                let mut h = s.handle();
                for i in 0..1000 {
                    s.add(&mut h, t * 10_000 + i);
                }
            });
        }
        for _ in 0..4 {
            let (s, seen) = (&s, &seen);
            scope.spawn(move || {
                let mut h = s.handle();
                let mut got = 0;
                while got < 1000 {
                    if let Some(v) = s.take(&mut h) {
                        assert!(seen.lock().unwrap().insert(v), "duplicate {v}");
                        got += 1;
                    }
                }
            });
        }
    });
    assert_eq!(seen.lock().unwrap().len(), 4000);
    assert_eq!(s.take(&mut s.handle()), None);
}

/// `name: battery::<type>(parameters);` — one `#[test]` per row.
macro_rules! battery_table {
    ($($name:ident: $battery:ident::<$ty:ty>($($arg:expr),*);)*) => {
        $(
            #[test]
            fn $name() {
                $battery::<$ty>($($arg),*);
            }
        )*
    };
}

type Ebr = ebr::Ebr;
type Nr = nr::Nr;
type Pebr = pebr::Pebr;
type HpSkipList = dshp::SkipList<u64, u64>;
type HppSkipList = hpp::SkipList<u64, u64>;

/// A hash map of seven buckets, so the rows' 64–512 keys form chains: at
/// the default 30 029 buckets every list would hold one node.
struct HashOver<L>(HashMap<u64, u64, L>);

impl<L: ConcurrentMap<u64, u64> + Send + Sync> ConcurrentMap<u64, u64> for HashOver<L> {
    type Handle = L::Handle;

    fn new() -> Self {
        Self(HashMap::with_buckets(7))
    }

    fn handle(&self) -> L::Handle {
        self.0.handle()
    }

    fn get(&self, handle: &mut L::Handle, key: &u64) -> Option<u64> {
        self.0.get(handle, key)
    }

    fn insert(&self, handle: &mut L::Handle, key: u64, value: u64) -> bool {
        self.0.insert(handle, key, value)
    }

    fn remove(&self, handle: &mut L::Handle, key: &u64) -> Option<u64> {
        self.0.remove(handle, key)
    }
}

const HPP_T: usize = hp_plus::RECLAIM_PERIOD;

battery_table! {
    // Harris–Michael list.
    hmlist_ebr_sequential: sequential::<guarded::HMList<u64, u64, Ebr>>();
    hmlist_nr_sequential: sequential::<guarded::HMList<u64, u64, Nr>>();
    hmlist_pebr_sequential: sequential::<guarded::HMList<u64, u64, Pebr>>();
    hmlist_ebr_concurrent: concurrent::<guarded::HMList<u64, u64, Ebr>>(8, 512);
    hmlist_pebr_concurrent: concurrent::<guarded::HMList<u64, u64, Pebr>>(8, 512);
    hmlist_hp_sequential: sequential::<dshp::HMList<u64, u64>>();
    hmlist_hp_concurrent: concurrent::<dshp::HMList<u64, u64>>(8, 512);
    hmlist_hp_striped: striped::<dshp::HMList<u64, u64>>(4, 64);
    // HP's scan trigger is max(threshold, k·H), and H is every slot the
    // default domain ever handed out: sibling tests raise it (a skiplist
    // handle holds 41), so the churn is sized from the bound, not fixed.
    hmlist_hp_heavy_churn: heavy_churn::<dshp::HMList<u64, u64>>(
        200, 10, |h| (h.thread.retired_count(), 2 * h.thread.reclaim_threshold() + 64));
    hmlist_hpp_sequential: sequential::<hpp::HMList<u64, u64>>();
    hmlist_hpp_concurrent: concurrent::<hpp::HMList<u64, u64>>(8, 512);
    hmlist_hpp_striped: striped::<hpp::HMList<u64, u64>>(4, 64);
    hmlist_hpp_heavy_churn: heavy_churn::<hpp::HMList<u64, u64>>(
        300, 10, |h| (hp_plus::Domain::garbage(&h.thread), 2 * HPP_T + 128));
    hmlist_rc_sequential: sequential::<cdrc::HMList<u64, u64>>();
    hmlist_rc_concurrent: concurrent::<cdrc::HMList<u64, u64>>(8, 512);
    hmlist_rc_striped: striped::<cdrc::HMList<u64, u64>>(4, 64);

    // Harris list with wait-free get.
    hhslist_ebr_sequential: sequential::<guarded::HHSList<u64, u64, Ebr>>();
    hhslist_nr_sequential: sequential::<guarded::HHSList<u64, u64, Nr>>();
    hhslist_pebr_sequential: sequential::<guarded::HHSList<u64, u64, Pebr>>();
    hhslist_ebr_concurrent: concurrent::<guarded::HHSList<u64, u64, Ebr>>(8, 512);
    hhslist_pebr_concurrent: concurrent::<guarded::HHSList<u64, u64, Pebr>>(8, 512);
    hhslist_ebr_striped: striped::<guarded::HHSList<u64, u64, Ebr>>(4, 64);
    hhslist_ebr_marked_run: marked_run::<guarded::HHSList<u64, u64, Ebr>>(10, 3, 7);
    hhslist_hpp_sequential: sequential::<hpp::HHSList<u64, u64>>();
    hhslist_hpp_concurrent: concurrent::<hpp::HHSList<u64, u64>>(8, 1024);
    hhslist_hpp_striped: striped::<hpp::HHSList<u64, u64>>(4, 64);
    hhslist_hpp_marked_run: marked_run::<hpp::HHSList<u64, u64>>(12, 4, 9);
    hhslist_hpp_heavy_churn: heavy_churn::<hpp::HHSList<u64, u64>>(
        300, 10, |h| (hp_plus::Domain::garbage(&h.thread), 2 * HPP_T + 128));
    hhslist_rc_sequential: sequential::<cdrc::HHSList<u64, u64>>();
    hhslist_rc_concurrent: concurrent::<cdrc::HHSList<u64, u64>>(8, 1024);
    hhslist_rc_striped: striped::<cdrc::HHSList<u64, u64>>(4, 64);

    // Chaining hash map.
    hashmap_ebr_sequential: sequential::<HashOver<guarded::HHSList<u64, u64, Ebr>>>();
    hashmap_nr_hmlist_sequential: sequential::<HashOver<guarded::HMList<u64, u64, Nr>>>();
    hashmap_ebr_concurrent: concurrent::<HashOver<guarded::HHSList<u64, u64, Ebr>>>(8, 512);
    hashmap_pebr_concurrent: concurrent::<HashOver<guarded::HHSList<u64, u64, Pebr>>>(8, 512);
    hashmap_ebr_striped: striped::<HashOver<guarded::HHSList<u64, u64, Ebr>>>(4, 128);

    // Skiplist.
    skiplist_ebr_sequential: sequential::<guarded::SkipList<u64, u64, Ebr>>();
    skiplist_nr_sequential: sequential::<guarded::SkipList<u64, u64, Nr>>();
    skiplist_ebr_concurrent: concurrent::<guarded::SkipList<u64, u64, Ebr>>(8, 1024);
    skiplist_pebr_concurrent: concurrent::<guarded::SkipList<u64, u64, Pebr>>(8, 512);
    skiplist_ebr_striped: striped::<guarded::SkipList<u64, u64, Ebr>>(4, 256);
    skiplist_hp_sequential: sequential::<HpSkipList>();
    skiplist_hpp_hybrid_sequential: sequential::<HppSkipList>();
    skiplist_hp_concurrent: concurrent::<HpSkipList>(8, 512);
    skiplist_hpp_hybrid_concurrent: concurrent::<HppSkipList>(8, 512);
    skiplist_hp_striped: striped::<HpSkipList>(4, 128);

    // Natarajan–Mittal tree.
    nmtree_ebr_sequential: sequential::<guarded::NMTree<u64, u64, Ebr>>();
    nmtree_nr_sequential: sequential::<guarded::NMTree<u64, u64, Nr>>();
    nmtree_ebr_concurrent: concurrent::<guarded::NMTree<u64, u64, Ebr>>(8, 1024);
    nmtree_pebr_concurrent: concurrent::<guarded::NMTree<u64, u64, Pebr>>(8, 512);
    nmtree_ebr_striped: striped::<guarded::NMTree<u64, u64, Ebr>>(4, 256);
    nmtree_ebr_same_key_churn: same_key_churn::<guarded::NMTree<u64, u64, Ebr>>(100);
    nmtree_hpp_sequential: sequential::<hpp::NMTree<u64, u64>>();
    nmtree_hpp_concurrent: concurrent::<hpp::NMTree<u64, u64>>(8, 1024);
    nmtree_hpp_striped: striped::<hpp::NMTree<u64, u64>>(4, 256);
    nmtree_hpp_heavy_churn: heavy_churn::<hpp::NMTree<u64, u64>>(
        300, 10, |h| (hp_plus::Domain::garbage(&h.thread), 4 * HPP_T + 256));

    // Ellen et al. tree.
    efrbtree_ebr_sequential: sequential::<guarded::EFRBTree<u64, u64, Ebr>>();
    efrbtree_nr_sequential: sequential::<guarded::EFRBTree<u64, u64, Nr>>();
    efrbtree_ebr_concurrent: concurrent::<guarded::EFRBTree<u64, u64, Ebr>>(8, 1024);
    efrbtree_pebr_concurrent: concurrent::<guarded::EFRBTree<u64, u64, Pebr>>(8, 512);
    efrbtree_ebr_striped: striped::<guarded::EFRBTree<u64, u64, Ebr>>(4, 256);
    efrbtree_hp_sequential: sequential::<dshp::EFRBTree<u64, u64>>();
    efrbtree_hpp_hybrid_sequential: sequential::<hpp::EFRBTree<u64, u64>>();
    efrbtree_hp_concurrent: concurrent::<dshp::EFRBTree<u64, u64>>(8, 512);
    efrbtree_hpp_hybrid_concurrent: concurrent::<hpp::EFRBTree<u64, u64>>(8, 512);
    efrbtree_hp_striped: striped::<dshp::EFRBTree<u64, u64>>(4, 128);

    // Bonsai tree.
    bonsai_ebr_sequential: sequential::<guarded::BonsaiTree<u64, u64, Ebr>>();
    bonsai_nr_sequential: sequential::<guarded::BonsaiTree<u64, u64, Nr>>();
    bonsai_ebr_concurrent: concurrent::<guarded::BonsaiTree<u64, u64, Ebr>>(6, 512);
    bonsai_pebr_concurrent: concurrent::<guarded::BonsaiTree<u64, u64, Pebr>>(6, 512);
    bonsai_ebr_striped: striped::<guarded::BonsaiTree<u64, u64, Ebr>>(4, 128);
    bonsai_hp_sequential: sequential::<dshp::BonsaiTree<u64, u64>>();
    bonsai_hp_concurrent: concurrent::<dshp::BonsaiTree<u64, u64>>(6, 384);
    bonsai_hp_striped: striped::<dshp::BonsaiTree<u64, u64>>(4, 96);
    bonsai_hpp_sequential: sequential::<hpp::BonsaiTree<u64, u64>>();
    bonsai_hpp_concurrent: concurrent::<hpp::BonsaiTree<u64, u64>>(6, 384);
    bonsai_hpp_striped: striped::<hpp::BonsaiTree<u64, u64>>(4, 96);
    bonsai_hpp_heavy_churn: heavy_churn::<hpp::BonsaiTree<u64, u64>>(
        200, 16, |h| (hp_plus::Domain::garbage(&h.thread), 8 * HPP_T + 512));

    // Treiber stack.
    stack_hp_lifo: lifo::<dshp::TreiberStack<u64>>();
    stack_hp_no_loss_no_duplication: no_loss_no_duplication::<dshp::TreiberStack<u64>>();
    stack_hpp_lifo: lifo::<hpp::TreiberStack<u64>>();
    stack_hpp_no_loss_no_duplication: no_loss_no_duplication::<hpp::TreiberStack<u64>>();
    stack_hpp_heavy_churn: heavy_churn::<BagMap<hpp::TreiberStack<u64>>>(
        400, 8, |h| (hp_plus::Domain::garbage(&h.thread), 2 * HPP_T + 64));

    // Michael–Scott queue.
    queue_ebr_fifo: fifo::<guarded::MSQueue<u64, Ebr>>();
    queue_pebr_fifo: fifo::<guarded::MSQueue<u64, Pebr>>();
    queue_hp_fifo: fifo::<dshp::MSQueue<u64>>();
    queue_ebr_no_loss_no_duplication: no_loss_no_duplication::<guarded::MSQueue<u64, Ebr>>();
    queue_pebr_no_loss_no_duplication: no_loss_no_duplication::<guarded::MSQueue<u64, Pebr>>();
    queue_hp_no_loss_no_duplication: no_loss_no_duplication::<dshp::MSQueue<u64>>();
}
