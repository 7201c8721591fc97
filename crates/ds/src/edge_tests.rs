//! Edge-case batteries shared across flavors: empty maps, boundary keys,
//! non-trivial value types, and exactly-once destruction.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use smr_common::ConcurrentMap;

fn empty_map_behaviour<M: ConcurrentMap<u64, u64>>() {
    let m = M::new();
    let mut h = m.handle();
    assert_eq!(m.get(&mut h, &0), None);
    assert_eq!(m.remove(&mut h, &0), None);
    assert_eq!(m.get(&mut h, &u64::MAX), None);
    assert_eq!(m.remove(&mut h, &u64::MAX), None);
}

fn boundary_keys<M: ConcurrentMap<u64, u64>>() {
    let m = M::new();
    let mut h = m.handle();
    for k in [0, 1, u64::MAX - 1, u64::MAX] {
        assert!(m.insert(&mut h, k, !k));
        assert!(!m.insert(&mut h, k, 0), "duplicate {k} accepted");
    }
    for k in [0, 1, u64::MAX - 1, u64::MAX] {
        assert_eq!(m.get(&mut h, &k), Some(!k));
    }
    assert_eq!(m.remove(&mut h, &0), Some(!0));
    assert_eq!(m.remove(&mut h, &u64::MAX), Some(0));
    assert_eq!(m.get(&mut h, &0), None);
    assert_eq!(m.get(&mut h, &1), Some(!1));
}

fn string_values<M: ConcurrentMap<u64, String>>() {
    let m = M::new();
    let mut h = m.handle();
    for k in 0..64u64 {
        assert!(m.insert(&mut h, k, format!("value-{k}")));
    }
    for k in 0..64u64 {
        assert_eq!(
            m.get(&mut h, &k).as_deref(),
            Some(format!("value-{k}").as_str())
        );
    }
    for k in (0..64u64).step_by(2) {
        assert_eq!(m.remove(&mut h, &k), Some(format!("value-{k}")));
    }
    for k in 0..64u64 {
        let expect = (k % 2 == 1).then(|| format!("value-{k}"));
        assert_eq!(m.get(&mut h, &k), expect);
    }
}

macro_rules! edge_battery {
    ($name:ident, $map:ident) => {
        mod $name {
            use super::*;

            #[test]
            fn empty() {
                empty_map_behaviour::<$map<u64, u64>>();
            }

            #[test]
            fn boundaries() {
                boundary_keys::<$map<u64, u64>>();
            }

            #[test]
            fn strings() {
                string_values::<$map<u64, String>>();
            }
        }
    };
}

type GuardedHM<K, V> = crate::guarded::HMList<K, V, ebr::Ebr>;
type GuardedSkip<K, V> = crate::guarded::SkipList<K, V, ebr::Ebr>;
type GuardedBonsai<K, V> = crate::guarded::BonsaiTree<K, V, pebr::Pebr>;
type HpHM<K, V> = crate::hp::HMList<K, V>;
type HpEfrb<K, V> = crate::hp::EFRBTree<K, V>;
type HppHHS<K, V> = crate::hpp::HHSList<K, V>;
type HppNM<K, V> = crate::hpp::NMTree<K, V>;
type HppHash<K, V> = crate::hpp::HashMap<K, V>;
type RcHM<K, V> = crate::cdrc::HMList<K, V>;

edge_battery!(guarded_hmlist, GuardedHM);
edge_battery!(guarded_skiplist, GuardedSkip);
edge_battery!(guarded_bonsai, GuardedBonsai);
edge_battery!(hp_hmlist, HpHM);
edge_battery!(hp_efrbtree, HpEfrb);
edge_battery!(hpp_hhslist, HppHHS);
edge_battery!(hpp_nmtree, HppNM);
edge_battery!(hpp_hashmap, HppHash);
edge_battery!(rc_hmlist, RcHM);

/// Dropping a populated map must destroy every remaining value exactly once
/// (no leaks of reachable nodes, no double frees).
#[test]
fn drop_destroys_contents_exactly_once() {
    static DROPS: AtomicUsize = AtomicUsize::new(0);

    #[derive(Clone)]
    struct Counted(#[allow(dead_code)] u64);
    impl Drop for Counted {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Relaxed);
        }
    }

    fn run<M: ConcurrentMap<u64, Counted>>(n: u64) {
        let before = DROPS.load(Relaxed);
        {
            let m = M::new();
            let mut h = m.handle();
            for k in 0..n {
                assert!(m.insert(&mut h, k, Counted(k)));
            }
        }
        let dropped = DROPS.load(Relaxed) - before;
        // Clone-on-get and clone-on-build may add copies, but at least one
        // drop per inserted value must have happened, and drops of the
        // *stored* values happen exactly once at teardown: for insert-only
        // histories the count is exactly n (+ n transient clones for the
        // structures that clone values while path-copying).
        assert!(
            dropped >= n as usize,
            "leaked values: expected >= {n}, got {dropped}"
        );
    }

    run::<crate::guarded::HMList<u64, Counted, ebr::Ebr>>(128);
    run::<crate::hp::HMList<u64, Counted>>(128);
    run::<crate::hpp::HHSList<u64, Counted>>(128);
    run::<crate::guarded::SkipList<u64, Counted, ebr::Ebr>>(128);
    run::<crate::hpp::NMTree<u64, Counted>>(128);
    run::<crate::hp::EFRBTree<u64, Counted>>(128);
}

/// A reader parked inside `get_with` still holds its protections: the node
/// it is looking at survives being removed and any number of reclamation
/// passes, and is freed by the first pass after the reader returns.
#[test]
fn get_with_keeps_the_node_protected_until_the_closure_returns() {
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    /// Counts drops of the stored value; clones (what `remove` hands back)
    /// do not count.
    struct Stored(Option<Arc<AtomicUsize>>);
    impl Clone for Stored {
        fn clone(&self) -> Self {
            Stored(None)
        }
    }
    impl Drop for Stored {
        fn drop(&mut self) {
            if let Some(drops) = &self.0 {
                drops.fetch_add(1, Relaxed);
            }
        }
    }

    fn parked_reader<P, T>(reclaim: fn(&mut P::Handle))
    where
        P: crate::protect::Protect,
        T: crate::list::Traversal<P>,
    {
        const KEY: u64 = 7;
        let drops = Arc::new(AtomicUsize::new(0));
        let m = crate::list::List::<u64, Stored, P, T>::new();
        let mut h = m.handle();
        assert!(m.insert(&mut h, KEY, Stored(Some(drops.clone()))));
        std::thread::scope(|s| {
            // Owned by this closure, so a failed assertion below hangs up
            // on the reader instead of leaving it parked.
            let (parked_tx, parked_rx) = channel();
            let (resume_tx, resume_rx) = channel::<()>();
            let m = &m;
            s.spawn(move || {
                let mut rh = m.handle();
                m.get_with(&mut rh, &KEY, |value| {
                    assert!(value.is_some());
                    parked_tx.send(()).unwrap();
                    resume_rx.recv().unwrap();
                });
                // Keep the handle (and its slots) alive: only leaving
                // `get_with` may have released the node.
                parked_tx.send(()).unwrap();
                resume_rx.recv().unwrap();
            });
            parked_rx.recv().unwrap();
            assert!(m.remove(&mut h, &KEY).is_some());
            // Far past every threshold, then a forced pass.
            for k in 100..100 + 4 * hp_plus::RECLAIM_PERIOD as u64 {
                assert!(m.insert(&mut h, k, Stored(None)));
                assert!(m.remove(&mut h, &k).is_some());
            }
            reclaim(&mut h);
            assert_eq!(drops.load(Relaxed), 0, "freed under a parked reader");
            resume_tx.send(()).unwrap();
            parked_rx.recv().unwrap();
            reclaim(&mut h);
            assert_eq!(drops.load(Relaxed), 1, "not freed after the reader left");
            resume_tx.send(()).unwrap();
        });
    }

    use crate::list::{Harris, Michael};
    use crate::protect::{Careful, Hpp};
    parked_reader::<Careful<hp::Domain, 2>, Michael>(|h| h.thread.reclaim());
    parked_reader::<Hpp<4>, Michael>(|h| h.thread.reclaim());
    parked_reader::<Hpp<4>, Harris>(|h| h.thread.reclaim());
}
