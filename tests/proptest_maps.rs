//! Property-based tests: arbitrary operation traces applied to each map
//! flavor must behave exactly like a `BTreeMap`.

use std::collections::BTreeMap;

use proptest::prelude::*;
use smr_common::ConcurrentMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
}

fn op_strategy(key_space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..key_space, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0..key_space).prop_map(Op::Remove),
        (0..key_space).prop_map(Op::Get),
    ]
}

fn run_trace<M: ConcurrentMap<u64, u64>>(ops: &[Op]) {
    let m = M::new();
    let mut h = m.handle();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(k, v) => {
                let expected = !model.contains_key(&k);
                prop_assert_eq_like(m.insert(&mut h, k, v), expected, i, "insert");
                if expected {
                    model.insert(k, v);
                }
            }
            Op::Remove(k) => {
                prop_assert_eq_like(m.remove(&mut h, &k), model.remove(&k), i, "remove");
            }
            Op::Get(k) => {
                prop_assert_eq_like(m.get(&mut h, &k), model.get(&k).copied(), i, "get");
            }
        }
    }
    // Final sweep: identical contents.
    for k in 0..32 {
        assert_eq!(m.get(&mut h, &k), model.get(&k).copied(), "final sweep {k}");
    }
}

fn prop_assert_eq_like<T: PartialEq + std::fmt::Debug>(got: T, want: T, i: usize, what: &str) {
    assert_eq!(got, want, "step {i}: {what} diverged from the model");
}

macro_rules! trace_props {
    ($name:ident, $ty:ty) => {
        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
            #[test]
            fn $name(ops in proptest::collection::vec(op_strategy(32), 1..400)) {
                run_trace::<$ty>(&ops);
            }
        }
    };
}

/// A hash map of seven buckets, so a trace's 32 keys form chains: at the
/// default 30 029 buckets every list would hold one node.
struct Chained<L>(ds::hash_map::HashMap<u64, u64, L>);

impl<L: ConcurrentMap<u64, u64> + Send + Sync> ConcurrentMap<u64, u64> for Chained<L> {
    type Handle = L::Handle;

    fn new() -> Self {
        Self(ds::hash_map::HashMap::with_buckets(7))
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

trace_props!(trace_hmlist_ebr, ds::guarded::HMList<u64, u64, ebr::Ebr>);
trace_props!(trace_hmlist_hyaline, ds::guarded::HMList<u64, u64, hyaline::Hyaline>);
trace_props!(
    trace_hashmap_hyaline,
    Chained<ds::guarded::HHSList<u64, u64, hyaline::Hyaline>>
);
trace_props!(trace_hhslist_hpp, ds::hpp::HHSList<u64, u64>);
trace_props!(trace_hmlist_hp, ds::hp::HMList<u64, u64>);
trace_props!(trace_hmlist_rc, ds::cdrc::HMList<u64, u64>);
trace_props!(trace_skiplist_hpp, ds::hpp::SkipList<u64, u64>);
trace_props!(trace_nmtree_hpp, ds::hpp::NMTree<u64, u64>);
trace_props!(trace_efrbtree_hp, ds::hp::EFRBTree<u64, u64>);
trace_props!(trace_hashmap_hpp, Chained<ds::hpp::HHSList<u64, u64>>);

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Tagged-pointer algebra: composing and decomposing is lossless for
    /// any alignment-permitted tag.
    #[test]
    fn tagged_roundtrip(addr in 0usize..usize::MAX / 16, tag in 0usize..8) {
        let ptr = (addr * 8) as *mut u64; // 8-aligned
        let word = smr_common::tagged::compose(ptr, tag & 7);
        let (p, t) = smr_common::tagged::decompose::<u64>(word);
        prop_assert_eq!(p, ptr);
        prop_assert_eq!(t, tag & 7);
    }

    /// Shared<T> tag surgery never disturbs the pointer part.
    #[test]
    fn shared_with_tag_preserves_ptr(addr in 1usize..usize::MAX / 16, a in 0usize..8, b in 0usize..8) {
        let raw = (addr * 8) as *mut u64;
        let s = smr_common::Shared::from_raw(raw).with_tag(a & 7);
        prop_assert_eq!(s.as_raw(), raw);
        let s2 = s.with_tag(b & 7);
        prop_assert_eq!(s2.as_raw(), raw);
        prop_assert_eq!(s2.tag(), b & 7);
    }
}
