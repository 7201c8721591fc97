//! The full (structure × scheme) matrix, exercised across crate boundaries:
//! every applicable pair from the paper's Table 2 gets a sequential
//! semantics check and a concurrent accounting stress.

mod common;

use common::{check_concurrent, check_sequential};
use ds::hash_map::HashMap;

macro_rules! matrix_test {
    ($name:ident, $ty:ty) => {
        #[test]
        fn $name() {
            check_sequential::<$ty>(1500, 48, 0xA11CE);
            check_concurrent::<$ty>(6, 400, 48);
        }
    };
}

// HMList row.
matrix_test!(hmlist_nr, ds::guarded::HMList<u64, u64, nr::Nr>);
matrix_test!(hmlist_ebr, ds::guarded::HMList<u64, u64, ebr::Ebr>);
matrix_test!(hmlist_pebr, ds::guarded::HMList<u64, u64, pebr::Pebr>);
matrix_test!(hmlist_hyaline, ds::guarded::HMList<u64, u64, hyaline::Hyaline>);
matrix_test!(hmlist_hp, ds::hp::HMList<u64, u64>);
matrix_test!(hmlist_hpp, ds::hpp::HMList<u64, u64>);
matrix_test!(hmlist_rc, ds::cdrc::HMList<u64, u64>);

// HHSList row (HP inapplicable — §2.3).
matrix_test!(hhslist_nr, ds::guarded::HHSList<u64, u64, nr::Nr>);
matrix_test!(hhslist_ebr, ds::guarded::HHSList<u64, u64, ebr::Ebr>);
matrix_test!(hhslist_pebr, ds::guarded::HHSList<u64, u64, pebr::Pebr>);
matrix_test!(hhslist_hyaline, ds::guarded::HHSList<u64, u64, hyaline::Hyaline>);
matrix_test!(hhslist_hpp, ds::hpp::HHSList<u64, u64>);
matrix_test!(hhslist_rc, ds::cdrc::HHSList<u64, u64>);

// HashMap row.
matrix_test!(hashmap_ebr, HashMap<u64, u64, ds::guarded::HHSList<u64, u64, ebr::Ebr>>);
matrix_test!(hashmap_pebr, HashMap<u64, u64, ds::guarded::HHSList<u64, u64, pebr::Pebr>>);
matrix_test!(hashmap_hyaline, HashMap<u64, u64, ds::guarded::HHSList<u64, u64, hyaline::Hyaline>>);
matrix_test!(hashmap_hp, ds::hp::HashMap<u64, u64>);
matrix_test!(hashmap_hpp, ds::hpp::HashMap<u64, u64>);
matrix_test!(hashmap_rc, HashMap<u64, u64, ds::cdrc::HHSList<u64, u64>>);

// SkipList row.
matrix_test!(skiplist_nr, ds::guarded::SkipList<u64, u64, nr::Nr>);
matrix_test!(skiplist_ebr, ds::guarded::SkipList<u64, u64, ebr::Ebr>);
matrix_test!(skiplist_pebr, ds::guarded::SkipList<u64, u64, pebr::Pebr>);
matrix_test!(skiplist_hyaline, ds::guarded::SkipList<u64, u64, hyaline::Hyaline>);
matrix_test!(skiplist_hp, ds::hp::SkipList<u64, u64>);
matrix_test!(skiplist_hpp, ds::hpp::SkipList<u64, u64>);

// NMTree row (HP inapplicable — §2.3).
matrix_test!(nmtree_nr, ds::guarded::NMTree<u64, u64, nr::Nr>);
matrix_test!(nmtree_ebr, ds::guarded::NMTree<u64, u64, ebr::Ebr>);
matrix_test!(nmtree_pebr, ds::guarded::NMTree<u64, u64, pebr::Pebr>);
matrix_test!(nmtree_hyaline, ds::guarded::NMTree<u64, u64, hyaline::Hyaline>);
matrix_test!(nmtree_hpp, ds::hpp::NMTree<u64, u64>);

// NMTree sibling deletes: 3 keys under 8 threads keep both leaves of one
// parent flagged at once, so a cleanup's promoted sibling is itself a
// deleted leaf — the chain walk must not retire it or descend into it.
macro_rules! sibling_delete_test {
    ($name:ident, $ty:ty) => {
        #[test]
        fn $name() {
            for _ in 0..100 {
                check_concurrent::<$ty>(8, 2000, 3);
            }
        }
    };
}
sibling_delete_test!(nmtree_sibling_delete_nr, ds::guarded::NMTree<u64, u64, nr::Nr>);
sibling_delete_test!(nmtree_sibling_delete_ebr, ds::guarded::NMTree<u64, u64, ebr::Ebr>);
sibling_delete_test!(nmtree_sibling_delete_hpp, ds::hpp::NMTree<u64, u64>);

// EFRBTree row.
matrix_test!(efrbtree_nr, ds::guarded::EFRBTree<u64, u64, nr::Nr>);
matrix_test!(efrbtree_ebr, ds::guarded::EFRBTree<u64, u64, ebr::Ebr>);
matrix_test!(efrbtree_pebr, ds::guarded::EFRBTree<u64, u64, pebr::Pebr>);
matrix_test!(efrbtree_hyaline, ds::guarded::EFRBTree<u64, u64, hyaline::Hyaline>);
matrix_test!(efrbtree_hp, ds::hp::EFRBTree<u64, u64>);
matrix_test!(efrbtree_hpp, ds::hpp::EFRBTree<u64, u64>);

// BonsaiTree row.
matrix_test!(bonsai_nr, ds::guarded::BonsaiTree<u64, u64, nr::Nr>);
matrix_test!(bonsai_ebr, ds::guarded::BonsaiTree<u64, u64, ebr::Ebr>);
matrix_test!(bonsai_pebr, ds::guarded::BonsaiTree<u64, u64, pebr::Pebr>);
matrix_test!(bonsai_hyaline, ds::guarded::BonsaiTree<u64, u64, hyaline::Hyaline>);
matrix_test!(bonsai_hp, ds::hp::BonsaiTree<u64, u64>);
matrix_test!(bonsai_hpp, ds::hpp::BonsaiTree<u64, u64>);
