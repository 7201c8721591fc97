//! Data structures for guard-based schemes (NR, EBR, PEBR).
//!
//! Each structure is generic over [`smr_common::GuardedScheme`]. Traversals
//! call the guard's `validate()` every step, which is a no-op for NR/EBR and
//! an ejection check for PEBR: an ejected critical section stops
//! dereferencing and restarts under a fresh pin, exactly the recovery rule
//! of the paper's §4.2.


mod bonsai;
mod efrb_tree;
mod hhs_list;
pub(crate) mod nm_tree;
mod queue;
mod skip_list;
mod hm_list;

pub use crate::hash_map::{HashMap, DEFAULT_BUCKETS};
pub use bonsai::BonsaiTree;
pub use efrb_tree::EFRBTree;
pub use hhs_list::HHSList;
pub use hm_list::HMList;
pub use nm_tree::NMTree;
pub use queue::MSQueue;
pub use skip_list::{SkipList, MAX_HEIGHT};
