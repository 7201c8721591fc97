//! Data structures for guard-based schemes (NR, EBR, PEBR, Hyaline).
//!
//! Each structure is the crate's one implementation of it under
//! `Guarded<S>`, for any [`smr_common::GuardedScheme`] `S`: every traversal
//! step calls the guard's `validate()`, which is a no-op for NR/EBR and an
//! ejection check for PEBR — an ejected critical section stops
//! dereferencing and restarts under a fresh pin, exactly the recovery rule
//! of the paper's §4.2.

use crate::list::{Harris, List, Michael};
use crate::protect::Guarded;

pub use crate::hash_map::{HashMap, DEFAULT_BUCKETS};
pub use crate::skip_list::MAX_HEIGHT;

/// Harris–Michael list (careful traversal; Michael 2002).
pub type HMList<K, V, S> = List<K, V, Guarded<S>, Michael>;

/// Harris's list (2001) with the Herlihy–Shavit wait-free `get`.
pub type HHSList<K, V, S> = List<K, V, Guarded<S>, Harris>;

/// Herlihy–Shavit lock-free skiplist.
pub type SkipList<K, V, S> = crate::skip_list::SkipList<K, V, Guarded<S>>;

/// Natarajan–Mittal external BST.
pub type NMTree<K, V, S> = crate::nm_tree::NMTree<K, V, Guarded<S>>;

/// Ellen et al. external BST.
pub type EFRBTree<K, V, S> = crate::efrb_tree::EFRBTree<K, V, Guarded<S>>;

/// Non-blocking Bonsai tree (COW path-copy + root CAS).
pub type BonsaiTree<K, V, S> = crate::bonsai::BonsaiTree<K, V, Guarded<S>>;

/// Michael–Scott queue — the paper's §4.2 example of a structure
/// satisfying Assumption 1 "for free".
pub type MSQueue<T, S> = crate::queue::MSQueue<T, Guarded<S>>;
