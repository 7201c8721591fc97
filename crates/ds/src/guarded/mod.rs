//! Data structures for guard-based schemes (NR, EBR, PEBR, Hyaline).
//!
//! Each structure is generic over [`smr_common::GuardedScheme`]. The lists,
//! the skiplist and the NM tree are the crate's one implementation of each
//! (`list.rs`, `skip_list.rs`, `nm_tree.rs`) under
//! `Guarded`: every traversal step calls the
//! guard's `validate()`, which is a no-op for NR/EBR and an ejection check
//! for PEBR — an ejected critical section stops dereferencing and restarts
//! under a fresh pin, exactly the recovery rule of the paper's §4.2.

mod bonsai;
mod efrb_tree;
mod queue;

use crate::list::{Harris, List, Michael};
use crate::protect::Guarded;

pub use crate::hash_map::{HashMap, DEFAULT_BUCKETS};
pub use crate::skip_list::MAX_HEIGHT;
pub use bonsai::BonsaiTree;
pub use efrb_tree::EFRBTree;
pub use queue::MSQueue;

/// Harris–Michael list (careful traversal; Michael 2002).
pub type HMList<K, V, S> = List<K, V, Guarded<S>, Michael>;

/// Harris's list (2001) with the Herlihy–Shavit wait-free `get`.
pub type HHSList<K, V, S> = List<K, V, Guarded<S>, Harris>;

/// Herlihy–Shavit lock-free skiplist.
pub type SkipList<K, V, S> = crate::skip_list::SkipList<K, V, Guarded<S>>;

/// Natarajan–Mittal external BST.
pub type NMTree<K, V, S> = crate::nm_tree::NMTree<K, V, Guarded<S>>;
