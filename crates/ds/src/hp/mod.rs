//! Data structures protected by the original hazard pointers.
//!
//! These use the *careful* traversal of §2.2: each step announces a hazard
//! pointer and validates it by re-reading the source link — a protection
//! that fails whenever the source node is marked or changed, which is a
//! sound over-approximation of "the target may be retired". Structures that
//! need optimistic traversal (HHSList, NMTree) have **no** implementation
//! here; that inapplicability is the paper's starting point.

// hash_map is the generic chaining map at crate root
mod bonsai;
mod hm_list;
mod queue;
mod stack;
pub(crate) mod efrb_tree;
pub(crate) mod skip_list;

/// Chaining hash map over HP HMList buckets (paper §5).
pub type HashMap<K, V> = crate::hash_map::HashMap<K, V, HMList<K, V>>;
pub use bonsai::{BonsaiTree, Handle as BonsaiHandle};
pub use hm_list::{Handle as HMListHandle, HMList};
pub use queue::{MSQueue, QueueHandle};
pub use stack::{StackHandle, TreiberStack};

/// Skiplist protected by the original HP (careful, restarting traversal).
pub type SkipList<K, V> = skip_list::SkipList<K, V, ::hp::Thread>;
pub use skip_list::Handle as SkipListHandle;

/// Ellen et al. tree protected by the original HP.
pub type EFRBTree<K, V> = efrb_tree::EFRBTree<K, V, ::hp::Thread>;
pub use efrb_tree::Handle as EFRBTreeHandle;
