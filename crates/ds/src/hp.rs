//! Data structures protected by the original hazard pointers.
//!
//! These use the *careful* traversal of §2.2: each step announces a hazard
//! pointer and validates it by re-reading the source link — a protection
//! that fails whenever the source node is marked or changed, which is a
//! sound over-approximation of "the target may be retired". Every structure
//! is the crate's one implementation of it under `Careful` (the Bonsai
//! tree validates every step against its root). Structures that need
//! optimistic traversal (HHSList, NMTree) have **no** alias here: `Careful`
//! is not `Optimistic`, and that inapplicability is the paper's starting
//! point.

use crate::list::{List, Michael};
use crate::protect::{Careful, HpHandle};
use crate::{bonsai, efrb_tree, queue, skip_list, stack};

/// Harris–Michael list protected by the original HP (paper Fig. 3).
pub type HMList<K, V> = List<K, V, Careful<::hp::Domain, 2>, Michael>;
/// Per-thread state of [`HMList`]: HP registration plus the two
/// hand-over-hand hazard pointers of Fig. 3.
pub type HMListHandle = HpHandle<::hp::Thread, 2>;

/// Chaining hash map over HP HMList buckets (paper §5).
pub type HashMap<K, V> = crate::hash_map::HashMap<K, V, HMList<K, V>>;

/// Skiplist protected by the original HP (careful, restarting traversal).
/// `true` is `Careful`'s `LINGER`: the 41 slots are not cleared after every
/// operation.
pub type SkipList<K, V> =
    skip_list::SkipList<K, V, Careful<::hp::Domain, { skip_list::SLOTS }, true>>;
/// Per-thread state of a hazard-pointer skiplist over scheme thread `T`:
/// per-level pred/succ hazard pointers and one for a node being inserted.
pub type SkipListHandle<T> = HpHandle<T, { skip_list::SLOTS }>;

/// Treiber's stack reclaimed with the original HP (paper Fig. 2).
pub type TreiberStack<T> = stack::TreiberStack<T, Careful<::hp::Domain, 1>>;
/// Per-thread state of [`TreiberStack`]: the one hazard pointer of Fig. 2.
pub type StackHandle = HpHandle<::hp::Thread, 1>;

/// Ellen et al. tree protected by the original HP.
pub type EFRBTree<K, V> = efrb_tree::EFRBTree<K, V, Careful<::hp::Domain, { efrb_tree::SLOTS }>>;
/// Per-thread state of an Ellen et al. tree over scheme thread `T`: the
/// search window (gp, p, l), the descriptors of gp and p, the operation's
/// own descriptor and a helper's node.
pub type EFRBTreeHandle<T> = HpHandle<T, { efrb_tree::SLOTS }>;

/// Bonsai tree protected by the original HP, every node validated against
/// the root.
pub type BonsaiTree<K, V> = bonsai::BonsaiTree<K, V, Careful<::hp::Domain, 0>>;
/// Per-thread state of [`BonsaiTree`]: HP registration and hazard slots
/// grown on demand, one per node an update reads — O(tree depth).
pub type BonsaiHandle = HpHandle<::hp::Thread, 0>;

/// Michael–Scott queue reclaimed with the original HP (Michael 2004's
/// running example).
pub type MSQueue<T> = queue::MSQueue<T, Careful<::hp::Domain, { queue::SLOTS }>>;
/// Per-thread state of [`MSQueue`]: two hazard pointers (head or tail,
/// next).
pub type QueueHandle = HpHandle<::hp::Thread, { queue::SLOTS }>;
