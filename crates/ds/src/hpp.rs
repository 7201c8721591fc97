//! Data structures protected by HP++ (the paper's §3).
//!
//! These traverse optimistically: protection (`hp_plus::try_protect`) only
//! fails when the *source* node has been invalidated by an unlinker, so
//! logically deleted nodes are traversed right through — the behavior the
//! original HP cannot support. Physical deletion goes through
//! `hp_plus::Thread::try_unlink`, which protects the unlink frontier and
//! defers invalidation. The lists, the NM tree and the stack are the
//! crate's one implementation of each under `Hpp`, the Bonsai tree too
//! (each step validated against its source's invalidation).

use crate::list::{Harris, List, Michael};
use crate::protect::{Careful, HpHandle, Hpp};
use crate::{bonsai, efrb_tree, nm_tree, skip_list, stack};

/// Harris–Michael list protected by HP++: the careful traversal, but a
/// changed source link retargets the step instead of restarting it.
pub type HMList<K, V> = List<K, V, Hpp<4>, Michael>;

/// Harris's list with wait-free get, protected by HP++ — the paper's
/// running example (Algorithm 4).
pub type HHSList<K, V> = List<K, V, Hpp<4>, Harris>;

/// Chaining hash map over HP++ HHSList buckets (paper §5).
pub type HashMap<K, V> = crate::hash_map::HashMap<K, V, HHSList<K, V>>;

/// Natarajan–Mittal external BST protected by HP++ (Table 2: HP ✗, HP++ ✓).
pub type NMTree<K, V> = nm_tree::NMTree<K, V, Hpp<4>>;
/// Per-thread state of [`NMTree`]: HP++ registration plus the four
/// protection roles of the NM seek (prev, cur, ancestor, successor).
pub type NMTreeHandle = HpHandle<hp_plus::Thread, 4>;

/// Treiber's stack under HP++ — the smallest complete `try_unlink` client.
pub type TreiberStack<T> = stack::TreiberStack<T, Hpp<1>>;
/// Per-thread state of [`TreiberStack`].
pub type StackHandle = HpHandle<hp_plus::Thread, 1>;

/// Skiplist under HP++ in *hybrid* mode (§4.2): a tower leaves through
/// several plain CASes, which `try_unlink` cannot express, so it reuses the
/// HP-style validated protection and the plain retirement path of
/// `hp_plus::Thread`. See DESIGN.md for why the wait-free-get variant is
/// not reproduced. `true` is `Careful`'s `LINGER`, as for `hp::SkipList`.
pub type SkipList<K, V> =
    skip_list::SkipList<K, V, Careful<hp_plus::Domain, { skip_list::SLOTS }, true>>;

/// Ellen et al. tree under HP++ in *hybrid* mode (§4.2): EFRB needs no
/// optimistic traversal (HP already supports it), so HP++ adds nothing but
/// its domain — the paper measures HP++ at 80-90% of HP here.
pub type EFRBTree<K, V> = efrb_tree::EFRBTree<K, V, Careful<hp_plus::Domain, { efrb_tree::SLOTS }>>;

/// Bonsai tree protected by HP++: a node is validated against the node it
/// was read from, and the root CAS is a `try_unlink` of the replaced path.
pub type BonsaiTree<K, V> = bonsai::BonsaiTree<K, V, Hpp<0>>;
/// Per-thread state of [`BonsaiTree`]: HP++ registration and hazard slots
/// grown on demand, one per node an update reads — O(tree depth).
pub type BonsaiHandle = HpHandle<hp_plus::Thread, 0>;
