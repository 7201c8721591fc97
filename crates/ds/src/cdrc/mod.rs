//! Data structures under CDRC reference counting (the paper's **RC**).
//!
//! Traversals read uncounted snapshots under an EBR pin; link mutations
//! transfer or adjust strong counts, with decrements deferred through EBR.
//! The paper benchmarks RC on the list-shaped structures (and omits the
//! trees, whose descriptor cycles need weak references — footnote 12);
//! we implement the same subset: one list body, two searches.

mod list;

use crate::list::{Harris, Michael};

/// Harris–Michael list, CDRC flavor.
pub type HMList<K, V> = list::List<K, V, Michael>;

/// Harris's list with wait-free get, CDRC flavor.
pub type HHSList<K, V> = list::List<K, V, Harris>;
