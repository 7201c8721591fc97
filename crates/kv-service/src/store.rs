//! Per-shard store implementations: an SMR-protected map plus the
//! *private* reclamation domain it retires into.
//!
//! The trait is the seam between the service and the schemes. Everything
//! the shard worker and the fault tests need is expressed here:
//!
//! * `new_shard` builds the map **and** its own domain/collector, so one
//!   shard's garbage is charged to that shard alone;
//! * `garbage` reads the worker handle's local garbage — with exactly one
//!   worker per shard, the handle's count *is* the shard's count;
//! * `garbage_bound` derives the scheme's published worst-case bound
//!   (HP's `k·H + threshold` rule, plus HP++'s deferred-invalidation
//!   slack); `None` means the scheme has no stall-proof bound (EBR);
//! * `drain_orphans` adopts and frees what a dead worker donated.

use smr_common::policy::PolicyKind;
use smr_common::{ConcurrentMap, GuardedScheme};

/// One shard's map + private reclamation domain.
pub trait ShardStore: Send + Sync + Sized + 'static {
    /// Per-worker scheme state (guard slots, local garbage bags).
    type Handle;

    /// Builds the shard: fresh map, fresh domain. `buckets` sizes the
    /// shard's hash table; the second argument is ignored (it survives for
    /// `benchmark/`, see `smr_common::policy`'s compatibility block).
    fn new_shard(buckets: usize, _ignored: PolicyKind) -> Self;

    /// Registers a worker with this shard's domain.
    fn handle(&self) -> Self::Handle;

    fn get(&self, handle: &mut Self::Handle, key: u64) -> Option<u64>;
    fn insert(&self, handle: &mut Self::Handle, key: u64, value: u64) -> bool;
    fn remove(&self, handle: &mut Self::Handle, key: u64) -> Option<u64>;

    /// Unreclaimed blocks charged to `handle` (= the shard, single worker).
    fn garbage(handle: &Self::Handle) -> u64;

    /// The scheme's derived worst-case garbage bound for one shard, or
    /// `None` if the scheme cannot bound garbage under a stalled collector.
    fn garbage_bound(&self) -> Option<u64>;

    /// Flushes reclamation as far as the scheme allows (worker exit path).
    fn quiesce(&self, handle: &mut Self::Handle);

    /// Adopts and frees garbage donated by a dead worker.
    fn drain_orphans(&self);

    /// Blocks settled in this store's private domain after its (sole)
    /// worker died and its teardown donated everything — i.e. what leaks
    /// if the domain is quarantined *instead of* drained. Only meaningful
    /// once the dead worker has been joined; stores without a private
    /// domain (NR) report 0, since quarantining them leaks nothing extra.
    fn settled_garbage(&self) -> u64 {
        0
    }

    /// Scheme tag for stats and bench CSV rows.
    const SCHEME: &'static str;
}

/// HP++ chaining hash map over a private [`hp_plus::Domain`] — the
/// default store: bounded garbage *and* optimistic traversal (the paper's
/// headline combination).
pub struct HppStore {
    domain: &'static hp_plus::Domain,
    map: ds::hpp::HashMap<u64, u64>,
}

impl ShardStore for HppStore {
    type Handle = ds::hpp::Handle;

    fn new_shard(buckets: usize, _ignored: PolicyKind) -> Self {
        // Shards live for the service's lifetime and domains must outlive
        // every handle they registered; leaking one small Domain per shard
        // is the same idiom the fault tests use.
        let domain: &'static hp_plus::Domain = Box::leak(Box::new(hp_plus::Domain::new()));
        Self {
            domain,
            map: ds::hpp::hash_map_in(domain, buckets),
        }
    }

    fn handle(&self) -> Self::Handle {
        self.map.handle()
    }

    fn get(&self, handle: &mut Self::Handle, key: u64) -> Option<u64> {
        self.map.get(handle, &key)
    }

    fn insert(&self, handle: &mut Self::Handle, key: u64, value: u64) -> bool {
        self.map.insert(handle, key, value)
    }

    fn remove(&self, handle: &mut Self::Handle, key: u64) -> Option<u64> {
        self.map.remove(handle, &key)
    }

    fn garbage(handle: &Self::Handle) -> u64 {
        handle.garbage_count() as u64
    }

    fn garbage_bound(&self) -> Option<u64> {
        // HP++'s derived per-thread cap, times a 2x in-flight margin — the
        // same derivation as tests/robustness.rs.
        let h_slots = self.domain.hp_domain().slot_capacity();
        Some(2 * hp_plus::garbage_bound(h_slots) as u64)
    }

    fn quiesce(&self, handle: &mut Self::Handle) {
        handle.reclaim();
    }

    fn drain_orphans(&self) {
        // A fresh thread's reclaim adopts the domain's orphan lists; its
        // own teardown donates back whatever stays protected (nothing, by
        // the time shutdown calls this).
        let mut thread = self.domain.register();
        thread.reclaim();
    }

    fn settled_garbage(&self) -> u64 {
        // The dead worker's teardown pushed every unreclaimed block onto
        // the domain's orphan lists; with one worker per shard nothing
        // else holds local garbage, so the orphan count *is* the settled
        // total.
        self.domain.hp_domain().orphan_count() as u64
    }

    const SCHEME: &'static str = "hpp";
}

type GuardedMap<S> = ds::hash_map::HashMap<u64, u64, ds::guarded::HHSList<u64, u64, S>>;
type GuardedHandle<D> = <<D as GuardedDomain>::Scheme as GuardedScheme>::Handle;

/// Where a guarded shard's workers register and its garbage lives — all
/// that the guarded stores differ in; [`GuardedStore`] is the rest.
pub trait GuardedDomain: Send + Sync + 'static {
    /// The guard-based scheme the shard's map is instantiated with.
    type Scheme: GuardedScheme;

    /// [`ShardStore::SCHEME`] of the store over this domain.
    const SCHEME: &'static str;

    /// The shard's domain.
    fn new_domain() -> Self;

    /// Registers a worker here, bypassing `GuardedScheme::handle` (which
    /// registers with the process default).
    fn register(&self) -> GuardedHandle<Self>;

    /// Unreclaimed blocks held by `handle`.
    fn local_garbage(handle: &GuardedHandle<Self>) -> u64;

    /// One reclamation round: adopt orphans, then try to advance the epoch
    /// (EBR) or hand the local batch over (Hyaline). Three rounds expire
    /// everything when nothing else is pinned.
    fn flush(handle: &mut GuardedHandle<Self>);

    /// See [`ShardStore::garbage_bound`].
    fn garbage_bound() -> Option<u64> {
        None
    }

    /// See [`ShardStore::settled_garbage`].
    fn settled_garbage(&self) -> u64 {
        0
    }
}

/// Harris–Herlihy–Shavit chaining hash map under a guard-based scheme,
/// retiring into the [`GuardedDomain`] `D`.
pub struct GuardedStore<D: GuardedDomain> {
    domain: D,
    map: GuardedMap<D::Scheme>,
}

impl<D: GuardedDomain> ShardStore for GuardedStore<D> {
    type Handle = GuardedHandle<D>;

    fn new_shard(buckets: usize, _ignored: PolicyKind) -> Self {
        Self {
            domain: D::new_domain(),
            map: ds::hash_map::HashMap::with_buckets(buckets),
        }
    }

    fn handle(&self) -> Self::Handle {
        self.domain.register()
    }

    fn get(&self, handle: &mut Self::Handle, key: u64) -> Option<u64> {
        self.map.get(handle, &key)
    }

    fn insert(&self, handle: &mut Self::Handle, key: u64, value: u64) -> bool {
        self.map.insert(handle, key, value)
    }

    fn remove(&self, handle: &mut Self::Handle, key: u64) -> Option<u64> {
        self.map.remove(handle, &key)
    }

    fn garbage(handle: &Self::Handle) -> u64 {
        D::local_garbage(handle)
    }

    fn garbage_bound(&self) -> Option<u64> {
        D::garbage_bound()
    }

    fn quiesce(&self, handle: &mut Self::Handle) {
        for _ in 0..3 {
            D::flush(handle);
        }
    }

    fn drain_orphans(&self) {
        self.quiesce(&mut self.domain.register());
    }

    fn settled_garbage(&self) -> u64 {
        self.domain.settled_garbage()
    }

    const SCHEME: &'static str = D::SCHEME;
}

/// EBR map over a **private** [`ebr::Collector`] per shard: a wedged pin
/// stops this shard's epoch only. No `garbage_bound`: EBR's garbage is
/// bounded only while the epoch advances; one stalled pin unbounds it
/// (Table 1).
pub type EbrStore = GuardedStore<&'static ebr::Collector>;

impl EbrStore {
    /// This shard's collection trigger (`max(floor, k·participants)`);
    /// fault tests derive the expected steady-state garbage bound from it.
    pub fn collect_threshold(&self) -> usize {
        self.domain.collect_threshold()
    }
}

impl GuardedDomain for &'static ebr::Collector {
    type Scheme = ebr::Ebr;
    const SCHEME: &'static str = "ebr";

    fn new_domain() -> Self {
        // Shards live for the service's lifetime and domains must outlive
        // every handle they registered: leak one small collector per shard.
        Box::leak(Box::new(ebr::Collector::new()))
    }

    fn register(&self) -> ebr::LocalHandle {
        ebr::Collector::register(self)
    }

    fn local_garbage(handle: &ebr::LocalHandle) -> u64 {
        handle.local_garbage() as u64
    }

    fn flush(handle: &mut ebr::LocalHandle) {
        handle.pin().flush();
    }

    fn settled_garbage(&self) -> u64 {
        self.orphan_count() as u64
    }
}

/// Hyaline map over a **private** [`hyaline::Domain`] per shard:
/// snapshot-free reference-counted batch handover. Unlike EBR there is no
/// epoch to wedge — a batch waits only on the slots that were active at its
/// handover — so the store has a derived stall-proof garbage bound where
/// [`EbrStore`] must report `None`.
pub type HyalineStore = GuardedStore<&'static hyaline::Domain>;

impl GuardedDomain for &'static hyaline::Domain {
    type Scheme = hyaline::Hyaline;
    const SCHEME: &'static str = "hyaline";

    fn new_domain() -> Self {
        Box::leak(Box::new(hyaline::Domain::new()))
    }

    fn register(&self) -> hyaline::LocalHandle {
        hyaline::Domain::register(self)
    }

    fn local_garbage(handle: &hyaline::LocalHandle) -> u64 {
        handle.local_garbage() as u64
    }

    fn flush(handle: &mut hyaline::LocalHandle) {
        // The guard drop releases this worker's own reference to the batch
        // it just handed over.
        handle.pin().flush();
    }

    fn garbage_bound() -> Option<u64> {
        // One worker per shard: its unhanded batch plus the batches the
        // worker's own critical sections can pin — `hyaline::garbage_bound`
        // derives the cap from the handover trigger, never hard-coded.
        Some(hyaline::garbage_bound(1) as u64)
    }

    fn settled_garbage(&self) -> u64 {
        self.orphan_count() as u64
    }
}

/// No reclamation at all: the leaking upper-bound baseline.
pub type NrStore = GuardedStore<nr::Nr>;

impl GuardedDomain for nr::Nr {
    type Scheme = nr::Nr;
    const SCHEME: &'static str = "nr";

    fn new_domain() -> Self {
        nr::Nr
    }

    fn register(&self) {}

    fn local_garbage(_handle: &()) -> u64 {
        0 // NR never frees; "garbage" is simply the leak, tracked globally.
    }

    fn flush(_handle: &mut ()) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<S: ShardStore>() {
        let store = S::new_shard(64, Default::default());
        let mut h = store.handle();
        assert!(store.insert(&mut h, 1, 10));
        assert!(!store.insert(&mut h, 1, 11), "duplicate insert fails");
        assert_eq!(store.get(&mut h, 1), Some(10));
        assert_eq!(store.remove(&mut h, 1), Some(10));
        assert_eq!(store.get(&mut h, 1), None);
        store.quiesce(&mut h);
    }

    #[test]
    fn all_stores_roundtrip() {
        roundtrip::<HppStore>();
        roundtrip::<EbrStore>();
        roundtrip::<NrStore>();
        roundtrip::<HyalineStore>();
    }

    #[test]
    fn private_domains_do_not_share_garbage() {
        // Churn in shard A must not move shard B's local garbage count.
        let a = HppStore::new_shard(16, Default::default());
        let b = HppStore::new_shard(16, Default::default());
        let mut ha = a.handle();
        let hb = b.handle();
        for k in 0..300u64 {
            a.insert(&mut ha, k, k);
            a.remove(&mut ha, k);
        }
        assert_eq!(HppStore::garbage(&hb), 0, "sibling shard charged for churn");
        let bound = a.garbage_bound().unwrap();
        assert!(
            HppStore::garbage(&ha) <= bound,
            "churning shard over its own bound: {} > {bound}",
            HppStore::garbage(&ha)
        );
    }

    #[test]
    fn private_hyaline_domains_do_not_share_garbage() {
        // Same isolation property for the hyaline store: batches retired by
        // shard A hand over within A's private domain only.
        let a = HyalineStore::new_shard(16, Default::default());
        let b = HyalineStore::new_shard(16, Default::default());
        let mut ha = a.handle();
        let hb = b.handle();
        for k in 0..300u64 {
            a.insert(&mut ha, k, k);
            a.remove(&mut ha, k);
        }
        assert_eq!(
            HyalineStore::garbage(&hb),
            0,
            "sibling shard charged for churn"
        );
        let bound = a.garbage_bound().unwrap();
        assert!(
            HyalineStore::garbage(&ha) <= bound,
            "churning shard over its own bound: {} > {bound}",
            HyalineStore::garbage(&ha)
        );
    }
}
