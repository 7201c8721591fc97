//! The per-shard store: an SMR-protected map plus the *private*
//! reclamation domain it retires into.
//!
//! The trait is the seam between the service and the schemes. Everything
//! the shard worker and the fault tests need is expressed here, and every
//! garbage method is answered by the store's domain through
//! [`SchemeDomain`]:
//!
//! * `new_shard` builds the map **and** its own domain, so one shard's
//!   garbage is charged to that shard alone;
//! * `garbage` reads the worker handle's local garbage — with exactly one
//!   worker per shard, the handle's count *is* the shard's count;
//! * `garbage_bound` is the domain's derived worst-case bound; `None`
//!   means the scheme has no stall-proof bound (EBR, NR);
//! * `drain_orphans` adopts and frees what a dead worker donated.
//!
//! [`SchemeStore`] is the one scheme-backed implementation; the named
//! stores are its instances.

use std::borrow::{Borrow, BorrowMut};

use ds::InDomain;
use smr_common::policy::PolicyKind;
use smr_common::{ConcurrentMap, SchemeDomain};

/// One shard's map + private reclamation domain.
pub trait ShardStore: Send + Sync + Sized + 'static {
    /// The shard's reclamation domain.
    type Domain: SchemeDomain;

    /// Per-worker state: the domain's handle, plus whatever the map keeps
    /// beside it (hazard slots).
    type Handle: BorrowMut<<Self::Domain as SchemeDomain>::Handle>;

    /// Builds the shard: fresh map, fresh domain. `buckets` sizes the
    /// shard's hash table; the second argument is ignored (it survives for
    /// `benchmark/`, see `smr_common::policy`'s compatibility block).
    fn new_shard(buckets: usize, _ignored: PolicyKind) -> Self;

    /// The shard's domain.
    fn domain(&self) -> &'static Self::Domain;

    /// Registers a worker with this shard's domain.
    fn handle(&self) -> Self::Handle;

    fn get(&self, handle: &mut Self::Handle, key: u64) -> Option<u64>;
    fn insert(&self, handle: &mut Self::Handle, key: u64, value: u64) -> bool;
    fn remove(&self, handle: &mut Self::Handle, key: u64) -> Option<u64>;

    /// Unreclaimed blocks charged to `handle` (= the shard, single worker).
    fn garbage(handle: &Self::Handle) -> u64 {
        Self::Domain::garbage(handle.borrow()) as u64
    }

    /// The domain's derived worst-case garbage bound, or `None` if the
    /// scheme cannot bound garbage under a stalled collector. Counted at
    /// two handles, the worker and the adopter
    /// [`drain_orphans`](Self::drain_orphans) registers: for HP++ that is
    /// twice one thread's cap.
    fn garbage_bound(&self) -> Option<u64> {
        let bound = self.domain().garbage_bound(2)?;
        Some(bound as u64)
    }

    /// Reclaims what an idle worker can reclaim cheaply
    /// ([`SchemeDomain::collect_idle`]); returns whether it ran a round.
    fn collect_idle(handle: &mut Self::Handle) -> bool {
        Self::Domain::collect_idle(handle.borrow_mut())
    }

    /// Flushes reclamation as far as the scheme allows (worker exit path).
    fn quiesce(&self, handle: &mut Self::Handle) {
        flush::<Self::Domain>(handle.borrow_mut());
    }

    /// Adopts and frees garbage donated by a dead worker.
    fn drain_orphans(&self) {
        flush::<Self::Domain>(&mut self.domain().register());
    }

    /// Blocks settled in this store's private domain after its (sole)
    /// worker died and its teardown donated everything — i.e. what leaks
    /// if the domain is quarantined *instead of* drained. Only meaningful
    /// once the dead worker has been joined: with one worker per shard,
    /// nothing else holds local garbage, so the orphan count *is* the
    /// settled total.
    fn settled_garbage(&self) -> u64 {
        self.domain().orphans() as u64
    }
}

/// Three reclamation rounds: the epoch schemes need two advances past a
/// bag's stamp, and a first round may only adopt orphans.
fn flush<D: SchemeDomain>(handle: &mut D::Handle) {
    for _ in 0..3 {
        D::collect(handle);
    }
}

/// A chaining hash map of `L` buckets over a private domain of `L`'s
/// scheme: the store, written once.
pub struct SchemeStore<L: InDomain<u64, u64>> {
    domain: &'static L::Domain,
    map: ds::hash_map::HashMap<u64, u64, L>,
}

impl<L> ShardStore for SchemeStore<L>
where
    L: InDomain<u64, u64> + Send + Sync + 'static,
    L::Handle: BorrowMut<<L::Domain as SchemeDomain>::Handle>,
{
    type Domain = L::Domain;
    type Handle = L::Handle;

    fn new_shard(buckets: usize, _ignored: PolicyKind) -> Self {
        let domain = L::Domain::leak_new();
        Self {
            domain,
            map: ds::hash_map::HashMap::with_buckets_by(buckets, || L::new_in(domain)),
        }
    }

    fn domain(&self) -> &'static L::Domain {
        self.domain
    }

    fn handle(&self) -> L::Handle {
        L::handle_in(self.domain)
    }

    fn get(&self, handle: &mut L::Handle, key: u64) -> Option<u64> {
        self.map.get(handle, &key)
    }

    fn insert(&self, handle: &mut L::Handle, key: u64, value: u64) -> bool {
        self.map.insert(handle, key, value)
    }

    fn remove(&self, handle: &mut L::Handle, key: u64) -> Option<u64> {
        self.map.remove(handle, &key)
    }
}

/// HP++ HHSList buckets over a private [`hp_plus::Domain`] — the default
/// store: bounded garbage *and* optimistic traversal (the paper's headline
/// combination).
pub type HppStore = SchemeStore<ds::hpp::HHSList<u64, u64>>;

/// EBR map over a **private** [`ebr::Collector`] per shard: a wedged pin
/// stops this shard's epoch only. No `garbage_bound`: EBR's garbage is
/// bounded only while the epoch advances; one stalled pin unbounds it
/// (Table 1).
pub type EbrStore = SchemeStore<ds::guarded::HHSList<u64, u64, ebr::Ebr>>;

/// Hyaline map over a **private** [`hyaline::Domain`] per shard:
/// snapshot-free reference-counted batch handover. Unlike EBR there is no
/// epoch to wedge — a batch waits only on the slots that were active at its
/// handover — so the store has a derived stall-proof garbage bound where
/// [`EbrStore`] must report `None`.
pub type HyalineStore = SchemeStore<ds::guarded::HHSList<u64, u64, hyaline::Hyaline>>;

/// No reclamation at all: the leaking upper-bound baseline.
pub type NrStore = SchemeStore<ds::guarded::HHSList<u64, u64, nr::Nr>>;

#[cfg(test)]
mod tests {
    use super::*;

    /// A roundtrip, then churn in shard A: shard B's local garbage must not
    /// move, and A must stay within its own bound where it has one.
    fn roundtrip_and_isolation<S: ShardStore>() {
        let name = <S::Domain as SchemeDomain>::NAME;
        let a = S::new_shard(16, Default::default());
        let b = S::new_shard(16, Default::default());
        let mut ha = a.handle();
        let hb = b.handle();
        assert!(a.insert(&mut ha, 1, 10));
        assert!(!a.insert(&mut ha, 1, 11), "duplicate insert fails");
        assert_eq!(a.get(&mut ha, 1), Some(10));
        assert_eq!(a.remove(&mut ha, 1), Some(10));
        assert_eq!(a.get(&mut ha, 1), None);
        for k in 0..300u64 {
            a.insert(&mut ha, k, k);
            a.remove(&mut ha, k);
        }
        assert_eq!(S::garbage(&hb), 0, "{name}: sibling shard charged");
        if let Some(bound) = a.garbage_bound() {
            let garbage = S::garbage(&ha);
            assert!(garbage <= bound, "{name}: {garbage} > {bound}");
        }
        a.quiesce(&mut ha);
    }

    #[test]
    fn stores_roundtrip_in_private_domains() {
        roundtrip_and_isolation::<HppStore>();
        roundtrip_and_isolation::<EbrStore>();
        roundtrip_and_isolation::<NrStore>();
        roundtrip_and_isolation::<HyalineStore>();
    }
}
