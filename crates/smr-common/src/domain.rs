//! The scheme-domain seam. A *domain* (an `ebr::Collector`, an
//! `hp::Domain`, …) is where handles register and garbage is charged; the
//! paper's robustness claim (§4.4, Table 1) is a per-domain garbage bound,
//! derived by each scheme crate in its one
//! [`garbage_bound`](SchemeDomain::garbage_bound).

/// One reclamation domain of a scheme.
pub trait SchemeDomain: Default + Send + Sync + 'static {
    /// A thread's registration with the domain.
    type Handle;

    /// The scheme's tag in stats and CSV rows (`"ebr"`, `"hpp"`, …).
    const NAME: &'static str;

    /// The process-wide default domain.
    fn global() -> &'static Self;

    /// A fresh private domain, leaked: it must outlive every handle it
    /// registered.
    fn leak_new() -> &'static Self {
        Box::leak(Box::default())
    }

    /// Registers the calling thread. The domain is `'static` because
    /// registration records are reclaimed through the domain itself: a
    /// handle must be unable to outlive it.
    fn register(&'static self) -> Self::Handle;

    /// Blocks retired through `handle` and not yet freed.
    fn garbage(handle: &Self::Handle) -> usize;

    /// One reclamation round: adopt orphans, then free what the scheme
    /// allows. Three rounds free everything nothing protects.
    fn collect(handle: &mut Self::Handle);

    /// A reclamation round for a thread with nothing else to do, where it
    /// is cheap: the hazard-pointer schemes reclaim when `handle` holds
    /// garbage and is its domain's only participant, so the scan needs no
    /// heavy fence. Returns whether it ran one; by default it does nothing.
    fn collect_idle(_handle: &mut Self::Handle) -> bool {
        false
    }

    /// Blocks that exited handles donated and nobody has adopted yet.
    fn orphans(&self) -> usize;

    /// The derived bound on the domain's total garbage while at most
    /// `threads` handles hold garbage at once (an adopter of orphans counts
    /// as one), or `None` (the default) where one stalled handle unbounds
    /// it.
    fn garbage_bound(&self, _threads: usize) -> Option<usize> {
        None
    }
}
