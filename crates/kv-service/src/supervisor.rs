//! Shard supervision: detect worker death, quarantine the poisoned
//! reclamation domain, respawn the worker on a fresh ring + store.
//!
//! Why quarantine instead of drain: a worker that died *mid-operation*
//! stopped at an arbitrary point in its scheme's protocol. Its teardown
//! guards already donated everything they safely could, so what remains
//! settled in the domain is exactly the garbage the scheme's published
//! bound says a dead participant may pin (Table 1). Draining would mean
//! re-entering a domain whose invariants we no longer trust after an
//! arbitrary fault; leaking it trades a bounded, *recorded* amount of
//! memory ([`QuarantineRecord::settled_garbage`], checked against
//! [`QuarantineRecord::bound`] by the chaos and recovery tests) for the
//! certainty that recovery never touches poisoned state.
//!
//! Recovery is **lossy by contract**: queued commands on the dead ring
//! already failed fast (PR 7's containment), the respawned store starts
//! empty, and nothing is replayed. The per-shard [`Generation`] counter is
//! bumped after every respawn and carried to clients in
//! [`KvError::RetryAfter`](crate::KvError), so callers can tell "retry
//! against the new incarnation" apart from "the service is gone" — and can
//! invalidate whatever they cached from before the bump.
//!
//! The supervisor is one thread for the whole service. It owns every
//! worker `JoinHandle` (joining a dead worker *before* measuring settled
//! garbage is what makes the count stable: the unwind donates local bags
//! on the way out), is nudged by dying workers through [`SupervisorCtl`],
//! and samples every shard each [`POLL_INTERVAL`] tick. Each per-shard
//! recovery runs under `catch_unwind` so an injected fault in the recovery
//! path itself (`kv::quarantine::leak`, `kv::supervisor::respawn`) leaves
//! the shard down for one tick instead of killing supervision for good.
//!
//! The same tick feeds one [`GarbageWatchdog`] per live shard from what the
//! shard already publishes, so a stalled worker is judged by a thread that
//! did not stall with it.

use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smr_common::watchdog::{GarbageWatchdog, WatchdogStatus};

use crate::event::EventCount;
use crate::shard::{run_worker, Shard};
use crate::store::ShardStore;

/// The watchdog's sampling period: how often the supervisor scans the slots
/// when nobody nudges it. A nudge makes death detection immediate.
const POLL_INTERVAL: Duration = Duration::from_millis(5);
/// How long a shard's progress token may sit still before its watchdog
/// calls the shard stalled: ten poll ticks.
const STALL_WINDOW: Duration = Duration::from_millis(50);
/// Watchdog garbage ceiling for stores without a derived bound (EBR).
const DEFAULT_BOUND: u64 = 4096;

/// One quarantined domain: the audit trail recovery leaves behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Generation of the worker that died (the incarnation whose domain
    /// this record describes).
    pub generation: u64,
    /// Blocks left settled in the quarantined domain — leaked, permanently.
    pub settled_garbage: u64,
    /// The scheme's published worst-case garbage bound at quarantine time
    /// (`None` for schemes without a stall-proof bound). The robustness
    /// claim is `settled_garbage <= bound` whenever `bound` is `Some`.
    pub bound: Option<u64>,
}

/// Poison-tolerant mutex lock: supervision must keep working even if some
/// unrelated panic poisoned a lock (a poisoned supervisor would turn one
/// shard fault into service-wide unavailability).
fn lock_mutex<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The stable per-shard identity clients and the service hold: the
/// *current* shard incarnation behind a swap point, plus the counters that
/// survive respawns. `Shard` instances come and go; the slot does not.
pub(crate) struct ShardSlot<S> {
    current: RwLock<Arc<Shard<S>>>,
    generation: AtomicU64,
    /// Set at shutdown; tells both clients (fail with `Stopped`, not
    /// `RetryAfter`) and the supervisor (don't respawn) that the service
    /// is going away.
    closed: AtomicBool,
    respawns: AtomicU64,
    quarantined_garbage: AtomicU64,
    records: Mutex<Vec<QuarantineRecord>>,
    /// The current incarnation's latest watchdog status; `None` until the
    /// supervisor's first sample of it.
    verdict: Mutex<Option<WatchdogStatus>>,
    /// Where clients wait out a respawn: notified after each new
    /// generation is stored, and at close.
    pub(crate) respawned: EventCount,
}

impl<S: ShardStore> ShardSlot<S> {
    pub(crate) fn new(shard: Arc<Shard<S>>) -> Self {
        Self {
            current: RwLock::new(shard),
            generation: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            respawns: AtomicU64::new(0),
            quarantined_garbage: AtomicU64::new(0),
            records: Mutex::new(Vec::new()),
            verdict: Mutex::new(None),
            respawned: EventCount::default(),
        }
    }

    /// The live incarnation. Readers racing a respawn get either the old
    /// (retired, fails fast) or the new shard — both are safe.
    pub(crate) fn current(&self) -> Arc<Shard<S>> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Acquire)
    }

    pub(crate) fn close(&self) {
        self.closed.store(true, SeqCst);
        self.respawned.notify();
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(SeqCst)
    }

    pub(crate) fn respawns(&self) -> u64 {
        self.respawns.load(Relaxed)
    }

    pub(crate) fn quarantined_garbage(&self) -> u64 {
        self.quarantined_garbage.load(Relaxed)
    }

    pub(crate) fn records(&self) -> Vec<QuarantineRecord> {
        lock_mutex(&self.records).clone()
    }

    pub(crate) fn verdict(&self) -> Option<WatchdogStatus> {
        *lock_mutex(&self.verdict)
    }
}

/// The supervisor's watchdog over one shard incarnation.
struct Sampler {
    watchdog: GarbageWatchdog,
    token: u64,
    /// The worker's batch count at the last sample.
    batches: u64,
}

impl Sampler {
    fn new(bound: usize) -> Self {
        Self {
            watchdog: GarbageWatchdog::new(bound, STALL_WINDOW),
            token: 0,
            batches: 0,
        }
    }

    /// One sample of `shard`. The progress token advances when the worker
    /// finished a batch since the last sample, or is parked (an idle worker
    /// parks with no timer, so it stays parked), *and* garbage is within
    /// the bound. So a stuck worker reads `DegradedBounded` after the stall
    /// window, garbage over the bound for that long reads
    /// `GrowingUnbounded`, and an idle shard, or one serving reads over
    /// leftover garbage, reads `Healthy`.
    fn sample<S: ShardStore>(&mut self, shard: &Shard<S>) -> WatchdogStatus {
        let stats = shard.stats();
        let garbage = stats.garbage as usize;
        let progressed = stats.batches != self.batches || shard.ring.work.has_sleepers();
        self.batches = stats.batches;
        if progressed && garbage <= self.watchdog.bound() {
            self.token += 1;
        }
        self.watchdog.observe(self.token, garbage)
    }
}

/// Wakeup channel between dying workers (and the service) and the
/// supervisor thread.
#[derive(Default)]
pub(crate) struct SupervisorCtl {
    stopping: AtomicBool,
    nudges: EventCount,
}

impl SupervisorCtl {
    /// Wakes the supervisor for an immediate scan. Never panics, so a dying
    /// worker's drop guard may call it.
    pub(crate) fn nudge(&self) {
        self.nudges.notify();
    }

    pub(crate) fn stop(&self) {
        self.stopping.store(true, SeqCst);
        self.nudge();
    }

    pub(crate) fn is_stopping(&self) -> bool {
        self.stopping.load(SeqCst)
    }
}

/// Everything a respawn needs to rebuild a shard like `KvService::start`
/// built the original.
pub(crate) struct RespawnConfig {
    pub(crate) batch: usize,
    pub(crate) ring_depth: usize,
    pub(crate) buckets: usize,
    pub(crate) supervise: bool,
}

/// The supervisor loop: scan — sample live shards, recover dead ones —
/// then sleep; on stop, join every worker (it owns all the handles). With
/// `supervise` off it still runs — it is the health sampler and the joiner
/// of last resort — but never respawns, preserving the PR-7
/// dead-stays-dead containment semantics.
pub(crate) fn run_supervisor<S: ShardStore>(
    slots: Arc<Vec<Arc<ShardSlot<S>>>>,
    ctl: Arc<SupervisorCtl>,
    mut workers: Vec<Option<JoinHandle<()>>>,
    cfg: RespawnConfig,
) {
    let mut samplers: Vec<Option<Sampler>> = slots.iter().map(|_| None).collect();
    loop {
        // Announced before the scan: a nudge during it ends the sleep after.
        let key = ctl.nudges.prepare_wait();
        if ctl.is_stopping() {
            ctl.nudges.cancel_wait(key);
            break;
        }
        for (i, slot) in slots.iter().enumerate() {
            if slot.is_closed() {
                continue;
            }
            let shard = slot.current();
            if !shard.ring.is_worker_gone() {
                let bound = shard.store.garbage_bound().unwrap_or(DEFAULT_BOUND) as usize;
                let sampler = match &mut samplers[i] {
                    Some(s) if s.watchdog.bound() == bound => s,
                    s => s.insert(Sampler::new(bound)),
                };
                *lock_mutex(&slot.verdict) = Some(sampler.sample(&shard));
            } else if cfg.supervise {
                // The respawned incarnation gets a fresh watchdog.
                samplers[i] = None;
                // Recovery itself can take an injected fault; contain it to
                // this tick and retry at the next scan.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    recover(i, slot, &mut workers[i], &ctl, &cfg)
                }));
            }
        }
        ctl.nudges
            .commit_wait(key, Some(Instant::now() + POLL_INTERVAL));
    }
    for worker in &mut workers {
        if let Some(handle) = worker.take() {
            let _ = handle.join();
        }
    }
}

/// One shard's recovery: join the corpse, quarantine its domain, respawn.
fn recover<S: ShardStore>(
    idx: usize,
    slot: &ShardSlot<S>,
    worker: &mut Option<JoinHandle<()>>,
    ctl: &Arc<SupervisorCtl>,
    cfg: &RespawnConfig,
) {
    // Join first: the dead worker's unwind donates its local garbage on
    // the way out, so the settled count is only stable after the join.
    // (`take` keeps a crash *inside* this function from double-joining on
    // the retry pass.)
    if let Some(handle) = worker.take() {
        let _ = handle.join();
    }
    let dead = slot.current();
    let generation = slot.generation();
    // Quarantine, once per dead generation — a retry pass that already
    // recorded this incarnation (then died at the respawn fault point)
    // must not leak or count it twice.
    let recorded = lock_mutex(&slot.records)
        .last()
        .is_some_and(|r| r.generation == generation);
    if !recorded {
        smr_common::fault_point!("kv::quarantine::leak");
        let settled_garbage = dead.store.settled_garbage();
        let bound = dead.store.garbage_bound();
        lock_mutex(&slot.records).push(QuarantineRecord {
            generation,
            settled_garbage,
            bound,
        });
        slot.quarantined_garbage.fetch_add(settled_garbage, Relaxed);
        smr_common::counters::incr_quarantine(settled_garbage);
        // The quarantine proper: pin the poisoned store (and with it the
        // leaked domain holding the settled blocks) alive forever.
        std::mem::forget(Arc::clone(&dead));
    }
    smr_common::fault_point!("kv::supervisor::respawn");
    let fresh = Arc::new(Shard::new(
        S::new_shard(cfg.buckets, Default::default()),
        cfg.ring_depth,
        cfg.batch,
    ));
    let handle = {
        let shard = Arc::clone(&fresh);
        let ctl = Arc::clone(ctl);
        std::thread::Builder::new()
            .name(format!("kv-shard-{idx}-g{}", generation + 1))
            .spawn(move || run_worker(shard, Some(ctl)))
            .expect("spawn respawned shard worker")
    };
    *worker = Some(handle);
    *lock_mutex(&slot.verdict) = None;
    *slot.current.write().unwrap_or_else(|e| e.into_inner()) = Arc::clone(&fresh);
    slot.generation.store(generation + 1, Release);
    slot.respawned.notify();
    slot.respawns.fetch_add(1, Relaxed);
    smr_common::counters::incr_shard_respawn();
    // Shutdown may have raced this respawn: it closes the rings it sees,
    // which might have been the old one. Close the fresh ring ourselves so
    // the new worker exits and the final join loop terminates.
    if slot.is_closed() || ctl.is_stopping() {
        fresh.ring.close();
    }
}
