//! Service lifecycle and the client API.
//!
//! Since the supervision layer, clients and the service never hold a
//! `Shard` directly: they hold [`ShardSlot`]s, the stable per-shard
//! identities whose *current* incarnation the supervisor swaps out on
//! respawn. Clients cache the current incarnation per slot and revalidate
//! with one relaxed generation load per command, so the supervised fast
//! path costs nothing measurable over the PR-7 layout.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use smr_common::watchdog::WatchdogStatus;
use smr_common::Backoff;

use crate::ring::{Command, Deadline, PushError, ResponseSlot, WaitError};
use crate::shard::{run_worker, Shard, ShardStatsSnapshot};
use crate::store::{HppStore, ShardStore};
use crate::supervisor::{
    run_supervisor, QuarantineRecord, RespawnConfig, ShardSlot, SupervisorCtl,
};
use crate::{shard_of_key, Generation, KvConfig, KvError};

/// One shard's row in a [`HealthSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// Current incarnation (bumps on every supervised respawn).
    pub generation: Generation,
    /// Whether the current incarnation's worker is running.
    pub worker_alive: bool,
    /// The supervisor's latest [`GarbageWatchdog`](smr_common::watchdog)
    /// status for the current incarnation (`None` until its first sample).
    pub verdict: Option<WatchdogStatus>,
    /// Supervised respawns so far.
    pub respawns: u64,
    /// Reclamation domains quarantined (leaked) by those respawns.
    pub quarantined_domains: u64,
    /// Total settled garbage recorded inside those quarantined domains.
    pub quarantined_garbage: u64,
}

/// Point-in-time service health: what an operator (or the chaos harness)
/// reads to decide whether recovery is keeping up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// One row per shard.
    pub shards: Vec<ShardHealth>,
}

impl HealthSnapshot {
    /// Total quarantined domains across shards.
    pub fn quarantined_domains(&self) -> u64 {
        self.shards.iter().map(|s| s.quarantined_domains).sum()
    }

    /// Total settled garbage leaked in quarantine across shards.
    pub fn quarantined_garbage(&self) -> u64 {
        self.shards.iter().map(|s| s.quarantined_garbage).sum()
    }

    /// Whether every shard has a live worker and no watchdog pressure.
    pub fn all_serving(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.worker_alive && matches!(s.verdict, None | Some(WatchdogStatus::Healthy)))
    }
}

/// The running service: one worker thread per shard plus one supervisor.
///
/// ```
/// let svc = kv_service::KvService::<kv_service::HppStore>::start(
///     kv_service::KvConfig::new().with_shards(2),
/// );
/// let mut client = svc.client();
/// assert_eq!(client.insert(7, 70), Ok(true));
/// assert_eq!(client.get(7), Ok(Some(70)));
/// svc.shutdown();
/// ```
pub struct KvService<S: ShardStore = HppStore> {
    slots: Arc<Vec<Arc<ShardSlot<S>>>>,
    ctl: Arc<SupervisorCtl>,
    supervisor: Option<JoinHandle<()>>,
    cfg: KvConfig,
}

impl<S: ShardStore> KvService<S> {
    /// Builds the shards (each with its private reclamation domain),
    /// spawns one worker per shard and the supervisor thread. The
    /// supervisor runs even with [`KvConfig::supervise`] off — it owns the
    /// worker joins — but then never respawns.
    pub fn start(cfg: KvConfig) -> Self {
        let shard_count = cfg.shards.max(1);
        let ctl = Arc::new(SupervisorCtl::new());
        let slots: Arc<Vec<Arc<ShardSlot<S>>>> = Arc::new(
            (0..shard_count)
                .map(|_| {
                    Arc::new(ShardSlot::new(Arc::new(Shard::new(
                        S::new_shard(cfg.buckets, Default::default()),
                        cfg.ring_depth,
                        cfg.batch,
                    ))))
                })
                .collect(),
        );
        let workers: Vec<Option<JoinHandle<()>>> = slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let shard = slot.current();
                let ctl = Arc::clone(&ctl);
                Some(
                    std::thread::Builder::new()
                        .name(format!("kv-shard-{i}-g0"))
                        .spawn(move || run_worker(shard, Some(ctl)))
                        .expect("spawn shard worker"),
                )
            })
            .collect();
        let supervisor = {
            let slots = Arc::clone(&slots);
            let ctl = Arc::clone(&ctl);
            let respawn = RespawnConfig {
                batch: cfg.batch,
                ring_depth: cfg.ring_depth,
                buckets: cfg.buckets,
                supervise: cfg.supervise,
            };
            std::thread::Builder::new()
                .name("kv-supervisor".into())
                .spawn(move || run_supervisor(slots, ctl, workers, respawn))
                .expect("spawn kv supervisor")
        };
        Self {
            slots,
            ctl,
            supervisor: Some(supervisor),
            cfg,
        }
    }

    /// A new client handle. Cheap: Arc clones plus an empty slot pool.
    pub fn client(&self) -> Client<S> {
        Client {
            cached: self
                .slots
                .iter()
                .map(|s| Cached {
                    generation: s.generation(),
                    shard: s.current(),
                    window_at: NOT_IN_WINDOW,
                })
                .collect(),
            slots: Arc::clone(&self.slots),
            supervised: self.cfg.supervise,
            op_timeout: self.cfg.op_timeout,
            retries: self.cfg.retries,
            free: Vec::new(),
            pending: Vec::new(),
            window: Vec::new(),
            solo: false,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// Which shard serves `key`.
    pub fn shard_of(&self, key: u64) -> usize {
        shard_of_key(key, self.slots.len())
    }

    /// Current counters for shard `i`'s live incarnation. Reset on
    /// respawn, like everything else about the incarnation.
    pub fn shard_stats(&self, i: usize) -> ShardStatsSnapshot {
        self.slots[i].current().stats()
    }

    /// Counters for every shard.
    pub fn stats(&self) -> Vec<ShardStatsSnapshot> {
        self.slots.iter().map(|s| s.current().stats()).collect()
    }

    /// Shard `i`'s derived worst-case garbage bound, if its scheme has one.
    pub fn garbage_bound(&self, i: usize) -> Option<u64> {
        self.slots[i].current().store.garbage_bound()
    }

    /// Whether shard `i`'s *current* worker has exited (normally or by
    /// panic). Flips back to false once the supervisor respawns it.
    pub fn worker_gone(&self, i: usize) -> bool {
        self.slots[i].current().ring.is_worker_gone()
    }

    /// Whether shard `i`'s current worker is asleep on its doorbell: an
    /// idle service burns no CPU once this reads true for every shard.
    pub fn worker_parked(&self, i: usize) -> bool {
        self.slots[i].current().ring.is_worker_parked()
    }

    /// Shard `i`'s current generation (0 until its first respawn).
    pub fn generation(&self, i: usize) -> Generation {
        Generation(self.slots[i].generation())
    }

    /// The quarantine audit trail for shard `i`: one record per respawn.
    pub fn quarantine_records(&self, i: usize) -> Vec<QuarantineRecord> {
        self.slots[i].records()
    }

    /// Per-shard health, one scan.
    pub fn health(&self) -> HealthSnapshot {
        HealthSnapshot {
            shards: self
                .slots
                .iter()
                .enumerate()
                .map(|(i, slot)| ShardHealth {
                    shard: i,
                    generation: Generation(slot.generation()),
                    worker_alive: !slot.current().ring.is_worker_gone(),
                    verdict: slot.verdict(),
                    respawns: slot.respawns(),
                    quarantined_domains: slot.records().len() as u64,
                    quarantined_garbage: slot.quarantined_garbage(),
                })
                .collect(),
        }
    }

    /// Read-only access to shard `i`'s *current* store — fault tests
    /// derive bounds (collect thresholds, slot capacities) from the live
    /// instance.
    pub fn with_store<R>(&self, i: usize, f: impl FnOnce(&S) -> R) -> R {
        let shard = self.slots[i].current();
        f(&shard.store)
    }

    /// Deterministically kills shard `i`'s current worker by queueing a
    /// [`Command::Crash`] straight onto its ring (bypassing key routing) —
    /// the test / chaos-campaign crash vector. Returns `false` if the ring
    /// was already closed (or stayed full past a 5 s safety deadline).
    pub fn inject_crash(&self, i: usize) -> bool {
        let shard = self.slots[i].current();
        // Nobody drains this command: it rings for itself (`blocked`), and
        // the ring owns its slot.
        let slot = Arc::new(ResponseSlot::new());
        let lent = slot.lend();
        let mut deadline = Deadline::after(Duration::from_secs(5));
        let crash = Command::Crash { key: 0 };
        // SAFETY: readied by `lend`, and adopted by the ring once queued.
        let queued = unsafe { shard.ring.push_deadline(crash, &slot, true, &mut deadline) }.is_ok();
        if queued {
            shard.ring.adopt(slot, lent);
        }
        queued
    }

    /// Graceful stop: mark every slot closed (so clients fail with
    /// [`KvError::Stopped`], not `RetryAfter`), stop the supervisor, close
    /// the rings, join everything, then adopt-and-free what the workers'
    /// teardowns donated. Returns the final per-shard counters.
    pub fn shutdown(mut self) -> Vec<ShardStatsSnapshot> {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        // Order matters: closed flags first (a worker death observed after
        // this is shutdown, not a fault), then stop the supervisor, then
        // close the rings so workers drain out and exit.
        for slot in self.slots.iter() {
            slot.close();
        }
        self.ctl.stop();
        for slot in self.slots.iter() {
            slot.current().ring.close();
        }
        if let Some(supervisor) = self.supervisor.take() {
            // The supervisor joins every worker on its way out.
            let _ = supervisor.join();
        }
        for slot in self.slots.iter() {
            slot.current().store.drain_orphans();
        }
    }
}

impl<S: ShardStore> Drop for KvService<S> {
    fn drop(&mut self) {
        if self.supervisor.is_some() {
            self.stop();
        }
    }
}

/// A client handle: routes commands to shards and waits for replies.
///
/// Two modes:
/// * one-shot ([`get`](Self::get) / [`insert`](Self::insert) /
///   [`remove`](Self::remove)) — submit and wait, with the full failure
///   API: per-op deadline ([`KvConfig::op_timeout`]), bounded retries with
///   backoff-jittered spacing across shard respawns;
/// * pipelined ([`submit`](Self::submit) then [`drain`](Self::drain)) —
///   keep many commands in flight and collect replies in submission
///   order. Pipelined replies carry typed errors but are *not* retried:
///   the caller owns the pipeline and decides what to re-issue.
///
/// Reply slots are owned by the client, pooled and reused, and only lent to
/// the ring entry of each command, so a steady-state client allocates
/// nothing per command and no command touches a slot's reference count. A
/// slot whose command timed out, or that is still in flight when the client
/// drops, is handed to the ring it went to, never pooled — the worker may
/// still complete it later.
pub struct Client<S: ShardStore> {
    slots: Arc<Vec<Arc<ShardSlot<S>>>>,
    /// Per-shard cached incarnation, revalidated by one generation load.
    cached: Vec<Cached<S>>,
    supervised: bool,
    op_timeout: Duration,
    retries: u32,
    /// Slots read resolved: their resolvers have let go.
    free: Vec<Arc<ResponseSlot>>,
    /// In-flight commands in submission order: `window` index, reply slot,
    /// the state the slot was lent in. A slot handed to its ring at its
    /// deadline keeps its place here with the index [`NOT_IN_WINDOW`].
    pending: Vec<(u32, Arc<ResponseSlot>, u32)>,
    /// The window table: each distinct shard incarnation the in-flight
    /// commands went to, with its shard index — one `Arc<Shard>` clone per
    /// incarnation per window, not one per command.
    window: Vec<(usize, Arc<Shard<S>>)>,
    /// Whether the last drained pipeline window held a single command: the
    /// caller is using `submit` + `drain` as a one-shot call, and the next
    /// `submit` into an empty pipeline is marked blocked-caller like one.
    /// A window of two or more clears it, so pipelined traffic never makes
    /// the worker spin.
    solo: bool,
}

/// One shard's cached incarnation.
struct Cached<S> {
    generation: u64,
    shard: Arc<Shard<S>>,
    /// `shard`'s index in the client's window table, or [`NOT_IN_WINDOW`].
    window_at: u32,
}

const NOT_IN_WINDOW: u32 = u32::MAX;

/// How many replies ahead of the one it waits on `drain` prefetches.
///
/// Swept on the benchmark's `kv_saturated` (2 vCPUs, 4 s runs, 12
/// interleaved rounds): 4, 8 and 16 each beat no read-ahead, and none beat
/// another (`ops_per_s` 4 vs 8 × 1.03, ahead in 7 of 12; 16 vs 8 × 0.99,
/// 6 of 12). 8 stays, the middle of a flat range.
const READ_AHEAD: usize = 8;

impl<S: ShardStore> Client<S> {
    /// Which shard serves `key`.
    pub fn shard_of(&self, key: u64) -> usize {
        shard_of_key(key, self.slots.len())
    }

    /// Commands submitted and not yet drained.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Shard `i`'s current generation, as this client can observe it.
    pub fn generation(&self, i: usize) -> Generation {
        Generation(self.slots[i].generation())
    }

    /// Per-op deadline override for this client (defaults to the service
    /// config's [`KvConfig::op_timeout`]).
    pub fn with_op_timeout(mut self, timeout: Duration) -> Self {
        self.op_timeout = timeout;
        self
    }

    /// Retry-budget override for this client (defaults to the service
    /// config's [`KvConfig::retries`]).
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// A reply slot readied for the next command, and the state it is lent
    /// in.
    fn take_slot(&mut self) -> (Arc<ResponseSlot>, u32) {
        let slot = self
            .free
            .pop()
            .unwrap_or_else(|| Arc::new(ResponseSlot::new()));
        let lent = slot.lend();
        (slot, lent)
    }

    /// Shard `idx`'s cached incarnation, revalidated against the slot's
    /// generation (one relaxed load on the fast path).
    fn current(&mut self, idx: usize) -> &mut Cached<S> {
        if self.slots[idx].generation() != self.cached[idx].generation {
            self.refresh(idx);
        }
        &mut self.cached[idx]
    }

    fn refresh(&mut self, idx: usize) {
        let slot = &self.slots[idx];
        let (generation, shard) = (slot.generation(), slot.current());
        let cached = &mut self.cached[idx];
        cached.generation = generation;
        // A retired incarnation keeps its place in the window table: the
        // replies it still owes are typed by its own ring.
        if !Arc::ptr_eq(&cached.shard, &shard) {
            cached.shard = shard;
            cached.window_at = NOT_IN_WINDOW;
        }
    }

    /// The window-table index of shard `idx`'s current incarnation,
    /// entering it on the window's first command for it.
    fn window_entry(&mut self, idx: usize) -> u32 {
        let next = self.window.len() as u32;
        let cached = self.current(idx);
        if cached.window_at == NOT_IN_WINDOW {
            cached.window_at = next;
            let shard = Arc::clone(&cached.shard);
            self.window.push((idx, shard));
            return next;
        }
        cached.window_at
    }

    /// The error a down shard maps to for this client.
    fn down_error(&self, idx: usize) -> KvError {
        if !self.supervised || self.slots[idx].is_closed() {
            KvError::Stopped
        } else {
            KvError::RetryAfter(Generation(self.slots[idx].generation()))
        }
    }

    /// Waits (jittered backoff) for shard `idx` to come back up after a
    /// death: either a respawned incarnation accepts commands, the service
    /// closes, or the deadline passes. Returns whether retrying is useful.
    fn await_respawn(&mut self, idx: usize, deadline: &mut Deadline) -> bool {
        let mut backoff = Backoff::new();
        loop {
            if self.slots[idx].is_closed() {
                return false;
            }
            self.refresh(idx);
            if !self.cached[idx].shard.ring.is_closed() {
                return true;
            }
            if deadline.passed() {
                return false;
            }
            backoff.snooze();
        }
    }

    /// Enqueues `cmd` without waiting. Blocks (backoff, bounded by the
    /// per-op deadline) while the target ring is full; rides out shard
    /// respawns within the retry budget. The reply is collected by
    /// [`drain`](Self::drain), in submission order.
    ///
    /// Who wakes the worker: a `submit` rings a sleeping worker's doorbell
    /// only when its shard's backlog reaches one worker batch
    /// ([`KvConfig::batch`], or the ring's capacity if smaller), or when the
    /// caller is blocked on this command (a depth-1 window after a depth-1
    /// window). Any other wake is owed by [`drain`](Self::drain): `submit`
    /// alone promises execution only within the worker's 50 ms doorbell
    /// backstop. The per-op deadline starts at the first look at the clock,
    /// which the fast path (ring has room, shard is up) never takes.
    pub fn submit(&mut self, cmd: Command) -> Result<(), KvError> {
        let idx = self.shard_of(cmd.key());
        let blocked = self.solo && self.pending.is_empty();
        let (slot, lent) = self.take_slot();
        let mut deadline = Deadline::after(self.op_timeout);
        let mut attempts = 0u32;
        loop {
            let at = self.window_entry(idx);
            let ring = &self.window[at as usize].1.ring;
            // SAFETY: readied by `take_slot`. Once queued, the slot stays
            // in `pending` until `drain` reads it resolved or hands it to
            // this ring at its deadline; a client dropped before that hands
            // it over in `drop`.
            match unsafe { ring.push_deadline(cmd, &slot, blocked, &mut deadline) } {
                Ok(()) => {
                    self.pending.push((at, slot, lent));
                    return Ok(());
                }
                Err(PushError::TimedOut) => {
                    // Never entered the ring; the slot stays pool-safe.
                    self.free.push(slot);
                    return Err(KvError::DeadlineExceeded);
                }
                Err(PushError::Closed) => {
                    let err = self.down_error(idx);
                    let retryable = matches!(err, KvError::RetryAfter(_));
                    if !retryable || attempts >= self.retries {
                        self.free.push(slot);
                        return Err(err);
                    }
                    attempts += 1;
                    if !self.await_respawn(idx, &mut deadline) {
                        self.free.push(slot);
                        return Err(if self.slots[idx].is_closed() {
                            KvError::Stopped
                        } else {
                            KvError::DeadlineExceeded
                        });
                    }
                }
            }
        }
    }

    /// Waits for every in-flight command, invoking `sink(index, reply)` in
    /// submission order (`index` counts from 0 within this drain). Rings
    /// the doorbell of every shard in the window before it collects the
    /// first reply — a window over many shards wakes them all at once —
    /// and again before every yield or park of a reply wait. Each
    /// reply waits at most one op-timeout from the start of its wait (the
    /// clock is read only for a reply that is not there yet); a timed-out
    /// command reports
    /// [`KvError::DeadlineExceeded`] and its slot is abandoned (the worker
    /// may still complete it later). Pipelined errors are *not* retried.
    /// Read-ahead: the slots of the next `READ_AHEAD` replies are
    /// prefetched, a hint that orders nothing and pays only when the caller
    /// serialises between replies (a clock read, a lock, a syscall); the
    /// one-shot wait has nothing to read ahead (DESIGN.md §1.9).
    pub fn drain(&mut self, mut sink: impl FnMut(usize, Result<Option<u64>, KvError>)) {
        self.solo = self.pending.len() == 1;
        for (idx, shard) in &self.window {
            self.cached[*idx].window_at = NOT_IN_WINDOW;
            shard.ring.flush();
        }
        for (_, slot, _) in self.pending.iter().take(READ_AHEAD) {
            slot.prefetch();
        }
        // The slots stay in `pending` until every reply is out, so a `sink`
        // that panics leaves them to `drop`.
        for i in 0..self.pending.len() {
            if let Some((_, ahead, _)) = self.pending.get(i + READ_AHEAD) {
                ahead.prefetch();
            }
            let (at, slot, lent) = &self.pending[i];
            let (idx, shard) = &self.window[*at as usize];
            let mut deadline = Deadline::after(self.op_timeout);
            let reply = match shard
                .ring
                .wait_response_deadline(slot, *lent, &mut deadline)
            {
                Ok(reply) => Ok(reply),
                Err(WaitError::Down) => Err(self.down_error(*idx)),
                Err(WaitError::TimedOut) => {
                    // Abandoned: the worker may still complete it later.
                    shard.ring.adopt(Arc::clone(slot), *lent);
                    self.pending[i].0 = NOT_IN_WINDOW;
                    Err(KvError::DeadlineExceeded)
                }
            };
            sink(i, reply);
        }
        for (at, slot, _) in self.pending.drain(..) {
            if at != NOT_IN_WINDOW {
                self.free.push(slot);
            }
        }
        self.window.clear();
    }

    fn call(&mut self, cmd: Command) -> Result<Option<u64>, KvError> {
        let idx = self.shard_of(cmd.key());
        let mut deadline = Deadline::after(self.op_timeout);
        let mut attempts = 0u32;
        loop {
            self.current(idx);
            let (slot, lent) = self.take_slot();
            let shard = &self.cached[idx].shard;
            // A one-shot caller cannot issue anything else before this reply
            // (`blocked`).
            // SAFETY: readied by `take_slot`. Once queued, the slot is held
            // here until the wait reads it resolved or hands it to the ring.
            match unsafe { shard.ring.push_deadline(cmd, &slot, true, &mut deadline) } {
                Ok(()) => match shard
                    .ring
                    .wait_response_deadline(&slot, lent, &mut deadline)
                {
                    Ok(reply) => {
                        self.free.push(slot);
                        return Ok(reply);
                    }
                    Err(WaitError::TimedOut) => {
                        // Abandoned; see drain.
                        shard.ring.adopt(slot, lent);
                        return Err(KvError::DeadlineExceeded);
                    }
                    Err(WaitError::Down) => self.free.push(slot),
                },
                Err(PushError::TimedOut) => {
                    self.free.push(slot);
                    return Err(KvError::DeadlineExceeded);
                }
                Err(PushError::Closed) => self.free.push(slot),
            }
            // The shard died under the command. Retry across the respawn
            // if the budget and deadline allow; otherwise surface it.
            let err = self.down_error(idx);
            let retryable = matches!(err, KvError::RetryAfter(_));
            if !retryable || attempts >= self.retries {
                return Err(err);
            }
            attempts += 1;
            if !self.await_respawn(idx, &mut deadline) {
                return Err(if self.slots[idx].is_closed() {
                    KvError::Stopped
                } else {
                    KvError::DeadlineExceeded
                });
            }
        }
    }

    /// Reads `key`.
    pub fn get(&mut self, key: u64) -> Result<Option<u64>, KvError> {
        self.call(Command::Get { key })
    }

    /// Inserts `key → value`; `Ok(false)` if the key already exists.
    pub fn insert(&mut self, key: u64, value: u64) -> Result<bool, KvError> {
        self.call(Command::Put { key, value }).map(|r| r.is_some())
    }

    /// Removes `key`, returning the removed value.
    pub fn remove(&mut self, key: u64) -> Result<Option<u64>, KvError> {
        self.call(Command::Del { key })
    }
}

impl<S: ShardStore> Drop for Client<S> {
    fn drop(&mut self) {
        // Undrained commands may still be resolved: each slot goes to the
        // ring its command went to. (An abandoned one is there already.)
        for (at, slot, lent) in self.pending.drain(..) {
            if let Some((_, shard)) = self.window.get(at as usize) {
                shard.ring.adopt(slot, lent);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{EbrStore, NrStore};
    use std::time::Instant;

    fn test_cfg() -> KvConfig {
        KvConfig {
            shards: 2,
            batch: 8,
            ring_depth: 64,
            buckets: 64,
            ..KvConfig::new()
        }
    }

    fn smoke<S: ShardStore>() {
        let svc = KvService::<S>::start(test_cfg());
        let mut client = svc.client();
        for k in 0..200u64 {
            assert_eq!(client.insert(k, k * 10), Ok(true));
        }
        for k in 0..200u64 {
            assert_eq!(client.get(k), Ok(Some(k * 10)));
        }
        for k in 0..100u64 {
            assert_eq!(client.remove(k), Ok(Some(k * 10)));
        }
        assert_eq!(client.get(0), Ok(None));
        assert_eq!(client.get(150), Ok(Some(1500)));
        svc.shutdown();
    }

    #[test]
    fn end_to_end_over_each_store() {
        smoke::<HppStore>();
        smoke::<EbrStore>();
        smoke::<NrStore>();
    }

    #[test]
    fn pipelined_replies_arrive_in_submission_order() {
        let cfg = test_cfg();
        let depth = cfg.ring_depth;
        let svc = KvService::<HppStore>::start(cfg);
        let mut client = svc.client();
        let mut base = 0u64;
        // The read-ahead's edges: no window, one reply, windows just short
        // of, at and just past the read-ahead distance, and twice one
        // ring's depth.
        for n in [0, 1, READ_AHEAD - 1, READ_AHEAD, READ_AHEAD + 1, 2 * depth] {
            let keys: Vec<u64> = (base..base + n as u64).collect();
            base += n as u64;
            if n > READ_AHEAD {
                assert!(keys.iter().any(|&k| svc.shard_of(k) == 0));
                assert!(keys.iter().any(|&k| svc.shard_of(k) == 1));
            }
            // Puts in key order, then gets in reverse: each reply carries
            // its own command's value, so a skipped, repeated or shifted
            // reply shows.
            let puts = keys.iter().map(|&k| Command::Put {
                key: k,
                value: 3 * k + 1,
            });
            let gets = keys.iter().rev().map(|&k| Command::Get { key: k });
            for cmds in [puts.collect::<Vec<_>>(), gets.collect()] {
                for &cmd in &cmds {
                    client.submit(cmd).unwrap();
                }
                assert_eq!(client.in_flight(), n);
                let mut replies = Vec::new();
                client.drain(|i, r| replies.push((i, r)));
                let expected: Vec<_> = cmds
                    .iter()
                    .enumerate()
                    .map(|(i, cmd)| (i, Ok(Some(3 * cmd.key() + 1))))
                    .collect();
                assert_eq!(replies, expected, "window of {n}");
                assert_eq!(client.in_flight(), 0);
            }
        }
        svc.shutdown();
    }

    #[test]
    fn shutdown_returns_final_stats() {
        let svc = KvService::<HppStore>::start(KvConfig {
            shards: 2,
            batch: 4,
            ring_depth: 16,
            buckets: 16,
            ..KvConfig::new()
        });
        let mut client = svc.client();
        for k in 0..64u64 {
            client.insert(k, k).unwrap();
        }
        let stats = svc.shutdown();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats.iter().map(|s| s.ops).sum::<u64>(), 64);
        assert!(stats.iter().all(|s| s.batches > 0));
    }

    #[test]
    fn commands_after_shutdown_fail_with_stopped() {
        let svc = KvService::<NrStore>::start(KvConfig {
            shards: 1,
            batch: 4,
            ring_depth: 16,
            buckets: 16,
            ..KvConfig::new()
        });
        let mut client = svc.client();
        client.insert(1, 1).unwrap();
        svc.shutdown();
        assert_eq!(client.get(1), Err(KvError::Stopped));
        assert_eq!(client.submit(Command::Get { key: 1 }), Err(KvError::Stopped));
    }

    #[test]
    fn injected_crash_respawns_shard_on_bumped_generation() {
        let svc = KvService::<HppStore>::start(KvConfig {
            shards: 1,
            batch: 4,
            ring_depth: 32,
            buckets: 32,
            ..KvConfig::new()
        });
        let mut client = svc.client();
        assert_eq!(client.insert(1, 11), Ok(true));
        assert_eq!(svc.generation(0), Generation(0));
        assert!(svc.inject_crash(0));
        // The one-shot call retries across the respawn on its own. The
        // respawned store is empty by contract — the previous insert is
        // gone.
        assert_eq!(client.get(1), Ok(None));
        assert_eq!(svc.generation(0), Generation(1));
        let health = svc.health();
        assert!(health.shards[0].worker_alive);
        assert_eq!(health.shards[0].respawns, 1);
        assert_eq!(health.quarantined_domains(), 1);
        let records = svc.quarantine_records(0);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].generation, 0);
        if let Some(bound) = records[0].bound {
            assert!(
                records[0].settled_garbage <= bound,
                "quarantined settled garbage {} over published bound {bound}",
                records[0].settled_garbage
            );
        }
        // The new incarnation serves traffic.
        assert_eq!(client.insert(2, 22), Ok(true));
        assert_eq!(client.get(2), Ok(Some(22)));
        svc.shutdown();
    }

    #[test]
    fn window_table_holds_one_entry_per_incarnation_touched() {
        let svc = KvService::<HppStore>::start(test_cfg());
        let mut client = svc.client();
        let keys: Vec<u64> = (0..64).collect();
        let (on0, on1): (Vec<u64>, Vec<u64>) = keys.iter().partition(|&&k| svc.shard_of(k) == 0);
        for &k in on0.iter().take(5).chain(on1.iter().take(5)) {
            client.submit(Command::Get { key: k }).unwrap();
        }
        assert_eq!(
            client.window.len(),
            2,
            "one entry per shard, not per command"
        );
        // Shard 0 dies and comes back in mid-window: its new incarnation is
        // a third entry, and the old one keeps answering for its commands.
        assert!(svc.inject_crash(0));
        while svc.generation(0) == Generation(0) {
            std::thread::yield_now();
        }
        client.submit(Command::Get { key: on0[0] }).unwrap();
        assert_eq!(client.window.len(), 3);
        assert_eq!(client.pending.last().unwrap().0, 2);
        let mut replies = 0;
        client.drain(|_, r| {
            assert_eq!(r, Ok(None));
            replies += 1;
        });
        assert_eq!(replies, 11);
        assert!(client.window.is_empty() && client.pending.is_empty());
        assert!(
            client.pending.capacity() >= 11,
            "drain gave the buffer away"
        );
        assert!(client.cached.iter().all(|c| c.window_at == NOT_IN_WINDOW));
        svc.shutdown();
    }

    #[test]
    fn a_shard_serving_reads_over_leftover_garbage_or_idling_reads_healthy() {
        let svc = KvService::<HppStore>::start(KvConfig {
            shards: 1,
            ..test_cfg()
        });
        let mut client = svc.client();
        // 100 unlinks stay below HP++'s 128-unlink reclaim cadence: garbage
        // that no `get` will ever free.
        for k in 0..100u64 {
            client.insert(k, k).unwrap();
            client.remove(k).unwrap();
        }
        assert!(svc.shard_stats(0).garbage > 0, "no leftover garbage");
        let verdict = || svc.health().shards[0].verdict;
        while verdict().is_none() {
            std::thread::yield_now();
        }
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(400) {
            assert_eq!(client.get(7), Ok(None));
            assert_eq!(verdict(), Some(WatchdogStatus::Healthy), "serving");
        }
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(300) {
            std::thread::sleep(Duration::from_millis(1));
            assert_eq!(verdict(), Some(WatchdogStatus::Healthy), "idle");
        }
        svc.shutdown();
    }

    #[test]
    fn unsupervised_crash_stays_dead_and_reports_stopped() {
        let svc = KvService::<HppStore>::start(
            KvConfig {
                shards: 1,
                batch: 4,
                ring_depth: 32,
                buckets: 32,
                ..KvConfig::new()
            }
            .with_supervision(false),
        );
        let mut client = svc.client();
        assert_eq!(client.insert(1, 11), Ok(true));
        assert!(svc.inject_crash(0));
        // Dead stays dead: PR-7 containment semantics.
        assert_eq!(client.get(1), Err(KvError::Stopped));
        assert!(svc.worker_gone(0));
        assert_eq!(svc.generation(0), Generation(0));
        assert!(svc.quarantine_records(0).is_empty());
        svc.shutdown();
    }
}
