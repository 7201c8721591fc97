//! One shard: a command ring, a store with its private domain, and the
//! worker loop that drains the ring in batches.
//!
//! Batching is the perf lever: the worker touches the stats block and the
//! garbage sample **once per batch**, not once per command, and its scheme
//! handle (hazard slots, local bags) is registered once for the shard's
//! lifetime. Commands execute back-to-back on a warm cache.
//!
//! Idle story: a worker whose ring runs dry parks on the doorbell at once
//! — unless the batch it just ran resolved a command whose caller has
//! nothing else in flight. That caller's next command is one reply round
//! trip away, so the worker polls for it first (`Ring::spin_for_work`) and
//! a ping-pong client never pays a park and a futex wake per op. Before
//! either the spin or the sleep it reclaims, where its scheme makes that
//! cheap (`ShardStore::collect_idle`), so an idle shard holds no garbage;
//! a drained ring during pipelined traffic does not, as that costs the
//! pipeline throughput. The gate
//! is what keeps pipelined traffic batched: see DESIGN.md §1.9. A parked
//! worker has no timeout: a blocked caller's push, the push that queues a
//! whole batch, a caller about to wait, or shutdown wakes it — one futex
//! wake per batch a pipelining client gets ahead, not one per park.
//!
//! Crash story: `WorkerGuard` retires the ring on *any* exit — normal
//! shutdown or unwind — so queued commands fail fast instead of hanging
//! clients, and `ReplyGuard` fails the command that was mid-execution when
//! a store op panicked. Scheme-level state is then reclaimed by the
//! handle's own panic-safe teardown (donate orphans, release slots), which
//! `KvService::shutdown` drains back via `ShardStore::drain_orphans`.

use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use crate::ring::{Command, Entry, Ring};
use crate::store::ShardStore;
use crate::supervisor::SupervisorCtl;

/// Point-in-time view of one shard's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStatsSnapshot {
    /// Commands executed.
    pub ops: u64,
    /// Worker wakeup-drain cycles.
    pub batches: u64,
    /// Garbage at the last per-batch sample.
    pub garbage: u64,
    /// High-water garbage across all samples.
    pub peak_garbage: u64,
    /// Largest single batch drained.
    pub max_batch: u64,
    /// Times the worker went to sleep on the doorbell.
    pub worker_parks: u64,
    /// Pushes and reply waits that found the worker asleep and paid the
    /// futex wake; at most one per park. A pipelined push pays it only at
    /// a backlog of one worker batch.
    pub doorbell_wakes: u64,
    /// Idle spins (ring dry behind a blocked caller) that found the next
    /// command within the budget.
    pub idle_spin_hits: u64,
    /// Idle spins that ran out their budget; the worker parked after each.
    pub idle_spin_expired: u64,
}

/// Shard counters, written by the single worker, read by anyone.
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    ops: AtomicU64,
    batches: AtomicU64,
    garbage: AtomicU64,
    peak_garbage: AtomicU64,
    max_batch: AtomicU64,
    idle_spin_hits: AtomicU64,
    idle_spin_expired: AtomicU64,
}

impl ShardStats {
    fn record_batch(&self, len: u64, garbage: u64) {
        self.ops.fetch_add(len, Relaxed);
        self.batches.fetch_add(1, Relaxed);
        self.garbage.store(garbage, Relaxed);
        self.peak_garbage.fetch_max(garbage, Relaxed);
        self.max_batch.fetch_max(len, Relaxed);
    }
}

pub(crate) struct Shard<S> {
    pub(crate) ring: Ring,
    pub(crate) store: S,
    /// Commands the worker drains per wakeup, tops; also the backlog at
    /// which a push wakes it unasked.
    batch: usize,
    stats: ShardStats,
}

impl<S: ShardStore> Shard<S> {
    pub(crate) fn new(store: S, ring_depth: usize, batch: usize) -> Self {
        let batch = batch.max(1);
        Self {
            ring: Ring::with_capacity(ring_depth, batch),
            store,
            batch,
            stats: ShardStats::default(),
        }
    }

    /// The shard's counters: the worker's own plus the ring's park and
    /// wake counts.
    pub(crate) fn stats(&self) -> ShardStatsSnapshot {
        let s = &self.stats;
        ShardStatsSnapshot {
            ops: s.ops.load(Relaxed),
            batches: s.batches.load(Relaxed),
            garbage: s.garbage.load(Relaxed),
            peak_garbage: s.peak_garbage.load(Relaxed),
            max_batch: s.max_batch.load(Relaxed),
            // Wakes before parks, so a racing reader never sees more
            // wakes than parks.
            doorbell_wakes: self.ring.work.wakes.load(Relaxed),
            worker_parks: self.ring.work.sleeps.load(Relaxed),
            idle_spin_hits: s.idle_spin_hits.load(Relaxed),
            idle_spin_expired: s.idle_spin_expired.load(Relaxed),
        }
    }
}

/// Runs one command and publishes its reply; the guard fails the command
/// instead if the store op panics. Returns whether the caller was blocked
/// on this reply with nothing else in flight.
fn execute<S: ShardStore>(store: &S, handle: &mut S::Handle, (cmd, mut reply): Entry) -> bool {
    let result = match cmd {
        Command::Get { key } => store.get(handle, key),
        Command::Put { key, value } => {
            if store.insert(handle, key, value) {
                Some(value)
            } else {
                None
            }
        }
        Command::Del { key } => store.remove(handle, key),
        Command::Crash { .. } => panic!("kv worker: injected crash command"),
    };
    reply.complete(result)
}

/// The shard worker: park-drain-execute until the ring closes, then flush
/// reclamation and exit. `ctl`, when present, is nudged as the worker exits
/// so the supervisor reacts to a death immediately instead of at its next
/// poll tick.
pub(crate) fn run_worker<S: ShardStore>(shard: Arc<Shard<S>>, ctl: Option<Arc<SupervisorCtl>>) {
    /// Retires the ring on any exit, unwind included, then wakes the
    /// supervisor (after retirement, so the death is already observable).
    struct WorkerGuard<'a>(&'a Ring, Option<&'a SupervisorCtl>);
    impl Drop for WorkerGuard<'_> {
        fn drop(&mut self) {
            self.0.retire();
            if let Some(ctl) = self.1 {
                ctl.nudge();
            }
        }
    }

    let mut handle = shard.store.handle();
    let _guard = WorkerGuard(&shard.ring, ctl.as_deref());
    // An idle reclaim (free where the shard's handle is alone in its
    // domain), then the garbage health reads. A plain store: this thread
    // is the only writer.
    let collect_idle = |handle: &mut S::Handle| {
        if S::collect_idle(handle) {
            shard.stats.garbage.store(S::garbage(handle), Relaxed);
        }
    };
    // Whether the last batch resolved a command for a blocked caller.
    let mut blocked_caller = false;
    // Idle-spin outcomes. A hit sits between a command's arrival and its
    // execution, so it is published with a plain store (this thread is the
    // only writer), not an RMW.
    let (mut spin_hits, mut spin_expired) = (0u64, 0u64);
    loop {
        let Some(first) = shard.ring.pop() else {
            if shard.ring.is_closed() {
                break;
            }
            if std::mem::take(&mut blocked_caller) {
                // The blocked caller is reading its reply: off its path.
                collect_idle(&mut handle);
                if shard.ring.spin_for_work() {
                    spin_hits += 1;
                    shard.stats.idle_spin_hits.store(spin_hits, Relaxed);
                    continue;
                }
                spin_expired += 1;
                shard.stats.idle_spin_expired.store(spin_expired, Relaxed);
            }
            shard.ring.wait_for_work(|| collect_idle(&mut handle));
            continue;
        };
        // Producers asleep on a full ring get this slot before the command
        // runs, however long it takes; later pops are notified after it.
        shard.ring.space.notify();
        blocked_caller = execute(&shard.store, &mut handle, first);
        let mut drained = 1u64;
        while drained < shard.batch as u64 {
            let Some(entry) = shard.ring.pop() else { break };
            blocked_caller |= execute(&shard.store, &mut handle, entry);
            drained += 1;
        }
        if drained > 1 {
            shard.ring.space.notify();
        }
        smr_common::fault_point!("kv::worker::batch");
        shard.stats.record_batch(drained, S::garbage(&handle));
    }
    // Closed and drained: flush what the scheme lets us flush, then let the
    // handle's teardown donate the rest (protected stragglers) as orphans.
    shard.store.quiesce(&mut handle);
    shard.stats.record_batch(0, S::garbage(&handle));
}
