//! Shard isolation under injected faults: the service-level payoff of
//! per-shard reclamation domains.
//!
//! * Stall one shard's HP++ collector mid-reclaim → the supervisor reads
//!   that shard DegradedBounded while the siblings' verdicts stay Healthy
//!   with peak garbage inside the derived `k·H + threshold` bound, and
//!   everything drains exactly on release.
//! * The EBR A/B: a wedged pin on the **shared** default collector (a
//!   store defined here, the control nothing outside this file needs)
//!   spreads unbounded growth to sibling shards (GrowingUnbounded), while
//!   per-shard collectors confine the same stall to the wedged shard.
//! * A worker panic retires its ring (queued commands fail, nothing
//!   hangs) and the scheme teardown + `drain_orphans` balance the global
//!   garbage counters exactly — the PR-4 teardown guarantee at service
//!   scope.
//!
//! Requires `--features fault-injection`. Every test diffs the
//! process-global `counters::garbage_now()` from before its service starts
//! — earlier than it installs its fault plan — so the tests serialize on a
//! file-local lock from their first line, not on the plan lock.
#![cfg(feature = "fault-injection")]

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use kv_service::store::SchemeStore;
use kv_service::{Command, EbrStore, HppStore, KvConfig, KvError, KvService, ShardStore};
use smr_common::counters;
use smr_common::fault::{self, FaultAction};
use smr_common::watchdog::{GarbageWatchdog, WatchdogStatus};
use smr_common::{GuardedScheme, SchemeDomain};

/// EBR map over the **process-wide** default collector: no isolation, on
/// purpose. The A/B control proving why domains must be per shard — one
/// wedged pin here freezes reclamation for every shard.
type EbrSharedStore = SchemeStore<ds::guarded::HHSList<u64, u64, SharedEbr>>;

/// A stateless domain forwarding to the one [`ebr::default_collector`], so
/// every shard's "private" domain is the shared collector; also the
/// guarded scheme the shard's map runs on.
#[derive(Default)]
struct SharedEbr;

impl SchemeDomain for SharedEbr {
    type Handle = ebr::LocalHandle;
    const NAME: &'static str = "ebr-shared";

    fn global() -> &'static SharedEbr {
        &SharedEbr
    }

    fn register(&'static self) -> ebr::LocalHandle {
        ebr::default_collector().register()
    }

    fn garbage(handle: &ebr::LocalHandle) -> usize {
        ebr::Collector::garbage(handle)
    }

    fn collect(handle: &mut ebr::LocalHandle) {
        ebr::Collector::collect(handle);
    }

    fn orphans(&self) -> usize {
        ebr::default_collector().orphans()
    }

    fn garbage_bound(&self, threads: usize) -> Option<usize> {
        ebr::default_collector().garbage_bound(threads)
    }
}

impl GuardedScheme for SharedEbr {
    type Guard<'a> = ebr::Guard<'a>;

    fn pin(handle: &mut ebr::LocalHandle) -> ebr::Guard<'_> {
        handle.pin()
    }
}

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

fn cfg(shards: usize, batch: usize, ring_depth: usize) -> KvConfig {
    KvConfig {
        shards,
        batch,
        ring_depth,
        buckets: 32,
        ..KvConfig::new()
    }
}

/// First `n` keys routed to `shard` under the service's key mixer.
fn keys_for<S: ShardStore>(svc: &KvService<S>, shard: usize, n: usize) -> Vec<u64> {
    (0u64..)
        .filter(|&k| svc.shard_of(k) == shard)
        .take(n)
        .collect()
}

/// Insert+remove churn on one key set through one-shot calls.
fn churn<S: ShardStore>(client: &mut kv_service::Client<S>, keys: &[u64], pairs: usize) {
    for i in 0..pairs {
        let k = keys[i % keys.len()];
        client.insert(k, k).unwrap();
        client.remove(k).unwrap();
    }
}

#[test]
fn stalled_hpp_collector_leaves_sibling_shards_healthy() {
    let _serial = serial();
    let before = counters::garbage_now();
    let svc = KvService::<HppStore>::start(cfg(3, 16, 256));
    let shard0_keys = keys_for(&svc, 0, 64);

    // Stall shard 0's worker inside its *own domain's* reclaim (the
    // epoched-fence revoke step) on the first reclaim anywhere — which is
    // shard 0's, because only shard 0 churns until the stall lands.
    let _plan = fault::plan()
        .at("hpp::reclaim::before_revoke", 1, FaultAction::Stall)
        .install();

    // 150 remove-churn pairs: the 128th unlink triggers the reclaim that
    // hits the stall. Pipelined fire-and-forget — replies queued behind the
    // stall are collected after release.
    let mut client0 = svc.client();
    for i in 0..150 {
        let k = shard0_keys[i % shard0_keys.len()];
        client0.submit(Command::Put { key: k, value: k }).unwrap();
        client0.submit(Command::Del { key: k }).unwrap();
    }
    wait_for("shard 0 to stall in reclaim", || {
        fault::stalled_count("hpp::reclaim::before_revoke") == 1
    });

    // Shard 0 froze mid-reclaim, but within its own bound.
    let bound = svc.garbage_bound(0).expect("hpp has a derived bound") as usize;
    assert!(
        (svc.shard_stats(0).garbage as usize) <= bound,
        "stalled shard over its bound: {} > {bound}",
        svc.shard_stats(0).garbage
    );

    // A stalled worker cannot sample itself: the supervisor does, and
    // within 2 s (40 stall windows) reads shard 0 as degraded but bounded.
    let stalled =
        |verdict: Option<_>| matches!(verdict, Some(WatchdogStatus::DegradedBounded { .. }));
    let start = Instant::now();
    wait_for("shard 0 to read stalled", || {
        stalled(svc.health().shards[0].verdict)
    });
    assert!(start.elapsed() < Duration::from_secs(2), "stall read late");

    // Siblings keep serving and reclaiming: their domains never see shard
    // 0's stall. Their verdicts stay Healthy and peak garbage respects
    // the derived bound.
    let mut sibling_client = svc.client();
    for shard in [1usize, 2] {
        assert_eq!(
            svc.health().shards[shard].verdict,
            Some(WatchdogStatus::Healthy)
        );
        let keys = keys_for(&svc, shard, 64);
        for round in 0..20 {
            churn(&mut sibling_client, &keys, 25);
            let health = svc.health();
            assert_eq!(
                health.shards[shard].verdict,
                Some(WatchdogStatus::Healthy),
                "sibling shard {shard} unhealthy at round {round}"
            );
            assert!(stalled(health.shards[0].verdict));
        }
        let peak = svc.shard_stats(shard).peak_garbage as usize;
        assert!(
            peak <= bound,
            "sibling shard {shard} peak {peak} > bound {bound}"
        );
    }
    assert_eq!(
        fault::stalled_count("hpp::reclaim::before_revoke"),
        1,
        "sibling reclaims must not have queued on the stall point"
    );

    // Release: shard 0 finishes its reclaim, drains the queued commands,
    // and every pipelined reply arrives.
    fault::release("hpp::reclaim::before_revoke");
    let mut replies = 0;
    client0.drain(|i, r| {
        assert!(r.is_ok(), "reply {i} failed after release: {r:?}");
        replies += 1;
    });
    assert_eq!(replies, 300);

    drop(client0);
    drop(sibling_client);
    svc.shutdown();
    assert_eq!(
        counters::garbage_now(),
        before,
        "exact drain after release: every retired node must be freed"
    );
}

#[test]
fn shared_ebr_collector_spreads_stall_to_sibling_shards() {
    let _serial = serial();
    let before = counters::garbage_now();
    // Deliberately no isolation: every shard's worker registers with the
    // process-default collector.
    let svc = KvService::<EbrSharedStore>::start(cfg(3, 8, 128));

    // Wedge the first pin after install — shard 0's, since nothing else
    // runs commands yet. The stalled worker has *announced* its epoch, so
    // no one sharing the collector can advance past it.
    let _plan = fault::plan()
        .at("ebr::pin::before_validate", 1, FaultAction::Stall)
        .install();
    let shard0_key = keys_for(&svc, 0, 1)[0];
    let mut client0 = svc.client();
    // A whole batch of 8, so its last push rings the parked worker.
    for _ in 0..8 {
        client0.submit(Command::Get { key: shard0_key }).unwrap();
    }
    wait_for("shard 0 to wedge mid-pin", || {
        fault::stalled_count("ebr::pin::before_validate") == 1
    });

    // Sibling churn now grows garbage without bound: collections adopt and
    // retry but the epoch cannot advance. Reclamation progress (total
    // freed) is the watchdog's token; it freezes while garbage climbs.
    let threshold = ebr::default_collector().collect_threshold();
    let bound = 2 * threshold;
    let keys = keys_for(&svc, 1, 64);
    let mut sibling_client = svc.client();
    let mut watchdog = GarbageWatchdog::new(bound, Duration::from_millis(50));
    let mut status = WatchdogStatus::Healthy;
    for _ in 0..12 {
        churn(&mut sibling_client, &keys, 100);
        status = watchdog.observe(counters::total_freed(), svc.shard_stats(1).garbage as usize);
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        matches!(status, WatchdogStatus::GrowingUnbounded { .. }),
        "shared collector should spread the stall: sibling status {status:?}, \
         garbage {} vs bound {bound}",
        svc.shard_stats(1).garbage
    );

    fault::release("ebr::pin::before_validate");
    client0.drain(|_, r| assert!(r.is_ok()));
    drop(client0);
    drop(sibling_client);
    svc.shutdown();
    // The epoch moves again: everything drains. (≤, not ==: the shared
    // default collector may also free garbage stranded by earlier tests.)
    assert!(
        counters::garbage_now() <= before,
        "shared-collector garbage must drain once the stall clears"
    );
}

#[test]
fn per_shard_ebr_collectors_confine_stall_to_wedged_shard() {
    let _serial = serial();
    let before = counters::garbage_now();
    let svc = KvService::<EbrStore>::start(cfg(3, 8, 128));

    let _plan = fault::plan()
        .at("ebr::pin::before_validate", 1, FaultAction::Stall)
        .install();
    let shard0_key = keys_for(&svc, 0, 1)[0];
    let mut client0 = svc.client();
    // A whole batch of 8, so its last push rings the parked worker.
    for _ in 0..8 {
        client0.submit(Command::Get { key: shard0_key }).unwrap();
    }
    wait_for("shard 0 to wedge mid-pin", || {
        fault::stalled_count("ebr::pin::before_validate") == 1
    });

    // Same stall, same churn — but shard 1 owns its collector, so its
    // epoch advances regardless and garbage stays near the collect
    // trigger: reclamation progress never stalls.
    let threshold = svc.with_store(1, |s| s.domain().collect_threshold());
    let bound = 4 * threshold;
    let keys = keys_for(&svc, 1, 64);
    let mut sibling_client = svc.client();
    let mut watchdog = GarbageWatchdog::new(bound, Duration::from_millis(50));
    for round in 0..12 {
        churn(&mut sibling_client, &keys, 100);
        let status = watchdog.observe(counters::total_freed(), svc.shard_stats(1).garbage as usize);
        assert_eq!(
            status,
            WatchdogStatus::Healthy,
            "isolated sibling unhealthy at round {round} (garbage {}, bound {bound})",
            svc.shard_stats(1).garbage
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let peak = svc.shard_stats(1).peak_garbage as usize;
    assert!(peak <= bound, "sibling peak {peak} > bound {bound}");

    fault::release("ebr::pin::before_validate");
    client0.drain(|_, r| assert!(r.is_ok()));
    drop(client0);
    drop(sibling_client);
    svc.shutdown();
    assert_eq!(
        counters::garbage_now(),
        before,
        "private collectors drain exactly at shutdown"
    );
}

#[test]
fn worker_panic_drops_queued_commands_and_balances_orphans() {
    let _serial = serial();
    let before = counters::garbage_now();
    let _plan = fault::plan()
        .at("kv::worker::batch", 5, FaultAction::Panic)
        .install();
    // Supervision off: this test pins down the PR-7 dead-stays-dead
    // containment semantics that `with_supervision(false)` now preserves.
    let svc = KvService::<HppStore>::start(cfg(1, 4, 64).with_supervision(false));

    // Pipeline churn until the ring rejects us: the worker panics on its
    // 5th batch, its guard retires the ring, and every queued command
    // resolves to `Stopped` instead of hanging a client.
    let mut client = svc.client();
    let mut submitted = 0u32;
    for k in 0..4_000u64 {
        match client.submit(Command::Put { key: k, value: k }) {
            Ok(()) => submitted += 1,
            Err(_) => break,
        }
    }
    assert!(submitted > 0, "nothing was ever queued");
    let (mut ok, mut dropped) = (0u32, 0u32);
    client.drain(|_, r| match r {
        Ok(_) => ok += 1,
        Err(KvError::Stopped) => dropped += 1,
        Err(other) => panic!("unsupervised death must read as Stopped, got {other:?}"),
    });
    assert_eq!(ok + dropped, submitted);
    assert!(
        dropped > 0,
        "commands queued behind the panic must fail fast"
    );
    wait_for("ring retirement", || svc.worker_gone(0));

    // The shard is dead but the process is fine: fresh commands fail fast.
    let mut late = svc.client();
    assert_eq!(late.get(1), Err(KvError::Stopped));
    assert_eq!(late.insert(1, 1), Err(KvError::Stopped));

    // The panicking worker's HP++ teardown invalidates + retires its
    // unlinked batches and donates them; shutdown's drain_orphans adopts
    // and frees — the global ledger must balance exactly.
    drop(client);
    drop(late);
    svc.shutdown();
    assert_eq!(
        counters::garbage_now(),
        before,
        "panic teardown must not leak or double-free"
    );
}
