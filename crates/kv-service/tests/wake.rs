//! The wake protocol through the public API: a reply wait that parks is
//! woken by its resolver and by nothing else, an idle worker spins only
//! behind a blocked caller and then really parks, and a pooled reply slot
//! is never failed by the command before it.
//!
//! Every test reads per-shard or process-global counters, so the file
//! serializes on a local lock.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use kv_service::{Command, HppStore, KvConfig, KvService, ShardStatsSnapshot};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn one_shard() -> KvService<HppStore> {
    KvService::start(KvConfig {
        shards: 1,
        buckets: 64,
        ..KvConfig::new()
    })
}

fn idle_spins(s: &ShardStatsSnapshot) -> u64 {
    s.idle_spin_hits + s.idle_spin_expired
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// The PR-11 reply-slot race, from the outside: one handle, so every reply
/// slot is re-armed the moment its reply was read, while the worker is
/// still leaving `execute` for it. A stale guard write used to fail the
/// *next* command (`RetryAfter`), and the one-shot retry then ran it twice.
#[test]
fn single_handle_one_shot_stress_never_sees_a_stale_drop() {
    let _serial = serial();
    const OPS: u64 = 200_000;
    const KEYS: u64 = 64;
    let svc = one_shard();
    let mut client = svc.client().with_retries(0);
    let mut live = [false; KEYS as usize];
    for i in 0..OPS {
        // A fixed stride over a small key space: every key sees inserts,
        // removes and reads of both outcomes.
        let key = (i * 7) % KEYS;
        let slot = &mut live[key as usize];
        match i % 3 {
            0 => {
                assert_eq!(
                    client.insert(key, key + 1),
                    Ok(!*slot),
                    "op {i}: insert {key}"
                );
                *slot = true;
            }
            1 => {
                let expect = slot.then_some(key + 1);
                assert_eq!(client.get(key), Ok(expect), "op {i}: get {key}");
            }
            _ => {
                let expect = slot.then_some(key + 1);
                assert_eq!(client.remove(key), Ok(expect), "op {i}: remove {key}");
                *slot = false;
            }
        }
    }
    for key in 0..KEYS {
        let expect = live[key as usize].then_some(key + 1);
        assert_eq!(client.get(key), Ok(expect), "live-key balance: key {key}");
    }
    drop(client);
    let stats = svc.shutdown();
    assert_eq!(
        stats[0].ops,
        OPS + KEYS,
        "a command ran twice or not at all"
    );
    assert_eq!(stats[0].reply_backstops, 0);
}

#[test]
fn idle_worker_spins_out_its_budget_then_parks_and_still_wakes() {
    let _serial = serial();
    let svc = one_shard();
    let mut client = svc.client();
    // The worker may still be on its way to its first park.
    wait_for("the fresh worker to park", || svc.worker_parked(0));
    let before = svc.shard_stats(0);

    assert_eq!(client.insert(1, 10), Ok(true));
    // Silence. The budget is 50 µs; the acceptance bound is 1 ms.
    let replied = Instant::now();
    while !svc.worker_parked(0) {
        std::thread::yield_now();
    }
    let took = replied.elapsed();
    assert!(
        took <= Duration::from_millis(1),
        "idle worker parked after {took:?}"
    );
    std::thread::sleep(Duration::from_micros(250));
    assert!(
        svc.worker_parked(0),
        "a parked worker woke with nothing to do"
    );

    let after = svc.shard_stats(0);
    assert_eq!(after.idle_spin_expired, before.idle_spin_expired + 1);
    assert_eq!(after.idle_spin_hits, before.idle_spin_hits);
    // (The doorbell's own 50 ms timeout may add a park of its own.)
    assert!(after.worker_parks > before.worker_parks);

    // The doorbell still works after the spin gave up.
    assert_eq!(client.get(1), Ok(Some(10)));
    svc.shutdown();
}

#[test]
fn only_a_blocked_caller_makes_the_worker_spin() {
    let _serial = serial();
    let svc = one_shard();
    let mut client = svc.client();

    // Pipelined windows of 2…5 commands: the caller always has more in
    // flight, so the worker parks at once whenever it runs dry.
    for round in 0..2_000u64 {
        let depth = 2 + round % 4;
        for k in 0..depth {
            client
                .submit(Command::Put {
                    key: k,
                    value: round,
                })
                .unwrap();
        }
        client.drain(|_, r| assert!(r.is_ok()));
        for k in 0..depth {
            client.submit(Command::Del { key: k }).unwrap();
        }
        client.drain(|_, r| assert!(r.is_ok()));
    }
    let pipelined = svc.shard_stats(0);
    assert_eq!(
        idle_spins(&pipelined),
        0,
        "pipelined traffic made the worker spin"
    );
    assert!(pipelined.worker_parks > 0);

    // One-shot calls: each caller is blocked on its reply. (A client quick
    // enough to land every command inside the worker's running batch keeps
    // the ring from ever running dry; the silence after the last call is
    // what the worker is then certain to spin through.)
    for k in 0..100u64 {
        assert_eq!(client.get(k), Ok(None));
    }
    wait_for("a one-shot call to make the worker spin", || {
        idle_spins(&svc.shard_stats(0)) > 0
    });

    // Depth-1 `submit` + `drain` is a one-shot call spelled differently:
    // from its second window on it is marked the same way.
    let mut solo = svc.client();
    wait_for("the one-shot calls' last spin to end", || {
        svc.worker_parked(0)
    });
    let before = svc.shard_stats(0);
    for k in 0..100u64 {
        solo.submit(Command::Get { key: k }).unwrap();
        solo.drain(|_, r| assert_eq!(r, Ok(None)));
    }
    wait_for("a depth-1 pipeline to make the worker spin", || {
        idle_spins(&svc.shard_stats(0)) > idle_spins(&before)
    });
    svc.shutdown();
}

/// Lost-wakeup stress: the worker is stalled after seeded batches, so the
/// four one-shot clients keep running out their spin and yield phases and
/// park on their reply slots; every one of those parks has to end with the
/// resolver's unpark. A wake that got lost would surface 1 ms later as a
/// backstop expiry with the reply already there.
#[cfg(feature = "fault-injection")]
#[test]
fn parked_reply_waiters_are_woken_by_their_resolver_not_the_backstop() {
    use smr_common::fault::{self, FaultAction};

    let _serial = serial();
    const CLIENTS: u64 = 4;
    const OPS: u64 = 3_000;
    // Stall lengths and periods from a fixed seed: co-prime periods so the
    // stalls drift across every phase of the clients' escalators, lengths
    // well inside the backstop so no park may run it out.
    let mut seed = 0x5EED_CAFE_u64;
    let mut next = || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        seed >> 33
    };
    let mut plan = fault::plan();
    for period in [7u64, 11, 13] {
        let stall = Duration::from_micros(100 + next() % 400);
        plan = plan.every("kv::worker::batch", period, FaultAction::Delay(stall));
    }
    let _plan = plan.install();

    let svc = one_shard();
    let parks_before = smr_common::counters::total_backoff().2;
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let mut client = svc.client();
            s.spawn(move || {
                for i in 0..OPS {
                    let key = c * OPS + i;
                    assert_eq!(client.insert(key, key), Ok(true));
                    assert_eq!(client.get(key), Ok(Some(key)));
                }
            });
        }
    });
    let parks = smr_common::counters::total_backoff().2 - parks_before;
    assert!(
        parks > 100,
        "only {parks} reply waits parked: nothing was stressed"
    );
    let stats = svc.shutdown();
    assert_eq!(stats[0].ops, 2 * CLIENTS * OPS);
    assert_eq!(
        stats[0].reply_backstops, 0,
        "a parked waiter was rescued by the 1 ms backstop"
    );
}
