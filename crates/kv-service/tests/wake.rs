//! The wake protocol through the public API: a reply wait that parks is
//! woken by its resolver, an idle worker spins only behind a blocked caller
//! and then really parks, a pooled reply slot is never failed by the
//! command before it, and a parked worker's doorbell is rung on demand — by
//! the push that completes a worker batch, by `drain`, by another client's
//! one-shot call, by shutdown, and otherwise by nobody. No sleep ends on a
//! timer, so a parked worker stays parked until the test wakes it, and a
//! lost wake fails a test at its deadline instead of slowing it down.
//!
//! Every test reads per-shard or process-global counters, so the file
//! serializes on a local lock.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use kv_service::{Client, Command, HppStore, KvConfig, KvError, KvService, ShardStatsSnapshot};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn one_shard_cfg() -> KvConfig {
    KvConfig {
        shards: 1,
        buckets: 64,
        ..KvConfig::new()
    }
}

fn one_shard() -> KvService<HppStore> {
    KvService::start(one_shard_cfg())
}

/// `KvConfig::new().batch`: the backlog at which a push rings unasked.
const BATCH: u64 = 32;

/// Waits until shard `i`'s worker is asleep in a park after the `*seen`-th,
/// and returns its counters. Only the test wakes it from there.
fn asleep(svc: &KvService<HppStore>, i: usize, seen: &mut u64) -> ShardStatsSnapshot {
    wait_for("the worker to park afresh", || {
        svc.shard_stats(i).worker_parks > *seen && svc.worker_parked(i)
    });
    let stats = svc.shard_stats(i);
    *seen = stats.worker_parks;
    stats
}

/// Shuts `svc` down and checks that no shard counted more doorbell wakes
/// than parks.
fn shutdown(svc: KvService<HppStore>) -> Vec<ShardStatsSnapshot> {
    let stats = svc.shutdown();
    for s in &stats {
        assert!(
            s.doorbell_wakes <= s.worker_parks,
            "{} wakes for {} parks",
            s.doorbell_wakes,
            s.worker_parks
        );
    }
    stats
}

fn submit_gets(client: &mut Client<HppStore>, keys: std::ops::Range<u64>) {
    for key in keys {
        client.submit(Command::Get { key }).unwrap();
    }
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
/// slot is reused the moment its reply was read, while the worker is
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
    let stats = shutdown(svc);
    assert_eq!(
        stats[0].ops,
        OPS + KEYS,
        "a command ran twice or not at all"
    );
}

#[test]
fn idle_worker_spins_out_its_budget_then_parks_and_still_wakes() {
    let _serial = serial();
    let svc = one_shard();
    let mut client = svc.client();
    let before = asleep(&svc, 0, &mut 0);

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
        "a parked worker stirred with nothing to do"
    );

    let after = svc.shard_stats(0);
    assert_eq!(after.idle_spin_expired, before.idle_spin_expired + 1);
    assert_eq!(after.idle_spin_hits, before.idle_spin_hits);
    assert_eq!(after.worker_parks, before.worker_parks + 1);

    // The doorbell still works after the spin gave up.
    assert_eq!(client.get(1), Ok(Some(10)));
    shutdown(svc);
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
    shutdown(svc);
}

/// `submit`'s contract: a sub-batch window runs no later than the next
/// wait on its shard, or the shard's shutdown. Nobody waiting, it stays
/// queued; another client's one-shot call runs it first (FIFO); a `drain`
/// rings for it exactly once; shutdown runs whatever is left.
#[test]
fn a_sub_batch_window_runs_at_the_next_wait_on_its_shard_or_at_shutdown() {
    let _serial = serial();
    let svc = one_shard();
    let (mut window, mut other) = (svc.client(), svc.client());
    let put = |c: &mut Client<HppStore>, keys: std::ops::Range<u64>| {
        keys.for_each(|key| {
            c.submit(Command::Put {
                key,
                value: key + 10,
            })
            .unwrap()
        })
    };
    let mut seen = 0;
    let before = asleep(&svc, 0, &mut seen);
    put(&mut window, 0..8);
    std::thread::sleep(Duration::from_millis(20));
    let queued = svc.shard_stats(0);
    assert!(svc.worker_parked(0), "a sub-batch window roused the worker");
    assert_eq!(queued.ops, before.ops, "a window ran with nobody waiting");
    assert_eq!(queued.doorbell_wakes, before.doorbell_wakes);
    assert_eq!(other.get(7), Ok(Some(17)), "the call overtook the window");
    let wakes = svc.shard_stats(0).doorbell_wakes;
    assert_eq!(
        wakes,
        before.doorbell_wakes + 1,
        "a blocked push did not ring"
    );
    window.drain(|i, r| assert_eq!(r, Ok(Some(i as u64 + 10))));

    let before = asleep(&svc, 0, &mut seen);
    submit_gets(&mut window, 0..8);
    let mut replies = 0;
    window.drain(|i, r| {
        assert_eq!(r, Ok(Some(i as u64 + 10)));
        replies += 1;
    });
    assert_eq!(replies, 8);
    let wakes = svc.shard_stats(0).doorbell_wakes;
    assert_eq!(wakes, before.doorbell_wakes + 1, "the drain did not ring");

    asleep(&svc, 0, &mut seen);
    put(&mut window, 8..11);
    let ops = svc.shard_stats(0).ops;
    let stats = shutdown(svc);
    assert_eq!(stats[0].ops, ops + 3, "shutdown left the window unrun");
    window.drain(|i, r| assert_eq!(r, Ok(Some(i as u64 + 18))));
}

#[test]
fn the_push_that_completes_a_batch_wakes_the_worker_undrained() {
    let _serial = serial();
    let svc = one_shard();
    let mut seen = 0;
    // One producer, then two whose commands only sum to a batch.
    for producers in [1u64, 2] {
        let mut clients: Vec<_> = (0..producers).map(|_| svc.client()).collect();
        let before = asleep(&svc, 0, &mut seen);
        let share = BATCH / producers;
        for (p, client) in clients.iter_mut().enumerate() {
            let last = p as u64 + 1 == producers;
            submit_gets(client, 0..share - last as u64);
        }
        let queued = svc.shard_stats(0);
        assert!(
            svc.worker_parked(0),
            "{} queued commands roused the worker",
            BATCH - 1
        );
        // The batch-th command.
        submit_gets(clients.last_mut().unwrap(), 0..1);
        let pushed = svc.shard_stats(0);
        assert_eq!(queued.ops, before.ops);
        assert_eq!(queued.doorbell_wakes, before.doorbell_wakes);
        assert_eq!(
            pushed.doorbell_wakes,
            before.doorbell_wakes + 1,
            "the batch-th push did not ring ({producers} producers)"
        );
        wait_for("the undrained batch to run", || {
            svc.shard_stats(0).ops == before.ops + BATCH
        });
        clients
            .iter_mut()
            .for_each(|c| c.drain(|_, r| assert_eq!(r, Ok(None))));
    }
    shutdown(svc);
}

#[test]
fn a_full_tiny_ring_wakes_the_worker_before_its_producer_parks() {
    let _serial = serial();
    // Four slots under a batch of 32: the ring fills first.
    let svc = KvService::start(KvConfig {
        ring_depth: 4,
        ..one_shard_cfg()
    });
    let mut client = svc.client();
    let before = asleep(&svc, 0, &mut 0);
    let parks_before = smr_common::counters::total_backoff().2;
    submit_gets(&mut client, 0..3);
    let queued = svc.shard_stats(0);
    submit_gets(&mut client, 3..4);
    let full = svc.shard_stats(0);
    let parks_when_full = smr_common::counters::total_backoff().2;
    assert_eq!(queued.doorbell_wakes, before.doorbell_wakes);
    assert_eq!(
        full.doorbell_wakes,
        before.doorbell_wakes + 1,
        "the push that filled the ring did not ring"
    );
    assert_eq!(parks_when_full, parks_before, "a producer parked first");
    // Twice the ring again, behind a worker that is already up.
    submit_gets(&mut client, 4..12);
    let mut replies = 0;
    client.drain(|_, r| {
        assert_eq!(r, Ok(None));
        replies += 1;
    });
    assert_eq!(replies, 12);
    shutdown(svc);
}

#[test]
fn drain_rings_every_shard_of_its_window_before_the_first_reply() {
    let _serial = serial();
    const SHARDS: usize = 4;
    const PER_SHARD: u64 = 16;
    let cfg = KvConfig {
        shards: SHARDS,
        ..one_shard_cfg()
    };
    let svc = KvService::start(cfg);
    let mut client = svc.client();
    // 16 keys per shard, interleaved shard by shard: a 64-command window
    // that leaves every ring under the batch of 32.
    let mut keys: Vec<Vec<u64>> = vec![Vec::new(); SHARDS];
    for key in 0.. {
        let of = &mut keys[svc.shard_of(key)];
        if (of.len() as u64) < PER_SHARD {
            of.push(key);
        }
        if keys.iter().all(|k| k.len() as u64 == PER_SHARD) {
            break;
        }
    }
    let before: Vec<_> = (0..SHARDS).map(|i| asleep(&svc, i, &mut 0)).collect();
    for n in 0..PER_SHARD as usize {
        for of in &keys {
            client.submit(Command::Get { key: of[n] }).unwrap();
        }
    }
    client.drain(|i, r| {
        assert_eq!(r, Ok(None));
        if i == 0 {
            // No further reply is collected while this waits, so every
            // other shard runs only if `drain` rang it up front.
            wait_for("every shard to run behind the first reply", || {
                (0..SHARDS).all(|s| svc.shard_stats(s).ops == before[s].ops + PER_SHARD)
            });
        }
    });
    shutdown(svc);
}

/// A crash in mid-window: commands before it ran, commands queued behind it
/// on the dead incarnation fail as `RetryAfter`, commands submitted after
/// the respawn run on the new incarnation — one window, one `drain`, every
/// reply typed by the incarnation it was sent to.
#[test]
fn a_crash_in_mid_window_types_every_reply_by_its_incarnation() {
    let _serial = serial();
    let svc = one_shard();
    let mut client = svc.client().with_retries(0);
    asleep(&svc, 0, &mut 0);
    client.submit(Command::Put { key: 1, value: 10 }).unwrap();
    // Queued, not rung: the worker dies on this one when it next wakes.
    client.submit(Command::Crash { key: 0 }).unwrap();
    // Behind the crash, on the ring that is about to die.
    client.submit(Command::Put { key: 2, value: 20 }).unwrap();
    // Rings at once; itself rescued off the dead ring.
    svc.inject_crash(0);
    wait_for("the respawn", || svc.generation(0).0 == 1);
    client.submit(Command::Put { key: 3, value: 30 }).unwrap();
    client.submit(Command::Get { key: 3 }).unwrap();

    let mut replies = Vec::new();
    client.drain(|_, r| replies.push(r));
    let retry = |r: &Result<Option<u64>, KvError>| matches!(r, Err(KvError::RetryAfter(_)));
    assert_eq!(replies[0], Ok(Some(10)), "queued ahead of the crash");
    assert!(retry(&replies[1]), "the crash command: {:?}", replies[1]);
    assert!(
        retry(&replies[2]),
        "queued behind the crash: {:?}",
        replies[2]
    );
    let rest = &replies[3..];
    assert_eq!(rest, [Ok(Some(30)), Ok(Some(30))], "the respawned shard");
    // Lossy by contract: nothing from before the crash survived it.
    assert_eq!(client.get(1), Ok(None));
    assert_eq!(client.get(2), Ok(None));
    shutdown(svc);
}

/// Lost-wakeup stress: the worker is stalled after seeded batches, so the
/// four one-shot clients keep running out their spin and yield phases and
/// park on their reply slots; every one of those parks has to end with the
/// resolver's unpark. A parked waiter sleeps until its deadline, so a wake
/// that got lost fails its call with `DeadlineExceeded`.
#[cfg(feature = "fault-injection")]
#[test]
fn parked_reply_waiters_are_woken_by_their_resolver() {
    use smr_common::fault::{self, FaultAction};

    let _serial = serial();
    const CLIENTS: u64 = 4;
    const OPS: u64 = 3_000;
    // Stall lengths and periods from a fixed seed: co-prime periods so the
    // stalls drift across every phase of the clients' escalators, lengths
    // far inside the 2 s op timeout, which only a lost wake reaches.
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

    let svc = KvService::start(one_shard_cfg().with_op_timeout(Duration::from_secs(2)));
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
    let stats = shutdown(svc);
    assert_eq!(stats[0].ops, 2 * CLIENTS * OPS);
}
