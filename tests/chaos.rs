//! Seeded chaos campaign against the supervised KV service (ISSUE 10).
//!
//! One seed deterministically derives a multi-fault schedule — panics,
//! delays, and yield storms spread over worker-only fault points — which
//! runs against a live client workload, with deterministic
//! [`KvService::inject_crash`] kills layered on top. The campaign asserts
//! the full recovery contract:
//!
//! * every client op resolves (success or *typed* error) within the
//!   deadline budget `(retries + 1) × op_timeout + slack` — chaos may slow
//!   or kill shards but must never hang a caller;
//! * every killed shard serves traffic again on a bumped generation;
//! * every quarantined domain's settled garbage sits within the scheme's
//!   published bound, and after shutdown the global ledger balances to
//!   exactly `before + Σ settled` — quarantine leaks what the records say
//!   and nothing else;
//! * the same seed replays the same injection log (normalized: one-shot
//!   triggers fire in a thread-timing-dependent *order*, so logs are
//!   compared as sorted sets — see DESIGN.md §1.12).
//!
//! Knobs (all optional):
//!
//! * `SMR_CHAOS_SEED`   — campaign seed (default below); print it on
//!   failure to replay.
//! * `SMR_CHAOS_OPS`    — client ops per campaign (default 3000). CI's
//!   quick smoke sets a few hundred.
//! * `SMR_CHAOS_POINTS` — number of fault triggers derived from the seed
//!   (default 6, min 3 so all three fault kinds appear).
//!
//! Panics are scheduled only on points crossed exclusively by shard
//! workers (`kv::worker::batch`, `hpp::try_unlink::after_frontier`);
//! client-crossed points (`kv::ring::full`, `backoff::park`) never get a
//! trigger, so chaos kills workers — the thing supervision recovers — and
//! never the test harness itself.
//!
//! Requires `--features fault-injection`. The installed plan holds the
//! process-wide plan lock, which serializes these tests.
#![cfg(feature = "fault-injection")]

use std::time::{Duration, Instant};

use kv_service::{Client, HppStore, KvConfig, KvError, KvService};
use smr_common::counters;
use smr_common::fault::{self, FaultAction, LogEntry};

const DEFAULT_SEED: u64 = 0xC4A0_55ED;
const DEFAULT_OPS: u64 = 3_000;
const DEFAULT_POINTS: u64 = 6;

const OP_TIMEOUT: Duration = Duration::from_secs(2);
const RETRIES: u32 = 3;

/// Points only shard workers cross — safe targets for injected panics.
const PANIC_POINTS: &[&str] = &["kv::worker::batch", "hpp::try_unlink::after_frontier"];
/// Worker-only points for non-fatal scheduling noise.
const NOISE_POINTS: &[&str] = &[
    "kv::worker::batch",
    "hpp::try_unlink::after_frontier",
    "hpp::try_unlink::after_detach",
    "hpp::try_unlink::mid_invalidation",
];

/// `name`'s value, or `default` when unset. A set value that is not a
/// positive integer panics: a typo must not silently run the default.
fn knob(name: &str, default: u64) -> u64 {
    let Ok(raw) = std::env::var(name) else {
        return default;
    };
    match raw.trim().parse() {
        Ok(v) if v > 0 => v,
        _ => panic!("{name}={raw:?} is not a positive integer"),
    }
}

/// The campaign PRNG: every random decision flows through this, so the
/// whole schedule (and workload) is a pure function of the seed.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Derives the fault schedule from the seed: `points` one-shot triggers
/// cycling through Panic → Delay → YieldStorm (so ≥ 3 distinct kinds
/// whenever `points ≥ 3`). Every trigger gets a globally unique `nth` —
/// the engine fires only the first trigger matching a crossing, so unique
/// `nth`s are what make "every trigger fires exactly once" (and with it
/// the log-determinism assertion) hold. All `nth`s stay small (≤ 3·points)
/// because a one-shot trigger that never fires in one run but fires during
/// shutdown in another would break same-seed log equality.
fn build_plan(seed: u64, points: u64) -> (fault::FaultPlan, usize) {
    let mut rng = SplitMix64(seed);
    let mut plan = fault::plan();
    let n = points.max(3);
    for i in 0..n {
        let nth = 2 + 3 * i + rng.next() % 3;
        plan = match i % 3 {
            0 => {
                let point = PANIC_POINTS[rng.next() as usize % PANIC_POINTS.len()];
                plan.at(point, nth, FaultAction::Panic)
            }
            1 => {
                let point = NOISE_POINTS[rng.next() as usize % NOISE_POINTS.len()];
                let ms = 1 + rng.next() % 4;
                plan.at(point, nth, FaultAction::Delay(Duration::from_millis(ms)))
            }
            _ => {
                let point = NOISE_POINTS[rng.next() as usize % NOISE_POINTS.len()];
                let storm = 10 + (rng.next() % 40) as u32;
                plan.at(point, nth, FaultAction::YieldStorm(storm))
            }
        };
    }
    (plan, n as usize)
}

fn budget() -> Duration {
    OP_TIMEOUT * (RETRIES + 1) + Duration::from_secs(3)
}

/// Asserts the op-resolution contract: within budget, and any failure is
/// one of the two typed mid-campaign errors (`Stopped` would mean the
/// supervised service gave a shard up for dead).
fn check_resolved<T: std::fmt::Debug>(what: &str, r: &Result<T, KvError>, t0: Instant) {
    let elapsed = t0.elapsed();
    assert!(
        elapsed < budget(),
        "{what} blew the deadline budget: {elapsed:?} >= {:?}",
        budget()
    );
    match r {
        Ok(_) | Err(KvError::RetryAfter(_)) | Err(KvError::DeadlineExceeded) => {}
        Err(e) => panic!("{what} resolved to a terminal error mid-campaign: {e:?}"),
    }
}

/// Deterministic kill: crash `shard`, wait for the supervisor to bump its
/// generation, then prove the respawned incarnation serves again.
fn crash_and_verify(svc: &KvService<HppStore>, client: &mut Client<HppStore>, shard: usize) {
    let gen_before = svc.generation(shard).0;
    assert!(svc.inject_crash(shard), "crash command not accepted");
    let deadline = Instant::now() + Duration::from_secs(20);
    while svc.generation(shard).0 == gen_before {
        assert!(Instant::now() < deadline, "shard {shard} never respawned");
        std::thread::yield_now();
    }
    assert!(svc.generation(shard).0 > gen_before, "generation must bump");
    // The killed shard serves again. A scheduled panic may kill it a
    // second time mid-probe, so allow a few attempts — each within budget.
    let probe = (0u64..)
        .find(|&k| svc.shard_of(k) == shard)
        .expect("mixer covers every shard");
    let mut served = false;
    for _ in 0..5 {
        let t0 = Instant::now();
        let r = client.get(probe);
        check_resolved("post-respawn probe", &r, t0);
        if r.is_ok() {
            served = true;
            break;
        }
    }
    assert!(served, "respawned shard {shard} never served traffic again");
}

/// One full campaign. Returns the injection log (taken before teardown).
fn run_campaign(seed: u64, ops: u64, points: u64) -> Vec<LogEntry> {
    let before = counters::garbage_now();
    let (plan, n_triggers) = build_plan(seed, points);
    let plan = plan.install();

    let svc = KvService::<HppStore>::start(
        KvConfig {
            shards: 3,
            batch: 8,
            ring_depth: 128,
            buckets: 64,
            ..KvConfig::new()
        }
        .with_op_timeout(OP_TIMEOUT)
        .with_retries(RETRIES),
    );
    let mut client = svc.client();
    let mut rng = SplitMix64(seed ^ 0xD1CE_D00D);

    // Insert/remove pairs: every remove of a live key is an unlink, which
    // is what drives the hpp fault points and loads the domains with real
    // garbage for the crashes to quarantine.
    let pairs = (ops / 2).max(300);
    let crash_at = [pairs / 3, 2 * pairs / 3];
    for i in 0..pairs {
        if i == crash_at[0] {
            crash_and_verify(&svc, &mut client, 0);
        }
        if i == crash_at[1] {
            crash_and_verify(&svc, &mut client, 1);
        }
        let key = rng.next() % 4096;
        let t0 = Instant::now();
        check_resolved("insert", &client.insert(key, i), t0);
        let t0 = Instant::now();
        check_resolved("remove", &client.remove(key), t0);
    }

    // Audit trail: settled garbage within the published bound, monotone
    // record generations, and ≥ 2 distinct shards actually hit.
    let mut total_settled = 0u64;
    for i in 0..3 {
        let mut prev = None;
        for r in svc.quarantine_records(i) {
            if let Some(bound) = r.bound {
                assert!(
                    r.settled_garbage <= bound,
                    "shard {i} gen {}: settled {} over published bound {bound}",
                    r.generation,
                    r.settled_garbage
                );
            }
            if let Some(p) = prev {
                assert!(
                    r.generation > p,
                    "shard {i}: record generations must be monotone"
                );
            }
            prev = Some(r.generation);
            total_settled += r.settled_garbage;
        }
    }
    assert!(!svc.quarantine_records(0).is_empty(), "shard 0 was crashed");
    assert!(!svc.quarantine_records(1).is_empty(), "shard 1 was crashed");
    let health = svc.health();
    assert!(health.shards.iter().map(|h| h.respawns).sum::<u64>() >= 2);
    assert_eq!(health.quarantined_garbage(), total_settled);

    // Take the log before teardown: shutdown crosses fault points too, and
    // the determinism contract covers the campaign, not the teardown.
    let log = fault::take_log();
    assert_eq!(
        log.len(),
        n_triggers,
        "every scheduled one-shot trigger must fire during the campaign \
         (seed {seed:#x}; log {log:?})"
    );

    drop(client);
    svc.shutdown();
    drop(plan);
    assert_eq!(
        counters::garbage_now(),
        before + total_settled,
        "orphan balance after recovery: quarantined domains leak exactly \
         what their records say (seed {seed:#x})"
    );
    log
}

/// Sorted view for cross-run comparison: one-shot triggers fire at fixed
/// (point, hit, action) coordinates, but worker-thread timing permutes the
/// order they land in the log.
fn normalized(mut log: Vec<LogEntry>) -> Vec<LogEntry> {
    log.sort_by(|a, b| {
        (&a.point, a.hit, format!("{:?}", a.action)).cmp(&(
            &b.point,
            b.hit,
            format!("{:?}", b.action),
        ))
    });
    log
}

#[test]
fn chaos_campaign_resolves_every_op_and_balances_garbage() {
    let seed = knob("SMR_CHAOS_SEED", DEFAULT_SEED);
    let ops = knob("SMR_CHAOS_OPS", DEFAULT_OPS);
    let points = knob("SMR_CHAOS_POINTS", DEFAULT_POINTS);
    eprintln!("chaos: seed={seed:#x} ops={ops} points={points} (set SMR_CHAOS_SEED to replay)");
    let log = run_campaign(seed, ops, points);
    eprintln!("chaos: campaign took {} injections", log.len());
}

#[test]
fn same_seed_replays_identical_injection_log() {
    let seed = knob("SMR_CHAOS_SEED", DEFAULT_SEED);
    let a = normalized(run_campaign(seed, 600, DEFAULT_POINTS));
    let b = normalized(run_campaign(seed, 600, DEFAULT_POINTS));
    assert!(!a.is_empty(), "campaign must take injections");
    assert_eq!(
        a, b,
        "same seed must replay the same injection set (seed {seed:#x})"
    );
}

#[test]
fn stalled_worker_turns_into_deadline_errors_then_recovers() {
    // The fourth fault kind, deterministically: a stall wedges the worker
    // after its second batch (the point sits after execution, so ops 1–2
    // complete). The queued third op must fail with `DeadlineExceeded` —
    // not hang — and once the stall releases, the shard serves again on
    // its *original* generation: a slow worker is not a dead worker, so
    // supervision must not have respawned anything.
    let _plan = fault::plan()
        .at("kv::worker::batch", 2, FaultAction::Stall)
        .install();
    let svc = KvService::<HppStore>::start(
        KvConfig {
            shards: 1,
            batch: 4,
            ring_depth: 16,
            buckets: 16,
            ..KvConfig::new()
        }
        .with_op_timeout(Duration::from_millis(200))
        .with_retries(0),
    );
    let mut client = svc.client();
    assert_eq!(client.insert(1, 11), Ok(true));
    assert_eq!(client.get(1), Ok(Some(11)));
    // The worker is now stalled at the batch point. The next op times out
    // client-side instead of hanging.
    let t0 = Instant::now();
    assert_eq!(client.insert(2, 22), Err(KvError::DeadlineExceeded));
    let elapsed = t0.elapsed();
    assert!(
        elapsed >= Duration::from_millis(200) && elapsed < budget(),
        "deadline error must land at the op timeout, took {elapsed:?}"
    );
    fault::release("kv::worker::batch");
    assert_eq!(client.get(1), Ok(Some(11)), "released worker serves again");
    assert_eq!(
        svc.generation(0).0,
        0,
        "a stalled worker must not be respawned"
    );
    assert_eq!(svc.health().shards[0].respawns, 0);
    svc.shutdown();
}
