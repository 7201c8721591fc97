//! Command-ring behavior through the public service API: bounded-queue
//! backpressure (producers park via backoff instead of busy-spinning),
//! per-key batch-drain ordering, and full-ring stress across wraparound.
//!
//! Tests that assert on the global backoff counters serialize on a local
//! lock; the file is its own process, so other test binaries cannot
//! perturb the counters mid-assertion.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use kv_service::{Client, Command, HppStore, KvConfig, KvError, KvService, ShardStore};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
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
        buckets: 64,
        ..KvConfig::new()
    }
}

/// A store whose `get` blocks while [`GATE`] is closed — lets a test wedge
/// the single worker and fill the ring behind it without fault injection.
/// If [`PANIC`] is set when the gate opens, the worker dies instead of
/// completing, which is how the retired-ring wakeup test kills a worker
/// with producers parked behind a full ring.
struct GatedStore {
    inner: Mutex<HashMap<u64, u64>>,
}

static GATE: AtomicBool = AtomicBool::new(false);
static PANIC: AtomicBool = AtomicBool::new(false);
/// Gated `get`s entered so far.
static ENTERED: AtomicUsize = AtomicUsize::new(0);

impl ShardStore for GatedStore {
    type Domain = nr::Nr;
    type Handle = ();

    fn new_shard(_buckets: usize, _policy: smr_common::policy::PolicyKind) -> Self {
        Self {
            inner: Mutex::new(HashMap::new()),
        }
    }

    fn domain(&self) -> &'static nr::Nr {
        &nr::Nr
    }

    fn handle(&self) -> Self::Handle {}

    fn get(&self, _h: &mut Self::Handle, key: u64) -> Option<u64> {
        ENTERED.fetch_add(1, SeqCst);
        while GATE.load(SeqCst) {
            std::thread::yield_now();
        }
        if PANIC.load(SeqCst) {
            panic!("gated store: injected worker death");
        }
        self.inner.lock().unwrap().get(&key).copied()
    }

    fn insert(&self, _h: &mut Self::Handle, key: u64, value: u64) -> bool {
        use std::collections::hash_map::Entry;
        match self.inner.lock().unwrap().entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert(value);
                true
            }
        }
    }

    fn remove(&self, _h: &mut Self::Handle, key: u64) -> Option<u64> {
        self.inner.lock().unwrap().remove(&key)
    }
}

#[test]
fn full_ring_backpressure_parks_producer_instead_of_busy_spinning() {
    let _serial = serial();
    // One shard, an 8-slot ring, and a gated worker: the worker picks up
    // the first command and blocks inside the store, so everything else
    // queues behind it. The op timeout is raised well past the gated
    // window so backpressure (not a deadline) is what the test observes.
    let svc = KvService::<GatedStore>::start(cfg(1, 4, 8).with_op_timeout(Duration::from_secs(60)));
    GATE.store(true, SeqCst);
    let mut client = svc.client();
    // The fourth wakes the worker, which takes the first into the gated
    // store; the rest fill the ring to capacity (8 slots) behind it.
    for k in 0..=8u64 {
        client.submit(Command::Get { key: k }).unwrap();
    }

    // The 9th producer must wait. Its wait must escalate to parking —
    // bounded-queue backpressure, not a spin loop burning the core.
    let (_, _, parks_before) = smr_common::counters::total_backoff();
    let producer = std::thread::spawn(move || {
        let mut c: Client<GatedStore> = client;
        c.submit(Command::Get { key: 99 }).unwrap();
        c
    });
    wait_for("blocked producer to park", || {
        smr_common::counters::total_backoff().2 > parks_before
    });
    assert!(
        !producer.is_finished(),
        "producer got in despite a full ring"
    );

    // Open the gate: the worker drains, the parked producer gets its slot,
    // and every queued command completes.
    GATE.store(false, SeqCst);
    let mut client = producer.join().unwrap();
    let mut replies = 0;
    client.drain(|_, r| {
        assert_eq!(r, Ok(None));
        replies += 1;
    });
    assert_eq!(replies, 10);
    let stats = svc.shutdown();
    assert_eq!(stats[0].ops, 10);
}

/// A producer that found the ring full must re-check it after announcing
/// its sleep: the consumer may free every slot, and notify nobody, in
/// between. A stall at the producer's 11th full-ring check, where its
/// backoff reaches the park phase, stages that gap.
#[cfg(feature = "fault-injection")]
#[test]
fn a_producer_rechecks_a_ring_freed_as_it_goes_to_sleep() {
    use smr_common::fault::{self, FaultAction};

    let _serial = serial();
    let svc = KvService::<GatedStore>::start(cfg(1, 4, 2).with_supervision(false));
    GATE.store(true, SeqCst);
    PANIC.store(false, SeqCst);
    let entered = ENTERED.load(SeqCst);
    let mut client = svc.client();
    // The second makes a backlog of 2, the whole ring, and wakes the
    // worker, which takes the first into the gated store; the third
    // fills the ring.
    for key in 0..2 {
        client.submit(Command::Get { key }).unwrap();
    }
    wait_for("the worker in the gate", || ENTERED.load(SeqCst) > entered);
    client.submit(Command::Get { key: 2 }).unwrap();
    let _plan = fault::plan()
        .at("kv::ring::full", 11, FaultAction::Stall)
        .install();
    let (_, _, parks) = smr_common::counters::total_backoff();
    let producer = std::thread::spawn({
        let mut c: Client<GatedStore> = svc.client();
        move || (c.submit(Command::Get { key: 3 }), c)
    });
    wait_for("the producer to stall before its park phase", || {
        fault::stalled_count("kv::ring::full") == 1
    });
    // The worker empties the ring and notifies `space`, where nobody
    // has announced a sleep yet.
    GATE.store(false, SeqCst);
    wait_for("the worker to drain the ring and park", || {
        svc.shard_stats(0).ops == 3 && svc.worker_parked(0)
    });
    fault::release("kv::ring::full");
    let (pushed, mut c) = producer.join().unwrap();
    let (_, _, parked) = smr_common::counters::total_backoff();
    assert_eq!(pushed, Ok(()), "lost wake: slept on a ring with room");
    assert_eq!(parked, parks + 1, "the producer never reached its park");
    client.drain(|_, r| assert_eq!(r, Ok(None)));
    c.drain(|_, r| assert_eq!(r, Ok(None)));
    svc.shutdown();
}

/// A reply that lands between its waiter's last poll and its `register`
/// is read, not slept on: a stall just before the register stages it.
#[cfg(feature = "fault-injection")]
#[test]
fn a_reply_resolved_as_its_waiter_registers_is_read_not_slept_on() {
    use smr_common::fault::{self, FaultAction};

    let _serial = serial();
    let cfg = cfg(1, 4, 8).with_op_timeout(Duration::from_secs(2));
    let svc = KvService::<GatedStore>::start(cfg);
    GATE.store(true, SeqCst);
    PANIC.store(false, SeqCst);
    let _plan = fault::plan()
        .at("kv::reply::register", 1, FaultAction::Stall)
        .install();
    let caller = std::thread::spawn({
        let mut c: Client<GatedStore> = svc.client().with_retries(0);
        move || c.get(7)
    });
    wait_for("the caller to stall before it registers", || {
        fault::stalled_count("kv::reply::register") == 1
    });
    // Resolved while the caller is between its last poll and `register`.
    GATE.store(false, SeqCst);
    wait_for("the reply", || svc.shard_stats(0).ops == 1);
    fault::release("kv::reply::register");
    assert_eq!(caller.join().unwrap(), Ok(None), "lost wake");
    svc.shutdown();
}

#[test]
fn full_ring_behind_a_stalled_worker_times_out_from_the_first_wait() {
    let _serial = serial();
    // `submit` reads no clock until its ring is full; the deadline it then
    // starts must still turn a wedged worker into `DeadlineExceeded` after
    // one op timeout, not hang and not fail early.
    let op_timeout = Duration::from_millis(100);
    let svc = KvService::<GatedStore>::start(cfg(1, 4, 4).with_op_timeout(op_timeout));
    GATE.store(true, SeqCst);
    PANIC.store(false, SeqCst);
    let mut client = svc.client();
    // Four fill the ring and wake the worker, which takes the first into
    // the gated store; the fifth takes the slot that frees.
    for k in 0..5u64 {
        client.submit(Command::Get { key: k }).unwrap();
    }
    // A client that has been idle for longer than its op timeout: only a
    // deadline that starts at the first wait has any budget left.
    std::thread::sleep(2 * op_timeout);
    let started = Instant::now();
    assert_eq!(
        client.submit(Command::Get { key: 99 }),
        Err(KvError::DeadlineExceeded)
    );
    let waited = started.elapsed();
    assert!(waited >= op_timeout, "gave up after {waited:?}");
    assert!(
        waited < op_timeout + Duration::from_millis(400),
        "a full ring held its producer for {waited:?}"
    );
    GATE.store(false, SeqCst);
    let mut replies = 0;
    client.drain(|_, r| {
        assert_eq!(r, Ok(None));
        replies += 1;
    });
    assert_eq!(replies, 5);
    svc.shutdown();
}

#[test]
fn retired_ring_wakes_parked_producers() {
    let _serial = serial();
    // Satellite regression: producers parked on a full ring must be woken
    // by the close broadcast when the worker dies — not sit out their op
    // deadline parked on a dead shard. Supervision is off so the death is
    // terminal and the outcome is a prompt `Stopped`.
    let svc = KvService::<GatedStore>::start(
        cfg(1, 4, 4)
            .with_supervision(false)
            .with_op_timeout(Duration::from_secs(60)),
    );
    GATE.store(true, SeqCst);
    PANIC.store(false, SeqCst);
    let mut client = svc.client();
    // The fourth wakes the worker, which takes the first into the gated
    // store; the rest fill the 4-slot ring behind it.
    for k in 0..=4u64 {
        client.submit(Command::Get { key: k }).unwrap();
    }
    let (_, _, parks_before) = smr_common::counters::total_backoff();
    let producer = std::thread::spawn({
        let mut c: Client<GatedStore> = svc.client();
        move || {
            let started = Instant::now();
            let result = c.submit(Command::Get { key: 99 });
            (result, started.elapsed())
        }
    });
    wait_for("blocked producer to park", || {
        smr_common::counters::total_backoff().2 > parks_before
    });
    // Kill the worker under the parked producer.
    PANIC.store(true, SeqCst);
    GATE.store(false, SeqCst);
    let (result, waited) = producer.join().unwrap();
    assert_eq!(result, Err(KvError::Stopped));
    assert!(
        waited < Duration::from_secs(30),
        "parked producer sat out {waited:?} on a retired ring"
    );
    // Everything queued behind the dead worker failed fast, too.
    let mut failures = 0;
    client.drain(|_, r| {
        assert_eq!(r, Err(KvError::Stopped));
        failures += 1;
    });
    assert_eq!(failures, 5);
    PANIC.store(false, SeqCst);
    svc.shutdown();
}

#[test]
fn crashed_worker_wakes_the_client_parked_on_its_reply() {
    let _serial = serial();
    // A one-shot caller parked on its reply slot must not sit out its op
    // deadline when the worker dies under it: the dying worker's rescue
    // drain fails the queued command and unparks the caller. Clock-free:
    // with a 60 s deadline and no retries the deadline path can only
    // answer `DeadlineExceeded`, so a `RetryAfter` reply *is* the rescue.
    let op_timeout = Duration::from_secs(60);
    let svc = KvService::<GatedStore>::start(cfg(1, 4, 8).with_op_timeout(op_timeout));
    GATE.store(true, SeqCst);
    PANIC.store(false, SeqCst);
    let mut client = svc.client();
    client.submit(Command::Get { key: 0 }).unwrap();
    // Queue the crash behind the gated command, and a one-shot call behind
    // the crash: the ring is FIFO, so the caller is waiting when it fires.
    assert!(svc.inject_crash(0));
    let (_, _, parks_before) = smr_common::counters::total_backoff();
    let caller = std::thread::spawn({
        let mut c: Client<GatedStore> = svc.client().with_retries(0);
        move || c.get(7)
    });
    wait_for("the caller to park on its reply slot", || {
        smr_common::counters::total_backoff().2 > parks_before
    });
    assert!(
        !caller.is_finished(),
        "the caller must be parked before the gate opens"
    );

    GATE.store(false, SeqCst);
    let reply = caller.join().unwrap();
    assert!(
        matches!(reply, Err(KvError::RetryAfter(_))),
        "a supervised death reads as RetryAfter (the rescue drain), got {reply:?}"
    );
    client.drain(|_, r| assert_eq!(r, Ok(None)));
    svc.shutdown();
}

#[test]
fn slots_the_client_lets_go_of_live_until_their_commands_resolve() {
    let _serial = serial();
    // A client lends its reply slots to the ring; the two it cannot wait
    // out — a one-shot call abandoned at its deadline, and undrained
    // commands when it drops — must stay allocated until the worker
    // answers them. (ASan reports the freed slot otherwise.)
    let svc =
        KvService::<GatedStore>::start(cfg(1, 4, 8).with_op_timeout(Duration::from_millis(50)));
    GATE.store(true, SeqCst);
    PANIC.store(false, SeqCst);
    let mut client = svc.client();
    // The worker takes the call into the gated store and stays there.
    assert_eq!(client.get(0), Err(KvError::DeadlineExceeded));
    for k in 1..=6u64 {
        client.submit(Command::Get { key: k }).unwrap();
    }
    drop(client);

    GATE.store(false, SeqCst);
    assert_eq!(svc.client().get(7), Ok(None));
    let stats = svc.shutdown();
    assert_eq!(stats[0].ops, 8);
}

#[test]
fn batch_drain_preserves_per_key_program_order() {
    let _serial = serial();
    // Dependent op chains per key, pipelined through tiny rings so batches
    // span wraparounds: each chain's replies must reflect program order —
    // ring FIFO + in-order worker drain is the guarantee under test.
    let svc = KvService::<HppStore>::start(cfg(2, 4, 16));
    let mut client = svc.client();
    let keys: Vec<u64> = (0..40).collect();
    for &k in &keys {
        client.submit(Command::Put { key: k, value: 1 }).unwrap();
        client.submit(Command::Del { key: k }).unwrap();
        client.submit(Command::Put { key: k, value: 2 }).unwrap();
        client.submit(Command::Get { key: k }).unwrap();
    }
    let mut replies = Vec::new();
    client.drain(|_, r| replies.push(r.unwrap()));
    assert_eq!(replies.len(), keys.len() * 4);
    for (i, _) in keys.iter().enumerate() {
        let chain = &replies[i * 4..i * 4 + 4];
        assert_eq!(
            chain,
            &[Some(1), Some(1), Some(2), Some(2)],
            "key {i}: per-key order violated: {chain:?}"
        );
    }
    svc.shutdown();
}

#[test]
fn tiny_ring_survives_concurrent_producers_across_wraparound() {
    let _serial = serial();
    // 4 producers hammering a 4-slot ring: thousands of wraparounds and
    // constant backpressure. Every command must complete exactly once.
    const PRODUCERS: u64 = 4;
    const OPS: u64 = 2_000;
    let svc = KvService::<HppStore>::start(cfg(1, 8, 4));
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let mut client = svc.client();
            s.spawn(move || {
                let base = p * OPS;
                for k in base..base + OPS {
                    assert_eq!(client.insert(k, k + 7), Ok(true));
                }
                for k in (base..base + OPS).step_by(2) {
                    assert_eq!(client.remove(k), Ok(Some(k + 7)));
                }
            });
        }
    });
    let mut client = svc.client();
    for k in (1..PRODUCERS * OPS).step_by(2) {
        assert_eq!(client.get(k), Ok(Some(k + 7)), "key {k} lost");
    }
    let stats = svc.shutdown();
    assert_eq!(
        stats[0].ops,
        PRODUCERS * OPS + PRODUCERS * OPS / 2 + PRODUCERS * OPS / 2
    );
    assert!(stats[0].max_batch >= 1);
}
