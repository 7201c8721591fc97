//! KV workloads: one client thread against a 1-shard `KvService<HppStore>`.
//!
//! Placement: the calling thread is restricted to the *last* allowed CPU
//! before `KvService::start`, so the worker and supervisor inherit it, and
//! then moves itself to the *first* allowed CPU.

use std::time::Instant;

use kv_service::{
    Client, Command, HppStore, KvConfig, KvError, KvService, ShardStatsSnapshot, ShardStore,
};
use smr_common::counters;
use smr_common::policy::PolicyKind;
use smr_common::time::mono_ns;

use crate::check::{Tally, Verdict};
use crate::phases::{self, PhaseOut, RunData, Snap};
use crate::placement;
use crate::recorder::Recorder;
use crate::stream::{value_of, Op, OpStream, StreamSpec, STREAM_LEN};
use crate::trace::{SpanName, Tracer};
use crate::RunCfg;

const BUCKETS: usize = 8_192;
/// Commands per `submit` × n / `drain` round.
const DEPTH: usize = 128;
/// Ops between `garbage_now()` samples and clock checks: two rounds.
const SATURATED_SAMPLE_EVERY: u64 = 2 * DEPTH as u64;
/// At ≈ 10 kops/s, sampling every 256 ops would leave too few samples for
/// a p99, and every 16 only twice what a traced run's 3 s of plain windows
/// need; a `garbage_now()` read is nothing beside an 85 µs round trip.
const PINGPONG_SAMPLE_EVERY: u64 = 4;
const RESPAWN_CYCLES: usize = 5;
/// Stream entries replayed straight into a bare `HppStore`.
const STORE_REPLAY_OPS: usize = 1 << 20;
const ROUTE_PROBE_CALLS: usize = 1 << 22;

/// Client handles a [`Pipe`] rotates over; see [`Pipe`] for why three.
const LANES: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `submit` × 128 then `drain` of the batch before, clients rotating.
    Saturated,
    /// One-shot calls, one op in flight.
    PingPong,
}

/// Per-layer readings only a traced run takes.
pub struct KvLayers {
    pub route_ns: f64,
    pub store_ns: [f64; 3],
    pub shard_garbage_peak: u64,
    pub respawn_ms: f64,
}

/// What a KV run measures beyond [`RunData`].
pub struct KvExtras {
    /// Shard counters at the edges of the measured windows.
    pub stats: (ShardStatsSnapshot, ShardStatsSnapshot),
    /// `KvService::start` / `shutdown`, median over the set-ups.
    pub start_s: f64,
    pub shutdown_s: f64,
    pub layers: Option<KvLayers>,
}

fn command(op: Op, key: u64) -> Command {
    match op {
        Op::Get => Command::Get { key },
        Op::Insert => Command::Put {
            key,
            value: value_of(key),
        },
        Op::Remove => Command::Del { key },
    }
}

/// Checks one reply. A `Put` answers `Some(value)` when it inserted.
#[inline]
fn check_reply(tally: &mut Tally, op: Op, key: u64, reply: Result<Option<u64>, KvError>) {
    match (op, reply) {
        (_, Err(_)) => tally.error(op),
        (Op::Get, Ok(found)) => tally.get(key, found),
        (Op::Insert, Ok(stored)) => {
            tally.insert(stored.is_some());
            tally.failed += stored.is_some_and(|v| v != value_of(key)) as u64;
        }
        (Op::Remove, Ok(removed)) => tally.remove(key, removed),
    }
}

/// Commands submitted on one client and not yet drained.
struct Lane {
    client: Client<HppStore>,
    sent: [(Op, u64); DEPTH],
    /// Clock before and (traced only) after each `submit`.
    t_submit: [(u64, u64); DEPTH],
    n: usize,
    first_op_id: u64,
}

/// Three clients on one thread, plus everything a reply is recorded into.
/// Batch `b` (a `submit` × n, or a one-shot call) goes to lane `b % 3`, and
/// at most two batches are in flight, so `kv_saturated` keeps the ring from
/// ever emptying.
///
/// Why not one client: a `Client` pools a reply slot the moment it has read
/// the reply, while the worker may still be inside `execute` for it — its
/// reply guard runs `drop_if_pending` *after* `complete`. A client that
/// re-arms the slot inside that window has its next command failed as
/// `ShardDown`; a one-shot call then retries it, and the shard executes it
/// twice. On this host that hit one op in ≈ 10⁶ (a worker interrupted
/// between the two stores). Rotating three clients closes the window from
/// outside: a lane's slots are re-armed only after every reply of a batch
/// submitted later has been read, which the worker writes after it has left
/// `execute` for the earlier one.
struct Pipe {
    lanes: [Lane; LANES],
    /// Batches submitted and batches drained so far.
    submitted: usize,
    drained: usize,
    next_op_id: u64,
    tally: Tally,
    tracer: Tracer,
    /// Round-trip times of untraced commands.
    latency: Recorder,
}

impl Pipe {
    fn new(svc: &KvService<HppStore>) -> Self {
        let lane = || Lane {
            client: svc.client(),
            sent: [(Op::Get, 0); DEPTH],
            t_submit: [(0, 0); DEPTH],
            n: 0,
            first_op_id: 0,
        };
        Self {
            lanes: [lane(), lane(), lane()],
            submitted: 0,
            drained: 0,
            next_op_id: 0,
            tally: Tally::default(),
            tracer: Tracer::new(0),
            latency: Recorder::new(),
        }
    }

    /// Claims the lane of the next batch; one more may still be in flight.
    fn next_lane(&mut self) -> usize {
        assert!(
            self.submitted - self.drained < LANES - 1,
            "a third batch in flight would re-arm slots too early"
        );
        self.submitted += 1;
        (self.submitted - 1) % LANES
    }

    /// The client for one one-shot call, which is a whole batch.
    fn one_shot(&mut self) -> &mut Client<HppStore> {
        let lane = self.next_lane();
        self.drained += 1;
        &mut self.lanes[lane].client
    }

    /// `submit` × `ops.len()` (at most [`DEPTH`]) as the next batch.
    fn submit<const TRACED: bool>(&mut self, ops: &[(Op, u64)]) {
        let lane = self.next_lane();
        let l = &mut self.lanes[lane];
        debug_assert_eq!(l.n, 0, "lane still has commands in flight");
        for &(op, key) in ops {
            let t0 = mono_ns();
            let pushed = l.client.submit(command(op, key));
            let t1 = if TRACED { mono_ns() } else { 0 };
            match pushed {
                // Only accepted commands get a reply, so only they take a
                // slot in `sent`: `drain` numbers replies from 0.
                Ok(()) => {
                    (l.sent[l.n], l.t_submit[l.n]) = ((op, key), (t0, t1));
                    l.n += 1;
                }
                Err(_) => self.tally.error(op),
            }
        }
        l.first_op_id = self.next_op_id;
        self.next_op_id += l.n as u64;
    }

    /// One `drain` of the oldest batch in flight, checking and timing
    /// every reply.
    fn drain<const TRACED: bool>(&mut self) {
        assert!(self.drained < self.submitted, "nothing in flight");
        let lane = self.drained % LANES;
        self.drained += 1;
        let Self {
            lanes,
            tally,
            tracer,
            latency,
            ..
        } = self;
        let Lane {
            client,
            sent,
            t_submit,
            n,
            first_op_id,
        } = &mut lanes[lane];
        let mut prev = if TRACED { mono_ns() } else { 0 };
        client.drain(|i, reply| {
            let now = mono_ns();
            let ((op, key), (t0, t1)) = (sent[i], t_submit[i]);
            check_reply(tally, op, key, reply);
            if TRACED {
                let id = *first_op_id + i as u64;
                let root = tracer.root(SpanName::BenchOp, t0, now, id);
                tracer.child(root, SpanName::KvSubmit, t0, t1, id);
                tracer.child(root, SpanName::KvWait, prev.max(t1), now, id);
                prev = now;
            } else {
                latency.record(now - t0);
            }
        });
        *n = 0;
    }

    fn pipeline<const TRACED: bool>(&mut self, ops: &[(Op, u64)]) {
        self.submit::<TRACED>(ops);
        self.drain::<TRACED>();
    }

    /// The same op on every key of `keys`, [`DEPTH`] at a time; returns the
    /// tally of just these ops.
    fn for_each_key(&mut self, op: Op, keys: impl Iterator<Item = u64>) -> Tally {
        let before = std::mem::take(&mut self.tally);
        let ops: Vec<(Op, u64)> = keys.map(|k| (op, k)).collect();
        for chunk in ops.chunks(DEPTH) {
            self.pipeline::<false>(chunk);
        }
        std::mem::replace(&mut self.tally, before)
    }
}

struct Loader<'a> {
    pipe: Pipe,
    stream: &'a OpStream,
    cursor: usize,
}

impl Loader<'_> {
    /// One one-shot call, as `kv_pingpong` issues it.
    #[inline]
    fn call(&mut self, op: Op, key: u64) {
        let client = self.pipe.one_shot();
        let reply = match op {
            Op::Get => client.get(key),
            Op::Insert => client
                .insert(key, value_of(key))
                .map(|ok| ok.then(|| value_of(key))),
            Op::Remove => client.remove(key),
        };
        check_reply(&mut self.pipe.tally, op, key, reply);
    }

    /// The next [`DEPTH`] stream entries, submitted as one batch.
    fn submit_next<const TRACED: bool>(&mut self) {
        let mut batch = [(Op::Get, 0u64); DEPTH];
        for slot in &mut batch {
            *slot = self.stream.next(&mut self.cursor);
        }
        self.pipe.submit::<TRACED>(&batch);
    }

    fn phase<const TRACED: bool>(&mut self, mode: Mode, until_ns: u64) -> PhaseOut {
        let mut garbage = Recorder::new();
        let mut ops = 0;
        self.pipe.latency = Recorder::new();
        let begin = Snap::take();
        if mode == Mode::Saturated {
            self.submit_next::<TRACED>();
        }
        loop {
            match mode {
                // Submit a batch before draining the one before it: DEPTH
                // commands are queued whenever the client stops to wait, so
                // the worker never runs dry and never sleeps.
                Mode::Saturated => {
                    for _ in 0..2 {
                        self.submit_next::<TRACED>();
                        self.pipe.drain::<TRACED>();
                    }
                    ops += SATURATED_SAMPLE_EVERY;
                }
                Mode::PingPong => {
                    for _ in 0..PINGPONG_SAMPLE_EVERY {
                        let (op, key) = self.stream.next(&mut self.cursor);
                        if TRACED {
                            // The one-shot calls cannot be split from
                            // outside; a depth-1 pipeline makes the same
                            // ring push and the same wait, separately.
                            self.pipe.pipeline::<true>(&[(op, key)]);
                        } else {
                            let t0 = mono_ns();
                            self.call(op, key);
                            self.pipe.latency.record(mono_ns() - t0);
                        }
                    }
                    ops += PINGPONG_SAMPLE_EVERY;
                }
            }
            garbage.record(counters::garbage_now());
            if mono_ns() >= until_ns {
                break;
            }
        }
        if mode == Mode::Saturated {
            self.pipe.drain::<TRACED>();
            ops += DEPTH as u64;
        }
        let latency = std::mem::replace(&mut self.pipe.latency, Recorder::new());
        PhaseOut {
            ops,
            begin,
            end: Snap::take(),
            latency,
            garbage,
        }
    }
}

struct Ready {
    svc: KvService<HppStore>,
    prefilled: u64,
    stream: OpStream,
    start_s: f64,
    pinned: bool,
}

fn set_up(spec: &StreamSpec, seed: u64, allowed: &[usize]) -> Ready {
    let mut pinned = !allowed.is_empty() && placement::pin_current(&allowed[allowed.len() - 1..]);
    let t = Instant::now();
    let svc = KvService::<HppStore>::start(KvConfig {
        shards: 1,
        buckets: BUCKETS,
        ..KvConfig::new()
    });
    let start_s = t.elapsed().as_secs_f64();
    pinned &= !allowed.is_empty() && placement::pin_current(&allowed[..1]);

    let prefill = Pipe::new(&svc).for_each_key(Op::Insert, (0..spec.keys).step_by(2));
    assert_eq!(prefill.failed, 0, "a prefill reply was an error");
    let stream = OpStream::generate(spec, seed, 0, STREAM_LEN);
    Ready {
        svc,
        prefilled: prefill.insert_oks,
        stream,
        start_s,
        pinned,
    }
}

fn shut_down(svc: KvService<HppStore>) -> f64 {
    let t = Instant::now();
    svc.shutdown();
    t.elapsed().as_secs_f64()
}

pub fn run(mode: Mode, spec: &StreamSpec, cfg: &RunCfg) -> (RunData, KvExtras) {
    let allowed = placement::allowed_cpus();

    let (mut setup_times, mut start_times, mut shutdown_times) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut ready: Option<Ready> = None;
    for _ in 0..phases::SETUP_REPS {
        if let Some(old) = ready.take() {
            shutdown_times.push(shut_down(old.svc));
        }
        let t = Instant::now();
        let r = set_up(spec, cfg.seed, &allowed);
        setup_times.push(t.elapsed().as_secs_f64());
        start_times.push(r.start_s);
        ready = Some(r);
    }
    let Ready {
        svc,
        prefilled,
        stream,
        pinned,
        ..
    } = ready.expect("at least one set-up");

    let phases = phases::plan(cfg.seconds, cfg.trace);
    let mut loader = Loader {
        pipe: Pipe::new(&svc),
        stream: &stream,
        cursor: 0,
    };
    let mut stats = (ShardStatsSnapshot::default(), ShardStatsSnapshot::default());
    let mut until_ns = mono_ns();
    let mut outs = Vec::new();
    for (i, p) in phases.iter().enumerate() {
        if i == 1 {
            stats.0 = svc.shard_stats(0);
        }
        until_ns += p.len_ns;
        outs.push(if p.traced {
            loader.phase::<true>(mode, until_ns)
        } else {
            loader.phase::<false>(mode, until_ns)
        });
    }
    stats.1 = svc.shard_stats(0);
    let Loader { mut pipe, .. } = loader;
    let swept = pipe.for_each_key(Op::Get, 0..spec.keys);
    let verdict = Verdict::new(prefilled, &pipe.tally, &swept);

    let layers = cfg.trace.then(|| {
        let shard_garbage_peak = svc.shard_stats(0).peak_garbage;
        let route_ns = probe_route(&stream, &mut pipe.tracer);
        let store_ns = replay_into_store(spec, &stream, &mut pipe.tracer);
        let respawn_ms = respawn(&svc, &mut pipe.lanes[0].client);
        KvLayers {
            route_ns,
            store_ns,
            shard_garbage_peak,
            respawn_ms,
        }
    });
    // Clients hold the shard alive; they go before the service does.
    let Pipe {
        tally,
        tracer,
        lanes,
        ..
    } = pipe;
    drop(lanes);
    shutdown_times.push(shut_down(svc));

    let data = RunData {
        placement: placement::classify(&allowed, pinned),
        allowed,
        setup_s: phases::median(&mut setup_times),
        phases,
        outs: vec![outs],
        tracers: vec![tracer],
        tally,
        verdict,
    };
    let extras = KvExtras {
        stats,
        start_s: phases::median(&mut start_times),
        shutdown_s: phases::median(&mut shutdown_times),
        layers,
    };
    (data, extras)
}

/// `shard_of_key` is a few ns, far below a clock read: timed as one batch.
fn probe_route(stream: &OpStream, tracer: &mut Tracer) -> f64 {
    let mut cursor = 0;
    let t0 = mono_ns();
    let mut acc = 0usize;
    for _ in 0..ROUTE_PROBE_CALLS {
        let (_, key) = stream.next(&mut cursor);
        // Two shards: with one, the widening multiply folds to a constant.
        acc += kv_service::shard_of_key(std::hint::black_box(key), 2);
    }
    std::hint::black_box(acc);
    let t1 = mono_ns();
    tracer.probe("kv-service.route_ns", t0, t1);
    (t1 - t0) as f64 / ROUTE_PROBE_CALLS as f64
}

/// The store layer with no ring: the same stream, straight into a bare
/// `HppStore` on this thread. Each timed op includes one clock read.
fn replay_into_store(spec: &StreamSpec, stream: &OpStream, tracer: &mut Tracer) -> [f64; 3] {
    let store = HppStore::new_shard(BUCKETS, PolicyKind::Capped);
    let mut handle = store.handle();
    for key in (0..spec.keys).step_by(2) {
        store.insert(&mut handle, key, value_of(key));
    }
    let names = [
        SpanName::KvStoreGet,
        SpanName::KvStoreInsert,
        SpanName::KvStoreRemove,
    ];
    let mut cursor = 0;
    let mut t0 = mono_ns();
    for id in 0..STORE_REPLAY_OPS as u64 {
        let (op, key) = stream.next(&mut cursor);
        match op {
            Op::Get => drop(std::hint::black_box(store.get(&mut handle, key))),
            Op::Insert => drop(std::hint::black_box(store.insert(
                &mut handle,
                key,
                value_of(key),
            ))),
            Op::Remove => drop(std::hint::black_box(store.remove(&mut handle, key))),
        }
        let t1 = mono_ns();
        tracer.root(names[op as usize], t0, t1, id);
        t0 = t1;
    }
    store.quiesce(&mut handle);
    names.map(|n| tracer.totals(n).mean_ns())
}

/// `inject_crash` → first `Ok` reply, which only the respawned worker can
/// give: the probe queues behind the crash command. Median of the cycles.
fn respawn(svc: &KvService<HppStore>, client: &mut Client<HppStore>) -> f64 {
    // The worker dies by panicking; keep its five expected messages off
    // stderr, and every other panic on it.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("injected crash"));
        if !injected {
            default_hook(info);
        }
    }));
    let mut ms: Vec<f64> = (0..RESPAWN_CYCLES)
        .map(|cycle| {
            let generation = svc.generation(0);
            let t0 = Instant::now();
            assert!(svc.inject_crash(0), "crash command was not accepted");
            while client.get(cycle as u64).is_err() || svc.generation(0) == generation {
                assert!(
                    t0.elapsed().as_secs() < 30,
                    "shard did not respawn within 30 s"
                );
            }
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    drop(std::panic::take_hook());
    phases::median(&mut ms)
}
