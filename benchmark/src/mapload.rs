//! Map workloads: two pinned loaders replaying their streams into one
//! shared `ConcurrentMap`.

use std::sync::Barrier;
use std::time::Instant;

use smr_common::counters;
use smr_common::time::mono_ns;
use smr_common::ConcurrentMap;

use crate::check::{self, Tally, Verdict};
use crate::phases::{self, PhaseOut, RunData, Snap};
use crate::placement;
use crate::recorder::Recorder;
use crate::stream::{Op, OpStream, StreamSpec, STREAM_LEN};
use crate::trace::{SpanName, Tracer};
use crate::RunCfg;

pub const THREADS: usize = 2;
/// One op in this many is timed; timing every op would cost more than the
/// hash-map op it times.
const LATENCY_EVERY: u64 = 16;
/// Ops between `garbage_now()` samples and clock checks.
const GARBAGE_EVERY: u64 = 256;

fn span_of(op: Op) -> SpanName {
    match op {
        Op::Get => SpanName::DsGet,
        Op::Insert => SpanName::DsInsert,
        Op::Remove => SpanName::DsRemove,
    }
}

struct Loader<'a, M: ConcurrentMap<u64, u64>> {
    map: &'a M,
    handle: M::Handle,
    stream: &'a OpStream,
    cursor: usize,
    next_op_id: u64,
    tally: Tally,
    tracer: Tracer,
}

impl<M: ConcurrentMap<u64, u64>> Loader<'_, M> {
    #[inline]
    fn step(&mut self) {
        let (op, key) = self.stream.next(&mut self.cursor);
        check::apply(self.map, &mut self.handle, op, key, &mut self.tally);
    }

    fn phase<const TRACED: bool>(&mut self, until_ns: u64) -> PhaseOut {
        let (mut latency, mut garbage) = (Recorder::new(), Recorder::new());
        let mut ops = 0;
        let begin = Snap::take();
        let mut prev_end = begin.t_ns;
        loop {
            for _ in 0..GARBAGE_EVERY / LATENCY_EVERY {
                if TRACED {
                    for _ in 0..LATENCY_EVERY {
                        let (op, key) = self.stream.next(&mut self.cursor);
                        let t0 = mono_ns();
                        check::apply(self.map, &mut self.handle, op, key, &mut self.tally);
                        let t1 = mono_ns();
                        // The root runs from the end of the previous call to
                        // the end of this one: its self time is the loader's
                        // own work (stream decode, check, span bookkeeping).
                        let root =
                            self.tracer
                                .root(SpanName::BenchOp, prev_end, t1, self.next_op_id);
                        self.tracer
                            .child(root, span_of(op), t0, t1, self.next_op_id);
                        self.next_op_id += 1;
                        prev_end = t1;
                    }
                } else {
                    let t0 = mono_ns();
                    self.step();
                    latency.record(mono_ns() - t0);
                    for _ in 1..LATENCY_EVERY {
                        self.step();
                    }
                }
            }
            ops += GARBAGE_EVERY;
            garbage.record(counters::garbage_now());
            if mono_ns() >= until_ns {
                break;
            }
        }
        PhaseOut {
            ops,
            begin,
            end: Snap::take(),
            latency,
            garbage,
        }
    }
}

struct Ready<M> {
    map: M,
    prefilled: u64,
    streams: Vec<OpStream>,
}

fn set_up<M: ConcurrentMap<u64, u64>>(spec: &StreamSpec, seed: u64) -> Ready<M> {
    let map = M::new();
    let prefilled = check::prefill(&map, &mut map.handle(), spec.keys);
    let streams = (0..THREADS as u64)
        .map(|t| OpStream::generate(spec, seed, t, STREAM_LEN))
        .collect();
    Ready {
        map,
        prefilled,
        streams,
    }
}

pub fn run<M>(spec: &StreamSpec, cfg: &RunCfg) -> RunData
where
    M: ConcurrentMap<u64, u64> + Sync,
    M::Handle: Send,
{
    let allowed = placement::allowed_cpus();

    let mut setup_times = Vec::new();
    let mut ready = None;
    for _ in 0..phases::SETUP_REPS {
        drop(ready.take());
        let t = Instant::now();
        ready = Some(set_up::<M>(spec, cfg.seed));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let Ready {
        map,
        prefilled,
        streams,
    } = ready.expect("at least one set-up");

    let phases = phases::plan(cfg.seconds, cfg.trace);
    let barrier = Barrier::new(THREADS);
    let mut pinned = !allowed.is_empty();
    let mut outs = Vec::new();
    let mut tracers = Vec::new();
    let mut tally = Tally::default();
    std::thread::scope(|s| {
        let joins: Vec<_> = (0..THREADS)
            .map(|tid| {
                let (map, stream, phases, barrier, allowed) =
                    (&map, &streams[tid], &phases, &barrier, &allowed);
                s.spawn(move || {
                    let pinned = !allowed.is_empty()
                        && placement::pin_current(&[allowed[tid % allowed.len()]]);
                    let mut loader = Loader {
                        map,
                        handle: map.handle(),
                        stream,
                        cursor: 0,
                        next_op_id: 0,
                        tally: Tally::default(),
                        tracer: Tracer::new(tid as u32),
                    };
                    barrier.wait();
                    let mut until_ns = mono_ns();
                    let outs: Vec<PhaseOut> = phases
                        .iter()
                        .map(|p| {
                            until_ns += p.len_ns;
                            if p.traced {
                                loader.phase::<true>(until_ns)
                            } else {
                                loader.phase::<false>(until_ns)
                            }
                        })
                        .collect();
                    (pinned, outs, loader.tracer, loader.tally)
                })
            })
            .collect();
        for j in joins {
            let (p, o, tr, ta) = j.join().expect("loader thread panicked");
            pinned &= p;
            outs.push(o);
            tracers.push(tr);
            tally.merge(&ta);
        }
    });

    let swept = check::sweep(&map, &mut map.handle(), spec.keys);
    RunData {
        placement: placement::classify(&allowed, pinned),
        allowed,
        setup_s: phases::median(&mut setup_times),
        phases,
        outs,
        tracers,
        tally,
        verdict: Verdict::new(prefilled, &tally, &swept),
    }
}
