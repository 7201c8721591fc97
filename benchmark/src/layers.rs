//! Workload-independent layer probes of the traced run: the cost of each
//! scheme primitive, and one number for every structure × scheme pair.
//!
//! Both run on the calling thread (pinned by the caller) with fixed
//! iteration counts or a fixed time per cell. Every `retire`/`unlink` probe
//! allocates the block it retires and lets the scheme's own trigger run its
//! scans, so the number is the amortised cost per retired block.

use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};

use ds::{cdrc, guarded, hash_map, hp as dshp, hpp};
use ebr::Ebr;
use hyaline::Hyaline;
use nr::Nr;
use pebr::Pebr;
use smr_common::policy::{self, PolicyConfig, PolicyKind, RetireStats};
use smr_common::time::mono_ns;
use smr_common::{
    counters, fence, Atomic, Backoff, ConcurrentMap, GuardedScheme, SchemeGuard, Shared,
};

use crate::check::{self, Tally};
use crate::phases::median;
use crate::stream::{KeyDist, Mix, OpStream, StreamSpec};
use crate::trace::Tracer;

const REPS: usize = 3;
const FAST_ITERS: u64 = 400_000;
/// `membarrier` is a syscall of several µs.
const HEAVY_FENCE_ITERS: u64 = 2_000;

/// Median over [`REPS`] of the mean ns per call of `f` over `iters` calls.
fn ns_per_call(
    name: &'static str,
    iters: u64,
    tracer: &mut Tracer,
    mut f: impl FnMut(u64),
) -> (&'static str, f64) {
    let mut reps = [0.0; REPS];
    for rep in &mut reps {
        let t0 = mono_ns();
        for i in 0..iters {
            f(i);
        }
        let t1 = mono_ns();
        tracer.probe(name, t0, t1);
        *rep = (t1 - t0) as f64 / iters as f64;
    }
    (name, median(&mut reps))
}

fn guarded<S: GuardedScheme>(
    pin: &'static str,
    retire: &'static str,
    tracer: &mut Tracer,
    out: &mut Vec<(&'static str, f64)>,
) {
    let mut handle = S::handle();
    out.push(ns_per_call(pin, FAST_ITERS, tracer, |_| {
        std::hint::black_box(&S::pin(&mut handle));
    }));
    out.push(ns_per_call(retire, FAST_ITERS, tracer, |i| {
        let guard = S::pin(&mut handle);
        // SAFETY: the block was just allocated, was never shared, and is
        // retired exactly once.
        unsafe { guard.defer_destroy(Shared::from_owned(i)) };
    }));
}

/// A node the HP++ probes can unlink and invalidate.
struct Node(Atomic<Node>);

// SAFETY: `invalidate` only sets the invalidation tag on the node's own
// link, which is all HP++ asks of it.
unsafe impl hp_plus::Invalidate for Node {
    unsafe fn invalidate(ptr: *mut Self) {
        // SAFETY: the caller passes a node it unlinked and still owns.
        let node = unsafe { &*ptr };
        let cur = node.0.load(Relaxed);
        node.0.store(
            cur.with_tag(cur.tag() | smr_common::tagged::TAG_INVALIDATED),
            Release,
        );
    }
}

/// Runs `f` while a second thread of this process is busy on `peer_cpu`.
/// `membarrier` returns at once when no other thread of the process is on a
/// CPU; what the workloads pay is the interrupt to a running peer.
fn with_busy_peer<R>(peer_cpu: Option<usize>, f: impl FnOnce() -> R) -> R {
    let (running, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|s| {
        s.spawn(|| {
            if let Some(cpu) = peer_cpu {
                crate::placement::pin_current(&[cpu]);
            }
            running.store(true, Relaxed);
            while !stop.load(Relaxed) {
                std::hint::spin_loop();
            }
        });
        while !running.load(Relaxed) {
            std::thread::yield_now();
        }
        let result = f();
        stop.store(true, Relaxed);
        result
    })
}

/// The seventeen scheme-primitive metrics, in `spec` order. The caller is
/// pinned; `peer_cpu` is another allowed CPU, if there is one.
pub fn primitives(peer_cpu: Option<usize>, tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    out.push(ns_per_call("nr.retire_ns", FAST_ITERS, tracer, |i| {
        // NR's handle is `()`.
        let guard = Nr::pin(&mut ());
        // SAFETY: fresh, unshared block, retired once (NR leaks it).
        unsafe { guard.defer_destroy(Shared::from_owned(i)) };
    }));
    guarded::<Ebr>("ebr.pin_ns", "ebr.retire_ns", tracer, &mut out);
    guarded::<Pebr>("pebr.pin_ns", "pebr.retire_ns", tracer, &mut out);
    guarded::<Hyaline>("hyaline.pin_ns", "hyaline.retire_ns", tracer, &mut out);

    {
        let domain: &'static hp::Domain = Box::leak(Box::new(hp::Domain::new()));
        let mut thread = domain.register();
        let slot = thread.hazard_pointer();
        let src = Atomic::new(42u64);
        out.push(ns_per_call("hp.protect_ns", FAST_ITERS, tracer, |_| {
            let p = src.load(Acquire);
            std::hint::black_box(slot.try_protect(p, &src).is_ok());
        }));
        out.push(ns_per_call("hp.retire_ns", FAST_ITERS, tracer, |i| {
            // SAFETY: fresh, unshared `Box` allocation, retired once.
            unsafe { thread.retire(Box::into_raw(Box::new(i))) };
        }));
        thread.recycle(slot);
        // SAFETY: no hazard pointer protects `src` any more.
        unsafe { drop(src.into_owned()) };
    }

    {
        let domain: &'static hp_plus::Domain = Box::leak(Box::new(hp_plus::Domain::new()));
        let mut thread = domain.register();
        let slot = thread.hazard_pointer();
        let src = Atomic::new(42u64);
        out.push(ns_per_call(
            "hp-plus.try_protect_ns",
            FAST_ITERS,
            tracer,
            |_| {
                let mut p = src.load(Acquire).with_tag(0);
                std::hint::black_box(hp_plus::try_protect(&slot, &mut p, &src, || false));
            },
        ));
        thread.recycle(slot);
        // SAFETY: the slot that protected `src` has been recycled.
        unsafe { drop(src.into_owned()) };

        let head: Atomic<Node> = Atomic::null();
        out.push(ns_per_call("hp-plus.unlink_ns", FAST_ITERS, tracer, |_| {
            let node = Shared::from_owned(Node(Atomic::null()));
            head.store(node, Release);
            // SAFETY: the node has no successors (empty frontier), is
            // `Box`-allocated, and this CAS detaches it exactly once.
            let unlinked = unsafe {
                thread.try_unlink(&[], || {
                    head.compare_exchange(node, Shared::null(), AcqRel, Acquire)
                        .ok()
                        .map(|_| hp_plus::Unlinked::single(node))
                })
            };
            assert!(unlinked, "uncontended unlink failed");
        }));
    }

    out.push(ns_per_call(
        "smr-common.fence_light_ns",
        FAST_ITERS,
        tracer,
        |_| fence::light(),
    ));
    out.push(with_busy_peer(peer_cpu, || {
        ns_per_call(
            "smr-common.fence_heavy_ns",
            HEAVY_FENCE_ITERS,
            tracer,
            |_| fence::heavy(),
        )
    }));
    let capped = PolicyConfig::for_kind(PolicyKind::Capped).build(hp::legacy_trigger());
    out.push(ns_per_call(
        "smr-common.policy_decide_ns",
        FAST_ITERS,
        tracer,
        |i| {
            let stats = RetireStats {
                retired: (i % 256) as usize,
                slots: 8,
                ops: i,
                ..RetireStats::default()
            };
            std::hint::black_box(policy::decide(&*capped, std::hint::black_box(&stats)));
        },
    ));
    // The first four snoozes after a reset: the spin phase, which neither
    // yields nor parks under the default limits.
    let mut backoff = Backoff::new();
    out.push(ns_per_call(
        "smr-common.backoff_snooze_ns",
        FAST_ITERS,
        tracer,
        |i| {
            if i % 4 == 0 {
                backoff.reset();
            }
            backoff.snooze();
        },
    ));
    out.push(ns_per_call(
        "smr-common.clock_read_ns",
        FAST_ITERS,
        tracer,
        |_| {
            std::hint::black_box(mono_ns());
        },
    ));
    out.push(ns_per_call(
        "smr-common.garbage_now_ns",
        FAST_ITERS,
        tracer,
        |_| {
            std::hint::black_box(counters::garbage_now());
        },
    ));
    out
}

pub const PRIMITIVE_NAMES: [&str; 17] = [
    "nr.retire_ns",
    "ebr.pin_ns",
    "ebr.retire_ns",
    "pebr.pin_ns",
    "pebr.retire_ns",
    "hyaline.pin_ns",
    "hyaline.retire_ns",
    "hp.protect_ns",
    "hp.retire_ns",
    "hp-plus.try_protect_ns",
    "hp-plus.unlink_ns",
    "smr-common.fence_light_ns",
    "smr-common.fence_heavy_ns",
    "smr-common.policy_decide_ns",
    "smr-common.backoff_snooze_ns",
    "smr-common.clock_read_ns",
    "smr-common.garbage_now_ns",
];

const MATRIX_KEYS: u64 = 1 << 10;
const MATRIX_SPEC: StreamSpec = StreamSpec {
    keys: MATRIX_KEYS,
    mix: Mix {
        get: 50,
        insert: 25,
        remove: 25,
    },
    dist: KeyDist::Uniform,
};
const MATRIX_STREAM_LEN: usize = 1 << 18;
const MATRIX_CHECK_EVERY: usize = 64;

/// One cell: a half-full 1 024-key map, 50/25/25, one thread, `cell_ns`.
fn cell<M: ConcurrentMap<u64, u64>>(stream: &OpStream, cell_ns: u64) -> (f64, u64) {
    let map = M::new();
    let mut handle = map.handle();
    check::prefill(&map, &mut handle, MATRIX_KEYS);
    let mut tally = Tally::default();
    let mut cursor = 0;
    let t0 = mono_ns();
    let mut now = t0;
    while now - t0 < cell_ns {
        for _ in 0..MATRIX_CHECK_EVERY {
            let (op, key) = stream.next(&mut cursor);
            check::apply(&map, &mut handle, op, key, &mut tally);
        }
        now = mono_ns();
    }
    ((now - t0) as f64 / tally.ops() as f64, tally.failed)
}

type Cell = (&'static str, fn(&OpStream, u64) -> (f64, u64));

macro_rules! cells {
    ($($name:literal => $map:ty,)*) => {
        /// Every structure × scheme pair the suite implements (the gaps
        /// are the paper's: HP cannot run HHSList or NMTree, RC has no trees).
        pub const MATRIX: &[Cell] = &[$(($name, cell::<$map>),)*];
    };
}

cells! {
    "ds.hashmap.nr.ns_per_op" => hash_map::HashMap<u64, u64, guarded::HHSList<u64, u64, Nr>>,
    "ds.hashmap.ebr.ns_per_op" => hash_map::HashMap<u64, u64, guarded::HHSList<u64, u64, Ebr>>,
    "ds.hashmap.pebr.ns_per_op" => hash_map::HashMap<u64, u64, guarded::HHSList<u64, u64, Pebr>>,
    "ds.hashmap.hyaline.ns_per_op" => hash_map::HashMap<u64, u64, guarded::HHSList<u64, u64, Hyaline>>,
    "ds.hashmap.hp.ns_per_op" => dshp::HashMap<u64, u64>,
    "ds.hashmap.hpp.ns_per_op" => hpp::HashMap<u64, u64>,
    "ds.hashmap.rc.ns_per_op" => hash_map::HashMap<u64, u64, cdrc::HHSList<u64, u64>>,
    "ds.hhslist.nr.ns_per_op" => guarded::HHSList<u64, u64, Nr>,
    "ds.hhslist.ebr.ns_per_op" => guarded::HHSList<u64, u64, Ebr>,
    "ds.hhslist.pebr.ns_per_op" => guarded::HHSList<u64, u64, Pebr>,
    "ds.hhslist.hyaline.ns_per_op" => guarded::HHSList<u64, u64, Hyaline>,
    "ds.hhslist.hpp.ns_per_op" => hpp::HHSList<u64, u64>,
    "ds.hhslist.rc.ns_per_op" => cdrc::HHSList<u64, u64>,
    "ds.hmlist.nr.ns_per_op" => guarded::HMList<u64, u64, Nr>,
    "ds.hmlist.ebr.ns_per_op" => guarded::HMList<u64, u64, Ebr>,
    "ds.hmlist.pebr.ns_per_op" => guarded::HMList<u64, u64, Pebr>,
    "ds.hmlist.hyaline.ns_per_op" => guarded::HMList<u64, u64, Hyaline>,
    "ds.hmlist.hp.ns_per_op" => dshp::HMList<u64, u64>,
    "ds.hmlist.hpp.ns_per_op" => hpp::HMList<u64, u64>,
    "ds.hmlist.rc.ns_per_op" => cdrc::HMList<u64, u64>,
    "ds.skiplist.nr.ns_per_op" => guarded::SkipList<u64, u64, Nr>,
    "ds.skiplist.ebr.ns_per_op" => guarded::SkipList<u64, u64, Ebr>,
    "ds.skiplist.pebr.ns_per_op" => guarded::SkipList<u64, u64, Pebr>,
    "ds.skiplist.hyaline.ns_per_op" => guarded::SkipList<u64, u64, Hyaline>,
    "ds.skiplist.hp.ns_per_op" => dshp::SkipList<u64, u64>,
    "ds.skiplist.hpp.ns_per_op" => hpp::SkipList<u64, u64>,
    "ds.nmtree.nr.ns_per_op" => guarded::NMTree<u64, u64, Nr>,
    "ds.nmtree.ebr.ns_per_op" => guarded::NMTree<u64, u64, Ebr>,
    "ds.nmtree.pebr.ns_per_op" => guarded::NMTree<u64, u64, Pebr>,
    "ds.nmtree.hyaline.ns_per_op" => guarded::NMTree<u64, u64, Hyaline>,
    "ds.nmtree.hpp.ns_per_op" => hpp::NMTree<u64, u64>,
}

/// Runs every cell for `cell_ns`; returns the metrics and the number of
/// results that failed the value check.
pub fn matrix(seed: u64, cell_ns: u64, tracer: &mut Tracer) -> (Vec<(&'static str, f64)>, u64) {
    let stream = OpStream::generate(&MATRIX_SPEC, seed, 0, MATRIX_STREAM_LEN);
    let mut failed = 0;
    let metrics = MATRIX
        .iter()
        .map(|&(name, run)| {
            let t0 = mono_ns();
            let (ns_per_op, bad) = run(&stream, cell_ns);
            tracer.probe(name, t0, mono_ns());
            failed += bad;
            (name, ns_per_op)
        })
        .collect();
    (metrics, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_primitive_is_measured_under_its_name() {
        let mut tracer = Tracer::new(0);
        let got = primitives(None, &mut tracer);
        let names: Vec<_> = got.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, PRIMITIVE_NAMES);
        for (name, ns) in got {
            assert!(ns.is_finite() && ns >= 0.0, "{name} = {ns}");
        }
    }

    #[test]
    fn every_cell_runs_and_checks_out() {
        let mut tracer = Tracer::new(0);
        let (metrics, failed) = matrix(9, 2_000_000, &mut tracer);
        assert_eq!(metrics.len(), MATRIX.len());
        assert_eq!(failed, 0);
        for (name, ns) in metrics {
            assert!(ns > 0.0 && ns.is_finite(), "{name} = {ns}");
        }
    }
}
