//! Micro-benchmark of the retire→scan→free pipeline itself — the path the
//! adaptive reclaim threshold and the persistent scan scratch optimize.
//!
//! * `reclaim/hp/{1,4,16}` — plain HP retire throughput: each thread
//!   allocates and retires nodes back-to-back, so reclamation runs at the
//!   adaptive trigger (`max(RECLAIM_THRESHOLD, k·H)`) and every scan's cost
//!   is amortized over the retires between triggers.
//! * `reclaim/hp++/{1,4,16}` — HP++ unlink→invalidate→reclaim throughput:
//!   each thread unlinks single nodes through `try_unlink`, exercising the
//!   inline batch storage, the deferred invalidation flush, and the epoched
//!   reclamation.
//! * `reclaim/ebr/{1,4,16}` — EBR retire throughput: each thread pins,
//!   retires one node, and unpins, so the number folds in the pin/unpin
//!   fence cost, the generation-bag push, and the periodic epoch
//!   advance + bag expiry at the collect threshold.
//! * `reclaim/nr/{1,4,16}` — the no-reclamation floor: the same loop with
//!   leak-everything retirement, isolating allocator + harness cost.
//! * `pin/ebr/{1,4,16}` — pure pin/unpin cycles with no retirement: the
//!   EBR hot path the asymmetric-fence optimization targets. Run with and
//!   without `SMR_NO_MEMBARRIER=1` to price the light fence against the
//!   symmetric `SeqCst` fallback.
//!
//! Reported per-iteration time is per retire (resp. per unlink, per pin),
//! with the periodic scans folded in. The triggers are each scheme's
//! `TRIGGER` constant (HP++'s cadences: `INVALIDATE_PERIOD` and
//! `RECLAIM_PERIOD`); the one knob is `SMR_NO_MEMBARRIER`.

use std::sync::atomic::Ordering::{AcqRel, Acquire, Release};
use std::sync::Barrier;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use smr_common::{Atomic, SchemeDomain, Shared};

const THREADS: [usize; 3] = [1, 4, 16];

/// Runs `work` on `n` threads and returns the wall time of the parallel
/// region (started and stopped by barrier handshakes with the measuring
/// thread). Workers are pinned round-robin so
/// cross-core migration does not add variance to the per-retire numbers.
fn timed<W: Fn(u64) + Sync>(n: usize, per_thread: u64, work: W) -> std::time::Duration {
    let barrier = Barrier::new(n + 1);
    std::thread::scope(|s| {
        for tid in 0..n {
            let barrier = &barrier;
            let work = &work;
            s.spawn(move || {
                bench::pin_thread(tid);
                barrier.wait();
                work(per_thread);
                barrier.wait();
            });
        }
        barrier.wait();
        let start = Instant::now();
        barrier.wait(); // all workers done
        start.elapsed()
    })
}

/// One benchmark group: `work(iterations)` on each thread of 1, 4 and 16.
fn group<W: Fn(u64) + Sync>(c: &mut Criterion, name: &str, work: W) {
    let mut g = c.benchmark_group(name);
    for &n in &THREADS {
        g.bench_function(&n.to_string(), |b| {
            b.iter_custom(|iters| timed(n, iters.div_ceil(n as u64), &work))
        });
    }
    g.finish();
}

fn bench_hp(c: &mut Criterion) {
    let domain: &'static hp::Domain = Box::leak(Box::new(hp::Domain::new()));
    group(c, "reclaim/hp", |per| {
        let mut t = domain.register();
        // A live (empty) slot per thread so scans have a realistic hazard
        // array to snapshot.
        let hp_slot = t.hazard_pointer();
        for i in 0..per {
            let p = Box::into_raw(Box::new(i));
            unsafe { t.retire(p) };
        }
        t.recycle(hp_slot);
    });
}

struct N(Atomic<N>);

unsafe impl hp_plus::Invalidate for N {
    unsafe fn invalidate(ptr: *mut Self) {
        let n = unsafe { &*ptr };
        let cur = n.0.load(std::sync::atomic::Ordering::Relaxed);
        n.0.store(cur.with_tag(cur.tag() | 2), Release);
    }
}

fn bench_hpp(c: &mut Criterion) {
    let domain: &'static hp_plus::Domain = Box::leak(Box::new(hp_plus::Domain::new()));
    group(c, "reclaim/hp++", |per| {
        let mut t = domain.register();
        let head: Atomic<N> = Atomic::null();
        for _ in 0..per {
            let node = Shared::from_owned(N(Atomic::null()));
            head.store(node, Release);
            let ok = unsafe {
                t.try_unlink(&[], || {
                    head.compare_exchange(node, Shared::null(), AcqRel, Acquire)
                        .ok()
                        .map(|_| hp_plus::Unlinked::single(node))
                })
            };
            assert!(ok);
        }
    });
}

fn bench_ebr(c: &mut Criterion) {
    let collector: &'static ebr::Collector = Box::leak(Box::new(ebr::Collector::new()));
    group(c, "reclaim/ebr", |per| {
        let mut h = collector.register();
        for i in 0..per {
            let guard = h.pin();
            let node = Shared::from_owned(i);
            unsafe { guard.defer_destroy(node) };
        }
    });
}

fn bench_nr(c: &mut Criterion) {
    use smr_common::{GuardedScheme, SchemeGuard};
    group(c, "reclaim/nr", |per| {
        for i in 0..per {
            let guard = nr::Nr::pin(&mut nr::Nr::handle());
            let node = Shared::from_owned(i);
            unsafe { guard.defer_destroy(node) };
        }
    });
}

fn bench_ebr_pin(c: &mut Criterion) {
    let collector: &'static ebr::Collector = Box::leak(Box::new(ebr::Collector::new()));
    group(c, "pin/ebr", |per| {
        let mut h = collector.register();
        for _ in 0..per {
            let guard = h.pin();
            criterion::black_box(&guard);
        }
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_hp, bench_hpp, bench_ebr, bench_nr, bench_ebr_pin
}
criterion_main!(benches);
