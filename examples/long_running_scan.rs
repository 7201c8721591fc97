//! Long-running reads under reclamation pressure: HP++ vs PEBR.
//!
//! Run with: `cargo run --release --example long_running_scan`
//!
//! Reproduces the paper's Fig. 10 phenomenon in miniature: reader threads
//! issue `get`s deep into a large list while writers churn the head. PEBR's
//! coarse-grained ejection keeps aborting the long reads, so its read
//! throughput collapses as the structure grows; HP++'s protection failure
//! is per-pointer (only an actually-invalidated source aborts a read), so
//! its readers keep pace with EBR's.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Duration;

use ds::ConcurrentMap;

fn measure<M: ConcurrentMap<u64, u64> + Send + Sync>(name: &str, range: u64) {
    let list = M::new();
    {
        // Descending prefill: each insert lands at the head (O(n) total).
        let mut handle = list.handle();
        let mut k = range & !1;
        while k >= 2 {
            k -= 2;
            list.insert(&mut handle, k, k);
        }
    }
    let stop = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    std::thread::scope(|s| {
        for seed in 0..2u64 {
            let list = &list;
            let stop = &stop;
            let reads = &reads;
            s.spawn(move || {
                let mut handle = list.handle();
                let mut x = seed + 1;
                let mut n = 0u64;
                while !stop.load(Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    std::hint::black_box(list.get(&mut handle, &(x % range)));
                    n += 1;
                }
                reads.fetch_add(n, Relaxed);
            });
        }
        for _ in 0..2 {
            let list = &list;
            let stop = &stop;
            s.spawn(move || {
                let mut handle = list.handle();
                let mut k = 0u64;
                while !stop.load(Relaxed) {
                    list.insert(&mut handle, k % 32, k);
                    list.remove(&mut handle, &(k % 32));
                    k += 1;
                }
            });
        }
        std::thread::sleep(Duration::from_millis(800));
        stop.store(true, Relaxed);
    });
    println!("{name:>24}: {:>9} reads completed", reads.load(Relaxed));
}

fn main() {
    // The ejection effect needs reads that are long relative to reclamation
    // pressure; scale the list so one get takes a macroscopic time. (For
    // the paper-faithful experiment at 2^18..2^26 keys, run
    // `cargo run --release -p bench -- fig10`.)
    let range: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1 << 16);
    println!("long-running gets over a {range}-key list with head churn:");
    measure::<ds::guarded::HHSList<u64, u64, ebr::Ebr>>("EBR (not robust)", range);
    measure::<ds::guarded::HHSList<u64, u64, pebr::Pebr>>("PEBR (ejects readers)", range);
    measure::<ds::hpp::HHSList<u64, u64>>("HP++ (fine-grained)", range);
    println!();
    println!("On big lists (pass a key count, e.g. 4194304, and use --release) PEBR's");
    println!("readers get ejected mid-traversal and its count collapses, while HP++");
    println!("tracks EBR with a fraction of the unreclaimed memory — the paper's Fig. 10.");
}
