//! An ordered index on the Natarajan–Mittal tree under HP++.
//!
//! Run with: `cargo run --release --example ordered_index`
//!
//! NMTree is the paper's flagship "HP cannot, HP++ can" structure: its seek
//! walks through flagged/tagged edges optimistically. This example uses it
//! as an order-book-style index: writers post and cancel orders at price
//! levels, readers probe prices, and a robustness check confirms memory
//! stays bounded.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use ds::hpp::NMTree;
use ds::ConcurrentMap;

fn main() {
    let index: NMTree<u64, u64> = ConcurrentMap::new();
    let posted = AtomicU64::new(0);
    let cancelled = AtomicU64::new(0);
    let probes = AtomicU64::new(0);

    std::thread::scope(|s| {
        // Posting threads: insert orders at pseudo-random price levels.
        for t in 0..3u64 {
            let index = &index;
            let posted = &posted;
            let cancelled = &cancelled;
            s.spawn(move || {
                let mut handle = index.handle();
                let mut price = 10_000 + t;
                for qty in 0..60_000u64 {
                    price = (price
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407))
                        % 20_000;
                    if index.insert(&mut handle, price, qty) {
                        posted.fetch_add(1, Relaxed);
                    } else if index.remove(&mut handle, &price).is_some() {
                        cancelled.fetch_add(1, Relaxed);
                    }
                }
            });
        }
        // Probing threads: point lookups across the price range.
        for _ in 0..3 {
            let index = &index;
            let probes = &probes;
            s.spawn(move || {
                let mut handle = index.handle();
                let mut found = 0u64;
                for p in 0..200_000u64 {
                    if index.get(&mut handle, &(p % 20_000)).is_some() {
                        found += 1;
                    }
                }
                probes.fetch_add(found, Relaxed);
            });
        }
    });

    println!(
        "posted {} orders, cancelled {}, probes found {} live levels",
        posted.load(Relaxed),
        cancelled.load(Relaxed),
        probes.load(Relaxed),
    );
    println!(
        "unreclaimed blocks at exit: {}",
        smr_common::counters::garbage_now()
    );
}
