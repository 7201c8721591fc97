//! A session cache served by the sharded KV service.
//!
//! Run with: `cargo run --release --example kv_store`
//!
//! The PR-7 promotion of this example into `crates/kv-service` left this
//! file as the service's demo client. The workload is unchanged — lookups
//! dominate, entries churn via invalidation and refresh, and memory must
//! stay bounded under constant replacement (the class behind the paper's
//! HashMap rows, Fig. 8/11) — but the map now lives behind the service:
//! keys route to one shard per core, each shard's worker drains commands
//! in batches from a bounded ring, and each shard retires into its own
//! HP++ domain, so one slow shard cannot hold back its siblings' memory.
//!
//! The service runs on `KvConfig::new()`'s defaults; its fields and
//! builders (`with_shards`, `with_op_timeout`, …) are the one way to
//! change them.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use kv_service::{Command, KvConfig, KvService};

const SESSIONS: u64 = 100_000;

fn main() {
    let cfg = KvConfig::new();
    let shards = cfg.shards;
    // Default store: HP++, one private domain per shard.
    let svc: KvService = KvService::start(cfg);
    let hits = AtomicU64::new(0);
    let misses = AtomicU64::new(0);
    let started = Instant::now();

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    std::thread::scope(|s| {
        for w in 0..workers as u64 {
            let mut client = svc.client();
            let hits = &hits;
            let misses = &misses;
            s.spawn(move || {
                let mut state = 0x9E3779B97F4A7C15u64.wrapping_mul(w + 1);
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for i in 0..400_000u64 {
                    let session = next() % SESSIONS;
                    match i % 10 {
                        // 80% lookups
                        0..=7 => {
                            if client.get(session).expect("shard down").is_some() {
                                hits.fetch_add(1, Relaxed);
                            } else {
                                misses.fetch_add(1, Relaxed);
                                // Cache miss: populate.
                                client.insert(session, i).expect("shard down");
                            }
                        }
                        // 10% invalidations
                        8 => {
                            client.remove(session).expect("shard down");
                        }
                        // 10% refreshes: pipelined — both commands ride the
                        // same ring (same key → same shard) and the worker
                        // executes them in order, often in one batch.
                        _ => {
                            client
                                .submit(Command::Del { key: session })
                                .expect("shard down");
                            client
                                .submit(Command::Put {
                                    key: session,
                                    value: i,
                                })
                                .expect("shard down");
                            client.drain(|_, r| {
                                r.expect("shard down");
                            });
                        }
                    }
                }
            });
        }
    });

    let stats = svc.shutdown();
    let h = hits.load(Relaxed);
    let m = misses.load(Relaxed);
    println!(
        "{workers} clients -> {shards} shards, {:.2}s: {h} hits / {m} misses ({:.1}% hit rate)",
        started.elapsed().as_secs_f64(),
        100.0 * h as f64 / (h + m) as f64,
    );
    for (i, s) in stats.iter().enumerate() {
        println!(
            "  shard {i}: {} ops in {} batches (max batch {}, peak garbage {}); \
             idle: {} parks ({} ended by a doorbell wake), {} spins hit / {} expired",
            s.ops,
            s.batches,
            s.max_batch,
            s.peak_garbage,
            s.worker_parks,
            s.doorbell_wakes,
            s.idle_spin_hits,
            s.idle_spin_expired
        );
    }
    println!(
        "unreclaimed blocks at exit: {} (bounded despite constant churn)",
        smr_common::counters::garbage_now()
    );
}
