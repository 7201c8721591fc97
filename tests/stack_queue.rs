//! Cross-crate tests for the §4.2 applicability structures: Treiber stacks
//! (HP and HP++ flavors) and the Michael–Scott queue (guard-based flavors).

mod common;

use std::collections::HashSet;
use std::sync::Mutex;

use common::serial;

#[test]
fn hp_and_hpp_stacks_agree_under_interleaving() {
    let _serial = serial();
    let hp_stack = ds::hp::TreiberStack::new();
    let hpp_stack = ds::hpp::TreiberStack::new();
    let mut hh = hp_stack.handle();
    let mut hh2 = hpp_stack.handle();
    for i in 0..1000u64 {
        hp_stack.push(i);
        hpp_stack.push(i);
        if i % 3 == 0 {
            assert_eq!(hp_stack.pop(&mut hh), hpp_stack.pop(&mut hh2));
        }
    }
    loop {
        let (a, b) = (hp_stack.pop(&mut hh), hpp_stack.pop(&mut hh2));
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn msqueue_across_schemes_preserves_fifo_per_producer() {
    let _serial = serial();
    fn run<S: smr_common::GuardedScheme>() {
        let q: ds::guarded::MSQueue<u64, S> = ds::guarded::MSQueue::new();
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.handle();
                    for i in 0..500 {
                        q.enqueue(&mut h, t * 10_000 + i);
                    }
                });
            }
            for _ in 0..2 {
                let q = &q;
                let seen = &seen;
                s.spawn(move || {
                    let mut h = q.handle();
                    // Per-producer FIFO: values from one producer must
                    // arrive in order at any single consumer.
                    let mut last: [Option<u64>; 3] = [None; 3];
                    let mut got = 0;
                    while got < 750 {
                        if let Some(v) = q.dequeue(&mut h) {
                            let p = (v / 10_000) as usize;
                            if let Some(prev) = last[p] {
                                assert!(v > prev, "per-producer order violated");
                            }
                            last[p] = Some(v);
                            assert!(seen.lock().unwrap().insert(v), "duplicate {v}");
                            got += 1;
                        }
                    }
                });
            }
        });
        assert_eq!(seen.lock().unwrap().len(), 1500);
    }
    run::<ebr::Ebr>();
    run::<pebr::Pebr>();
    run::<nr::Nr>();
}

#[test]
fn stacks_reclaim_promptly() {
    let _serial = serial();
    let s = ds::hpp::TreiberStack::new();
    let mut h = s.handle();
    let before = smr_common::counters::garbage_now();
    for i in 0..2000u64 {
        s.push(i);
        assert_eq!(s.pop(&mut h), Some(i));
    }
    let grown = smr_common::counters::garbage_now().saturating_sub(before);
    assert!(
        grown < 2 * hp_plus::RECLAIM_PERIOD as u64 + 64,
        "grew {grown}"
    );
}
