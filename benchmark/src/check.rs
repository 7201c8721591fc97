//! Output checking, wired into `failed_ops_share`.
//!
//! Every value is [`value_of`] its key, so each `get`/`remove` result is
//! checked on the spot without a model of the map. What a per-op check
//! cannot see — an insert that reported success and stored nothing — shows
//! in the balance: after the run, the keys a full-range `get` sweep finds
//! must number prefill + successful inserts − successful removes.

use smr_common::ConcurrentMap;

use crate::stream::{value_of, Op};

/// One loader's running count of what it issued and what came back.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub gets: u64,
    pub get_hits: u64,
    pub inserts: u64,
    pub insert_oks: u64,
    pub removes: u64,
    pub remove_oks: u64,
    /// Ops that returned an error or a value other than `value_of(key)`.
    pub failed: u64,
}

impl Tally {
    #[inline]
    pub fn get(&mut self, key: u64, found: Option<u64>) {
        self.gets += 1;
        if let Some(v) = found {
            self.get_hits += 1;
            self.failed += (v != value_of(key)) as u64;
        }
    }

    #[inline]
    pub fn insert(&mut self, inserted: bool) {
        self.inserts += 1;
        self.insert_oks += inserted as u64;
    }

    #[inline]
    pub fn remove(&mut self, key: u64, removed: Option<u64>) {
        self.removes += 1;
        if let Some(v) = removed {
            self.remove_oks += 1;
            self.failed += (v != value_of(key)) as u64;
        }
    }

    /// An op that never produced a result (KV error or timeout).
    #[inline]
    pub fn error(&mut self, op: Op) {
        match op {
            Op::Get => self.gets += 1,
            Op::Insert => self.inserts += 1,
            Op::Remove => self.removes += 1,
        }
        self.failed += 1;
    }

    pub fn ops(&self) -> u64 {
        self.gets + self.inserts + self.removes
    }

    pub fn merge(&mut self, o: &Tally) {
        self.gets += o.gets;
        self.get_hits += o.get_hits;
        self.inserts += o.inserts;
        self.insert_oks += o.insert_oks;
        self.removes += o.removes;
        self.remove_oks += o.remove_oks;
        self.failed += o.failed;
    }
}

/// The verdict of one run: every op issued, every check failed.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
}

impl Verdict {
    /// `tally` covers every op since the structure was empty except the
    /// `prefill` inserts; `sweep` is the final full-range `get` pass.
    pub fn new(prefill: u64, tally: &Tally, sweep: &Tally) -> Self {
        let expected = (prefill + tally.insert_oks) as i64 - tally.remove_oks as i64;
        let balance_off = (sweep.get_hits as i64 - expected).unsigned_abs();
        Self {
            // + 1: the balance itself is one checked output.
            attempted: prefill + tally.ops() + sweep.ops() + 1,
            failed: tally.failed + sweep.failed + balance_off,
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }
}

/// Applies one op to `map` and checks what comes back.
#[inline]
pub fn apply<M: ConcurrentMap<u64, u64>>(
    map: &M,
    handle: &mut M::Handle,
    op: Op,
    key: u64,
    tally: &mut Tally,
) {
    match op {
        Op::Get => tally.get(key, map.get(handle, &key)),
        Op::Insert => tally.insert(map.insert(handle, key, value_of(key))),
        Op::Remove => tally.remove(key, map.remove(handle, &key)),
    }
}

/// Inserts every even key: 50 % occupancy. Returns how many went in.
pub fn prefill<M: ConcurrentMap<u64, u64>>(map: &M, handle: &mut M::Handle, keys: u64) -> u64 {
    let mut tally = Tally::default();
    for key in (0..keys).step_by(2) {
        apply(map, handle, Op::Insert, key, &mut tally);
    }
    tally.insert_oks
}

/// The final sweep: one checked `get` per key of the range.
pub fn sweep<M: ConcurrentMap<u64, u64>>(map: &M, handle: &mut M::Handle, keys: u64) -> Tally {
    let mut tally = Tally::default();
    for key in 0..keys {
        apply(map, handle, Op::Get, key, &mut tally);
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::OpStream;
    use crate::workloads;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    /// A sequential model map with switchable defects.
    struct Model {
        map: Mutex<BTreeMap<u64, u64>>,
        /// Report success for this insert (0-based) but store nothing.
        drop_insert: Option<u64>,
        /// Hand back a wrong value for one key in eight.
        corrupt: bool,
        inserts_seen: Mutex<u64>,
    }

    impl Model {
        fn with(drop_insert: Option<u64>, corrupt: bool) -> Self {
            Self {
                map: Mutex::new(BTreeMap::new()),
                drop_insert,
                corrupt,
                inserts_seen: Mutex::new(0),
            }
        }

        fn spoil(&self, key: u64, v: Option<u64>) -> Option<u64> {
            v.map(|v| {
                if self.corrupt && key % 8 == 4 {
                    v ^ 1
                } else {
                    v
                }
            })
        }
    }

    impl ConcurrentMap<u64, u64> for Model {
        type Handle = ();

        fn new() -> Self {
            Self::with(None, false)
        }

        fn handle(&self) {}

        fn get(&self, _: &mut (), key: &u64) -> Option<u64> {
            let v = self.map.lock().unwrap().get(key).copied();
            self.spoil(*key, v)
        }

        fn insert(&self, _: &mut (), key: u64, value: u64) -> bool {
            let mut map = self.map.lock().unwrap();
            if map.contains_key(&key) {
                return false;
            }
            let mut seen = self.inserts_seen.lock().unwrap();
            *seen += 1;
            if self.drop_insert != Some(*seen - 1) {
                map.insert(key, value);
            }
            true
        }

        fn remove(&self, _: &mut (), key: &u64) -> Option<u64> {
            let v = self.map.lock().unwrap().remove(key);
            self.spoil(*key, v)
        }
    }

    fn replay(model: &Model, stream: &OpStream, tally: &mut Tally) {
        let mut cursor = 0;
        for _ in 0..stream.len() {
            let (op, key) = stream.next(&mut cursor);
            apply(model, &mut (), op, key, tally);
        }
    }

    fn run(model: &Model) -> Verdict {
        let w = workloads::by_name("hashmap_write_hpp").unwrap();
        let keys = 512;
        let spec = crate::stream::StreamSpec { keys, ..w.stream };
        let stream = OpStream::generate(&spec, 11, 0, 20_000);
        let prefilled = prefill(model, &mut (), keys);
        let mut tally = Tally::default();
        replay(model, &stream, &mut tally);
        let swept = sweep(model, &mut (), keys);
        Verdict::new(prefilled, &tally, &swept)
    }

    #[test]
    fn a_correct_map_passes() {
        let v = run(&Model::new());
        assert_eq!(v.failed, 0);
        assert_eq!(v.attempted, 256 + 20_000 + 512 + 1);
        assert_eq!(v.failed_share(), 0.0);
    }

    #[test]
    fn one_dropped_insert_is_caught() {
        // Drop an insert from the middle of the run, well past the prefill.
        // The key may be re-inserted later (the model then says "absent"
        // and accepts it), which is why only the balance can see the loss.
        let v = run(&Model::with(Some(256 + 1_000), false));
        assert!(v.failed >= 1, "dropped insert went unnoticed: {v:?}");
    }

    #[test]
    fn a_wrong_value_is_caught_by_the_per_op_check() {
        let v = run(&Model::with(None, true));
        assert!(v.failed >= 1, "corrupt value went unnoticed: {v:?}");
    }
}
