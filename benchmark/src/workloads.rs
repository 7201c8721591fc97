//! The five workloads. Names are fixed: later changes are judged by them.

use crate::kvload::Mode;
use crate::stream::{KeyDist, Mix, StreamSpec};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `ds::hpp::HHSList<u64, u64>`
    ListHpp,
    /// `ds::hpp::HashMap<u64, u64>`
    HashMapHpp,
    /// `ds::hash_map::HashMap<u64, u64, ds::guarded::HHSList<u64, u64, ebr::Ebr>>`
    HashMapEbr,
    /// 1-shard `KvService<HppStore>` driven in the given mode.
    Kv(Mode),
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README has the paragraph.
    pub why: &'static str,
    pub kind: Kind,
    pub stream: StreamSpec,
}

const fn mix(get: u32, insert: u32, remove: u32) -> Mix {
    Mix {
        get,
        insert,
        remove,
    }
}

pub const ALL: [Workload; 5] = [
    Workload {
        name: "list_read_hpp",
        why: "90/5/5 on a 1024-key HP++ HHSList, 2 threads: long optimistic traversals, so protect+validate and ds traversal do the work and reclamation almost none",
        kind: Kind::ListHpp,
        stream: StreamSpec { keys: 1 << 10, mix: mix(90, 5, 5), dist: KeyDist::Uniform },
    },
    Workload {
        name: "hashmap_write_hpp",
        why: "0/50/50 on a 65536-key HP++ hash map, 2 threads: chains of length 1, so unlink, invalidation, reclaim scans, policy, fences and the allocator dominate",
        kind: Kind::HashMapHpp,
        stream: StreamSpec { keys: 1 << 16, mix: mix(0, 50, 50), dist: KeyDist::Uniform },
    },
    Workload {
        name: "hashmap_write_ebr",
        why: "byte-identical inputs to hashmap_write_hpp on the EBR guarded map: the paper's HP++-vs-EBR ratio, and the workload an HP++-only change must leave alone",
        kind: Kind::HashMapEbr,
        stream: StreamSpec { keys: 1 << 16, mix: mix(0, 50, 50), dist: KeyDist::Uniform },
    },
    Workload {
        name: "kv_saturated",
        why: "1-shard KV service, 128-deep pipeline, 90/5/5 Zipf 0.99: the worker never idles, so route, slot pool, ring, batch drain, store op and reply are the cost, not the wake path",
        kind: Kind::Kv(Mode::Saturated),
        stream: StreamSpec { keys: 1 << 16, mix: mix(90, 5, 5), dist: KeyDist::Zipf(0.99) },
    },
    Workload {
        name: "kv_pingpong",
        why: "same service, one op in flight, 50/25/25 uniform: every op crosses doorbell, worker wake, reply and client wake, and the store is under 1 % of the round trip",
        kind: Kind::Kv(Mode::PingPong),
        stream: StreamSpec { keys: 1 << 16, mix: mix(50, 25, 25), dist: KeyDist::Uniform },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}
