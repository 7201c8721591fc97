//! The metric tables: names, units, directions and regression bounds. The
//! root `BENCHMARK.json` is this module rendered (`--emit-spec`), and a test
//! holds the two together.

use std::fmt::Write as _;

use crate::layers;
use crate::workloads;

pub const RUN_SECONDS: u64 = 12;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// End-to-end metrics, the same on every workload, with the share of the
/// parent's median by which each may get worse. A bound is at least three
/// times the widest quartile spread the metric showed over ten seeds on any
/// workload (README, "Baseline"), capped at the contract's 0.25.
pub const END_TO_END: [(Metric, f64); 7] = [
    (
        Metric {
            name: "ops_per_s",
            unit: "1/s",
            better: "higher",
        },
        0.25,
    ),
    (
        Metric {
            name: "p50_ns",
            unit: "ns",
            better: "lower",
        },
        0.25,
    ),
    (
        Metric {
            name: "p90_ns",
            unit: "ns",
            better: "lower",
        },
        0.25,
    ),
    (
        Metric {
            name: "cpu_us_per_op",
            unit: "us",
            better: "lower",
        },
        0.25,
    ),
    (
        Metric {
            name: "garbage_p99_blocks",
            unit: "count",
            better: "lower",
        },
        0.25,
    ),
    (
        Metric {
            name: "rss_peak_mb",
            unit: "MiB",
            better: "lower",
        },
        0.10,
    ),
    (
        Metric {
            name: "setup_s",
            unit: "s",
            better: "lower",
        },
        0.25,
    ),
];

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
    }
}

/// Per-layer metrics beside the primitives and the matrix.
const WORKLOAD_LAYERS: [Metric; 29] = [
    // Dropped from the end-to-end list: its quartile spread reached 29 % on
    // `list_read_hpp` and 23 % on `kv_pingpong`, beyond any allowed bound.
    lower("p99_ns", "ns"),
    lower("trace_overhead_share", "share"),
    lower("smr-common.retired_per_op", "count"),
    higher("smr-common.freed_per_retired", "share"),
    lower("smr-common.cas_failures_per_kop", "count"),
    lower("smr-common.backoff_yields_per_kop", "count"),
    lower("smr-common.backoff_parks_per_kop", "count"),
    lower("smr-common.policy_scans_per_kop", "count"),
    lower("smr-common.garbage_p50_blocks", "count"),
    lower("smr-common.garbage_max_blocks", "count"),
    lower("ds.get_ns", "ns"),
    lower("ds.insert_ns", "ns"),
    lower("ds.remove_ns", "ns"),
    higher("ds.get_hit_share", "share"),
    higher("ds.insert_ok_share", "share"),
    higher("ds.remove_ok_share", "share"),
    lower("kv-service.route_ns", "ns"),
    lower("kv-service.submit_ns", "ns"),
    lower("kv-service.wait_ns", "ns"),
    lower("kv-service.store_get_ns", "ns"),
    lower("kv-service.store_insert_ns", "ns"),
    lower("kv-service.store_remove_ns", "ns"),
    lower("kv-service.transit_ns", "ns"),
    higher("kv-service.batch_mean", "count"),
    higher("kv-service.batch_max", "count"),
    lower("kv-service.shard_garbage_peak", "count"),
    lower("kv-service.start_s", "s"),
    lower("kv-service.shutdown_s", "s"),
    lower("kv-service.respawn_ms", "ms"),
];

/// Every per-layer metric a traced run prints, in print order.
pub fn per_layer() -> Vec<Metric> {
    let mut all: Vec<Metric> = WORKLOAD_LAYERS.into_iter().collect();
    all.extend(layers::PRIMITIVE_NAMES.iter().map(|name| lower(name, "ns")));
    all.extend(layers::MATRIX.iter().map(|(name, _)| lower(name, "ns")));
    all
}

pub fn bound_of(name: &str) -> Option<f64> {
    END_TO_END
        .iter()
        .find(|(m, _)| m.name == name)
        .map(|&(_, b)| b)
}

/// The text of the root `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    let list = |s: &mut String, key: &str, rows: Vec<String>| {
        let _ = writeln!(
            s,
            "  \"{key}\": [\n    {}\n  ]{}",
            rows.join(",\n    "),
            if key == "per_layer" { "" } else { "," }
        );
    };
    list(
        &mut s,
        "workloads",
        workloads::ALL
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    list(
        &mut s,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|(m, bound)| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    );
    list(
        &mut s,
        "per_layer",
        per_layer()
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    );
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("read ../BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: benchmark --emit-spec > BENCHMARK.json"
        );
    }

    #[test]
    fn the_tables_are_inside_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let layers = per_layer();
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        let mut names = HashSet::new();
        for m in END_TO_END.iter().map(|(m, _)| m).chain(&layers) {
            assert!(ok_name(m.name), "bad name {}", m.name);
            assert!(ok_unit(m.unit), "bad unit {}", m.unit);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        for w in &workloads::ALL {
            assert!(ok_name(w.name) && names.insert(w.name));
            assert!(
                w.why.chars().count() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
        }
        assert!(END_TO_END.iter().all(|&(_, b)| b > 0.0 && b <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|(m, _)| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.0.unit, setup.0.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|&(_, b)| b <= setup.1),
            "setup_s takes the largest bound"
        );
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
