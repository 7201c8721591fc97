//! The repo's benchmark: five named workloads, seven end-to-end metrics and
//! a per-layer trace, all measured from outside through public functions.
//! See `README.md` beside this package for what each number means.

mod check;
mod kvload;
mod layers;
mod mapload;
mod phases;
mod placement;
mod recorder;
mod spec;
mod stream;
mod sys;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use phases::{RunData, Summary};
use trace::SpanName;
use workloads::{Kind, Workload};

/// Share of a traced run's `--seconds` that the structure × scheme matrix
/// may use (the windows take half, the primitives and KV probes the rest).
const MATRIX_SHARE: f64 = 0.4;

pub struct RunCfg {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

type Metrics = Vec<(&'static str, f64)>;

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn end_to_end(data: &RunData, sum: &Summary) -> Metrics {
    // The quietest window's p99. A loader that loses its CPU for a few ms
    // while pinned in an epoch lets the other pile up garbage; on this host
    // that lifts the p99 of one 3 s EBR window in three (254 → 300–7 000
    // blocks), so neither the pooled p99 nor the median window repeats.
    let garbage_p99 = sum
        .garbage_windows
        .iter()
        .map(|w| phases::require(w, 0.99, "garbage"))
        .min()
        .expect("no measured window");
    vec![
        ("ops_per_s", sum.ops_per_s),
        (
            "p50_ns",
            phases::require(&sum.latency, 0.50, "latency") as f64,
        ),
        (
            "p90_ns",
            phases::require(&sum.latency, 0.90, "latency") as f64,
        ),
        ("cpu_us_per_op", sum.cpu_us_per_op),
        ("garbage_p99_blocks", garbage_p99 as f64),
        ("rss_peak_mb", sys::rss_peak_mb()),
        ("setup_s", data.setup_s),
    ]
}

/// The per-layer metrics every workload fills from its own windows. A
/// layer the workload never calls reads 0.
fn window_layers(data: &RunData, sum: &Summary, kv: Option<&kvload::KvExtras>) -> Metrics {
    let ops = sum.measured_ops;
    let per_kop = |a: u64, b: u64| (b - a) as f64 * 1e3 / ops as f64;
    let (first, last) = (&sum.first, &sum.last);
    let retired = last.retired - first.retired;
    let span_ns = |name| trace::layer(&data.tracers, name).mean_ns();
    let t = &data.tally;
    let mut m: Metrics = vec![
        (
            "p99_ns",
            phases::require(&sum.latency, 0.99, "latency") as f64,
        ),
        (
            "trace_overhead_share",
            1.0 - sum.traced_ops_per_s / sum.ops_per_s,
        ),
        ("smr-common.retired_per_op", share(retired, ops)),
        (
            "smr-common.freed_per_retired",
            share(last.freed - first.freed, retired),
        ),
        (
            "smr-common.cas_failures_per_kop",
            per_kop(first.cas_failures, last.cas_failures),
        ),
        (
            "smr-common.backoff_yields_per_kop",
            per_kop(first.backoff_yields, last.backoff_yields),
        ),
        (
            "smr-common.backoff_parks_per_kop",
            per_kop(first.backoff_parks, last.backoff_parks),
        ),
        (
            "smr-common.policy_scans_per_kop",
            per_kop(first.policy_scans, last.policy_scans),
        ),
        (
            "smr-common.garbage_p50_blocks",
            phases::require(&sum.garbage, 0.50, "garbage") as f64,
        ),
        ("smr-common.garbage_max_blocks", sum.garbage.max() as f64),
        ("ds.get_ns", span_ns(SpanName::DsGet)),
        ("ds.insert_ns", span_ns(SpanName::DsInsert)),
        ("ds.remove_ns", span_ns(SpanName::DsRemove)),
        ("ds.get_hit_share", share(t.get_hits, t.gets)),
        ("ds.insert_ok_share", share(t.insert_oks, t.inserts)),
        ("ds.remove_ok_share", share(t.remove_oks, t.removes)),
    ];
    let kv_names = [
        "kv-service.route_ns",
        "kv-service.submit_ns",
        "kv-service.wait_ns",
        "kv-service.store_get_ns",
        "kv-service.store_insert_ns",
        "kv-service.store_remove_ns",
        "kv-service.transit_ns",
        "kv-service.batch_mean",
        "kv-service.batch_max",
        "kv-service.shard_garbage_peak",
        "kv-service.start_s",
        "kv-service.shutdown_s",
        "kv-service.respawn_ms",
    ];
    let kv_values = match kv {
        None => [0.0; 13],
        Some(run) => {
            let l = run
                .layers
                .as_ref()
                .expect("a traced KV run probes its layers");
            let store = [
                SpanName::KvStoreGet,
                SpanName::KvStoreInsert,
                SpanName::KvStoreRemove,
            ]
            .map(|n| trace::layer(&data.tracers, n));
            let store_mean = share(
                store.iter().map(|s| s.total_ns).sum(),
                store.iter().map(|s| s.count).sum(),
            );
            let submit_ns = span_ns(SpanName::KvSubmit);
            let (s0, s1) = run.stats;
            [
                l.route_ns,
                submit_ns,
                span_ns(SpanName::KvWait),
                l.store_ns[0],
                l.store_ns[1],
                l.store_ns[2],
                // Round trip − submit − store op = ring + doorbell + batch +
                // reply + wake, by subtraction.
                span_ns(SpanName::BenchOp) - submit_ns - store_mean,
                share(s1.ops - s0.ops, s1.batches - s0.batches),
                s1.max_batch as f64,
                l.shard_garbage_peak as f64,
                run.start_s,
                run.shutdown_s,
                l.respawn_ms,
            ]
        }
    };
    m.extend(kv_names.into_iter().zip(kv_values));
    m
}

fn run_workload(w: &Workload, cfg: &RunCfg) -> ExitCode {
    let (mut data, kv) = match w.kind {
        Kind::ListHpp => (
            mapload::run::<ds::hpp::HHSList<u64, u64>>(&w.stream, cfg),
            None,
        ),
        Kind::HashMapHpp => (
            mapload::run::<ds::hpp::HashMap<u64, u64>>(&w.stream, cfg),
            None,
        ),
        Kind::HashMapEbr => (
            mapload::run::<ds::hash_map::HashMap<u64, u64, ds::guarded::HHSList<u64, u64, ebr::Ebr>>>(
                &w.stream, cfg,
            ),
            None,
        ),
        Kind::Kv(mode) => {
            let (data, extras) = kvload::run(mode, &w.stream, cfg);
            (data, Some(extras))
        }
    };
    let sum = phases::summarise(&data.phases, &data.outs);
    let e2e = end_to_end(&data, &sum);
    let cores = data.allowed.len();
    let window_s = data.phases.last().expect("phases").len_ns as f64 / 1e9;
    let meta = format!(
        "{{\"cores\":{cores},\"placement\":\"{}\",\"seed\":{},\"seconds\":{},\"window_s\":{window_s},\"traced\":{}}}",
        data.placement, cfg.seed, cfg.seconds, cfg.trace
    );

    let mut verdict = data.verdict;
    let mut per_layer = Metrics::new();
    if cfg.trace {
        per_layer = window_layers(&data, &sum, kv.as_ref());
        // The probes run on the first allowed CPU, where KV clients already
        // are; map workloads' main thread has not been pinned yet.
        if !data.allowed.is_empty() {
            placement::pin_current(&data.allowed[..1]);
        }
        let tracer = &mut data.tracers[0];
        let peer_cpu = data.allowed.get(1..).and_then(|rest| rest.last().copied());
        per_layer.extend(layers::primitives(peer_cpu, tracer));
        let cell_ns =
            (cfg.seconds as f64 * 1e9 * MATRIX_SHARE / layers::MATRIX.len() as f64) as u64;
        let (cells, bad) = layers::matrix(cfg.seed, cell_ns, tracer);
        per_layer.extend(cells);
        verdict.failed += bad;

        let dir = trace::out_dir();
        let path = dir.join(format!("trace-{}.json", w.name));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::render(w.name, &meta, &data.tracers)));
        if let Err(e) = written {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("trace {}", path.display());
    }

    println!("workload {}", w.name);
    println!("meta {meta}");
    let layer_spec = spec::per_layer();
    let unit_of = |name: &str| {
        spec::END_TO_END
            .iter()
            .map(|(m, _)| (m.name, m.unit))
            .chain(layer_spec.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the spec"))
            .1
    };
    for (name, value) in e2e.iter().chain(&per_layer) {
        assert!(value.is_finite(), "{name} is not a number: {value}");
        println!("metric {name} {value} {}", unit_of(name));
    }
    for (i, rate) in sum.window_rates.iter().enumerate() {
        let garbage_p99 = phases::require(&sum.garbage_windows[i], 0.99, "garbage");
        println!("info window {i} ops_per_s {rate:.0} garbage_p99_blocks {garbage_p99}");
    }
    println!("info latency_samples {}", sum.latency.count());
    println!("info garbage_samples {}", sum.garbage.count());
    println!(
        "info failed_ops_share {} ({} of {} checked)",
        verdict.failed_share(),
        verdict.failed,
        verdict.attempted
    );

    // The driver's line: end-to-end metrics untraced, per-layer traced.
    let reported = if cfg.trace { &per_layer } else { &e2e };
    let expected: Vec<&str> = if cfg.trace {
        layer_spec.iter().map(|m| m.name).collect()
    } else {
        spec::END_TO_END.iter().map(|(m, _)| m.name).collect()
    };
    assert_eq!(
        reported.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        expected,
        "report and spec disagree"
    );
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        verdict.failed == 0,
        verdict.attempted,
        verdict.failed
    );
    for (i, (name, value)) in reported.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    json.push_str("}}");
    println!("{json}");
    if verdict.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child's `metric` lines, or `None` if it failed.
fn run_child(w: &Workload, cfg: &RunCfg) -> Option<Metrics> {
    let exe = std::env::current_exe().expect("own path");
    let child = Command::new(exe)
        .args(["--workload", w.name, "--seed", &cfg.seed.to_string()])
        .args([
            "--seconds",
            &cfg.seconds.to_string(),
            "--trace",
            if cfg.trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn workload process");
    // `wait_with_output` reads stdout to its end and reaps the child.
    let out = child.wait_with_output().expect("wait for workload process");
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        eprintln!("error: workload {} exited with {}", w.name, out.status);
        return None;
    }
    let mut metrics = Metrics::new();
    for line in text.lines() {
        let mut words = line.split(' ');
        if words.next() != Some("metric") {
            continue;
        }
        let (name, value) = (words.next()?, words.next()?.parse().ok()?);
        let known = spec::END_TO_END.iter().find(|(m, _)| m.name == name);
        if let Some((m, _)) = known {
            metrics.push((m.name, value));
        }
    }
    Some(metrics)
}

/// Every workload, each in a fresh process.
fn run_all(cfg: &RunCfg) -> Option<Vec<Metrics>> {
    workloads::ALL
        .iter()
        .map(|w| {
            println!();
            run_child(w, cfg)
        })
        .collect()
}

/// Two full sets back to back; every end-to-end pair must agree within the
/// metric's bound.
fn repeat_check(cfg: &RunCfg) -> ExitCode {
    let (Some(a), Some(b)) = (run_all(cfg), run_all(cfg)) else {
        return ExitCode::FAILURE;
    };
    println!(
        "\n{:<20} {:<20} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut worst = ExitCode::SUCCESS;
    for (w, (ma, mb)) in workloads::ALL.iter().zip(a.iter().zip(&b)) {
        for ((name, va), (_, vb)) in ma.iter().zip(mb) {
            let bound = spec::bound_of(name).expect("end-to-end metric");
            let diff = (va - vb).abs() / va.min(*vb);
            let flag = if diff > bound { "  DISAGREE" } else { "" };
            println!(
                "{:<20} {name:<20} {va:>14.4} {vb:>14.4} {:>7.2}% {:>5.0}%{flag}",
                w.name,
                diff * 100.0,
                bound * 100.0
            );
            if diff > bound {
                worst = ExitCode::FAILURE;
            }
        }
    }
    worst
}

const USAGE: &str = "usage: benchmark (--workload <name> | --all | --repeat-check | --emit-spec) \
[--seed <n>] [--seconds <1..60>] [--trace [0|1]]";

fn main() -> ExitCode {
    let mut cfg = RunCfg {
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
    };
    let mut mode = None;
    let mut args = std::env::args().skip(1).peekable();
    let bad = |what: &str| {
        eprintln!("error: {what}\n{USAGE}");
        ExitCode::from(2)
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all" | "--repeat-check" | "--emit-spec" => mode = Some(arg),
            "--workload" => match args.next() {
                Some(name) => mode = Some(name),
                None => return bad("--workload needs a name"),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(seed) => cfg.seed = seed,
                None => return bad("--seed needs a whole number"),
            },
            "--seconds" => match args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|s| (1..=60).contains(s))
            {
                Some(seconds) => cfg.seconds = seconds,
                None => return bad("--seconds needs a whole number from 1 to 60"),
            },
            // Bare `--trace` means on; the driver passes `--trace 0|1`.
            "--trace" => {
                cfg.trace = args
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1")
            }
            other => return bad(&format!("unknown argument {other}")),
        }
    }
    match mode.as_deref() {
        None => bad("nothing to run"),
        Some("--emit-spec") => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        Some("--all") => match run_all(&cfg) {
            Some(_) => ExitCode::SUCCESS,
            None => ExitCode::FAILURE,
        },
        Some("--repeat-check") => repeat_check(&cfg),
        Some(name) => match workloads::by_name(name) {
            Some(w) => run_workload(w, &cfg),
            None => bad(&format!("unknown workload {name}")),
        },
    }
}
