//! Per-scenario process isolation and the sweep's CSV: every scenario runs
//! as a `smr_bench run …` child of this same executable (clean global
//! garbage counter, fresh address space, env knobs read at startup) under a
//! deadline, and [`Sweep`] is the one place a child's outcome is handled.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use crate::config::Scenario;
use crate::metrics::Stats;

/// Wall-clock budget for one scenario subprocess: the measured window plus
/// a 10x factor for slow hosts (the run itself inflates under sanitizers
/// and oversubscription) plus a flat allowance for prefill and teardown.
pub fn scenario_deadline(sc: &Scenario) -> Duration {
    (sc.warmup + sc.duration) * 10 + Duration::from_secs(20)
}

/// Spawns `cmd` and polls it against `deadline`; `None` = it overran and
/// was killed (and the zombie reaped). Output is drained from the pipes
/// *after* exit — safe here because smr_bench writes a single CSV line, far
/// below pipe capacity, so it can never block on a full pipe while we poll.
fn run_with_deadline(cmd: &mut Command, deadline: Duration) -> std::io::Result<Option<Output>> {
    let mut child = cmd.stdout(Stdio::piped()).stderr(Stdio::piped()).spawn()?;
    let start = Instant::now();
    while child.try_wait()?.is_none() {
        if start.elapsed() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Ok(None);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().map(Some)
}

/// The stat columns of one sweep row (layout per [`Scenario::CSV_HEADER`]:
/// 7 scenario fields, then mops,peak,avg,rss,p50,p90,p99,p999).
pub(crate) fn parse_csv_line(line: &str) -> Option<Stats> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != Scenario::CSV_HEADER.split(',').count() {
        return None;
    }
    Some(Stats {
        throughput_mops: fields[7].parse().ok()?,
        peak_garbage: fields[8].parse().ok()?,
        avg_garbage: fields[9].parse().ok()?,
        peak_rss_mb: fields[10].parse().ok()?,
        p50_ns: fields[11].parse().ok()?,
        p90_ns: fields[12].parse().ok()?,
        p99_ns: fields[13].parse().ok()?,
        p999_ns: fields[14].parse().ok()?,
    })
}

/// The full CSV row for a timed-out scenario: the complete scenario prefix
/// (ds, scheme, **threads**, key range, …) followed by `timeout` in every
/// stat column, so the row matches [`Scenario::CSV_HEADER`] column-for-
/// column and numeric consumers (verdict, plot) skip it on parse failure
/// without losing which configuration wedged.
pub fn timeout_row(sc: &Scenario) -> String {
    let stat_cols = Scenario::CSV_HEADER.split(',').count() - sc.csv_prefix().split(',').count();
    let suffix = vec!["timeout"; stat_cols].join(",");
    format!("{},{suffix}", sc.csv_prefix())
}

/// One sweep: the child executable, `results/<name>.csv`, and the
/// scenarios that failed so far.
pub struct Sweep {
    exe: PathBuf,
    csv: File,
    failed: Vec<String>,
}

impl Sweep {
    /// Starts sweep `name`: children are this executable, rows go to a
    /// freshly truncated `results/<name>.csv`.
    pub fn start(name: &str) -> Self {
        let exe = std::env::current_exe().expect("current_exe");
        Self::open(Path::new("results"), name, exe)
    }

    /// Truncates `<dir>/<name>.csv` and writes the header, so the file only
    /// ever holds one run's rows (`verdict`'s means must not mix commits).
    fn open(dir: &Path, name: &str, exe: PathBuf) -> Self {
        std::fs::create_dir_all(dir).expect("create the results directory");
        let csv = File::create(dir.join(format!("{name}.csv"))).expect("create the sweep's CSV");
        let mut sweep = Self {
            exe,
            csv,
            failed: Vec::new(),
        };
        sweep.write_csv(Scenario::CSV_HEADER);
        sweep
    }

    /// Runs one scenario as `exe run …` with `env` set for the child. This
    /// is how A/B sweeps toggle process-wide knobs per run (e.g.
    /// `SMR_NO_MEMBARRIER=1` for the symmetric-fence ablation): the knob is
    /// read once at child startup, so each scenario gets a clean setting.
    ///
    /// `Some` = it completed; otherwise the sweep goes on. An inapplicable
    /// (structure, scheme) pair is skipped silently. A child that exits
    /// non-zero or prints garbage is remembered for [`Sweep::finish`]. A
    /// child past its [`scenario_deadline`] is killed and retried once
    /// after a short backoff; a second overrun leaves a [`timeout_row`], so
    /// a wedged scheme (e.g. a livelocked reclaimer) leaves a trace instead
    /// of hanging the whole sweep.
    pub fn run(&mut self, sc: &Scenario, env: &[(&str, &str)]) -> Option<Stats> {
        if !crate::runner::applicable(sc.ds, sc.scheme) {
            return None;
        }
        let prefix = sc.csv_prefix();
        let deadline = scenario_deadline(sc);
        for attempt in 0..2 {
            if attempt > 0 {
                eprintln!("smr_bench timed out for {prefix} after {deadline:?}; retrying once");
                std::thread::sleep(Duration::from_millis(500));
            }
            let mut cmd = Command::new(&self.exe);
            cmd.arg("run").args(sc.to_args()).envs(env.iter().copied());
            match run_with_deadline(&mut cmd, deadline) {
                Ok(None) => continue,
                Ok(Some(out)) if out.status.success() => {
                    let stdout = String::from_utf8_lossy(&out.stdout);
                    match parse_csv_line(stdout.trim()) {
                        Some(stats) => return Some(stats),
                        None => eprintln!("malformed smr_bench output for {prefix}: {stdout}"),
                    }
                }
                Ok(Some(out)) => {
                    let stderr = String::from_utf8_lossy(&out.stderr);
                    eprintln!("smr_bench failed for {prefix}: {stderr}");
                }
                Err(e) => eprintln!("cannot spawn {}: {e}", self.exe.display()),
            }
            self.failed.push(prefix);
            return None;
        }
        eprintln!("smr_bench timed out for {prefix} twice; recording a timeout row");
        self.emit_row(timeout_row(sc));
        None
    }

    /// Prints a finished scenario's row and appends it to the CSV.
    pub fn emit(&mut self, sc: &Scenario, stats: &Stats) {
        self.emit_row(format!("{},{}", sc.csv_prefix(), stats.csv_suffix()));
    }

    /// Rows append as they complete, so a killed sweep keeps its partial
    /// evidence.
    fn emit_row(&mut self, row: String) {
        println!("{row}");
        self.write_csv(&row);
    }

    fn write_csv(&mut self, line: &str) {
        writeln!(self.csv, "{line}").expect("write the sweep's CSV");
    }

    /// The sweep's exit code: 1 — after naming them on stderr — if any
    /// scenario's child crashed or printed garbage, so a broken `smr_bench
    /// run` cannot pass CI with an empty CSV.
    pub fn finish(self) -> i32 {
        if self.failed.is_empty() {
            return 0;
        }
        eprintln!("{} scenario(s) failed:", self.failed.len());
        for prefix in &self.failed {
            eprintln!("  {prefix}");
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Ds, Scheme, Workload};

    fn scenario(ds: Ds, scheme: Scheme) -> Scenario {
        Scenario::new(
            ds,
            scheme,
            48,
            100_000,
            Workload::WriteOnly,
            Duration::from_millis(50),
        )
    }

    #[test]
    fn csv_line_roundtrips_through_parse() {
        let sc = scenario(Ds::HashMap, Scheme::Hpp);
        let stats = stats();
        let line = format!("{},{}", sc.csv_prefix(), stats.csv_suffix());
        let parsed = parse_csv_line(&line).expect("roundtrip parse");
        assert_eq!(parsed.throughput_mops, stats.throughput_mops);
        assert_eq!(parsed.peak_garbage, stats.peak_garbage);
        assert_eq!(parsed.p999_ns, stats.p999_ns);
    }

    #[test]
    fn short_lines_are_rejected() {
        assert!(parse_csv_line("a,b,c").is_none());
    }

    /// A timeout row must keep the full 15-column schema — in particular
    /// the scenario's thread count, which identifies *which* point of a
    /// sweep wedged. (Regression: consumers aligning columns by header
    /// index mis-parsed short timeout rows.)
    #[test]
    fn timeout_row_keeps_full_schema_and_threads() {
        let sc = scenario(Ds::SkipList, Scheme::Hp);
        let row = timeout_row(&sc);
        let header_cols = Scenario::CSV_HEADER.split(',').count();
        let fields: Vec<&str> = row.split(',').collect();
        assert_eq!(fields.len(), header_cols, "row must match the header");
        assert_eq!(fields[0], "skiplist");
        assert_eq!(fields[1], "hp");
        assert_eq!(fields[2], "48", "thread count must survive a timeout");
        assert!(fields[7..].iter().all(|f| *f == "timeout"));
        // And the stats parser must reject it rather than misread it.
        assert!(parse_csv_line(&row).is_none());
    }

    #[test]
    fn deadline_kills_overrunning_process() {
        let mut cmd = Command::new("sleep");
        cmd.arg("30");
        let start = Instant::now();
        let out = run_with_deadline(&mut cmd, Duration::from_millis(100)).unwrap();
        assert!(out.is_none(), "sleep 30 cannot finish in 100ms");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the child must be killed at the deadline, not waited out"
        );
    }

    #[test]
    fn fast_process_output_is_collected() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo out-line; echo err-line >&2"]);
        let out = run_with_deadline(&mut cmd, Duration::from_secs(30)).unwrap();
        let out = out.expect("echo must not time out");
        assert!(out.status.success());
        assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "out-line");
        assert_eq!(String::from_utf8_lossy(&out.stderr).trim(), "err-line");
    }

    #[test]
    fn failing_process_reports_not_success() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "exit 3"]);
        let out = run_with_deadline(&mut cmd, Duration::from_secs(30)).unwrap();
        assert!(!out.expect("exit 3 must not time out").status.success());
    }
    fn stats() -> Stats {
        Stats {
            throughput_mops: 2.5,
            peak_garbage: 100,
            avg_garbage: 40,
            peak_rss_mb: 12.0,
            p50_ns: 256,
            p90_ns: 512,
            p99_ns: 2048,
            p999_ns: 16384,
        }
    }

    fn scratch_dir(test: &str) -> PathBuf {
        std::env::temp_dir().join(format!("smr_bench_{test}_{}", std::process::id()))
    }

    /// A child that crashes (`false`) or exits 0 without a CSV row (`true`)
    /// must fail the sweep, not vanish from it; an inapplicable pair is
    /// skipped without counting.
    #[test]
    fn failed_children_fail_the_sweep() {
        let dir = scratch_dir("failed");
        let sc = scenario(Ds::HashMap, Scheme::Hpp);
        for exe in ["false", "true"] {
            let mut sweep = Sweep::open(&dir, "failed", exe.into());
            assert!(sweep.run(&sc, &[]).is_none());
            assert!(sweep.run(&scenario(Ds::HHSList, Scheme::Hp), &[]).is_none());
            assert_eq!(sweep.failed, [sc.csv_prefix()]);
            assert_eq!(sweep.finish(), 1, "{exe} as the child must fail the sweep");
        }
        assert_eq!(Sweep::open(&dir, "failed", "false".into()).finish(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A second run must not leave the first run's rows in the file, while
    /// rows of one run accumulate under a single header.
    #[test]
    fn a_sweep_truncates_its_csv_and_appends_within_a_run() {
        let dir = scratch_dir("truncate");
        let sc = scenario(Ds::HashMap, Scheme::Hpp);
        let row = format!("{},{}", sc.csv_prefix(), stats().csv_suffix());
        for rows in [2, 1] {
            let mut sweep = Sweep::open(&dir, "fig", "false".into());
            for _ in 0..rows {
                sweep.emit(&sc, &stats());
            }
            drop(sweep);
            let text = std::fs::read_to_string(dir.join("fig.csv")).unwrap();
            let mut expected = vec![Scenario::CSV_HEADER];
            expected.resize(rows + 1, &row);
            assert_eq!(text.lines().collect::<Vec<_>>(), expected);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
