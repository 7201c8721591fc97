//! Evaluates the paper's *shape* claims against collected `results/*.csv`
//! files and prints a pass/fail verdict per claim — the automated version
//! of EXPERIMENTS.md. Run `smr_bench fig8` and `fig10` first (any scale);
//! the Figure 11 claims read the `peak_garbage` column of the fig8 rows.

use std::path::Path;

use crate::orchestrate::parse_csv_line;

type Rows = Vec<Row>;

struct Row {
    ds: String,
    scheme: String,
    key_range: u64,
    throughput: f64,
    peak_garbage: u64,
}

/// The sweep rows of a CSV. A line whose stat columns don't parse — the
/// header or the sweep's `timeout` marker — is skipped, not fatal: the
/// rest of the file still carries evidence for the shape claims.
fn load(path: &Path) -> Option<Rows> {
    let text = std::fs::read_to_string(path).ok()?;
    let row = |line: &str| {
        let stats = parse_csv_line(line)?;
        let f: Vec<&str> = line.split(',').collect();
        Some(Row {
            ds: f[0].into(),
            scheme: f[1].into(),
            key_range: f[3].parse().ok()?,
            throughput: stats.throughput_mops,
            peak_garbage: stats.peak_garbage,
        })
    };
    Some(text.lines().filter_map(row).collect())
}

/// Geometric-mean throughput of a scheme across a row set.
fn mean_tp(rows: &Rows, ds: &str, scheme: &str) -> Option<f64> {
    let v: Vec<f64> = rows
        .iter()
        .filter(|r| r.ds == ds && r.scheme == scheme && r.throughput > 0.0)
        .map(|r| r.throughput)
        .collect();
    if v.is_empty() {
        return None;
    }
    Some((v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp())
}

/// Highest peak of unreclaimed blocks a scheme reached across a row set.
fn peak_garbage(rows: &Rows, scheme: &str) -> Option<u64> {
    let of_scheme = rows.iter().filter(|r| r.scheme == scheme);
    of_scheme.map(|r| r.peak_garbage).max()
}

/// One verdict line per claim, from the CSVs under `dir`.
fn verdicts(dir: &Path) -> Vec<String> {
    let mut lines = Vec::new();
    let mut check = |name: &str, outcome: Option<bool>, detail: String| {
        let tag = match outcome {
            Some(true) => "PASS",
            Some(false) => "FAIL",
            None => "SKIP",
        };
        lines.push(format!("{tag}  {name}: {detail}"));
    };

    // --- Fig 8 claims, and Fig 11's on the same rows ------------------------
    if let Some(rows) = load(&dir.join("fig8.csv")) {
        // Claim: HP++ unlocks HHSList and NMTree (rows exist at all).
        let unlocked = rows.iter().any(|r| r.ds == "hhslist" && r.scheme == "hp++")
            && rows.iter().any(|r| r.ds == "nmtree" && r.scheme == "hp++")
            && !rows.iter().any(|r| r.ds == "hhslist" && r.scheme == "hp")
            && !rows.iter().any(|r| r.ds == "nmtree" && r.scheme == "hp");
        check(
            "fig8/applicability",
            Some(unlocked),
            "HP++ fields HHSList & NMTree; HP cannot".into(),
        );

        // Claim: HP++ throughput within [0.4, 1.2]× of EBR per structure
        // (paper band is 0.55–0.93; we allow slack for host noise).
        for ds in ["hhslist", "hashmap", "nmtree", "efrbtree"] {
            match (mean_tp(&rows, ds, "hp++"), mean_tp(&rows, ds, "ebr")) {
                (Some(hpp), Some(ebr)) => {
                    let ratio = hpp / ebr;
                    check(
                        &format!("fig8/{ds}-hp++-vs-ebr"),
                        Some((0.4..=1.2).contains(&ratio)),
                        format!("HP++/EBR = {ratio:.2} (paper: 0.55-0.93)"),
                    );
                }
                _ => check(
                    &format!("fig8/{ds}-hp++-vs-ebr"),
                    None,
                    "missing rows".into(),
                ),
            }
        }

        // Claim: NR unbounded (>> all reclaiming schemes); HP++ within a
        // constant factor of HP where both exist.
        let max_g = |scheme: &str| peak_garbage(&rows, scheme);
        match (max_g("nr"), max_g("hp++"), max_g("hp"), max_g("ebr")) {
            (Some(nr), Some(hpp), Some(hp), Some(ebr)) => {
                check(
                    "fig11/nr-unbounded",
                    Some(nr > 10 * hpp.max(hp).max(ebr)),
                    format!("nr={nr} >> reclaiming schemes (hp={hp}, hp++={hpp}, ebr={ebr})"),
                );
                check(
                    "fig11/hp++-tracks-hp",
                    Some(hpp <= 100 * hp.max(1)),
                    format!("hp++ peak {hpp} within a structure-dependent constant of hp {hp}"),
                );
            }
            _ => check("fig11/*", None, "missing rows".into()),
        }
    } else {
        check("fig8/*", None, "results/fig8.csv not found".into());
        check("fig11/*", None, "results/fig8.csv not found".into());
    }

    // --- Fig 10 claims ----------------------------------------------------
    if let Some(rows) = load(&dir.join("fig10.csv")) {
        // Claim: at the largest measured key range, PEBR's read throughput
        // plunges vs EBR while HP++ stays close.
        let max_range = rows.iter().map(|r| r.key_range).max().unwrap_or(0);
        let at = |scheme: &str| {
            rows.iter()
                .find(|r| r.key_range == max_range && r.scheme == scheme)
                .map(|r| r.throughput)
        };
        match (at("pebr"), at("ebr"), at("hp++")) {
            (Some(pebr), Some(ebr), Some(hpp)) if ebr > 0.0 => {
                let pebr_rel = pebr / ebr;
                let hpp_rel = hpp / ebr;
                // The plunge needs reads long enough to be ejected; below
                // ~2^21 keys (host-dependent) the curves coincide.
                let plunged = pebr_rel < 0.5;
                let hpp_ok = hpp_rel > 0.5;
                let outcome = if max_range >= (1 << 21) {
                    Some(plunged && hpp_ok)
                } else if plunged && hpp_ok {
                    Some(true)
                } else {
                    None // too small to trigger ejection; rerun with --paper
                };
                check(
                    "fig10/pebr-plunge",
                    outcome,
                    format!(
                        "at 2^{:.0}: PEBR/EBR = {pebr_rel:.3}, HP++/EBR = {hpp_rel:.2} \
                         (expect PEBR << 1, HP++ ~ 1; needs key range >= 2^21)",
                        (max_range as f64).log2()
                    ),
                );
            }
            _ => check("fig10/pebr-plunge", None, "missing rows".into()),
        }

        // Claim: HP++ keeps unreclaimed blocks orders of magnitude below
        // EBR under long-running reads.
        let garbage = |scheme: &str| peak_garbage(&rows, scheme);
        match (garbage("hp++"), garbage("ebr"), garbage("nr")) {
            (Some(hpp), Some(ebr), Some(nr)) => check(
                "fig10/robust-memory",
                Some(hpp * 10 <= ebr && ebr * 10 <= nr),
                format!("peak garbage hp++={hpp} << ebr={ebr} << nr={nr}"),
            ),
            _ => check("fig10/robust-memory", None, "missing rows".into()),
        }
    } else {
        check("fig10/*", None, "results/fig10.csv not found".into());
    }

    lines
}

/// `smr_bench verdict`; the exit code.
pub fn run() -> i32 {
    println!("# Shape-claim verdicts (run `smr_bench fig8` and `smr_bench fig10` first)\n");
    for line in verdicts(Path::new("results")) {
        println!("{line}");
    }
    println!("\n(SKIP = not enough data at this scale; rerun the sweep without --quick.)");
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scenario;

    /// Figure 11 has no sweep of its own any more: its claims must come out
    /// of the fig8 rows, and timeout rows must not break either figure.
    #[test]
    fn fig8_csv_alone_yields_fig8_and_fig11_verdicts() {
        let dir = std::env::temp_dir().join(format!("smr_bench_verdict_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut csv = format!("{}\n", Scenario::CSV_HEADER);
        for (ds, scheme, mops, peak) in [
            ("hhslist", "hp++", 0.8, 300),
            ("hhslist", "ebr", 1.0, 900),
            ("hhslist", "nr", 1.1, 500_000),
            ("hmlist", "hp", 0.7, 200),
            ("nmtree", "hp++", 0.9, 400),
        ] {
            csv += &format!("{ds},{scheme},2,1000,read-write,0,0,{mops},{peak},10,5.0,1,2,3,4\n");
        }
        csv += &format!(
            "hashmap,ebr,2,1000,read-write,0,0{}\n",
            ",timeout".repeat(8)
        );
        std::fs::write(dir.join("fig8.csv"), csv).unwrap();

        let lines = verdicts(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        let has = |prefix: &str| lines.iter().any(|l| l.starts_with(prefix));
        assert!(has("PASS  fig8/applicability"), "{lines:#?}");
        assert!(has("PASS  fig8/hhslist-hp++-vs-ebr"), "{lines:#?}");
        assert!(has("SKIP  fig8/hashmap-hp++-vs-ebr"), "{lines:#?}");
        assert!(has("PASS  fig11/nr-unbounded"), "{lines:#?}");
        assert!(has("PASS  fig11/hp++-tracks-hp"), "{lines:#?}");
        assert!(has("SKIP  fig10/*"), "{lines:#?}");
    }
}
