//! Renders ASCII charts from a `results/*.csv` file produced by the sweeps,
//! grouped the way the paper's figures are.
//!
//! ```text
//! smr_bench plot results/fig8.csv --metric throughput_mops --x threads
//! smr_bench plot results/fig8.csv --metric peak_garbage          # Figure 11
//! smr_bench plot results/fig10.csv --metric throughput_mops --x key_range --log
//! ```

use std::collections::BTreeMap;

use crate::cli::Flags;

/// `smr_bench plot <csv> [--metric <column>] [--x threads|key_range] [--log]`.
pub fn run(flags: &Flags) -> Result<i32, String> {
    let path = flags.positional(0);
    let metric: String = flags
        .get("--metric")?
        .unwrap_or_else(|| "throughput_mops".into());
    let x_col: String = flags.get("--x")?.unwrap_or_else(|| "threads".into());
    let log = flags.has("--log");

    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut lines = text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    let header: Vec<&str> = lines.next().unwrap_or_default().split(',').collect();
    let col = |name: &str| {
        header
            .iter()
            .position(|h| *h == name)
            .ok_or_else(|| format!("column {name} not in {header:?}"))
    };
    let (c_ds, c_scheme, c_x, c_y) = (col("ds")?, col("scheme")?, col(&x_col)?, col(&metric)?);

    // ds -> scheme -> (x -> y)
    let mut data: BTreeMap<String, BTreeMap<String, BTreeMap<u64, f64>>> = BTreeMap::new();
    for line in lines {
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != header.len() {
            continue;
        }
        let (Ok(x), Ok(y)) = (f[c_x].parse::<u64>(), f[c_y].parse::<f64>()) else {
            continue;
        };
        data.entry(f[c_ds].into())
            .or_default()
            .entry(f[c_scheme].into())
            .or_default()
            .insert(x, y);
    }

    const WIDTH: usize = 50;
    for (ds, schemes) in &data {
        println!("\n== {ds}: {metric} vs {x_col} ==");
        let max = schemes
            .values()
            .flat_map(|m| m.values())
            .cloned()
            .fold(f64::MIN, f64::max);
        if max <= 0.0 {
            println!("  (no positive data)");
            continue;
        }
        for (scheme, points) in schemes {
            println!("  {scheme}:");
            for (x, y) in points {
                let frac = if log {
                    if *y <= 0.0 {
                        0.0
                    } else {
                        ((y / max).log10() / 3.0 + 1.0).clamp(0.0, 1.0)
                    }
                } else {
                    (y / max).clamp(0.0, 1.0)
                };
                let bar = "#".repeat((frac * WIDTH as f64).round() as usize);
                println!("    {x:>9} | {bar:<WIDTH$} {y:.6}");
            }
        }
    }
    Ok(0)
}
