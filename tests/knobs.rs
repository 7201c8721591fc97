//! Knob census: the environment variables the workspace reads, pinned.
//!
//! Scans the workspace's Rust sources — `crates/*/{src,benches,tests}`
//! (not `crates/vendor`) and the root `src/`, `tests/` and `examples/` —
//! for names passed to `std::env::var` / `var_os`: as a string literal, or
//! through a same-file helper that forwards its name argument to one
//! (`knob("SMR_CHAOS_SEED", ..)`). That set must equal [`KNOBS`], and
//! DESIGN.md or EXPERIMENTS.md must document each knob, so a new knob is
//! added on purpose and a deleted one leaves the list.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Every knob the workspace reads.
const KNOBS: &[&str] = &[
    "SMR_CHAOS_OPS",
    "SMR_CHAOS_POINTS",
    "SMR_CHAOS_SEED",
    "SMR_NO_MEMBARRIER",
];

/// Functions that read the environment by name.
const READERS: &[&str] = &["var", "var_os"];

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The first argument at the start of `rest` (just past a call's `(`):
/// `Ok(literal)` or `Err(identifier)`; `None` for anything else.
fn first_arg(rest: &str) -> Option<Result<&str, &str>> {
    let rest = rest.trim_start();
    if let Some(lit) = rest.strip_prefix('"') {
        return lit.find('"').map(|end| Ok(&lit[..end]));
    }
    let end = rest.find(|c| !is_ident(c)).unwrap_or(rest.len());
    (end > 0).then(|| Err(&rest[..end]))
}

/// Literal first arguments of every `name(` call in `src`.
fn literal_args<'a>(src: &'a str, name: &str) -> Vec<&'a str> {
    let pat = format!("{name}(");
    src.match_indices(&pat)
        .filter(|&(i, _)| !src[..i].ends_with(is_ident))
        .filter_map(|(i, _)| first_arg(&src[i + pat.len()..])?.ok())
        .collect()
}

/// The fn or closure a call at byte `at` sits in: the last `fn NAME` or
/// `let NAME = |` before it.
fn enclosing_helper(src: &str, at: usize) -> Option<&str> {
    let before = &src[..at];
    let name_after = |marker: &str| {
        let i = before.rfind(marker)? + marker.len();
        let name = &before[i..];
        let end = name.find(|c| !is_ident(c))?;
        (end > 0).then(|| (i, &name[..end]))
    };
    let f = name_after("fn ");
    let c =
        name_after("let ").filter(|&(i, n)| before[i + n.len()..].trim_start().starts_with("= |"));
    match (f, c) {
        (Some(f), Some(c)) => Some(if c.0 > f.0 { c.1 } else { f.1 }),
        (f, c) => f.or(c).map(|(_, n)| n),
    }
}

/// The knob names one source file reads.
fn knobs_read(src: &str, into: &mut BTreeSet<String>) {
    for reader in READERS {
        let pat = format!("env::{reader}(");
        for (at, _) in src.match_indices(&pat) {
            match first_arg(&src[at + pat.len()..]) {
                Some(Ok(lit)) => {
                    into.insert(lit.to_owned());
                }
                Some(Err(_forwarded)) => {
                    if let Some(helper) = enclosing_helper(src, at) {
                        into.extend(literal_args(src, helper).into_iter().map(str::to_owned));
                    }
                }
                None => {}
            }
        }
    }
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for dir in ["src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut crates: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir() && !p.ends_with("vendor"))
        .collect();
    crates.sort();
    for krate in crates {
        for dir in ["src", "benches", "tests"] {
            rust_files(&krate.join(dir), &mut files);
        }
    }
    // This file spells the reader names in prose.
    files.retain(|p| !p.ends_with("tests/knobs.rs"));
    files
}

#[test]
fn the_census_finds_literal_and_forwarded_names() {
    let src = r#"
        fn knob(name: &str) -> Option<String> {
            std::env::var(name).ok().filter(|v| !v.is_empty())
        }
        fn direct() { let _ = std::env::var_os("DIRECT"); std::env::set_var("NOT_READ", "1"); }
        fn cfg() { knob("FORWARDED"); my_knob("OTHER_FN"); }
        fn closure() { let read = |name: &str| env::var(name); read("VIA_CLOSURE"); }
        // `std::env::var(..)` in prose names nothing.
    "#;
    let mut found = BTreeSet::new();
    knobs_read(src, &mut found);
    let want: BTreeSet<String> = ["DIRECT", "FORWARDED", "VIA_CLOSURE"]
        .map(String::from)
        .into();
    assert_eq!(found, want);
}

#[test]
fn every_env_knob_is_pinned_and_documented() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = BTreeSet::new();
    let files = workspace_sources(root);
    assert!(files.len() > 50, "scanned only {} files", files.len());
    for file in &files {
        knobs_read(&std::fs::read_to_string(file).unwrap(), &mut found);
    }
    let pinned: BTreeSet<String> = KNOBS.iter().map(|k| k.to_string()).collect();
    assert_eq!(
        found, pinned,
        "the workspace's env knobs changed: update KNOBS on purpose (and document the knob)"
    );

    let docs = ["DESIGN.md", "EXPERIMENTS.md"]
        .map(|d| std::fs::read_to_string(root.join(d)).unwrap())
        .concat();
    let undocumented: Vec<_> = KNOBS.iter().filter(|k| !docs.contains(*k)).collect();
    assert!(
        undocumented.is_empty(),
        "not in DESIGN.md or EXPERIMENTS.md: {undocumented:?}"
    );
}
