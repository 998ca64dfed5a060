//! `sdr-lint` — first-party static analysis for the SD-Rtree workspace.
//!
//! The SD-Rtree correctness story (distributed image adjustment §3,
//! direct-termination accounting §4.3 of the paper) only holds if the
//! implementation stays deterministic and panic-free under injected
//! faults. Those are project rules, and this crate turns them into a
//! compile gate: a zero-dependency token-stream walker (no `syn`, no
//! proc-macro — see the workspace's hermetic-build rule) that scans the
//! workspace sources and fails CI on violations.
//!
//! Use it three ways:
//!
//! - CLI: `cargo run -p sdr-lint -- --workspace`
//! - library: [`lint_workspace`] from the root integration test, so a
//!   plain `cargo test` catches regressions without a separate step
//! - fixtures: `sdr-lint --all FILE…` applies every rule to explicit
//!   files, which is how the violation fixtures under
//!   `tests/fixtures/` are exercised
//!
//! Suppression is per-site and must be justified:
//!
//! ```text
//! // sdr-lint: allow(panic-safety) — index bounded by the len check above
//! ```
//!
//! See [`rules`] for the rule catalog and DESIGN.md decision 9 for the
//! rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod lexer;
pub mod rules;

use rules::{FileSource, Violation};
use std::path::{Path, PathBuf};

/// Crates whose `src/` must be deterministic: no ambient clocks,
/// environment reads, or hash-order iteration. `sdr-det` is exempt (it
/// *implements* the sanctioned clock/RNG), `sdr-net` is the real-I/O
/// boundary, and `sdr-bench` is the experiment harness (it reads its
/// command line and times its own runs).
const DETERMINISM_CRATES: &[&str] = &["sdr-core", "sdr-geom", "sdr-rtree", "sdr-workload"];

/// Directories whose files are message-handling / delivery paths: the
/// panic-safety rule applies to every file here.
const PANIC_SAFETY_DIRS: &[&str] = &["crates/sdr-net/src"];

/// Individual sdr-core files on the message-handling / codec path.
/// Tree-maintenance internals (`node.rs`, `split.rs`) and offline
/// construction (`bulk.rs`) stay outside the sweep: they run before or
/// beneath the message layer, and their invariant panics are the
/// *desired* loud failure for local logic bugs, not remote input.
const PANIC_SAFETY_FILES: &[&str] = &[
    "crates/sdr-core/src/balance.rs",
    "crates/sdr-core/src/client.rs",
    "crates/sdr-core/src/cluster.rs",
    "crates/sdr-core/src/fault.rs",
    "crates/sdr-core/src/image.rs",
    "crates/sdr-core/src/join.rs",
    "crates/sdr-core/src/knn.rs",
    "crates/sdr-core/src/msg.rs",
    "crates/sdr-core/src/oc_maint.rs",
    "crates/sdr-core/src/query.rs",
    "crates/sdr-core/src/server.rs",
];

/// Directories subject to the lock-hygiene rule (blocking network calls
/// live only in `sdr-net`).
const LOCK_HYGIENE_DIRS: &[&str] = &["crates/sdr-net/src"];

/// Directories whose delivery is event-driven: `thread::sleep` needs a
/// reasoned allow here.
const NO_SLEEP_DIRS: &[&str] = &["crates/sdr-net/src"];

/// Scans the workspace rooted at `root` and returns all violations,
/// sorted by file then line. `root` must contain the workspace
/// `Cargo.toml` (i.e. the repository root).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files: Vec<PathBuf> = Vec::new();
    // Every crate's src tree, plus the umbrella crate's.
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        entries.sort();
        for krate in entries {
            collect_rs(&krate.join("src"), &mut files)?;
        }
    }
    collect_rs(&root.join("src"), &mut files)?;
    files.sort();

    let mut sources = Vec::with_capacity(files.len());
    for f in &files {
        let mut fs = FileSource::read(f)?;
        // Report paths relative to the workspace root for stable output.
        if let Ok(rel) = f.strip_prefix(root) {
            fs.path = rel.to_path_buf();
        }
        sources.push(fs);
    }

    let mut out = Vec::new();
    for fs in &sources {
        let p = path_str(&fs.path);

        // allow-reason applies to every scanned file.
        rules::allow_reason(fs, &mut out);

        if DETERMINISM_CRATES
            .iter()
            .any(|c| p.starts_with(&format!("crates/{c}/src/")))
        {
            rules::determinism(fs, &mut out);
        }
        if PANIC_SAFETY_DIRS.iter().any(|d| p.starts_with(d))
            || PANIC_SAFETY_FILES.contains(&p.as_str())
        {
            rules::panic_safety(fs, &mut out);
        }
        // Lossy-cast sweeps the sdr-core message paths only. In sdr-net
        // the wire codec narrows at two sites, both part of the format
        // (`usize` travels as `u32`; the frame length prefix).
        if PANIC_SAFETY_FILES.contains(&p.as_str()) {
            rules::lossy_cast(fs, &mut out);
        }
        if LOCK_HYGIENE_DIRS.iter().any(|d| p.starts_with(d)) {
            rules::lock_hygiene(fs, &mut out);
        }
        if NO_SLEEP_DIRS.iter().any(|d| p.starts_with(d)) {
            rules::no_sleep(fs, &mut out);
        }
        if is_crate_root(&p) {
            rules::crate_hygiene(fs, &mut out);
        }
    }

    // Documentation drift is a workspace-level property (it compares
    // `crates/` against README.md and DESIGN.md), so it runs here and
    // not in the per-file `lint_paths_all_rules` fixture mode.
    rules::doc_sync(root, &mut out)?;

    sort_violations(&mut out);
    Ok(out)
}

/// Applies **every** rule to each of the given files. Used by the CLI's
/// `--all` mode to drive the violation fixtures; scoping rules by path
/// would make fixtures awkward to place.
pub fn lint_paths_all_rules(paths: &[PathBuf]) -> std::io::Result<Vec<Violation>> {
    let mut sources = Vec::with_capacity(paths.len());
    for p in paths {
        sources.push(FileSource::read(p)?);
    }
    let mut out = Vec::new();
    for fs in &sources {
        rules::allow_reason(fs, &mut out);
        rules::determinism(fs, &mut out);
        rules::panic_safety(fs, &mut out);
        rules::lock_hygiene(fs, &mut out);
        rules::lossy_cast(fs, &mut out);
        rules::no_sleep(fs, &mut out);
        if is_crate_root(&path_str(&fs.path)) {
            rules::crate_hygiene(fs, &mut out);
        }
    }
    sort_violations(&mut out);
    Ok(out)
}

/// Ascends from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn sort_violations(out: &mut [Violation]) {
    out.sort_by(|a, b| (&a.file, a.line, a.rule, &a.msg).cmp(&(&b.file, b.line, b.rule, &b.msg)));
}

/// Normalized forward-slash form of a path for prefix matching.
fn path_str(p: &Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Crate roots: any file named `lib.rs` (each crate's `src/lib.rs`, the
/// umbrella's, and fixture crate roots driven through `--all`).
fn is_crate_root(p: &str) -> bool {
    p.rsplit('/').next() == Some("lib.rs")
}

/// Recursively collects `.rs` files under `dir` (sorted by the caller).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
