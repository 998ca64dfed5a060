//! The project rules (DESIGN.md decision 9) are lint configuration:
//! `[workspace.lints]` in the root manifest, each crate's `clippy.toml`
//! and the `#![deny]` list at the root of `sdr-core` and `sdr-net`. These
//! tests run `clippy-driver` under that configuration over one seeded
//! fixture per rule, so an edit that drops a rule fails `cargo test`, not
//! only CI's clippy step. Doc-sync is a plain check; its fixture is a
//! miniature workspace.

mod doc_sync;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn fixture(name: &str) -> PathBuf {
    root().join("tests/fixtures").join(name)
}

/// The lint levels `krate` is built with: `[workspace.lints]` as cargo
/// passes them, then the crate root's `#![deny(…)]` list.
fn lint_flags(krate: &str) -> Vec<String> {
    let read = |p: &str| std::fs::read_to_string(root().join(p)).unwrap();
    let mut flags = Vec::new();
    let mut tool = None;
    for line in read("Cargo.toml").lines() {
        if line.starts_with('[') {
            tool = match line {
                "[workspace.lints.rust]" => Some(""),
                "[workspace.lints.clippy]" => Some("clippy::"),
                _ => None,
            };
        } else if let (Some(tool), Some((lint, level))) = (tool, line.split_once(" = ")) {
            flags.push(format!("--{}={tool}{lint}", level.trim_matches('"')));
        }
    }
    let lib = read(&format!("crates/{krate}/src/lib.rs"));
    if let Some(list) = lib.split("#![deny(").nth(1) {
        let list = list.split(")]").next().unwrap();
        flags.extend(list.split(',').map(|l| format!("--deny={}", l.trim())));
    }
    flags
}

/// One finding: line, lint name, message.
type Finding = (u32, String, String);

/// Lints `name` as `krate`'s code is linted in CI: its lint levels and
/// `clippy.toml`, `-D warnings`, as a library and as a test harness (what
/// `--all-targets` adds). Returns whether both runs passed, and the
/// findings of both, deduplicated and in line order.
fn clippy(name: &str, krate: &str) -> (bool, Vec<Finding>) {
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let (mut passed, mut findings) = (true, Vec::new());
    for target in ["--crate-type=lib", "--test"] {
        let run = RUN.fetch_add(1, Ordering::Relaxed);
        let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("rule_fixtures/{run}"));
        let out = Command::new("clippy-driver")
            .env("CLIPPY_CONF_DIR", root().join("crates").join(krate))
            .args(["--edition=2021", "--emit=metadata", "--error-format=json"])
            // A test harness exports nothing, so every fixture fn is dead there.
            .arg("-Adead_code")
            .args([target, "--out-dir", out_dir.to_str().unwrap()])
            .args(lint_flags(krate))
            .arg("-Dwarnings")
            .arg(fixture(name))
            .output()
            .expect("run clippy-driver (rustup component `clippy`)");
        passed &= out.status.success();
        for line in String::from_utf8_lossy(&out.stderr).lines() {
            let after = |key: &str, end: &str| Some(line.split_once(key)?.1.split_once(end)?.0);
            if let (Some(lint), Some(at), Some(msg)) = (
                after(r#""code":{"code":""#, "\""),
                after(r#""line_start":"#, ","),
                after(r#""message":""#, r#"","code""#),
            ) {
                findings.push((at.parse().unwrap(), lint.to_string(), msg.to_string()));
            }
        }
    }
    findings.sort();
    findings.dedup();
    (passed, findings)
}

fn lints(findings: &[Finding]) -> Vec<&str> {
    let mut lints: Vec<&str> = findings.iter().map(|f| f.1.as_str()).collect();
    lints.sort();
    lints.dedup();
    lints
}

#[test]
fn determinism_fixture_trips_only_determinism() {
    let (_, v) = clippy("determinism.rs", "sdr-core");
    let want = ["clippy::disallowed_methods", "clippy::disallowed_types"];
    assert_eq!(lints(&v), want, "{v:#?}");
}

#[test]
fn determinism_fixture_catches_every_source() {
    let (_, v) = clippy("determinism.rs", "sdr-core");
    let msgs: Vec<&str> = v.iter().map(|f| f.2.as_str()).collect();
    let msgs = msgs.join("\n");
    let needles = [
        "HashMap",
        "HashSet",
        "Instant",
        "SystemTime",
        "sleep",
        "env::var",
    ];
    for needle in needles {
        assert!(msgs.contains(needle), "missing {needle} in:\n{msgs}");
    }
    // The `HashMap` in the test module.
    assert!(v.iter().any(|f| f.0 == 26), "{v:#?}");
}

#[test]
fn panic_safety_fixture_trips_only_panic_safety() {
    let (_, v) = clippy("panic_safety.rs", "sdr-net");
    let want = [
        "clippy::expect_used",
        "clippy::indexing_slicing",
        "clippy::panic",
        "clippy::unreachable",
        "clippy::unwrap_used",
    ];
    assert_eq!(lints(&v), want, "{v:#?}");
}

#[test]
fn panic_safety_fixture_flags_each_shape_once() {
    // unwrap, expect, panic!, unreachable!, and one indexing site; the
    // annotated fn and the test module are exempt.
    for krate in ["sdr-core", "sdr-net"] {
        let (_, v) = clippy("panic_safety.rs", krate);
        let lines: Vec<u32> = v.iter().map(|f| f.0).collect();
        assert_eq!(lines, [6, 7, 9, 12, 14], "{krate}: {v:#?}");
    }
}

#[test]
fn crate_hygiene_fixture_needs_both_headers() {
    let (_, v) = clippy("crate_hygiene.rs", "sdr-geom");
    assert_eq!(lints(&v), ["missing_docs", "unsafe_code"], "{v:#?}");
}

#[test]
fn allow_reason_fixture_flags_all_three_bad_annotations() {
    let (_, v) = clippy("allow_reason.rs", "sdr-core");
    let got: Vec<(u32, &str)> = v.iter().map(|f| (f.0, f.1.as_str())).collect();
    let want = [
        (5, "clippy::allow_attributes_without_reason"),
        (11, "clippy::allow_attributes"),
        (17, "unfulfilled_lint_expectations"),
    ];
    assert_eq!(got, want, "{v:#?}");
}

#[test]
fn lossy_cast_fixture_trips_only_lossy_cast() {
    let (_, v) = clippy("lossy_cast.rs", "sdr-core");
    assert_eq!(lints(&v), ["clippy::cast_possible_truncation"], "{v:#?}");
}

#[test]
fn lossy_cast_fixture_flags_each_narrowing_once() {
    // `as u32`, `as u16` and the test module's `as u8`; the widening cast
    // and the annotated fn are exempt.
    let (_, v) = clippy("lossy_cast.rs", "sdr-core");
    let lines: Vec<u32> = v.iter().map(|f| f.0).collect();
    assert_eq!(lines, [6, 7, 28], "{v:#?}");
    assert!(v.iter().all(|f| f.2.contains("truncate")), "{v:#?}");
}

#[test]
fn no_sleep_fixture_flags_only_the_unjustified_sleep() {
    let (_, v) = clippy("no_sleep.rs", "sdr-net");
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!((v[0].0, v[0].1.as_str()), (9, "clippy::disallowed_methods"));
}

#[test]
fn clean_fixture_passes_every_rule() {
    for krate in ["sdr-core", "sdr-net"] {
        let (_, v) = clippy("clean.rs", krate);
        assert!(v.is_empty(), "{krate}: {v:#?}");
    }
}

// The gate's verdict: exit status under `-D warnings`, as in CI.

#[test]
fn cli_exits_nonzero_on_each_seeded_fixture() {
    for (f, krate) in [
        ("determinism.rs", "sdr-core"),
        ("panic_safety.rs", "sdr-net"),
        ("crate_hygiene.rs", "sdr-geom"),
        ("allow_reason.rs", "sdr-core"),
        ("lossy_cast.rs", "sdr-core"),
        ("no_sleep.rs", "sdr-net"),
    ] {
        assert!(!clippy(f, krate).0, "{f} should fail as {krate}");
    }
}

#[test]
fn cli_exits_zero_on_the_clean_fixture() {
    assert!(clippy("clean.rs", "sdr-core").0);
}

#[test]
fn doc_sync_fixture_reports_drift_and_numbering_gap() {
    // Crate `beta` exists on disk but is absent from both the README
    // table and the DESIGN.md §1 inventory, and the §2 decision list
    // jumps 1, 2, 2b, 4.
    let v = doc_sync::problems(&fixture("doc_sync"));
    let has = |a: &str, b: &str| v.iter().any(|m| m.contains(a) && m.contains(b));
    assert!(has("`beta`", "README"), "{v:#?}");
    assert!(has("`beta`", "§1 inventory"), "{v:#?}");
    assert!(has("decision 4 where 3 was expected", ""), "{v:#?}");
    assert!(!has("alpha", ""), "{v:#?}");
}

#[test]
fn cli_exits_nonzero_on_the_doc_sync_fixture() {
    // The three findings above, plus `beta`'s manifest, which does not
    // inherit the workspace lints; `alpha`'s and the root's do.
    let v = doc_sync::problems(&fixture("doc_sync"));
    assert_eq!(v.len(), 4, "{v:#?}");
    assert!(v.contains(&"crates/beta/Cargo.toml lacks `[lints]` / `workspace = true`".into()));
}
