//! Drives the violation fixtures through the library API and the CLI
//! binary: one seeded fixture per rule must fail, the clean fixture
//! must pass, and exit codes must match.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn rules_hit(names: &[&str]) -> Vec<String> {
    let paths: Vec<PathBuf> = names.iter().map(|n| fixture(n)).collect();
    let violations = sdr_lint::lint_paths_all_rules(&paths).expect("fixtures readable");
    let mut rules: Vec<String> = violations.iter().map(|v| v.rule.to_string()).collect();
    rules.dedup();
    rules.sort();
    rules.dedup();
    rules
}

#[test]
fn determinism_fixture_trips_only_determinism() {
    assert_eq!(rules_hit(&["determinism.rs"]), ["determinism"]);
}

#[test]
fn determinism_fixture_catches_every_source() {
    let v = sdr_lint::lint_paths_all_rules(&[fixture("determinism.rs")]).unwrap();
    let msgs = v
        .iter()
        .map(|v| v.msg.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    for needle in [
        "HashMap",
        "HashSet",
        "Instant",
        "SystemTime",
        "sleep",
        "env",
    ] {
        assert!(msgs.contains(needle), "missing {needle} in:\n{msgs}");
    }
}

#[test]
fn panic_safety_fixture_trips_only_panic_safety() {
    assert_eq!(rules_hit(&["panic_safety.rs"]), ["panic-safety"]);
}

#[test]
fn panic_safety_fixture_flags_each_shape_once() {
    let v = sdr_lint::lint_paths_all_rules(&[fixture("panic_safety.rs")]).unwrap();
    // unwrap, expect, panic!, unreachable!, and one indexing site; the
    // annotated fn and the test module are exempt.
    assert_eq!(v.len(), 5, "{v:#?}");
}

#[test]
fn lock_fixture_flags_only_the_held_guard() {
    let v = sdr_lint::lint_paths_all_rules(&[fixture("lock_hygiene.rs")]).unwrap();
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].rule, "lock-hygiene");
    assert!(v[0].msg.contains("guard"));
}

#[test]
fn crate_hygiene_fixture_needs_both_headers() {
    let v = sdr_lint::lint_paths_all_rules(&[fixture("crate_hygiene/lib.rs")]).unwrap();
    let hygiene: Vec<_> = v.iter().filter(|v| v.rule == "crate-hygiene").collect();
    assert_eq!(hygiene.len(), 2, "{v:#?}");
}

#[test]
fn allow_reason_fixture_flags_all_three_bad_annotations() {
    let v = sdr_lint::lint_paths_all_rules(&[fixture("allow_reason.rs")]).unwrap();
    let reasons: Vec<_> = v.iter().filter(|v| v.rule == "allow-reason").collect();
    assert_eq!(reasons.len(), 3, "{v:#?}");
    // The reason-less allow suppresses nothing: the unwrap still fires.
    assert!(v.iter().any(|v| v.rule == "panic-safety"), "{v:#?}");
}

#[test]
fn lossy_cast_fixture_trips_only_lossy_cast() {
    assert_eq!(rules_hit(&["lossy_cast.rs"]), ["lossy-cast"]);
}

#[test]
fn lossy_cast_fixture_flags_each_narrowing_once() {
    let v = sdr_lint::lint_paths_all_rules(&[fixture("lossy_cast.rs")]).unwrap();
    // `as u32` + `as u16`; the widening cast, the annotated fn, and the
    // test module are exempt.
    assert_eq!(v.len(), 2, "{v:#?}");
    assert!(v.iter().all(|v| v.msg.contains("try_from")), "{v:#?}");
}

#[test]
fn no_sleep_fixture_flags_only_the_unjustified_sleep() {
    let v = sdr_lint::lint_paths_all_rules(&[fixture("no_sleep.rs")]).unwrap();
    // The poll; the reasoned backoff and the test module are exempt.
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!((v[0].rule, v[0].line), ("no-sleep", 10));
}

#[test]
fn doc_sync_fixture_reports_drift_and_numbering_gap() {
    // The fixture is a miniature workspace: crate `beta` exists on disk
    // but is absent from both the README table and the DESIGN.md §1
    // inventory, and the §2 decision list jumps 1, 2, 2b, 4.
    let v = sdr_lint::lint_workspace(&fixture("doc_sync")).unwrap();
    assert!(v.iter().all(|v| v.rule == "doc-sync"), "{v:#?}");
    assert_eq!(v.len(), 3, "{v:#?}");
    let msgs = v.iter().map(|v| v.msg.as_str()).collect::<Vec<_>>();
    assert!(
        msgs.iter()
            .any(|m| m.contains("beta") && m.contains("README")),
        "{v:#?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("beta") && m.contains("§1 inventory")),
        "{v:#?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("found decision 4 where 3 was expected")),
        "{v:#?}"
    );
}

#[test]
fn clean_fixture_passes_every_rule() {
    let v = sdr_lint::lint_paths_all_rules(&[fixture("clean.rs")]).unwrap();
    assert!(v.is_empty(), "{v:#?}");
}

// ------------------------------------------------------------ CLI ------

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sdr-lint"))
        .args(args)
        .output()
        .expect("run sdr-lint binary")
}

#[test]
fn cli_exits_nonzero_on_each_seeded_fixture() {
    for f in [
        "determinism.rs",
        "panic_safety.rs",
        "lock_hygiene.rs",
        "crate_hygiene/lib.rs",
        "allow_reason.rs",
        "lossy_cast.rs",
        "no_sleep.rs",
    ] {
        let out = run_cli(&["--all", fixture(f).to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{f} should fail");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("violation"), "{f}: {stdout}");
    }
}

#[test]
fn cli_exits_zero_on_the_clean_fixture() {
    let out = run_cli(&["--all", fixture("clean.rs").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn cli_exits_nonzero_on_the_doc_sync_fixture() {
    let out = run_cli(&["--workspace", fixture("doc_sync").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("doc-sync"), "{stdout}");
}

#[test]
fn cli_exits_zero_on_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let out = run_cli(&["--workspace", root.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "workspace not clean:\n{stdout}");
}

#[test]
fn cli_usage_error_is_exit_two() {
    let out = run_cli(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
}
