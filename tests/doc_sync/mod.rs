//! The doc-sync check, shared by the workspace test in
//! `workspace_integration.rs` and its fixture tests in `rule_fixtures.rs`.

use std::path::Path;

/// What keeps the workspace at `root` from being in sync with its
/// `crates/` directory: a crate without a README table row or a DESIGN.md
/// §1 inventory entry, a gap in the §2 decision numbers (`4b.` shares its
/// parent's number), or a manifest (a crate's or the root package's) that
/// does not inherit the workspace lints. The last matters because a crate
/// that forgets `[lints] workspace = true` silently loses
/// `unsafe_code = "forbid"`, and no build or lint run notices.
pub fn problems(root: &Path) -> Vec<String> {
    let read = |p: &str| std::fs::read_to_string(root.join(p)).unwrap();
    let (readme, design) = (read("README.md"), read("DESIGN.md"));
    let section = |head: &str| -> Vec<&str> {
        let mut lines = design.lines().skip_while(|l| !l.starts_with(head));
        let first = lines.next().into_iter();
        first
            .chain(lines.take_while(|l| !l.starts_with("## ")))
            .collect()
    };
    let mut crates: Vec<String> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    crates.sort();

    let mut problems = Vec::new();
    let inventory = section("## 1.");
    for krate in &crates {
        let names =
            |l: &str| l.contains(&format!("`{krate}`")) || l.contains(&format!("`crates/{krate}`"));
        if !readme
            .lines()
            .any(|l| l.trim_start().starts_with('|') && names(l))
        {
            problems.push(format!("`{krate}` has no row in the README crate table"));
        }
        if !inventory.iter().any(|l| names(l)) {
            problems.push(format!(
                "`{krate}` is missing from DESIGN.md's §1 inventory"
            ));
        }
    }

    let mut next = 1;
    for line in section("## 2.") {
        let digits: String = line.chars().take_while(char::is_ascii_digit).collect();
        let rest = &line[digits.len()..];
        let rest = rest
            .strip_prefix(|c: char| c.is_ascii_lowercase())
            .unwrap_or(rest);
        if digits.is_empty() || !rest.starts_with(". ") {
            continue;
        }
        let n: u32 = digits.parse().unwrap();
        match n {
            _ if n == next => next += 1,
            _ if n + 1 == next => {} // `4b.` after `4.`
            _ => {
                problems.push(format!(
                    "DESIGN.md §2 has decision {n} where {next} was expected"
                ));
                next = n + 1;
            }
        }
    }

    let manifests = crates.iter().map(|c| format!("crates/{c}/Cargo.toml"));
    for manifest in manifests.chain(["Cargo.toml".to_string()]) {
        let text = read(&manifest);
        let inherits = text
            .split("\n[lints]\n")
            .nth(1)
            .is_some_and(|rest| rest.trim_start().starts_with("workspace = true"));
        if !inherits {
            problems.push(format!("{manifest} lacks `[lints]` / `workspace = true`"));
        }
    }
    problems
}
