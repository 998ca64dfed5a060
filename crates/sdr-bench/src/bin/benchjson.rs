//! CI validator for the `BENCH_*.json` perf records written by
//! `sdr_det::bench` in `--json` mode.
//!
//! Usage: `benchjson check FILE...` — exits non-zero (with a message on
//! stderr) if any file is missing, unparsable, or structurally invalid.
//! A valid record is an object with a `"suite"` string and at least one
//! of `"baseline"` / `"current"`, each mapping bench names to objects
//! whose `min_ns` / `median_ns` / `p99_ns` are finite, ordered numbers.
//!
//! Every bench key must also appear in [`sdr_bench::registry`] — the
//! hand-maintained list of live benches — so a renamed or deleted bench
//! cannot leave a stale record that still validates. An optional
//! `"metrics"` object (scalar observations recorded via
//! `Bench::record_metric`) is validated the same way against the
//! metric registry. An optional `"notes"` object maps a bench of the
//! suite to a sentence: where a recorded number needs its cause said
//! (a loss that was explained rather than fixed), it is said in the
//! record. `sdr_det::bench` keeps the key when it merges a new run.

use sdr_bench::registry;
use sdr_det::json::Json;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, files)) if cmd == "check" && !files.is_empty() => {
            let mut ok = true;
            for f in files {
                match check_file(f) {
                    Ok(summary) => println!("{f}: ok ({summary})"),
                    Err(e) => {
                        eprintln!("{f}: INVALID: {e}");
                        ok = false;
                    }
                }
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: benchjson check FILE...");
            ExitCode::FAILURE
        }
    }
}

fn check_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let doc = Json::parse(&text)?;
    let obj = doc.as_obj().ok_or("top level is not an object")?;
    let suite = doc
        .get("suite")
        .and_then(Json::as_str)
        .ok_or("missing \"suite\" string")?;
    if !registry::known_suites().contains(&suite) {
        return Err(format!(
            "suite {suite:?} is not in the bench registry (known: {})",
            registry::known_suites().join(", ")
        ));
    }

    let mut sections = 0usize;
    let mut benches = 0usize;
    let mut metrics = 0usize;
    for (section, value) in obj {
        match section.as_str() {
            "suite" => continue,
            "metrics" => {
                let entries = value.as_obj().ok_or("\"metrics\" is not an object")?;
                for (name, v) in entries {
                    if !registry::is_known_metric(name) {
                        return Err(format!(
                            "metrics/{name}: not in the metric registry — \
                             stale record, or registry.rs needs updating"
                        ));
                    }
                    if name.split('/').next() != Some(suite) {
                        return Err(format!(
                            "metrics/{name}: metric belongs to a different \
                             suite than {suite:?}"
                        ));
                    }
                    let n = v
                        .as_f64()
                        .ok_or_else(|| format!("metrics/{name}: not a number"))?;
                    if !n.is_finite() {
                        return Err(format!("metrics/{name} = {n} is not finite"));
                    }
                    metrics += 1;
                }
            }
            "baseline" | "current" => {
                sections += 1;
                let entries = value
                    .as_obj()
                    .ok_or_else(|| format!("section {section:?} is not an object"))?;
                if entries.is_empty() {
                    return Err(format!("section {section:?} is empty"));
                }
                for (name, stats) in entries {
                    if !registry::is_known_bench(name) {
                        return Err(format!(
                            "{section}/{name}: not in the bench registry — \
                             stale record, or registry.rs needs updating"
                        ));
                    }
                    if name.split('/').next() != Some(suite) {
                        return Err(format!(
                            "{section}/{name}: bench belongs to a different \
                             suite than {suite:?}"
                        ));
                    }
                    check_bench(stats).map_err(|e| format!("{section}/{name}: {e}"))?;
                    benches += 1;
                }
            }
            "notes" => {
                let entries = value.as_obj().ok_or("\"notes\" is not an object")?;
                for (name, note) in entries {
                    if !registry::is_known_bench(name) || name.split('/').next() != Some(suite) {
                        return Err(format!("notes/{name}: not a bench of suite {suite:?}"));
                    }
                    if note.as_str().is_none_or(|t| t.trim().is_empty()) {
                        return Err(format!("notes/{name}: not a non-empty string"));
                    }
                }
            }
            other => return Err(format!("unexpected top-level key {other:?}")),
        }
    }
    if sections == 0 {
        return Err("neither \"baseline\" nor \"current\" present".into());
    }
    Ok(format!(
        "suite {suite}, {sections} section(s), {benches} bench(es), {metrics} metric(s)"
    ))
}

fn check_bench(stats: &Json) -> Result<(), String> {
    let num = |key: &str| -> Result<f64, String> {
        let v = stats
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric {key:?}"))?;
        if !v.is_finite() || v < 0.0 {
            return Err(format!("{key} = {v} is not a finite non-negative number"));
        }
        Ok(v)
    };
    let min = num("min_ns")?;
    let median = num("median_ns")?;
    let p99 = num("p99_ns")?;
    num("iters_per_sample")?;
    num("samples")?;
    if min > median || median > p99 {
        return Err(format!(
            "quantiles out of order: min {min} / median {median} / p99 {p99}"
        ));
    }
    Ok(())
}
