//! `e2e` — the repo benchmark: four closed-loop workloads from simulator
//! to socket, client-visible latency / throughput / message cost, and a
//! traced per-layer run. See README.md beside the manifest.
//!
//! ```text
//! e2e [--workload NAME|all] [--seed S] [--seconds N] [--trace 0|1 | --traced]
//!     [--smoke] [--check] [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; a human table and the
//! provenance of the run come before it.

mod adapters;
mod metrics;
mod oracle;
mod probes;
mod run;
mod stats;
mod trace;
mod untraced;
mod workloads;

use adapters::Json;
use metrics::END_TO_END;
use stats::{num, obj, text};
use std::path::PathBuf;
use workloads::Spec;

pub const DEFAULT_SEED: u64 = 1;
pub const DEFAULT_SECONDS: u64 = 25;

/// Measuring processes per workload and run. Identical inputs can run at
/// different speeds in different processes (twelve back-to-back
/// processes of `sim_grow_uniform` ranged from 94.6k to 104.2k ops/s), so
/// a run splits its measuring budget over this many fresh processes. Each
/// pays for a warm-up round of its own, which is why there are not more.
const PROCESSES: usize = 2;

#[derive(Clone, Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    check: bool,
    out: PathBuf,
    /// Set by this program on the processes it starts: measure in this
    /// process and print the detail and result lines only.
    child: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: e2e [--workload NAME|all] [--seed S] [--seconds N] [--trace 0|1 | --traced] \
         [--smoke] [--check] [--out DIR]\nworkloads: {}",
        workloads::SPECS.map(|s| s.name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: "all".to_string(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS as f64,
        traced: false,
        smoke: false,
        check: false,
        out: PathBuf::from(".bench_out"),
        child: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.traced = value() == "1",
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--out" => args.out = PathBuf::from(value()),
            "--child" => args.child = true,
            _ => usage(),
        }
    }
    let known = args.workload == "all" || workloads::spec(&args.workload).is_some();
    let budget_ok = args.seconds.is_finite() && args.seconds >= 0.0;
    if !(known && budget_ok) {
        usage();
    }
    args
}

// ---------------------------------------------------------- provenance --

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// One numeric field of `/proc/self/status` (`VmHWM:`, `Threads:`).
pub fn proc_status(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Minor page faults of this process so far (`/proc/self/stat`, field
/// 10; the command name in field 2 may hold spaces, so count from `)`).
pub fn minor_faults() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let after = stat.rsplit_once(')')?.1;
    after.split_whitespace().nth(7)?.parse().ok()
}

/// Where the numbers come from: stamped on every output.
fn provenance(args: &Args, seed: u64) -> Json {
    // Only a checkout that is itself a repository names its commit; git
    // must not wander into a parent directory's.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten();
    let rustc = command_line("rustc", &["-V"]);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        ("benchmark", text("e2e")),
        ("commit", text(commit.as_deref().unwrap_or("unknown"))),
        ("rustc", text(rustc.as_deref().unwrap_or("unknown"))),
        (
            "profile",
            text(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("nproc", num(nproc as f64)),
        ("seed", num(seed as f64)),
        ("dataset_seed", num(workloads::DATASET_SEED as f64)),
        ("seconds", num(args.seconds)),
        ("processes", num(processes(args) as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("traced", Json::Bool(args.traced)),
    ])
}

// ------------------------------------------------------- one workload --

/// A metric as printed: name, value, unit.
pub type Reported = (String, f64, &'static str);

/// What measuring one workload produced, in one process or merged over
/// several.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Reported>,
    /// Per-repetition values, sample counts, notes: goes to the detail
    /// file, never to the result line.
    pub detail: Json,
}

fn processes(args: &Args) -> usize {
    // The traced run is one repetition; a smoke run checks code paths.
    if args.traced || args.smoke {
        1
    } else {
        PROCESSES
    }
}

fn result_line(o: &Outcome) -> String {
    let metrics = o.metrics.iter().map(|(name, value, unit)| {
        let m = obj(vec![("value", num(*value)), ("unit", text(unit))]);
        (name.clone(), m)
    });
    stats::to_line(&obj(vec![
        ("correct", Json::Bool(o.correct)),
        ("attempted", num(o.attempted as f64)),
        ("failed", num(o.failed as f64)),
        ("metrics", Json::Obj(metrics.collect())),
    ]))
}

/// Measures in this process and prints the detail and result lines.
fn child_main(spec: &Spec, args: &Args) -> i32 {
    let result = if args.traced {
        trace::run_traced(spec, args.seed, args.smoke, &args.out)
    } else {
        untraced::run(spec, args.seed, args.seconds, args.smoke)
    };
    match result {
        Ok(o) => {
            println!("{}", stats::to_line(&o.detail));
            println!("{}", result_line(&o));
            i32::from(!o.correct)
        }
        Err(e) => {
            eprintln!("e2e: {}: {e}", spec.name);
            3
        }
    }
}

/// Starts one measuring process and parses its two lines.
fn spawn_child(spec: &Spec, args: &Args, seed: u64) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let share = args.seconds / processes(args) as f64;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--child",
        "--workload",
        spec.name,
        "--seed",
        &seed.to_string(),
    ])
    .args(["--seconds", &share.to_string()])
    .args(["--trace", if args.traced { "1" } else { "0" }])
    .arg("--out")
    .arg(&args.out)
    .stderr(std::process::Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("starting a measuring process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let parsed = |line: Option<&str>| line.and_then(|l| Json::parse(l).ok());
    match (parsed(lines.next()), parsed(lines.next())) {
        (Some(line), Some(detail)) => Ok((detail, line)),
        _ => Err(format!(
            "{}: a measuring process ended with {}",
            spec.name, out.status
        )),
    }
}

fn metric_of(line: &Json, name: &str) -> Option<f64> {
    line.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs `spec` in fresh processes and merges them: a metric is merged
/// across processes as it is across repetitions (`Across`), counts are
/// sums.
fn run_workload(spec: &Spec, args: &Args, seed: u64) -> Result<Outcome, String> {
    let mut children = Vec::new();
    for _ in 0..processes(args) {
        children.push(spawn_child(spec, args, seed)?);
    }
    // How each metric merges; the traced run is one process, so `None`.
    let catalogue: Vec<(&str, &'static str, Option<&metrics::EndToEnd>)> = if args.traced {
        let layers = metrics::PER_LAYER.iter();
        layers.map(|d| (d.name, d.unit, None)).collect()
    } else {
        let defs = END_TO_END.iter();
        defs.map(|d| (d.name, d.unit, Some(d))).collect()
    };
    let mut merged = Vec::new();
    let mut notes = Vec::new();
    for (name, unit, def) in catalogue {
        let values: Vec<Option<f64>> = children.iter().map(|(_, l)| metric_of(l, name)).collect();
        let value = def
            .map_or(values[0], |d| d.merge(&values))
            .ok_or_else(|| format!("{}: a process did not report {name}", spec.name))?;
        // The paper's cost model repeats exactly, in any process.
        let differs = |v: &Option<f64>| v.map(f64::to_bits) != Some(value.to_bits());
        let exact = def.is_some_and(|d| d.across == metrics::Across::Exact);
        if exact && values.iter().any(differs) {
            notes.push(text(&format!("{name} differs between processes")));
        }
        merged.push((name.to_string(), value, unit));
    }
    let sum = |key: &str| -> u64 {
        let of = |l: &Json| l.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        children.iter().map(|(_, l)| of(l) as u64).sum()
    };
    let all_correct = children
        .iter()
        .all(|(_, l)| l.get("correct") == Some(&Json::Bool(true)));
    let failed = sum("failed") + notes.len() as u64;
    let attempted = sum("attempted");
    let detail = obj(vec![
        ("workload", text(spec.name)),
        ("why", text(spec.why)),
        ("capacity", num(spec.capacity as f64)),
        ("preload", num(spec.preload as f64)),
        ("notes", Json::Arr(notes)),
        (
            "processes",
            Json::Arr(children.into_iter().map(|(d, _)| d).collect()),
        ),
    ]);
    Ok(Outcome {
        correct: all_correct && failed == 0,
        attempted,
        failed,
        metrics: merged,
        detail,
    })
}

// -------------------------------------------------------------- output --

/// Median over the repetitions of every process, for each statistic a
/// repetition records: beside a timing metric, which is the fastest
/// repetition's value, its row says how far the host pulled the others.
fn detail_rows(o: &Outcome) -> Vec<(String, f64)> {
    let Some(Json::Arr(procs)) = o.detail.get("processes") else {
        return Vec::new();
    };
    let series = |p: &Json, name: &str| -> Vec<Option<f64>> {
        match p.get("per_repetition").and_then(|r| r.get(name)) {
            Some(Json::Arr(vs)) => vs.iter().map(Json::as_f64).collect(),
            _ => vec![None],
        }
    };
    let names = procs
        .first()
        .and_then(|p| p.get("per_repetition"))
        .and_then(Json::as_obj)
        .unwrap_or(&[]);
    let mut rows = Vec::new();
    for (name, _) in names {
        // An exact metric has no second value to show.
        let exact = |d: &metrics::EndToEnd| d.name == name && d.across == metrics::Across::Exact;
        if END_TO_END.iter().any(exact) {
            continue;
        }
        let pooled: Vec<Option<f64>> = procs.iter().flat_map(|p| series(p, name)).collect();
        if let Some(m) = stats::median_of_reps(&pooled) {
            rows.push((format!("detail.{name}"), m));
        }
    }
    rows
}

fn print_table(spec: &Spec, o: &Outcome, prov: &Json) {
    println!("== {} — {}", spec.name, spec.why);
    println!("   provenance: {}", stats::to_line(prov));
    if let Some(Json::Arr(procs)) = o.detail.get("processes") {
        for (i, p) in procs.iter().enumerate() {
            let get = |k: &str| p.get(k).map(stats::to_line).unwrap_or_default();
            println!(
                "   process {i}: repetitions {}  samples/repetition {}  wall {} s",
                get("repetitions"),
                get("samples_per_repetition"),
                get("wall_s")
            );
        }
    }
    println!("   {:<44} {:>16}  unit", "metric", "value");
    for (name, value, unit) in &o.metrics {
        println!("   {name:<44} {value:>16.4}  {unit}");
    }
    println!("   median across repetitions:");
    for (name, value) in detail_rows(o) {
        println!("   {name:<44} {value:>16.4}");
    }
    let failed_pct = 100.0 * o.failed as f64 / o.attempted.max(1) as f64;
    println!(
        "   failed_ops_pct {failed_pct} % ({} of {} operations and checks)",
        o.failed, o.attempted
    );
    let notes = |d: &Json| match d.get("notes") {
        Some(Json::Arr(notes)) => notes.clone(),
        _ => Vec::new(),
    };
    let mut all = notes(&o.detail);
    if let Some(Json::Arr(procs)) = o.detail.get("processes") {
        all.extend(procs.iter().flat_map(notes));
    }
    for n in all {
        println!("   note: {}", stats::to_line(&n));
    }
}

fn write_detail(args: &Args, spec: &Spec, o: &Outcome, prov: &Json) {
    let mut doc = o.detail.clone();
    doc.set("provenance", prov.clone());
    let metrics = o.metrics.iter().map(|(n, v, _)| (n.clone(), num(*v)));
    doc.set("metrics", Json::Obj(metrics.collect()));
    let kind = if args.traced { "layers" } else { "result" };
    let path = args.out.join(format!("{kind}-{}.json", spec.name));
    let written =
        std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, doc.to_pretty()));
    match written {
        Ok(()) => println!("   detail written to {}", path.display()),
        Err(e) => eprintln!("   could not write {}: {e}", path.display()),
    }
}

/// Measures one workload, prints its table, and returns what it found.
fn report(spec: &Spec, args: &Args, seed: u64) -> Option<Outcome> {
    let spec = if args.smoke { spec.smoke() } else { *spec };
    let prov = provenance(args, seed);
    match run_workload(&spec, args, seed) {
        Ok(o) => {
            print_table(&spec, &o, &prov);
            write_detail(args, &spec, &o, &prov);
            Some(o)
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            None
        }
    }
}

// ------------------------------------------------- all workloads, check --

/// Every workload, each in processes of its own so that `peak_rss_mb`
/// is per workload.
fn run_set(args: &Args, seed: u64) -> Vec<(&'static str, Option<Outcome>)> {
    workloads::SPECS
        .iter()
        .map(|spec| (spec.name, report(spec, args, seed)))
        .collect()
}

/// One result line for a whole set: metrics prefixed by their workload.
fn combined(set: &[(&'static str, Option<Outcome>)]) -> Outcome {
    let mut all = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        detail: Json::Null,
    };
    for (workload, o) in set {
        let Some(o) = o else {
            all.correct = false;
            continue;
        };
        all.correct &= o.correct;
        all.attempted += o.attempted;
        all.failed += o.failed;
        for (name, value, unit) in &o.metrics {
            all.metrics
                .push((format!("{workload}.{name}"), *value, unit));
        }
    }
    all
}

fn run_all(args: &Args) -> i32 {
    let all = combined(&run_set(args, args.seed));
    println!("{}", result_line(&all));
    i32::from(!all.correct)
}

/// Two full sets with one seed must agree within each metric's bound
/// (and exactly on `msgs_per_op`); the next seed must also be correct.
fn run_check(args: &Args) -> i32 {
    let first = run_set(args, args.seed);
    let second = run_set(args, args.seed);
    let other = run_set(args, args.seed + 1);
    let value = |o: &Option<Outcome>, name: &str| -> Option<f64> {
        let (_, v, _) = o.as_ref()?.metrics.iter().find(|(n, _, _)| n == name)?;
        Some(*v)
    };
    let mut breaches = 0;
    println!("== check: two sets with seed {}", args.seed);
    println!(
        "   {:<20} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        for def in END_TO_END.iter() {
            let Some((x, y)) = value(a, def.name).zip(value(b, def.name)) else {
                println!("   {workload:<20} {:<14} missing", def.name);
                breaches += 1;
                continue;
            };
            let diff = (y - x).abs() / x.abs().max(f64::MIN_POSITIVE);
            let exact = def.across == metrics::Across::Exact;
            let breach = if exact {
                x.to_bits() != y.to_bits()
            } else {
                diff > def.bound
            };
            breaches += usize::from(breach);
            println!(
                "   {workload:<20} {:<14} {x:>14.4} {y:>14.4} {:>8.2}% {:>6.0}%{}",
                def.name,
                100.0 * diff,
                100.0 * if exact { 0.0 } else { def.bound },
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    let all_correct = [&first, &second, &other]
        .iter()
        .all(|set| combined(set).correct);
    println!(
        "   correctness: seeds {} (twice) and {}: {}",
        args.seed,
        args.seed + 1,
        if all_correct {
            "all answers right"
        } else {
            "FAILURES"
        }
    );
    println!("{}", result_line(&combined(&second)));
    i32::from(breaches > 0 || !all_correct)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);
    // The TCP deployment switches its metrics registry on from the
    // environment at launch; the traced run wants it, the untraced run
    // must not pay for it. Set before any thread exists; the processes
    // this one starts inherit it.
    if args.traced {
        std::env::set_var("SDR_METRICS", "1");
    } else {
        std::env::remove_var("SDR_METRICS");
    }
    std::env::remove_var("SDR_TRACE");
    let code = if args.child {
        let spec = workloads::spec(&args.workload).unwrap_or_else(|| usage());
        child_main(&if args.smoke { spec.smoke() } else { spec }, &args)
    } else if args.check {
        run_check(&args)
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        let spec = workloads::spec(&args.workload).expect("checked by parse_args");
        match report(&spec, &args, args.seed) {
            Some(o) => {
                println!("{}", result_line(&o));
                i32::from(!o.correct)
            }
            None => 3,
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys and metric names of a result line, after a trip through the
    /// product's JSON parser.
    fn shape(o: &Outcome) -> (Vec<String>, Vec<String>) {
        let line = result_line(o);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("the result line is JSON");
        let keys = |j: &Json| -> Vec<String> {
            let pairs = j.as_obj().expect("an object");
            pairs.iter().map(|(k, _)| k.clone()).collect()
        };
        (keys(&doc), keys(doc.get("metrics").expect("metrics")))
    }

    const KEYS: [&str; 4] = ["correct", "attempted", "failed", "metrics"];

    #[test]
    fn smoke_runs_answer_correctly_and_report_every_end_to_end_metric() {
        for spec in workloads::SPECS.iter().map(|s| s.smoke()) {
            let o = untraced::run(&spec, DEFAULT_SEED, 0.0, true).expect(spec.name);
            assert!(
                o.correct && o.failed == 0 && o.attempted > 0,
                "{}",
                spec.name
            );
            let (keys, names) = shape(&o);
            assert_eq!(keys, KEYS);
            let want: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
            assert_eq!(names, want, "{}", spec.name);
            assert!(o.metrics.iter().all(|(_, v, _)| *v > 0.0), "{}", spec.name);
        }
    }

    #[test]
    fn a_second_seed_is_also_correct() {
        for spec in workloads::SPECS.iter().map(|s| s.smoke()) {
            let o = untraced::run(&spec, DEFAULT_SEED + 41, 0.0, true).expect(spec.name);
            assert!(o.correct, "{}", spec.name);
        }
    }

    #[test]
    fn traced_smoke_runs_report_every_per_layer_metric_and_write_spans() {
        let out = std::env::temp_dir().join(format!("e2e-test-{}", std::process::id()));
        for spec in workloads::SPECS.iter().map(|s| s.smoke()) {
            let o = trace::run_traced(&spec, DEFAULT_SEED, true, &out).expect(spec.name);
            assert!(o.correct && o.failed == 0, "{}", spec.name);
            let (keys, names) = shape(&o);
            assert_eq!(keys, KEYS);
            let want: Vec<&str> = metrics::PER_LAYER.iter().map(|d| d.name).collect();
            assert_eq!(names, want, "{}", spec.name);
            let spans = std::fs::read_to_string(out.join(format!("trace-{}.json", spec.name)))
                .expect("span file");
            let spans = Json::parse(&spans).expect("span file is JSON");
            assert!(matches!(spans.get("spans"), Some(Json::Arr(s)) if s.len() > 2));
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
