//! A minimal wall-clock benchmark timer, replacing `criterion` for the
//! `sdr-bench` micro-benches.
//!
//! Scope is deliberately tiny: warm up, calibrate an iteration batch so
//! one sample costs ≥ ~1 ms, take N samples, report min / median / p99
//! per-iteration time. No statistics beyond order statistics, no plots,
//! no baseline storage — the experiment harness (`sdr-bench`'s
//! `experiments` binary) owns the paper's figures; these timers exist to
//! catch order-of-magnitude regressions on the hot paths.
//!
//! Environment knobs: `SDR_BENCH_SAMPLES` overrides the per-bench sample
//! count; `SDR_BENCH_QUICK=1` caps samples at 10 for smoke runs.
//!
//! ## JSON perf records
//!
//! Passing `--json` on the bench binary's command line (i.e.
//! `cargo bench --bench cluster_query -- --json`), or setting
//! `SDR_BENCH_JSON=1` in the environment, makes [`Bench::finish`] write
//! the run's min/median/p99 numbers to `BENCH_<suite>.json` in the
//! current directory, where `<suite>` is the prefix of the bench names
//! before the first `/` (`cluster/insert_10k_Basic` → `BENCH_cluster.json`).
//! `--json-baseline` (or `SDR_BENCH_JSON=baseline`) writes the same
//! numbers under the file's `"baseline"` key instead of `"current"`,
//! which is how a pre-change run is pinned for later comparison: writes
//! merge with the existing file, so the baseline section survives
//! subsequent `--json` runs. A non-`1` value of `SDR_BENCH_JSON` (other
//! than `baseline`) is taken as the directory to write into.
//!
//! Benches may also attach named scalar *metrics* to the run
//! ([`Bench::record_metric`]) — message counts per operation, hop
//! statistics, correction rates — which land under a top-level
//! `"metrics"` key in the same file, merged like the bench sections.

use crate::json::Json;
pub use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One benchmark's summary, in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Benchmark name.
    pub name: String,
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// 99th-percentile sample (the slowest sample for < 100 samples).
    pub p99_ns: f64,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
    /// Samples taken.
    pub samples: usize,
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:8.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:8.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:8.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:8.2} s ", ns / 1_000_000_000.0)
    }
}

/// Where a run's JSON record lands: the section key inside the
/// `BENCH_<suite>.json` file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JsonSection {
    /// The `"current"` section — the layout under test.
    Current,
    /// The `"baseline"` section — a pinned pre-change run.
    Baseline,
}

/// The bench runner: collects [`Summary`] rows and prints them.
#[derive(Debug)]
pub struct Bench {
    sample_size: usize,
    warmup: Duration,
    min_sample_time: Duration,
    results: Vec<Summary>,
    metrics: Vec<(String, f64)>,
    json: Option<(JsonSection, PathBuf)>,
}

impl Default for Bench {
    fn default() -> Self {
        Bench {
            sample_size: 30,
            warmup: Duration::from_millis(150),
            min_sample_time: Duration::from_millis(1),
            results: Vec::new(),
            metrics: Vec::new(),
            json: None,
        }
    }
}

impl Bench {
    /// A runner configured from the environment and the process's
    /// command line (see module docs).
    pub fn from_env() -> Self {
        let mut b = Bench::default();
        if let Some(n) = std::env::var("SDR_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            b.sample_size = n.max(1);
        }
        if std::env::var_os("SDR_BENCH_QUICK").is_some() {
            b.sample_size = b.sample_size.min(10);
            b.warmup = Duration::from_millis(20);
        }
        let mut dir = PathBuf::from(".");
        let mut section = None;
        if let Ok(v) = std::env::var("SDR_BENCH_JSON") {
            match v.trim() {
                "" => {}
                "1" => section = Some(JsonSection::Current),
                "baseline" => section = Some(JsonSection::Baseline),
                d => {
                    section = Some(JsonSection::Current);
                    dir = PathBuf::from(d);
                }
            }
        }
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--json" => section = Some(JsonSection::Current),
                "--json-baseline" => section = Some(JsonSection::Baseline),
                _ => {}
            }
        }
        b.json = section.map(|s| (s, dir));
        b
    }

    /// Overrides the sample count for subsequent benches (kept for
    /// parity with criterion's `sample_size`; the env still wins).
    pub fn set_sample_size(&mut self, n: usize) {
        if std::env::var_os("SDR_BENCH_SAMPLES").is_none()
            && std::env::var_os("SDR_BENCH_QUICK").is_none()
        {
            self.sample_size = n.max(1);
        }
    }

    /// Measures one benchmark and prints its summary line.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) {
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            warmup: self.warmup,
            min_sample_time: self.min_sample_time,
            summary: None,
        };
        f(&mut bencher);
        let summary = match bencher.summary {
            Some(mut s) => {
                s.name = name.to_string();
                s
            }
            None => {
                eprintln!("warning: bench `{name}` never called Bencher::iter");
                return;
            }
        };
        println!(
            "{:<44} min {}  med {}  p99 {}   ({} iters × {} samples)",
            summary.name,
            fmt_ns(summary.min_ns),
            fmt_ns(summary.median_ns),
            fmt_ns(summary.p99_ns),
            summary.iters_per_sample,
            summary.samples,
        );
        self.results.push(summary);
    }

    /// All summaries collected so far.
    pub fn results(&self) -> &[Summary] {
        &self.results
    }

    /// Attaches a named scalar metric to the run (e.g. a messages-per-
    /// operation count measured alongside the timed benches). Metrics
    /// share the bench naming convention — `suite/metric_name` — and are
    /// written to the same `BENCH_<suite>.json` under `"metrics"`.
    /// Non-finite values are dropped with a warning rather than
    /// poisoning the JSON record.
    pub fn record_metric(&mut self, name: &str, value: f64) {
        if !value.is_finite() {
            eprintln!("warning: metric `{name}` is not finite ({value}); skipped");
            return;
        }
        println!("{:<44} metric {value:.3}", name);
        self.metrics.push((name.to_string(), value));
    }

    /// Prints a closing line and, in `--json` mode, writes the perf
    /// record. (Kept as an explicit call so `main` reads like the
    /// criterion harness it replaced.)
    pub fn finish(&self) {
        println!("-- {} benches done", self.results.len());
        let Some((section, dir)) = &self.json else {
            return;
        };
        if self.results.is_empty() {
            return;
        }
        match self.write_json(*section, dir) {
            Ok(path) => println!("-- wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: failed to write bench JSON: {e}");
                std::process::exit(1);
            }
        }
    }

    /// Merges this run's summaries into `BENCH_<suite>.json` under the
    /// given section, preserving the other section and any benches from
    /// sibling suites sharing the file (e.g. `cluster_insert` and
    /// `cluster_query` both land in `BENCH_cluster.json`).
    fn write_json(&self, section: JsonSection, dir: &Path) -> Result<PathBuf, String> {
        let suite = self.results[0]
            .name
            .split('/')
            .next()
            .filter(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or("bench")
            .to_string();
        let path = dir.join(format!("BENCH_{suite}.json"));
        // Only a missing file starts a fresh record: one that is there but
        // unreadable holds a baseline, notes and metrics this run cannot
        // merge with, so it is left alone and the run fails.
        let mut root = match std::fs::read_to_string(&path) {
            Ok(text) => match Json::parse(&text) {
                Ok(root @ Json::Obj(_)) => root,
                Ok(_) => return Err(format!("{} is not a JSON object", path.display())),
                Err(e) => return Err(format!("{} does not parse: {e}", path.display())),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Json::Obj(vec![]),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        root.set("suite", Json::Str(suite));
        let key = match section {
            JsonSection::Current => "current",
            JsonSection::Baseline => "baseline",
        };
        let mut benches = match root.get(key) {
            Some(Json::Obj(pairs)) => Json::Obj(pairs.clone()),
            _ => Json::Obj(vec![]),
        };
        for s in &self.results {
            benches.set(
                &s.name,
                Json::Obj(vec![
                    ("min_ns".to_string(), Json::Num(s.min_ns)),
                    ("median_ns".to_string(), Json::Num(s.median_ns)),
                    ("p99_ns".to_string(), Json::Num(s.p99_ns)),
                    (
                        "iters_per_sample".to_string(),
                        Json::Num(s.iters_per_sample as f64),
                    ),
                    ("samples".to_string(), Json::Num(s.samples as f64)),
                ]),
            );
        }
        root.set(key, benches);
        if !self.metrics.is_empty() {
            let mut metrics = match root.get("metrics") {
                Some(Json::Obj(pairs)) => Json::Obj(pairs.clone()),
                _ => Json::Obj(vec![]),
            };
            for (name, value) in &self.metrics {
                metrics.set(name, Json::Num(*value));
            }
            root.set("metrics", metrics);
        }
        std::fs::write(&path, root.to_pretty()).map_err(|e| e.to_string())?;
        Ok(path)
    }
}

/// Passed to the benchmark closure; call [`Bencher::iter`] with the code
/// to measure.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    warmup: Duration,
    min_sample_time: Duration,
    summary: Option<Summary>,
}

impl Bencher {
    /// Measures `f`: warmup, batch-size calibration, then
    /// `sample_size` timed samples.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        // Warmup: run until the warmup budget elapses (at least once).
        let start = Instant::now();
        let mut warm_iters = 0u64;
        while start.elapsed() < self.warmup || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
            if warm_iters >= 1_000_000 {
                break;
            }
        }
        // Calibrate: enough iterations that one sample meets the floor.
        let per_iter = start.elapsed().as_nanos() as f64 / warm_iters as f64;
        let iters = ((self.min_sample_time.as_nanos() as f64 / per_iter.max(0.1)).ceil() as u64)
            .clamp(1, 10_000_000);
        // Sample.
        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("time is not NaN"));
        let n = samples_ns.len();
        self.summary = Some(Summary {
            name: String::new(),
            min_ns: samples_ns[0],
            median_ns: samples_ns[n / 2],
            p99_ns: samples_ns[((n as f64 * 0.99) as usize).min(n - 1)],
            iters_per_sample: iters,
            samples: n,
        });
    }
}

/// Expands to a `main` that runs the named bench functions — the
/// replacement for `criterion_group!` + `criterion_main!`:
///
/// ```ignore
/// fn bench_codec(c: &mut sdr_det::bench::Bench) { /* c.bench_function(...) */ }
/// sdr_det::bench_main!(bench_codec);
/// ```
#[macro_export]
macro_rules! bench_main {
    ($($target:path),+ $(,)?) => {
        fn main() {
            let mut bench = $crate::bench::Bench::from_env();
            $($target(&mut bench);)+
            bench.finish();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_sane() {
        let mut b = Bench {
            sample_size: 5,
            warmup: Duration::from_millis(1),
            min_sample_time: Duration::from_micros(50),
            ..Bench::default()
        };
        b.bench_function("noop_sum", |bencher| {
            bencher.iter(|| (0..100u64).sum::<u64>())
        });
        assert_eq!(b.results().len(), 1);
        let s = &b.results()[0];
        assert!(s.min_ns > 0.0);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.p99_ns);
        assert_eq!(s.samples, 5);
    }

    #[test]
    fn bench_without_iter_is_reported_not_fatal() {
        let mut b = Bench::default();
        b.bench_function("forgot_iter", |_| {});
        assert!(b.results().is_empty());
    }

    #[test]
    fn json_record_merges_baseline_and_current() {
        let dir = std::env::temp_dir().join(format!("sdr_bench_json_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut b = Bench {
            sample_size: 3,
            warmup: Duration::from_millis(1),
            min_sample_time: Duration::from_micros(20),
            ..Bench::default()
        };
        b.bench_function("demo/alpha", |bencher| {
            bencher.iter(|| (0..50u64).sum::<u64>())
        });
        b.record_metric("demo/msgs_per_op", 3.25);
        b.record_metric("demo/bad", f64::NAN);
        // Baseline first, then current: both sections must coexist.
        let path = b
            .write_json(JsonSection::Baseline, &dir)
            .expect("write baseline");
        b.write_json(JsonSection::Current, &dir)
            .expect("write current");
        let text = std::fs::read_to_string(&path).expect("read back");
        let root = Json::parse(&text).expect("valid json");
        assert_eq!(root.get("suite").and_then(Json::as_str), Some("demo"));
        for section in ["baseline", "current"] {
            let med = root
                .get(section)
                .and_then(|s| s.get("demo/alpha"))
                .and_then(|e| e.get("median_ns"))
                .and_then(Json::as_f64)
                .expect("median recorded");
            assert!(med > 0.0);
        }
        // Metrics land under their own key; the non-finite one was
        // dropped at record time.
        let metrics = root.get("metrics").expect("metrics section");
        assert_eq!(
            metrics.get("demo/msgs_per_op").and_then(Json::as_f64),
            Some(3.25)
        );
        assert!(metrics.get("demo/bad").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreadable_record_is_an_error_and_is_left_alone() {
        let dir = std::env::temp_dir().join(format!("sdr_bench_garbage_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut b = Bench {
            sample_size: 2,
            warmup: Duration::from_millis(1),
            min_sample_time: Duration::from_micros(20),
            ..Bench::default()
        };
        b.bench_function("demo/alpha", |bencher| {
            bencher.iter(|| (0..50u64).sum::<u64>())
        });
        let path = dir.join("BENCH_demo.json");
        for garbage in ["{\"baseline\": {\"demo/alpha\": ", "[1, 2]"] {
            std::fs::write(&path, garbage).expect("write garbage");
            let err = b
                .write_json(JsonSection::Current, &dir)
                .expect_err("a record that cannot be merged must not be replaced");
            assert!(
                err.contains("BENCH_demo.json"),
                "error names the file: {err}"
            );
            assert_eq!(std::fs::read_to_string(&path).expect("read back"), garbage);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
