//! Experiment driver: regenerates every table and figure of the SD-Rtree
//! paper's evaluation (§5), plus the ablations.
//!
//! ```text
//! experiments [--quick] [all | fig8a fig8b table1 fig9 fig10a fig10b
//!              fig11 fig12a fig12b fig13 fig14
//!              protocols msgsize bulkload]
//! ```

use sdr_bench::exp::common::{Dist, ExpConfig, QueryType, Workbench};
use sdr_bench::exp::{
    bulkload, fig10, fig11, fig12, fig13, fig14, fig8, fig9, msgsize, protocols, table1,
};

const ALL: &[&str] = &[
    "fig8a",
    "fig8b",
    "table1",
    "fig9",
    "fig10a",
    "fig10b",
    "fig11",
    "fig12a",
    "fig12b",
    "fig13",
    "fig14",
    "protocols",
    "msgsize",
    "bulkload",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed: Option<u64> = match args.iter().position(|a| a == "--seed") {
        None => None,
        Some(i) => match args.get(i + 1).map(|v| v.parse()) {
            Some(Ok(seed)) => Some(seed),
            _ => {
                eprintln!("--seed requires an unsigned integer value");
                std::process::exit(2);
            }
        },
    };
    let mut skip_next = false;
    let mut requested: Vec<String> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--seed" {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(|a| a.to_lowercase())
        .collect();
    if requested.is_empty() || requested.iter().any(|a| a == "all") {
        requested = ALL.iter().map(|s| s.to_string()).collect();
    }
    for r in &requested {
        if !ALL.contains(&r.as_str()) {
            eprintln!("unknown experiment '{r}'; available: all {}", ALL.join(" "));
            std::process::exit(2);
        }
    }

    let mut cfg = if quick {
        ExpConfig::quick()
    } else {
        ExpConfig::full()
    };
    if let Some(seed) = seed {
        cfg.seed = seed;
    }
    eprintln!(
        "SD-Rtree experiments — scale: {} (capacity {}, {} insertions, {} queries)",
        if quick { "quick" } else { "full (paper)" },
        cfg.capacity,
        cfg.total_objects,
        cfg.num_queries,
    );

    let mut wb = Workbench::new();
    let t0 = std::time::Instant::now();
    for name in &requested {
        let report = match name.as_str() {
            "fig8a" => fig8::run(&cfg, &mut wb, Dist::Uniform),
            "fig8b" => fig8::run(&cfg, &mut wb, Dist::Skewed),
            "table1" => {
                table1::run(&cfg, &mut wb, Dist::Uniform).emit(&cfg);
                table1::run(&cfg, &mut wb, Dist::Skewed)
            }
            "fig9" => fig9::run(&cfg, &mut wb),
            "fig10a" => fig10::run(&cfg, &mut wb, Dist::Uniform),
            "fig10b" => fig10::run(&cfg, &mut wb, Dist::Skewed),
            "fig11" => fig11::run(&cfg, &mut wb),
            "fig12a" => fig12::run(&cfg, &mut wb, QueryType::Point),
            "fig12b" => fig12::run(&cfg, &mut wb, QueryType::Window),
            "fig13" => fig13::run(&cfg, &mut wb),
            "fig14" => fig14::run(&cfg, &mut wb),
            "protocols" => protocols::run(&cfg),
            "msgsize" => msgsize::run(&cfg),
            "bulkload" => bulkload::run(&cfg),
            _ => unreachable!("validated above"),
        };
        report.emit(&cfg);
    }
    eprintln!(
        "\ncompleted {} experiment(s) in {:?}",
        requested.len(),
        t0.elapsed()
    );
}
