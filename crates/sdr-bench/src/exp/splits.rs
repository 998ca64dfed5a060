//! Ablation: data-node split policies.
//!
//! §7 lists "the analysis of the R*tree type of splitting" as future
//! work; this experiment runs it, and its table is the evidence behind
//! the default (DESIGN.md decision 16). Each policy builds the same tree
//! from the same data, uniform and then skewed — clustered data is where
//! the policies differ most; we compare the resulting structure quality
//! (overlap between sibling directory rectangles drives query fan-out)
//! and the measured insert/query message costs.

use crate::exp::common::{dataset, Dist, ExpConfig, Report};
use sdr_core::{Client, ClientId, Cluster, Object, Oid, Variant};
use sdr_rtree::SplitPolicy;
use sdr_workload::WindowSpec;

/// Runs the split-policy ablation.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new(
        "splits",
        "split-policy ablation (lower overlap => fewer query messages)",
        &[
            "data",
            "policy",
            "servers",
            "height",
            "load(%)",
            "overlap",
            "ins msg/op",
            "win msg/q",
        ],
    );
    let n = cfg.query_tree_objects;
    let windows = WindowSpec::paper_default().generate((cfg.num_queries / 3).max(50), cfg.seed ^ 3);

    for dist in [Dist::Uniform, Dist::Skewed] {
        let data = dataset(n, dist, cfg.seed);
        for policy in [
            SplitPolicy::Linear,
            SplitPolicy::Quadratic,
            SplitPolicy::RStar,
        ] {
            let mut cluster = Cluster::new(cfg.sdr().with_split(policy));
            let mut client = Client::new(ClientId(0), Variant::ImClient, cfg.seed);
            let base = cluster.stats.snapshot();
            for (i, r) in data.iter().enumerate() {
                client.insert(&mut cluster, Object::new(Oid(i as u64), *r));
            }
            let ins = cluster.stats.since(&base);
            // Total pairwise overlap among sibling directory rectangles.
            let overlap: f64 = cluster
                .servers()
                .iter()
                .filter_map(|s| s.routing.as_ref())
                .map(|r| r.left.dr.overlap_area(&r.right.dr))
                .sum();
            let qbase = cluster.stats.snapshot();
            for w in &windows {
                client.window_query(&mut cluster, *w);
            }
            let q = cluster.stats.since(&qbase);
            report.row(vec![
                dist.label().to_string(),
                format!("{policy:?}"),
                cluster.num_servers().to_string(),
                cluster.height().to_string(),
                format!("{:.1}", cluster.avg_load() * 100.0),
                format!("{overlap:.4}"),
                format!("{:.2}", ins.total as f64 / n as f64),
                format!("{:.2}", q.total as f64 / windows.len() as f64),
            ]);
        }
    }
    report
}
