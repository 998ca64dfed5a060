//! Workspace-spanning integration tests: the full stack — workload
//! generators feeding the distributed structure, compared against the
//! centralized local R-tree baseline, across crates.

mod doc_sync;

use sd_rtree::rtree::{RTree, RTreeConfig};
use sd_rtree::workload::{DatasetSpec, Distribution, PointSpec, WindowSpec};
use sd_rtree::{Client, ClientId, Cluster, Object, Oid, SdrConfig, Variant};

/// The distributed structure and a single centralized R-tree must give
/// identical answers on the same workload — the SD-Rtree "generalizes
/// the well-known Rtree structure" (§1).
#[test]
fn distributed_agrees_with_centralized_baseline() {
    let data = DatasetSpec::new(3_000, Distribution::Uniform).generate(5);

    let mut central: RTree<u64> = RTree::new(RTreeConfig::default());
    let mut cluster = Cluster::new(SdrConfig::with_capacity(100));
    let mut client = Client::new(ClientId(0), Variant::ImClient, 5);
    for (i, r) in data.iter().enumerate() {
        central.insert(*r, i as u64);
        client.insert(&mut cluster, Object::new(Oid(i as u64), *r));
    }

    for w in WindowSpec::paper_default().generate(150, 6) {
        let mut got: Vec<u64> = client
            .window_query(&mut cluster, w)
            .results
            .iter()
            .map(|o| o.oid.0)
            .collect();
        let mut want: Vec<u64> = central.search_window(&w).iter().map(|e| e.item).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "window {w:?}");
    }

    for p in PointSpec::uniform().generate(150, 7) {
        let mut got: Vec<u64> = client
            .point_query(&mut cluster, p)
            .results
            .iter()
            .map(|o| o.oid.0)
            .collect();
        let mut want: Vec<u64> = central.search_point(&p).iter().map(|e| e.item).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "point {p:?}");
    }
}

/// The headline scalability claims of the paper, verified end-to-end at
/// reduced scale: message-cost ordering of the three variants on inserts
/// (Fig. 8) and on window and point queries (Fig. 12), logarithmic
/// height.
#[test]
fn paper_shape_claims_hold() {
    let data = DatasetSpec::new(12_000, Distribution::Uniform).generate(9);
    let windows = WindowSpec::paper_default().generate(300, 11);
    let points = PointSpec::uniform().generate(300, 13);
    let (mut inserts, mut per_window, mut per_point) = (Vec::new(), Vec::new(), Vec::new());
    for variant in [Variant::Basic, Variant::ImServer, Variant::ImClient] {
        let mut cluster = Cluster::new(SdrConfig::with_capacity(200));
        let mut client = Client::new(ClientId(0), variant, 3);
        // Warm-up then measured phase, as in the experiments.
        for (i, r) in data[..2_000].iter().enumerate() {
            client.insert(&mut cluster, Object::new(Oid(i as u64), *r));
        }
        let snap = cluster.stats.snapshot();
        for (i, r) in data[2_000..].iter().enumerate() {
            client.insert(&mut cluster, Object::new(Oid(2_000 + i as u64), *r));
        }
        inserts.push(cluster.stats.since(&snap).total);

        // Logarithmic height for every variant.
        let n = cluster.num_servers() as f64;
        assert!((cluster.height() as f64) <= 2.0 * n.log2() + 2.0);

        let snap = cluster.stats.snapshot();
        for w in &windows {
            client.window_query(&mut cluster, *w);
        }
        per_window.push(cluster.stats.since(&snap).total as f64 / windows.len() as f64);
        let snap = cluster.stats.snapshot();
        for p in &points {
            client.point_query(&mut cluster, *p);
        }
        per_point.push(cluster.stats.since(&snap).total as f64 / points.len() as f64);
    }
    let (basic, imserver, imclient) = (inserts[0], inserts[1], inserts[2]);
    assert!(
        imclient < imserver && imserver < basic,
        "variant ordering violated: BASIC={basic}, IMSERVER={imserver}, IMCLIENT={imclient}"
    );
    // IMCLIENT converges to about one message per insert.
    let per_insert = imclient as f64 / 10_000.0;
    assert!(
        per_insert < 1.6,
        "IMCLIENT costs {per_insert} messages/insert"
    );
    // Fig. 12: an image saves query messages, a client-held one the most.
    for (what, per_op) in [("window", &per_window), ("point", &per_point)] {
        let (basic, imserver, imclient) = (per_op[0], per_op[1], per_op[2]);
        assert!(
            basic >= imserver && imserver > imclient,
            "messages per {what} query out of order: \
             BASIC={basic:.2}, IMSERVER={imserver:.2}, IMCLIENT={imclient:.2}"
        );
    }
    assert!(
        per_window[2] <= 0.75 * per_window[0],
        "IMCLIENT pays {:.2} messages per window, BASIC {:.2}",
        per_window[2],
        per_window[0]
    );
}

/// The quick experiment harness runs end to end (every figure/table).
#[test]
fn experiment_harness_smoke() {
    use sdr_bench::exp::common::{Dist, ExpConfig, QueryType, Workbench};
    use sdr_bench::exp::{fig11, fig12, fig8, fig9, table1};

    let mut cfg = ExpConfig::quick();
    // Shrink further: this is a smoke test.
    cfg.total_objects = 8_000;
    cfg.init_objects = 1_000;
    cfg.query_tree_objects = 4_000;
    cfg.num_queries = 100;
    cfg.query_checkpoints = 5;
    cfg.out_dir = None;

    let mut wb = Workbench::new();
    let r8 = fig8::run(&cfg, &mut wb, Dist::Uniform);
    assert_eq!(r8.rows.len(), cfg.checkpoints + 1);
    let t1 = table1::run(&cfg, &mut wb, Dist::Uniform);
    assert_eq!(t1.rows.len(), cfg.checkpoints);
    let r9 = fig9::run(&cfg, &mut wb);
    assert!(!r9.rows.is_empty());
    let r11 = fig11::run(&cfg, &mut wb);
    assert!(!r11.rows.is_empty());
    let r12 = fig12::run(&cfg, &mut wb, QueryType::Point);
    assert_eq!(r12.rows.len(), cfg.query_checkpoints + 1);
    let ms = sdr_bench::exp::msgsize::run(&cfg);
    assert!(!ms.rows.is_empty());
    let bl = sdr_bench::exp::bulkload::run(&cfg);
    assert_eq!(bl.rows.len(), 2);

    // The last fig8 data row holds cumulative totals: they must be
    // positive and ordered IMCLIENT <= BASIC.
    let last = &r8.rows[cfg.checkpoints - 1];
    let basic: u64 = last[1].parse().unwrap();
    let imclient: u64 = last[3].parse().unwrap();
    assert!(imclient > 0 && basic > imclient);
}

/// The workspace's bookkeeping keeps up with `crates/`: README table,
/// DESIGN.md §1 inventory and §2 numbering, and `[lints] workspace = true`
/// in every manifest (see `doc_sync::problems`; its fixture tests are in
/// `rule_fixtures.rs`).
#[test]
fn docs_and_manifests_track_the_crates() {
    let problems = doc_sync::problems(std::path::Path::new(env!("CARGO_MANIFEST_DIR")));
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

/// Skewed data stresses rotations; everything stays consistent and
/// complete.
#[test]
fn skewed_churn_consistency() {
    let data = DatasetSpec::new(4_000, Distribution::default_skewed()).generate(13);
    let mut cluster = Cluster::new(SdrConfig::with_capacity(60));
    let mut client = Client::new(ClientId(0), Variant::ImClient, 3);
    for (i, r) in data.iter().enumerate() {
        client.insert(&mut cluster, Object::new(Oid(i as u64), *r));
    }
    // Delete half, then verify remaining answers.
    for (i, r) in data.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
        let (removed, _) = client.delete(&mut cluster, Object::new(Oid(i as u64), *r));
        assert!(removed);
    }
    cluster.check_invariants();
    for w in WindowSpec::paper_default().generate(60, 17) {
        let got = client.window_query(&mut cluster, w).results.len();
        let want = data
            .iter()
            .enumerate()
            .filter(|(i, r)| i % 2 == 1 && r.intersects(&w))
            .count();
        assert_eq!(got, want);
    }
    // Booking refusals as delivery failures on TCP is safe because a
    // fault-free run refuses nothing.
    assert_eq!(cluster.stats.refused(), 0);
}
