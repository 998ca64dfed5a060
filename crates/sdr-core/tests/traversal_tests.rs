//! Query traversal, end to end: every answer equals a brute-force scan
//! of the live set whatever the variant, image age, termination protocol
//! or churn — and the image does not cost more messages than having none.
//!
//! The stress is a test of correctness, not of message counts: it also
//! passes with a per-branch `visited` set (DESIGN.md decision 3), which
//! is what `the_image_costs_…` fails (2.7× and 2.3× BASIC on this tree);
//! `imserver_knn_…` fails if the estimate is asked of the contact's own
//! data node (4.3× IMCLIENT).

use sdr_core::{Client, ClientId, Cluster, Object, Oid, ReplyProtocol, SdrConfig, Variant};
use sdr_geom::{Point, Rect};
use sdr_workload::{DatasetSpec, Distribution, PointSpec, WindowSpec};
use std::collections::BTreeMap;

const VARIANTS: [Variant; 3] = [Variant::Basic, Variant::ImClient, Variant::ImServer];
const PROTOCOLS: [ReplyProtocol; 3] = [
    ReplyProtocol::Direct,
    ReplyProtocol::ReversePath,
    ReplyProtocol::Probabilistic,
];

fn sorted_oids(objects: &[Object]) -> Vec<u64> {
    let mut ids: Vec<u64> = objects.iter().map(|o| o.oid.0).collect();
    ids.sort_unstable();
    ids
}

/// The oids of `live` whose rectangle satisfies `hit`, ascending.
fn scan(live: &BTreeMap<u64, Rect>, hit: impl Fn(&Rect) -> bool) -> Vec<u64> {
    live.iter()
        .filter(|(_, r)| hit(r))
        .map(|(i, _)| *i)
        .collect()
}

/// kNN equals brute force up to ties: the same distances, nearest first.
fn assert_knn(client: &mut Client, cluster: &mut Cluster, live: &[Rect], p: Point, k: usize) {
    let got = client.knn(cluster, p, k);
    let mut want: Vec<f64> = live.iter().map(|r| r.min_dist(&p)).collect();
    want.sort_by(|a, b| a.partial_cmp(b).unwrap());
    want.truncate(k);
    let dists: Vec<f64> = got.neighbors.iter().map(|n| n.1).collect();
    assert_eq!(dists.len(), want.len(), "kNN-{k} at {p:?}");
    for (d, w) in dists.iter().zip(&want) {
        assert!(
            (d - w).abs() < 1e-9,
            "kNN-{k} at {p:?}: {dists:?} vs {want:?}"
        );
    }
}

/// An IMCLIENT client takes the three termination protocols in turn; the
/// other two variants stay on the direct protocol.
fn rotate_protocol(client: &mut Client, i: usize) {
    if client.variant == Variant::ImClient {
        client.protocol = PROTOCOLS[i % 3];
    }
}

/// One battery of queries by `client`, each checked against `live`.
fn check_queries(
    client: &mut Client,
    cluster: &mut Cluster,
    live: &BTreeMap<u64, Rect>,
    seed: u64,
    what: &str,
) {
    // Half the points uniform, half at object centres (never empty, and
    // on skewed data deep inside the overlap).
    let mut points = PointSpec::uniform().generate(12, seed);
    points.extend(live.values().step_by(live.len() / 12 + 1).map(Rect::center));
    for (i, p) in points.iter().enumerate() {
        rotate_protocol(client, i);
        let got = client.point_query(cluster, *p);
        let want = scan(live, |r| r.contains_point(p));
        assert_eq!(sorted_oids(&got.results), want, "{what}: point {p:?}");
    }
    for (i, w) in WindowSpec::paper_default()
        .generate(12, seed + 1)
        .iter()
        .enumerate()
    {
        rotate_protocol(client, i);
        let got = client.window_query(cluster, *w);
        let want = scan(live, |r| r.intersects(w));
        assert_eq!(sorted_oids(&got.results), want, "{what}: window {w:?}");
    }
    let rects: Vec<Rect> = live.values().copied().collect();
    for (i, p) in points.iter().step_by(8).enumerate() {
        rotate_protocol(client, i);
        assert_knn(client, cluster, &rects, *p, 5);
    }
    client.protocol = ReplyProtocol::Direct;
}

#[test]
fn every_answer_equals_a_brute_force_scan_under_stale_images_and_churn() {
    for seed in 0..6u64 {
        let capacity = [12, 25, 60][seed as usize % 3];
        let distribution = if seed % 2 == 0 {
            Distribution::Uniform
        } else {
            Distribution::default_skewed()
        };
        let data = DatasetSpec::new(capacity * 40, distribution).generate(100 + seed);
        for variant in VARIANTS {
            let what = format!("seed {seed} {variant:?} capacity {capacity}");
            let mut cluster = Cluster::new(SdrConfig::with_capacity(capacity));
            let mut live = BTreeMap::new();
            // The client under test sees the first tenth of the build and
            // nothing of the rest: its image (its contact servers' images,
            // under IMSERVER) describes a tree nine splits out of ten ago.
            let mut client = Client::new(ClientId(1), variant, seed);
            let mut grower = Client::new(ClientId(2), Variant::ImClient, seed + 1);
            for (i, r) in data.iter().enumerate() {
                let by = if i < data.len() / 10 {
                    &mut client
                } else {
                    &mut grower
                };
                by.insert(&mut cluster, Object::new(Oid(i as u64), *r));
                live.insert(i as u64, *r);
            }
            cluster.check_invariants();
            check_queries(&mut client, &mut cluster, &live, seed * 31, &what);

            // Three rounds of churn: empty a vertical stripe (data nodes
            // underflow and dissolve, leaving tombstones and stale outer
            // links), query, then put the stripe back and query again.
            for round in 0..3u64 {
                let x0 = 0.1 + 0.25 * round as f64;
                let stripe = scan(&live, |r| (x0..x0 + 0.2).contains(&r.center().x));
                for oid in &stripe {
                    let obj = Object::new(Oid(*oid), live[oid]);
                    let (removed, _) = client.delete(&mut cluster, obj);
                    assert!(removed, "{what}: round {round}: delete of {oid}");
                    live.remove(oid);
                }
                cluster.check_invariants();
                assert_eq!(cluster.total_objects(), live.len());
                let s = seed * 31 + round * 7;
                check_queries(&mut client, &mut cluster, &live, s + 2, &what);
                for oid in &stripe {
                    let r = data[*oid as usize];
                    grower.insert(&mut cluster, Object::new(Oid(*oid), r));
                    live.insert(*oid, r);
                }
                cluster.check_invariants();
                check_queries(&mut client, &mut cluster, &live, s + 4, &what);
            }
        }
    }
}

/// A skewed capacity-60 tree and its three warmed-up clients: the tree is
/// built through IMSERVER contacts (so the servers' images are as good as
/// they get), the IMCLIENT client through 300 queries of its own.
fn skewed_tree_with_clients() -> (Cluster, Vec<Rect>, [Client; 3]) {
    let data = DatasetSpec::new(3_000, Distribution::default_skewed()).generate(17);
    let mut cluster = Cluster::new(SdrConfig::with_capacity(60));
    let mut imserver = Client::new(ClientId(0), Variant::ImServer, 3);
    for (i, r) in data.iter().enumerate() {
        imserver.insert(&mut cluster, Object::new(Oid(i as u64), *r));
    }
    let mut imclient = Client::new(ClientId(1), Variant::ImClient, 4);
    for w in WindowSpec::paper_default().generate(300, 5) {
        imclient.window_query(&mut cluster, w);
    }
    let basic = Client::new(ClientId(2), Variant::Basic, 6);
    (cluster, data, [basic, imclient, imserver])
}

/// §5.2's claim as an inequality: addressing through an image costs no
/// more than BASIC's trip through the root — also where rectangles
/// overlap heavily and one hop forwards to many outer nodes, each of
/// which would re-forward to the others and to the sender's ancestors
/// if the hop did not tell them about each other.
#[test]
fn the_image_costs_at_most_half_again_the_messages_of_basic_on_skewed_data() {
    let (mut cluster, data, mut clients) = skewed_tree_with_clients();
    // Query points where the data is, so that every one has matches.
    let points: Vec<Point> = data.iter().step_by(15).map(Rect::center).collect();
    let windows = WindowSpec::paper_default().generate(200, 8);
    assert_eq!(points.len(), 200);
    let cost = clients.each_mut().map(|client| {
        let before = cluster.stats.total();
        for p in &points {
            let got = client.point_query(&mut cluster, *p);
            let want = data.iter().filter(|r| r.contains_point(p)).count();
            assert_eq!(got.results.len(), want, "{:?} at {p:?}", client.variant);
        }
        for w in &windows {
            let got = client.window_query(&mut cluster, *w);
            let want = data.iter().filter(|r| r.intersects(w)).count();
            assert_eq!(got.results.len(), want, "{:?} on {w:?}", client.variant);
        }
        cluster.stats.total() - before
    });
    let [basic, imclient, imserver] = cost;
    assert!(
        2 * imclient <= 3 * basic && 2 * imserver <= 3 * basic,
        "400 queries: BASIC {basic} messages, IMCLIENT {imclient}, IMSERVER {imserver}"
    );
}

/// An IMSERVER client's kNN takes its estimate through the contact
/// server's image, like every other IMSERVER operation: same answers,
/// and within three times the IMCLIENT messages plus the two `Routed`
/// hops. (A random contact's own data node is far from the point, its
/// k-th distance a radius that covers much of the space.)
#[test]
fn imserver_knn_equals_brute_force_within_three_times_the_imclient_messages() {
    let (mut cluster, data, mut clients) = skewed_tree_with_clients();
    let points: Vec<Point> = data.iter().step_by(75).map(Rect::center).collect();
    let cost = clients.each_mut().map(|client| {
        let before = cluster.stats.total();
        for p in &points {
            for k in [1, 10] {
                assert_knn(client, &mut cluster, &data, *p, k);
            }
        }
        cluster.stats.total() - before
    });
    let [_, imclient, imserver] = cost;
    let queries = 2 * points.len() as u64;
    assert!(
        imserver <= 3 * imclient + 2 * queries,
        "{queries} kNN: IMCLIENT {imclient} messages, IMSERVER {imserver}"
    );
}

/// `Routed` carries no protocol, so the contact server addresses every
/// IMSERVER query under the direct protocol; the client must wait for
/// what that protocol sends, whatever its own `protocol` field says —
/// not for a reverse-path aggregate nobody owes it.
#[test]
fn an_imserver_client_answers_correctly_whatever_protocol_it_is_set_to() {
    let data = DatasetSpec::new(1_000, Distribution::default_skewed()).generate(51);
    let mut cluster = Cluster::new(SdrConfig::with_capacity(40));
    let mut client = Client::new(ClientId(0), Variant::ImServer, 2);
    for (i, r) in data.iter().enumerate() {
        client.insert(&mut cluster, Object::new(Oid(i as u64), *r));
    }
    let live: BTreeMap<u64, Rect> = (0u64..).zip(data.iter().copied()).collect();
    for protocol in PROTOCOLS {
        client.protocol = protocol;
        for w in WindowSpec::paper_default().generate(30, 9) {
            let got = client.window_query(&mut cluster, w);
            let want = scan(&live, |r| r.intersects(&w));
            assert_eq!(sorted_oids(&got.results), want, "{protocol:?} on {w:?}");
        }
        for p in PointSpec::uniform().generate(30, 10) {
            let got = client.point_query(&mut cluster, p);
            let want = scan(&live, |r| r.contains_point(&p));
            assert_eq!(sorted_oids(&got.results), want, "{protocol:?} at {p:?}");
        }
        assert_knn(&mut client, &mut cluster, &data, Point::new(0.5, 0.5), 7);
    }
}
