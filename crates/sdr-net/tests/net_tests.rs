//! End-to-end tests of the TCP deployment: a real multi-threaded,
//! multi-socket run of the SD-Rtree protocol on localhost.
//!
//! The client protocol is one implementation driven by two transports,
//! so the main test here is one scenario run on both substrates: each
//! must equal the brute-force oracle, and therefore the other.

use sdr_core::{Client, ClientId, Cluster, Object, Oid, SdrConfig, Variant};
use sdr_geom::{Point, Rect};
use sdr_net::{NetClient, NetCluster};
use sdr_workload::{DatasetSpec, Distribution, PointSpec, WindowSpec};

/// What the scenario needs from a substrate: the five client operations
/// (result sets only) and the server count.
trait Substrate {
    fn insert(&mut self, obj: Object);
    fn delete(&mut self, obj: Object) -> bool;
    fn point(&mut self, p: Point) -> Vec<Object>;
    fn window(&mut self, w: Rect) -> Vec<Object>;
    fn knn(&mut self, p: Point, k: usize) -> Vec<f64>;
    fn servers(&self) -> usize;
}

struct Sim(Cluster, Client);

impl Substrate for Sim {
    fn insert(&mut self, obj: Object) {
        self.1.insert(&mut self.0, obj);
    }
    fn delete(&mut self, obj: Object) -> bool {
        self.1.delete(&mut self.0, obj).0
    }
    fn point(&mut self, p: Point) -> Vec<Object> {
        self.1.point_query(&mut self.0, p).results
    }
    fn window(&mut self, w: Rect) -> Vec<Object> {
        self.1.window_query(&mut self.0, w).results
    }
    fn knn(&mut self, p: Point, k: usize) -> Vec<f64> {
        let near = self.1.knn(&mut self.0, p, k).neighbors;
        near.into_iter().map(|(_, d)| d).collect()
    }
    fn servers(&self) -> usize {
        self.0.num_servers()
    }
}

struct Tcp<'a>(&'a NetCluster, NetClient);

impl Substrate for Tcp<'_> {
    fn insert(&mut self, obj: Object) {
        self.1.insert(obj).unwrap();
    }
    fn delete(&mut self, obj: Object) -> bool {
        self.1.delete(obj).unwrap()
    }
    fn point(&mut self, p: Point) -> Vec<Object> {
        self.1.point_query(p).unwrap()
    }
    fn window(&mut self, w: Rect) -> Vec<Object> {
        self.1.window_query(w).unwrap()
    }
    fn knn(&mut self, p: Point, k: usize) -> Vec<f64> {
        let near = self.1.knn(p, k).unwrap();
        near.into_iter().map(|(_, d)| d).collect()
    }
    fn servers(&self) -> usize {
        self.0.num_servers()
    }
}

const CAPACITY: usize = 25;

fn oids(mut objects: Vec<Object>) -> Vec<u64> {
    objects.sort_by_key(|o| o.oid);
    objects.into_iter().map(|o| o.oid.0).collect()
}

/// Every point / window / kNN answer of `s` must equal a brute-force scan
/// of `live`; returns the answers for cross-substrate comparison.
fn check_reads(s: &mut impl Substrate, live: &[Object], seed: u64) -> Vec<Vec<u64>> {
    let matching = |pred: &dyn Fn(&Rect) -> bool| {
        oids(live.iter().copied().filter(|o| pred(&o.mbb)).collect())
    };
    let mut answers = Vec::new();
    let centres = live.iter().step_by(7).map(|o| o.mbb.center());
    for p in centres.chain(PointSpec::uniform().generate(10, seed)) {
        let got = oids(s.point(p));
        assert_eq!(got, matching(&|r| r.contains_point(&p)), "point {p:?}");
        answers.push(got);

        let mut want: Vec<f64> = live.iter().map(|o| o.mbb.min_dist(&p)).collect();
        want.sort_by(f64::total_cmp);
        want.truncate(5);
        assert_eq!(s.knn(p, 5), want, "kNN-5 distances around {p:?}");
    }
    let everything = Rect::new(-1.0, -1.0, 2.0, 2.0);
    for w in WindowSpec::paper_default()
        .generate(20, seed)
        .into_iter()
        .chain([everything])
    {
        let got = oids(s.window(w));
        assert_eq!(got, matching(&|r| r.intersects(&w)), "window {w:?}");
        answers.push(got);
    }
    answers
}

/// Seeded inserts → reads → deletes → reads, all against the oracle.
fn scenario(s: &mut impl Substrate) -> Vec<Vec<u64>> {
    let rects = DatasetSpec::new(150, Distribution::Uniform).generate(0x5D12);
    let mut live: Vec<Object> = Vec::new();
    for (i, r) in rects.into_iter().enumerate() {
        live.push(Object::new(Oid(i as u64), r));
        s.insert(live[i]);
    }
    assert!(s.servers() >= 4, "expected splits, got {}", s.servers());
    let mut answers = check_reads(s, &live, 1);

    // Delete every fourth object (enough to trigger eliminations at this
    // capacity), plus one that is not there.
    let (gone, kept): (Vec<_>, Vec<_>) = live.into_iter().partition(|o| o.oid.0 % 4 == 0);
    for obj in &gone {
        assert!(s.delete(*obj), "delete should find {:?}", obj.oid);
    }
    assert!(!s.delete(gone[0]), "second delete of the same object");
    answers.extend(check_reads(s, &kept, 2));
    answers
}

#[test]
fn one_scenario_two_substrates_equal_the_oracle_and_each_other() {
    let config = SdrConfig::with_capacity(CAPACITY);
    let mut sim = Sim(
        Cluster::new(config),
        Client::new(ClientId(0), Variant::ImClient, 1),
    );
    let on_sim = scenario(&mut sim);

    let cluster = NetCluster::launch(config).unwrap();
    let mut tcp = Tcp(&cluster, NetClient::connect(&cluster).unwrap());
    let on_tcp = scenario(&mut tcp);
    assert_eq!(cluster.delivery_failures(), 0, "fault-free run");
    cluster.shutdown();

    assert_eq!(on_sim, on_tcp);
}

#[test]
fn two_clients_share_one_structure() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(30)).unwrap();
    let mut writer = NetClient::connect(&cluster).unwrap();
    for i in 0..80u64 {
        let x = (i % 9) as f64 / 9.0;
        let y = (i / 9) as f64 / 9.0;
        writer
            .insert(Object::new(Oid(i), Rect::new(x, y, x + 0.03, y + 0.03)))
            .unwrap();
    }
    // A second client with an empty image still gets complete answers
    // (its first queries go to its contact server and repair from there).
    let mut reader = NetClient::connect(&cluster).unwrap();
    let hits = reader.window_query(Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap();
    assert_eq!(hits.len(), 80);
    // And its image has learned some of the structure from the IAMs.
    assert!(reader.image().known_servers() >= 2);
    cluster.shutdown();
}

/// No hop waits on a timer: with the parent's 5 ms insert grace and 1 ms
/// accept polls this run took ≥ 1.2 s by construction; on sockets alone
/// it takes tens of milliseconds. The only wall-clock assertion in the
/// suite, at a third of the old floor.
#[test]
fn no_timer_floors_under_inserts_and_point_queries() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(1000)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    let started = std::time::Instant::now();
    for i in 0..200u64 {
        let (x, y) = ((i % 20) as f64 / 20.0, (i / 20) as f64 / 20.0);
        let obj = Object::new(Oid(i), Rect::new(x, y, x + 0.01, y + 0.01));
        client.insert(obj).unwrap();
    }
    for i in 0..200u64 {
        let p = Point::new(
            (i % 20) as f64 / 20.0 + 0.005,
            (i / 20) as f64 / 20.0 + 0.005,
        );
        assert_eq!(oids(client.point_query(p).unwrap()), [i]);
    }
    let took = started.elapsed();
    assert_eq!(cluster.num_servers(), 1, "sized not to split");
    assert!(took.as_millis() < 400, "400 operations took {took:?}");
    cluster.shutdown();
}

/// An insert reads exactly the frames it is owed: when it returns, the
/// acknowledgment of an out-of-range path has corrected the image — no
/// grace window to outwait, nothing left behind on the listener.
#[test]
fn an_insert_returns_with_its_acknowledgment_absorbed() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(20)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    let mut corrected = 0;
    for i in 0..120u64 {
        let (x, y) = ((i % 10) as f64 / 10.0, ((i / 10) % 10) as f64 / 10.0);
        let known = client.image().known_servers();
        let obj = Object::new(Oid(i), Rect::new(x, y, x + 0.05, y + 0.05));
        client.insert(obj).unwrap();
        assert_eq!(client.owed_frames(), 0, "insert {i} left a frame unread");
        corrected += usize::from(client.image().known_servers() > known);
    }
    assert!(cluster.num_servers() >= 4, "expected splits");
    assert!(
        corrected >= 2,
        "out-of-range inserts never taught the image"
    );
    assert_eq!(cluster.delivery_failures(), 0);
    cluster.shutdown();
}

/// Objects with a NaN x, inserted across data-node splits, used to panic
/// the split's sort inside the node's thread. The node now splits and keeps
/// serving: every insert returns, every well-formed object is found, and
/// no frame goes undelivered.
#[test]
fn nan_objects_across_a_split_keep_the_node_serving() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(20)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    let data = DatasetSpec::new(200, Distribution::Uniform).generate(3);
    let mut objects = Vec::new();
    for (i, r) in data.iter().enumerate() {
        let mut r = *r;
        if i % 7 == 0 {
            r.xmin = f64::NAN;
            r.xmax = f64::NAN;
        }
        let obj = Object::new(Oid(i as u64), r);
        client.insert(obj).unwrap();
        objects.push(obj);
    }
    assert!(cluster.num_servers() > 1, "no split happened");
    for obj in objects.iter().filter(|o| !o.mbb.xmin.is_nan()) {
        let got = client.point_query(obj.mbb.center()).unwrap();
        assert!(got.iter().any(|o| o.oid == obj.oid), "lost {:?}", obj.oid);
    }
    assert_eq!(cluster.delivery_failures(), 0);
    cluster.shutdown();
}

/// A split at the paper's capacity carries one `SplitCreate` of about
/// 1 500 objects (≈ 60 KB) to the new server, and the runner is both its
/// writer and its reader. No write of it may wait on a reader (DESIGN.md
/// decision 13): one that blocked would wait out the 5 s frame timeout
/// and lose the frame. Every object is read back from the two servers.
#[test]
fn a_split_at_paper_capacity_crosses_a_link_only_its_writer_reads() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(3000)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    let data = DatasetSpec::new(3100, Distribution::Uniform).generate(11);
    let objects: Vec<Object> = (0u64..)
        .zip(data)
        .map(|(i, r)| Object::new(Oid(i), r))
        .collect();
    for obj in &objects {
        client.insert(*obj).unwrap();
    }
    client.quiesce().unwrap();
    assert!(cluster.num_servers() >= 2, "no split happened");
    let everything = client.window_query(Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap();
    assert_eq!(oids(everything), oids(objects));
    assert_eq!(cluster.delivery_failures(), 0);
    cluster.shutdown();
}

/// Two clients on two threads insert disjoint halves at once. The runner
/// serves one post at a time and drains it to quiescence, so a post that
/// arrives during another's cascade waits for it; and a server gets the
/// frame carried to it, so a client's post to the same server never
/// takes that frame's place. The structure the deployment hands back is
/// invariant-clean and holds every object once.
#[test]
fn concurrent_posts_wait_for_the_cascade_before_them() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(10)).unwrap();
    let objects: Vec<Object> = (0u64..)
        .zip(DatasetSpec::new(3_000, Distribution::Uniform).generate(11))
        .map(|(i, r)| Object::new(Oid(i), r))
        .collect();
    std::thread::scope(|scope| {
        for half in objects.chunks(1_500) {
            let mut client = NetClient::connect(&cluster).unwrap();
            scope.spawn(move || {
                for obj in half {
                    client.insert(*obj).unwrap();
                }
            });
        }
    });
    assert_eq!(cluster.delivery_failures(), 0);
    let mut served = cluster.into_cluster();
    served.check_invariants();
    assert_eq!(served.total_objects(), 3_000);
    let mut reader = Client::new(ClientId(1), Variant::ImClient, 0);
    let everything = reader.window_query(&mut served, Rect::new(0.0, 0.0, 1.0, 1.0));
    assert_eq!(oids(everything.results), oids(objects));
}

/// A full-space window over 20 000 objects at capacity 1 000 is answered
/// by some thirty servers, each report tens of kilobytes: the runner
/// gathers a client's frames through a drain, and this answer passes its
/// batch cap several times. Each batch is written and booked when it
/// passes the cap, so the answer streams to its client; every oid comes
/// back, and no frame is lost.
#[test]
fn an_answer_past_the_batch_cap_streams_whole() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(1000)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    let data = DatasetSpec::new(20_000, Distribution::Uniform).generate(5);
    let objects: Vec<Object> = (0u64..)
        .zip(data)
        .map(|(i, r)| Object::new(Oid(i), r))
        .collect();
    for obj in &objects {
        client.insert(*obj).unwrap();
    }
    assert!(
        cluster.num_servers() >= 16,
        "{} servers",
        cluster.num_servers()
    );
    let everything = client.window_query(Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap();
    assert_eq!(oids(everything), oids(objects));
    assert_eq!(cluster.delivery_failures(), 0);
    cluster.shutdown();
}
