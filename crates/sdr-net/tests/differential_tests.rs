//! The substrate differential: one client's operations on the simulator
//! and on a TCP deployment leave the same structure and the same message
//! counts.
//!
//! Both substrates run one delivery loop, `Cluster::drain_with`: the TCP
//! runner owns a `Cluster` and only carries its messages over sockets. So
//! one IMCLIENT client that quiesces after every operation must meet the
//! same order on both: equal structure hashes, server and object counts,
//! `Stats` totals and per-category counts, and — under a fault plan —
//! equal fault counts. The TCP deployment hands its cluster back with
//! `NetCluster::into_cluster`, and the invariants are checked on it.

use sdr_core::{
    Client, ClientId, Cluster, FaultPlan, MsgCategory, Object, Oid, QueryKind, SdrConfig, Stats,
    Variant,
};
use sdr_geom::{Point, Rect};
use sdr_net::{NetClient, NetCluster};
use sdr_workload::{DatasetSpec, Distribution, WindowSpec};

/// The dataset seed of every scenario.
const SEED: u64 = 11;

/// One operation of a scenario.
#[derive(Clone, Copy)]
enum Op {
    Insert(Object),
    Delete(Object),
    Point(Point),
    Window(Rect),
}

/// `inserts` objects of `distribution`, then deletes of every second
/// one until `deletes` are gone.
fn scenario(distribution: Distribution, inserts: usize, deletes: usize) -> Vec<Op> {
    let objects: Vec<Object> = DatasetSpec::new(inserts, distribution)
        .generate(SEED)
        .into_iter()
        .enumerate()
        .map(|(i, r)| Object::new(Oid(i as u64), r))
        .collect();
    let gone = objects.iter().step_by(2).take(deletes).copied();
    objects
        .iter()
        .copied()
        .map(Op::Insert)
        .chain(gone.map(Op::Delete))
        .collect()
}

/// Everything the two substrates must agree on.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    structure_hash: u64,
    servers: usize,
    objects: usize,
    refused: u64,
    /// Total, per category, to clients, then per server.
    stats: Vec<u64>,
}

fn outcome(cluster: &mut Cluster) -> Outcome {
    cluster.check_invariants();
    let s: &Stats = &cluster.stats;
    let mut stats = vec![s.total()];
    stats.extend(MsgCategory::ALL.map(|c| s.category(c)));
    stats.push(s.to_clients());
    stats.extend_from_slice(s.per_server());
    Outcome {
        structure_hash: cluster.structure_hash(),
        servers: cluster.num_servers(),
        objects: cluster.total_objects(),
        refused: s.refused(),
        stats,
    }
}

/// Runs `ops` on the simulator; with `faults`, under that plan and seed.
fn simulate(capacity: usize, ops: &[Op], faults: Option<(&FaultPlan, u64)>) -> Cluster {
    let mut cluster = Cluster::new(SdrConfig::with_capacity(capacity));
    if let Some((plan, seed)) = faults {
        cluster.install_faults(plan, seed);
    }
    // A `NetClient`'s core starts from seed 0 too.
    let mut client = Client::new(ClientId(0), Variant::ImClient, 0);
    for op in ops {
        let mut over = client.over(&mut cluster);
        let done = match *op {
            Op::Insert(obj) => over.insert(obj).map(|_| ()),
            Op::Delete(obj) => over.delete(obj).map(|_| ()),
            Op::Point(p) => over.query(QueryKind::Point(p)).map(|_| ()),
            Op::Window(w) => over.query(QueryKind::Window(w)).map(|_| ()),
        };
        // A fault may fail the operation; the next one goes on, as on TCP.
        // Without one, every operation completes.
        if faults.is_none() {
            done.unwrap();
        }
    }
    cluster
}

/// Runs `ops` on a TCP deployment and hands its servers back. An
/// operation a fault failed still quiesces fully before the next starts,
/// as the simulator's drain does.
fn deploy(capacity: usize, ops: &[Op], faults: Option<(&FaultPlan, u64)>) -> NetCluster {
    let config = SdrConfig::with_capacity(capacity);
    let net = match faults {
        Some((plan, seed)) => NetCluster::launch_with_faults(config, plan, seed),
        None => NetCluster::launch(config),
    }
    .unwrap();
    let mut client = NetClient::connect(&net).unwrap();
    for op in ops {
        let done = match *op {
            Op::Insert(obj) => client.insert(obj),
            Op::Delete(obj) => client.delete(obj).map(|_| ()),
            Op::Point(p) => client.point_query(p).map(|_| ()),
            Op::Window(w) => client.window_query(w).map(|_| ()),
        };
        if faults.is_none() {
            done.unwrap();
        }
        while client.quiesce().is_err() {}
    }
    net
}

fn differential(capacity: usize, ops: &[Op]) {
    let sim = outcome(&mut simulate(capacity, ops, None));
    let net = deploy(capacity, ops, None);
    assert_eq!(net.delivery_failures(), 0);
    assert_eq!(outcome(&mut net.into_cluster()), sim);
    assert_eq!(sim.refused, 0);
}

#[test]
fn uniform_inserts_build_the_same_structure_on_both_substrates() {
    differential(10, &scenario(Distribution::Uniform, 3_000, 0));
}

#[test]
fn skewed_inserts_build_the_same_structure_on_both_substrates() {
    differential(10, &scenario(Distribution::default_skewed(), 3_000, 0));
}

#[test]
fn uniform_deletes_leave_the_same_structure_on_both_substrates() {
    differential(8, &scenario(Distribution::Uniform, 2_000, 1_000));
}

#[test]
fn skewed_deletes_leave_the_same_structure_on_both_substrates() {
    differential(8, &scenario(Distribution::default_skewed(), 2_000, 1_000));
}

/// The paper's capacity and scale (≈ 50 servers each); ~2.5 s a pair in
/// release, so CI runs them there (`-- --ignored`).
#[test]
#[ignore = "100 000 inserts a substrate: run in release"]
fn the_paper_scale_builds_the_same_structure_on_both_substrates() {
    for distribution in [Distribution::Uniform, Distribution::default_skewed()] {
        differential(3_000, &scenario(distribution, 100_000, 0));
    }
}

/// `chaos_tests`' headline plan: drops and duplicates of query, reply
/// and IAM traffic, and delays on every category.
fn mixed_plan() -> FaultPlan {
    FaultPlan::none()
        .with_drop_for(MsgCategory::Query, 0.02)
        .with_drop_for(MsgCategory::Reply, 0.02)
        .with_drop_for(MsgCategory::Iam, 0.05)
        .with_dup_for(MsgCategory::Reply, 0.02)
        .with_dup_for(MsgCategory::Iam, 0.02)
        .with_delay(0.02)
        .with_max_delay(4)
}

/// Runs `ops` under the mixed plan on both substrates: the same faults,
/// and the same structure and counts.
fn chaos_differential(ops: &[Op]) {
    let plan = mixed_plan();
    let faults = Some((&plan, 0xFA57));
    let mut sim = simulate(30, ops, faults);
    let net = deploy(30, ops, faults);
    let counts = net.fault_counts();
    assert!(counts.total() > 0, "no fault injected");
    assert!(net.delivery_failures() > 0, "no loss was reported");
    assert_eq!(counts, sim.fault_counts());
    assert_eq!(outcome(&mut net.into_cluster()), outcome(&mut sim));
}

/// One plan and seed inject the same faults on both substrates, and the
/// structures they leave are the same.
#[test]
fn one_fault_plan_draws_the_same_faults_on_both_substrates() {
    chaos_differential(&scenario(Distribution::Uniform, 1_500, 0));
}

/// `chaos_tests`' shape of workload, in a fixed order that no outcome
/// changes: of every ten steps six insert, one deletes a live object and
/// two query a point at a live object's centre, and one queries a window.
fn mixed_ops(steps: usize) -> Vec<Op> {
    let rects = DatasetSpec::new(steps, Distribution::Uniform).generate(SEED);
    let windows = WindowSpec::paper_default().generate(steps, SEED);
    let mut live: Vec<Object> = Vec::new();
    let mut ops = Vec::new();
    for (step, (rect, window)) in rects.into_iter().zip(windows).enumerate() {
        let pick = step * 7 % live.len().max(1);
        ops.push(match step % 10 {
            _ if live.len() < 8 => {
                live.push(Object::new(Oid(step as u64), rect));
                Op::Insert(live[live.len() - 1])
            }
            0..=5 => {
                live.push(Object::new(Oid(step as u64), rect));
                Op::Insert(live[live.len() - 1])
            }
            6 => Op::Delete(live.swap_remove(pick)),
            7 | 8 => Op::Point(live[pick].mbb.center()),
            _ => Op::Window(window),
        });
    }
    ops
}

/// Queries and deletes too: an operation a loss fails still folds every
/// frame owed to it before it returns, as the simulator's client folds
/// its whole drain, so the images — and the next operation's first hop —
/// stay the same on both substrates.
#[test]
fn one_fault_plan_draws_the_same_faults_over_queries_and_deletes() {
    chaos_differential(&mixed_ops(1_500));
}
