//! A deployment runs exactly one runner thread, and `NetCluster::shutdown`
//! returns with it joined. One test function, so this process has no
//! other deployment's `sdr-runner` thread to confuse the count.

use sdr_core::{Object, Oid, SdrConfig, ServerId};
use sdr_geom::Rect;
use sdr_net::{NetClient, NetCluster};
use std::time::{Duration, Instant};

/// Live threads of this process named `sdr-*` (`None` off Linux): the
/// runner, or any other thread the deployment would start.
fn deployment_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let names = tasks.filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok());
    Some(names.filter(|n| n.starts_with("sdr-")).count())
}

/// `sdr-*` threads left once joined threads have left `/proc`:
/// `join` returns when the kernel clears the thread's tid, a moment
/// before it unlinks the task entry, so a count taken at once reads 1
/// in about one run in fifty. A thread that was not joined stays.
fn deployment_threads_after_join() -> usize {
    let deadline = Instant::now() + Duration::from_millis(200);
    loop {
        match deployment_threads().unwrap_or(0) {
            n if n > 0 && Instant::now() < deadline => std::thread::yield_now(),
            n => return n,
        }
    }
}

fn grown_cluster() -> NetCluster {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(20)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    for i in 0..100u64 {
        let (x, y) = ((i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0);
        let obj = Object::new(Oid(i), Rect::new(x, y, x + 0.05, y + 0.05));
        client.insert(obj).unwrap();
    }
    let servers = cluster.num_servers();
    assert!(servers >= 4, "expected splits, got {servers}");
    if let Some(n) = deployment_threads() {
        assert_eq!(n, 1, "one runner thread serves all {servers} servers");
    }
    cluster
}

#[test]
fn shutdown_joins_every_node_and_is_idempotent() {
    let cluster = grown_cluster();
    cluster.shutdown();
    assert_eq!(
        deployment_threads_after_join(),
        0,
        "the runner outlived shutdown"
    );
    assert_eq!(
        cluster.delivery_failures(),
        0,
        "a wake-up was booked as a lost frame"
    );

    // A second call and the `Drop` find nothing left to stop.
    let started = Instant::now();
    cluster.shutdown();
    drop(cluster);
    assert!(started.elapsed() < Duration::from_millis(10));

    // A server taken down is still the runner's, and
    // `Drop` alone is a full shutdown.
    let cluster = grown_cluster();
    cluster.deregister_server(ServerId(1));
    drop(cluster);
    assert_eq!(
        deployment_threads_after_join(),
        0,
        "a deregistered server kept the runner from being joined"
    );
}
