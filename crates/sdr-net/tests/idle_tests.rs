//! An idle deployment costs next to no CPU: its one runner waits for an
//! announcement, and the timeout after which it sweeps every server for a
//! connection nobody announced doubles while nothing arrives. One test
//! function, so this process holds only this deployment.

use sdr_core::{Object, Oid, SdrConfig};
use sdr_geom::Rect;
use sdr_net::{NetClient, NetCluster};
use std::time::{Duration, Instant};

/// This process's user + system CPU time so far (`None` off Linux), from
/// `/proc/self/stat`: clock ticks of 10 ms (`USER_HZ` is 100 on Linux).
fn cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // After the command name, which may hold spaces, the fields run from
    // the state (field 3): utime is field 14, stime field 15.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some(Duration::from_millis((ticks(11)? + ticks(12)?) * 10))
}

#[test]
fn a_hundred_idle_servers_use_under_a_tenth_of_a_core() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(10)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    for i in 0..800u64 {
        let (x, y) = ((i % 40) as f64 / 40.0, (i / 40) as f64 / 20.0);
        let obj = Object::new(Oid(i), Rect::new(x, y, x + 0.01, y + 0.01));
        client.insert(obj).unwrap();
    }
    client.quiesce().unwrap();
    let servers = cluster.num_servers();
    assert!(servers >= 100, "expected ≥ 100 servers, got {servers}");

    let Some(before) = cpu_time() else {
        return cluster.shutdown();
    };
    let started = Instant::now();
    #[expect(
        clippy::disallowed_methods,
        reason = "the test measures what an idle deployment costs over a stretch of time"
    )]
    std::thread::sleep(Duration::from_secs(2));
    let used = cpu_time().expect("read once") - before;
    let share = used.as_secs_f64() / started.elapsed().as_secs_f64();
    assert!(
        share <= 0.10,
        "{servers} idle servers used {:.1} % of a core ({used:?})",
        share * 100.0
    );
    cluster.shutdown();
}
