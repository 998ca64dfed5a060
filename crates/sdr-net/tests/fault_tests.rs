//! Regression tests for the delivery bugs the fault-injection layer
//! flushed out of the TCP deployment, plus deterministic chaos over the
//! wire.
//!
//! Each loss test pins the *fixed* behavior: an injected or provoked
//! loss must surface as a counted delivery failure and a fast
//! [`NetError::Undeliverable`] — never a silent drop (`eprintln!` was
//! the old failure path) and never a hang out to the full client
//! timeout. The delay, duplicate and reorder tests pin the other half:
//! a fault that only moves or repeats a message loses nothing.

use sdr_core::msg::{Endpoint, ImageHolder, Insertion, Message, Payload};
use sdr_core::{FaultKind, FaultPlan, MsgCategory, Object, Oid, SdrConfig, ServerId};
use sdr_geom::{Point, Rect};
use sdr_net::{NetClient, NetCluster, NetError, NetOptions};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Writes a raw frame nobody counted — `prefix` as the length, then
/// `body` — to server 0, and waits until the node has booked it: the one
/// wait here that is not for quiescence, so it polls.
fn raw_frame_is_counted(cluster: &NetCluster, prefix: [u8; 4], body: &[u8]) {
    let before = cluster.delivery_failures();
    let port = cluster.server_port(ServerId(0)).expect("server 0 bound");
    let mut raw = TcpStream::connect(("127.0.0.1", port)).unwrap();
    raw.write_all(&prefix).unwrap();
    raw.write_all(body).unwrap();
    drop(raw);
    let started = Instant::now();
    while cluster.delivery_failures() == before {
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "a frame that cannot be read was not counted"
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "the one wait here that is not for quiescence: nothing signals a frame the node failed to read"
        )]
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn grid_insert(client: &mut NetClient, n: u64) {
    for i in 0..n {
        let x = (i % 10) as f64 / 10.0;
        let y = ((i / 10) % 10) as f64 / 10.0;
        client
            .insert(Object::new(Oid(i), Rect::new(x, y, x + 0.05, y + 0.05)))
            .unwrap();
    }
}

/// Bug 1 regression: a truncated frame used to leave the node's read
/// path without any record (and, when solicited, leaked `in_flight`
/// forever). Now it is counted as a delivery failure, surfaces to the
/// next client operation as `Undeliverable`, and the deployment keeps
/// serving afterwards.
#[test]
fn truncated_frame_is_counted_and_does_not_hang() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(25)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    grid_insert(&mut client, 30);
    client.quiesce().unwrap();
    assert_eq!(cluster.delivery_failures(), 0);

    // A raw, truncated frame: the length prefix promises 64 bytes, the
    // connection dies after 3.
    raw_frame_is_counted(&cluster, 64u32.to_le_bytes(), &[1, 2, 3]);

    // The failure is reported to the next operation rather than
    // swallowed or turned into a timeout...
    let started = Instant::now();
    let err = client.insert(Object::new(Oid(900), Rect::new(0.4, 0.4, 0.41, 0.41)));
    assert!(
        matches!(err, Err(NetError::Undeliverable)),
        "expected Undeliverable, got {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "failure report took {:?} — hang-until-timeout behavior",
        started.elapsed()
    );

    // ...and the deployment is still healthy: the same operation
    // succeeds on retry, and queries still answer.
    client
        .insert(Object::new(Oid(900), Rect::new(0.4, 0.4, 0.41, 0.41)))
        .unwrap();
    let hits = client.point_query(Point::new(0.405, 0.405)).unwrap();
    assert!(hits.iter().any(|o| o.oid == Oid(900)));
    cluster.shutdown();
}

/// A length prefix is four bytes anyone can send: 60 MiB promised and
/// three bytes delivered is the same counted loss as any truncated frame
/// (`read_body`'s unit test pins that nothing near 60 MiB is allocated
/// for it), and the node serves on.
#[test]
fn huge_length_prefix_is_a_counted_truncation() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(25)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    raw_frame_is_counted(&cluster, (60u32 << 20).to_be_bytes(), &[1, 2, 3]);
    assert!(matches!(client.quiesce(), Err(NetError::Undeliverable)));
    grid_insert(&mut client, 5);
    assert_eq!(
        client.point_query(Point::new(0.025, 0.025)).unwrap().len(),
        1
    );
    cluster.shutdown();
}

/// The encoder always emits the exact length, so a body that continues
/// after a complete message has a prefix that disagrees with its content:
/// the frame is a counted loss and the message in front of the extra
/// byte — a well-formed insert — is not acted on.
#[test]
fn bytes_after_a_complete_message_are_a_counted_corruption() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(25)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    let insert = Message {
        from: Endpoint::Server(ServerId(0)),
        to: Endpoint::Server(ServerId(0)),
        payload: Payload::InsertAtLeaf {
            ins: Insertion::new(
                Object::new(Oid(77), Rect::new(0.4, 0.4, 0.41, 0.41)),
                ImageHolder::Nobody,
            ),
            initial: false,
        },
    };
    let mut body = sdr_net::encode_message(&insert).split_off(4);
    body.push(0);
    raw_frame_is_counted(&cluster, (body.len() as u32).to_be_bytes(), &body);
    assert!(matches!(client.quiesce(), Err(NetError::Undeliverable)));
    let hits = client.point_query(Point::new(0.405, 0.405)).unwrap();
    assert!(hits.is_empty(), "the corrupt frame was handled: {hits:?}");
    cluster.shutdown();
}

/// Bug 2+4 regression: a listener dying mid-run used to mean 50 connect
/// attempts, an `eprintln!`, a silently dropped message, and a client
/// stuck until its timeout misreported the cause. Now the exhausted
/// retry ladder increments the delivery-failure counter and the client
/// fails fast with `Undeliverable`.
#[test]
fn dead_listener_reports_undeliverable_not_timeout() {
    let options = NetOptions {
        send_attempts: 3,
        ..NetOptions::default()
    };
    let cluster = NetCluster::launch_with(SdrConfig::with_capacity(20), options).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    client.timeout = Duration::from_secs(30);
    grid_insert(&mut client, 60);
    client.quiesce().unwrap();
    let servers = cluster.num_servers();
    assert!(servers >= 2, "need a split for this test, got {servers}");

    // Kill a server's directory entry: messages to it now exhaust their
    // (shortened) retry ladder.
    cluster.deregister_server(ServerId(1));

    // A full-space window query must traverse every server, so it is
    // guaranteed to hit the dead one.
    let started = Instant::now();
    let err = client.window_query(Rect::new(0.0, 0.0, 1.0, 1.0));
    let elapsed = started.elapsed();
    assert!(
        matches!(err, Err(NetError::Undeliverable)),
        "expected Undeliverable, got {err:?}"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "failure took {elapsed:?}: retry ladder not bounded by send_attempts"
    );
    assert!(cluster.delivery_failures() >= 1);
    cluster.shutdown();
}

/// Bug 1 (the `in_flight` leak), driven by fault injection instead of a
/// raw socket: corrupting every inbound Insert frame used to increment
/// `in_flight` on the send side with no matching decrement, so quiesce
/// spun until the client timeout. With the decrement restored, the
/// corruption is counted and reported as soon as it is recorded.
#[test]
fn corrupt_inbound_frames_fail_fast_instead_of_leaking_in_flight() {
    let plan = FaultPlan::none().with_corrupt_for(MsgCategory::Insert, 1.0);
    let options = NetOptions {
        faults: Some((plan, 0xC0)),
        ..NetOptions::default()
    };
    let cluster = NetCluster::launch_with(SdrConfig::with_capacity(25), options).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    client.timeout = Duration::from_secs(30);

    let started = Instant::now();
    let err = client.insert(Object::new(Oid(0), Rect::new(0.1, 0.1, 0.2, 0.2)));
    let elapsed = started.elapsed();
    assert!(
        matches!(err, Err(NetError::Undeliverable)),
        "expected Undeliverable, got {err:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "corruption took {elapsed:?} to surface: in_flight leak is back"
    );
    assert!(cluster.delivery_failures() >= 1);
    let counts = cluster.fault_counts();
    assert!(counts.get(FaultKind::Corrupt, MsgCategory::Insert) >= 1);
    // The leak is what this test really pins: a counted corruption must
    // leave the in-flight accounting balanced, not permanently positive.
    // The node records the failure (which wakes the client) before it
    // settles the frame, so join the node threads before reading.
    cluster.shutdown();
    assert!(
        cluster.in_flight() <= 0,
        "in_flight stuck at {} after corrupted frame",
        cluster.in_flight()
    );
}

/// Bug 3 regression: delayed IAM traffic (insert acks) used to race a
/// zero-length grace window — the ack arrived after `insert` stopped
/// listening and was dropped on the floor, leaving the image
/// permanently stale. Quiescence flushes the delay lane, the insert then
/// reads the frames it is owed, and stray-ack folding in every receive
/// loop absorbs whatever lands later.
#[test]
fn delayed_acks_still_correct_the_image() {
    let plan = FaultPlan::none()
        .with_delay_for(MsgCategory::Iam, 1.0)
        .with_max_delay(2);
    let options = NetOptions {
        faults: Some((plan, 0xDE1)),
        ..NetOptions::default()
    };
    let cluster = NetCluster::launch_with(SdrConfig::with_capacity(20), options).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();

    // Enough inserts to force splits, out-of-range paths, and therefore
    // (delayed) acks carrying image corrections.
    grid_insert(&mut client, 80);
    client.quiesce().unwrap();
    assert!(cluster.num_servers() >= 2);

    // Delay never loses information: no delivery failures, and every
    // object remains reachable through the (ack-corrected) image.
    assert_eq!(cluster.delivery_failures(), 0);
    for i in [0u64, 17, 42, 79] {
        let x = (i % 10) as f64 / 10.0 + 0.025;
        let y = ((i / 10) % 10) as f64 / 10.0 + 0.025;
        let hits = client.point_query(Point::new(x, y)).unwrap();
        assert!(
            hits.iter().any(|o| o.oid == Oid(i)),
            "object {i} unreachable: delayed ack lost"
        );
    }
    assert!(
        cluster.fault_counts().of(FaultKind::Delay) >= 1,
        "the delay plan never fired"
    );
    cluster.shutdown();
}

/// Chaos over the wire: seeded message drops are counted, reported as
/// errors (never silently absorbed into a wrong answer), and the
/// deployment survives to serve correct answers once the plan's losses
/// are accounted for.
#[test]
fn seeded_drop_plan_reports_every_loss() {
    let plan = FaultPlan::none().with_drop_for(MsgCategory::Reply, 0.3);
    let options = NetOptions {
        faults: Some((plan, 0x10AD)),
        ..NetOptions::default()
    };
    let cluster = NetCluster::launch_with(SdrConfig::with_capacity(25), options).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    client.timeout = Duration::from_secs(2);

    // Build fault-free traffic first? No — replies are client-bound
    // only, so inserts (acks are Iam, not Reply) build fine.
    grid_insert(&mut client, 60);
    client.quiesce().unwrap();

    let mut reported = 0u32;
    let mut completed = 0u32;
    for i in 0..20u64 {
        let x = (i % 10) as f64 / 10.0 + 0.025;
        let y = ((i / 10) % 10) as f64 / 10.0 + 0.025;
        match client.point_query(Point::new(x, y)) {
            Ok(hits) => {
                completed += 1;
                // A query that completed its sender accounting is
                // complete: the object must be in the answer.
                assert!(
                    hits.iter().any(|o| o.oid == Oid(i)),
                    "silently incomplete answer for object {i}"
                );
            }
            Err(NetError::Undeliverable) | Err(NetError::Timeout) => reported += 1,
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }
    assert!(
        reported >= 1,
        "30% reply loss over 20 queries was never reported"
    );
    assert!(
        completed >= 1,
        "every query failed: drop rate not per-message"
    );
    let counts = cluster.fault_counts();
    assert!(counts.get(FaultKind::Drop, MsgCategory::Reply) >= 1);
    cluster.shutdown();
}

/// Duplicates and reorders lose nothing over the wire either: duplicate
/// acks are read as owed frames and absorbed twice, and a reordered
/// query, report or ack is held for one send event, then goes out. No
/// delivery fails and every object is found.
#[test]
fn duplicated_and_reordered_traffic_loses_nothing() {
    let plan = FaultPlan::none()
        .with_dup_for(MsgCategory::Iam, 0.3)
        .with_reorder_for(MsgCategory::Query, 0.2)
        .with_reorder_for(MsgCategory::Reply, 0.2)
        .with_reorder_for(MsgCategory::Iam, 0.2);
    let options = NetOptions {
        faults: Some((plan, 0xD0B)),
        ..NetOptions::default()
    };
    let cluster = NetCluster::launch_with(SdrConfig::with_capacity(20), options).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    grid_insert(&mut client, 80);
    client.quiesce().unwrap();
    assert!(cluster.num_servers() >= 2);
    for i in 0..20u64 {
        let x = (i % 10) as f64 / 10.0 + 0.025;
        let y = ((i / 10) % 10) as f64 / 10.0 + 0.025;
        let hits = client.point_query(Point::new(x, y)).unwrap();
        assert!(hits.iter().any(|o| o.oid == Oid(i)), "object {i} not found");
    }
    assert_eq!(cluster.delivery_failures(), 0);
    let counts = cluster.fault_counts();
    assert!(
        counts.of(FaultKind::Duplicate) >= 1,
        "no duplicate injected"
    );
    assert!(counts.of(FaultKind::Reorder) >= 1, "no reorder injected");
    cluster.shutdown();
}
