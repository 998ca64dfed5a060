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
use sdr_core::{FaultKind, FaultPlan, MsgCategory, Object, OcTable, Oid, SdrConfig, ServerId};
use sdr_geom::{Point, Rect};
use sdr_net::{NetClient, NetCluster, NetError};
use sdr_workload::{DatasetSpec, Distribution, WindowSpec};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Writes a raw frame nobody counted — `prefix` as the length, then
/// `body` — to server 0's port, which is the deployment's one listener,
/// and waits until the runner has booked it.
fn raw_frame_is_counted(cluster: &NetCluster, prefix: [u8; 4], body: &[u8]) {
    let before = cluster.delivery_failures();
    let port = cluster.server_port(ServerId(0)).expect("server 0 bound");
    let mut raw = TcpStream::connect(("127.0.0.1", port)).unwrap();
    raw.write_all(&prefix).unwrap();
    raw.write_all(body).unwrap();
    drop(raw);
    wait_until("a frame that cannot be acted on was not counted", || {
        cluster.delivery_failures() != before
    });
}

/// Polls `done` for up to 2 s: the one wait here that is not for
/// quiescence, since nothing signals a frame no client sent.
fn wait_until(failure: &str, done: impl Fn() -> bool) {
    let started = Instant::now();
    while !done() {
        assert!(started.elapsed() < Duration::from_secs(2), "{failure}");
        #[expect(
            clippy::disallowed_methods,
            reason = "the one wait here that is not for quiescence: nothing signals a frame no client sent"
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
/// (`node::tests` pins that the reassembly buffer holds only the bytes
/// that came), and the node serves on.
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

/// A well-formed frame a server cannot act on is refused, not a panic.
/// Server 0 never hosts a routing node, so an `InsertDescend` addressed
/// to it is booked like a corrupt frame: one delivery failure, and the
/// frame's `in_flight` settled. The runner serves on; a handler that
/// panicked here used to kill its node's thread and poison the lock
/// that serialised handling.
#[test]
fn refused_frame_is_counted_and_the_node_serves_on() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(25)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    grid_insert(&mut client, 30);
    client.quiesce().unwrap();
    assert_eq!((cluster.delivery_failures(), cluster.in_flight()), (0, 0));

    let obj = Object::new(Oid(900), Rect::new(0.4, 0.4, 0.41, 0.41));
    let descend = Message {
        from: Endpoint::Server(ServerId(1)),
        to: Endpoint::Server(ServerId(0)),
        payload: Payload::InsertDescend {
            ins: Insertion::new(obj, ImageHolder::Nobody),
            oc: OcTable::new(),
            new_dr: None,
        },
    };
    let frame = sdr_net::encode_message(&descend);
    let (prefix, body) = frame.split_at(4);
    raw_frame_is_counted(&cluster, prefix.try_into().unwrap(), body);
    // Nobody sent the frame, so its one settle leaves the count at -1.
    wait_until("the refused frame's in_flight was not settled", || {
        cluster.in_flight() < 0
    });
    assert_eq!((cluster.delivery_failures(), cluster.in_flight()), (1, -1));

    // A client connecting now starts at server 0, and the runner serves
    // it.
    let mut late = NetClient::connect(&cluster).unwrap();
    late.insert(obj).unwrap();
    assert_eq!(
        late.point_query(Point::new(0.405, 0.405)).unwrap(),
        vec![obj]
    );
    assert_eq!(cluster.delivery_failures(), 1);
    cluster.shutdown();
    assert!(
        cluster.in_flight() <= 0,
        "in_flight stuck at {}",
        cluster.in_flight()
    );
}

/// Bug 2+4 regression: a server's listener dying mid-run (now a server
/// taken down: a deployment has one listener) used to mean 50 connect
/// attempts, an `eprintln!`, a silently dropped message, and a client
/// stuck until its timeout misreported the cause. Now the frame for it
/// fails at once, increments the delivery-failure counter, and the client
/// fails fast with `Undeliverable`.
#[test]
fn dead_listener_reports_undeliverable_not_timeout() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(20)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    client.timeout = Duration::from_secs(30);
    grid_insert(&mut client, 60);
    client.quiesce().unwrap();
    let servers = cluster.num_servers();
    assert!(servers >= 2, "need a split for this test, got {servers}");

    // Take a server down: messages to it now fail at once.
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
        elapsed < Duration::from_secs(1),
        "failure took {elapsed:?}: a frame waited on its missing listener"
    );
    assert!(cluster.delivery_failures() >= 1);
    cluster.shutdown();
}

/// A client's post to a server that is down fails at its own write, and
/// the client settles it there: one counted failure, nothing left in
/// flight, and no wait on the runner. A server that is down, or that no
/// split allocated, has no port.
#[test]
fn a_post_to_a_downed_server_fails_and_settles_at_once() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(20)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    cluster.deregister_server(ServerId(0));
    assert_eq!(cluster.server_port(ServerId(0)), None);
    assert_eq!(
        cluster.server_port(ServerId(1)),
        None,
        "no split allocated it"
    );

    let started = Instant::now();
    let got = client.insert(Object::new(Oid(1), Rect::new(0.1, 0.1, 0.2, 0.2)));
    let elapsed = started.elapsed();
    assert!(matches!(got, Err(NetError::Undeliverable)), "got {got:?}");
    assert!(
        elapsed < Duration::from_secs(1),
        "failure took {elapsed:?}: the post waited on its server"
    );
    assert_eq!((cluster.delivery_failures(), cluster.in_flight()), (1, 0));
    cluster.shutdown();
}

/// A client that leaves while reports are still owed to it must not
/// stall the others, nor fail them. Its account and link leave with it,
/// so each report to it fails at once: counted, and booked to it alone. A retry ladder used to stall handling
/// ≈ 2.45 s per such report, and the other client's quiescence waited
/// out all of them (44 s for 18 reports).
///
/// A client that stops waiting at once can still find its whole answer
/// read (the runner may finish the fan-out before the client checks its
/// deadline), or leave only after every report was written to its link,
/// so clients leave one after another until one has left reports behind.
#[test]
fn a_client_that_leaves_with_reports_owed_does_not_stall_the_deployment() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(20)).unwrap();
    let mut stayer = NetClient::connect(&cluster).unwrap();
    grid_insert(&mut stayer, 100);
    stayer.quiesce().unwrap();
    let servers = cluster.num_servers();
    assert!(servers >= 4, "need a wide fan-out, got {servers} servers");

    for leavers in 1.. {
        assert!(leavers <= 50, "no client left with reports owed");
        // The query goes out, the client stops waiting at once and leaves.
        let mut leaver = NetClient::connect(&cluster).unwrap();
        leaver.timeout = Duration::ZERO;
        let got = leaver.window_query(Rect::new(0.0, 0.0, 1.0, 1.0));
        assert!(matches!(got, Ok(_) | Err(NetError::Timeout)), "got {got:?}");
        drop(leaver);

        // Each lost report is booked to the leaver alone, so the stayer
        // never sees `Undeliverable`.
        let started = Instant::now();
        let quiet = stayer.quiesce();
        assert!(quiet.is_ok(), "the stayer saw {quiet:?}");
        let settled = started.elapsed();
        assert!(
            settled < Duration::from_secs(1),
            "the deployment took {settled:?} to settle after a client left"
        );
        if cluster.delivery_failures() > 0 {
            break;
        }
    }
    let hits = stayer.point_query(Point::new(0.425, 0.625)).unwrap();
    let oids: Vec<Oid> = hits.iter().map(|o| o.oid).collect();
    assert_eq!(oids, vec![Oid(64)]);
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
    let cluster =
        NetCluster::launch_with_faults(SdrConfig::with_capacity(25), &plan, 0xC0).unwrap();
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
    // settles the frame, so join the runner before reading.
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
    let cluster =
        NetCluster::launch_with_faults(SdrConfig::with_capacity(20), &plan, 0xDE1).unwrap();
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
    let cluster =
        NetCluster::launch_with_faults(SdrConfig::with_capacity(25), &plan, 0x10AD).unwrap();
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
    let cluster =
        NetCluster::launch_with_faults(SdrConfig::with_capacity(20), &plan, 0xD0B).unwrap();
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

/// Bug 5 regression: orphan reinserts raced the elimination's repair.
/// An elimination re-inserts its orphans on the deferred lane; TCP used
/// to send them last in the handler turn, which does not order them
/// after the repair chain that runs in later turns. A gathered rotation
/// could then overwrite a link a reinsert had just enlarged, so a later
/// delete answered `false` with no delivery failure and a window
/// returned objects already deleted. The lane now releases one reinsert
/// at a time, and only when nothing is in flight, on both substrates.
#[test]
fn reinserts_after_eliminations_wait_for_the_repair() {
    let everything = Rect::new(-1.0, -1.0, 2.0, 2.0);
    for seed in [33, 5, 7, 8] {
        let cluster = NetCluster::launch(SdrConfig::with_capacity(20)).unwrap();
        let mut client = NetClient::connect(&cluster).unwrap();
        let objects: Vec<Object> = DatasetSpec::new(1_200, Distribution::Uniform)
            .generate(seed)
            .into_iter()
            .enumerate()
            .map(|(i, r)| Object::new(Oid(i as u64), r))
            .collect();
        for obj in &objects {
            client.insert(*obj).unwrap();
        }
        // Hollow out one half of the space: eliminations, gathered
        // rotations and their orphan reinserts.
        let (gone, kept): (Vec<_>, Vec<_>) = objects.into_iter().partition(|o| o.mbb.xmax < 0.55);
        for obj in &gone {
            assert!(
                client.delete(*obj).unwrap(),
                "seed {seed}: delete {:?}",
                obj.oid
            );
        }
        for w in WindowSpec::paper_default()
            .generate(20, seed)
            .into_iter()
            .chain([everything])
        {
            let mut got: Vec<Oid> = client
                .window_query(w)
                .unwrap()
                .iter()
                .map(|o| o.oid)
                .collect();
            got.sort_unstable();
            let want: Vec<Oid> = kept
                .iter()
                .filter(|o| o.mbb.intersects(&w))
                .map(|o| o.oid)
                .collect();
            assert_eq!(got, want, "seed {seed}: window {w:?}");
        }
        assert_eq!(cluster.delivery_failures(), 0, "seed {seed}");
        cluster.shutdown();
    }
}

/// Writes `frames`, whole, then `tail`, on one raw connection to `port`,
/// and closes it.
fn raw_connection(port: u16, frames: &[Message], tail: &[u8]) {
    let mut raw = TcpStream::connect(("127.0.0.1", port)).unwrap();
    for msg in frames {
        raw.write_all(&sdr_net::encode_message(msg)).unwrap();
    }
    raw.write_all(tail).unwrap();
}

/// A client reads every connection to its port as a stream of frames,
/// not one frame per connection: two whole frames on one raw connection
/// are both read, in order, and the truncated third behind them is one
/// counted loss that ends the operation in progress as `Undeliverable`.
#[test]
fn a_client_connection_is_a_stream_of_frames() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(25)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    grid_insert(&mut client, 30);
    client.quiesce().unwrap();

    // A fresh client has no link yet, so the raw connection is the first
    // it accepts, and its frames come before the operation's report.
    let mut fresh = NetClient::connect(&cluster).unwrap();
    let node = sdr_core::NodeRef::data(ServerId(40));
    let ack = |dr| Message {
        from: Endpoint::Server(ServerId(0)),
        to: Endpoint::Server(ServerId(0)),
        payload: Payload::InsertAck {
            oid: Oid(1),
            trace: vec![sdr_core::Link::to_data(node.server, dr)],
        },
    };
    let (first, second) = (Rect::new(5.0, 5.0, 6.0, 6.0), Rect::new(7.0, 7.0, 8.0, 8.0));
    let truncated = [&64u32.to_be_bytes()[..], &[1, 2, 3]].concat();
    raw_connection(
        fresh.reply_port().unwrap(),
        &[ack(first), ack(second)],
        &truncated,
    );

    let before = cluster.delivery_failures();
    let started = Instant::now();
    let got = fresh.point_query(Point::new(0.025, 0.025));
    assert!(
        matches!(got, Err(NetError::Undeliverable)),
        "expected Undeliverable, got {got:?}"
    );
    assert!(started.elapsed() < Duration::from_secs(2));
    assert_eq!(cluster.delivery_failures(), before + 1);
    // Both acks were absorbed, the second last: a link replaces the one
    // it names.
    let link = fresh.image().links().find(|l| l.node == node);
    assert_eq!(link.map(|l| l.dr), Some(second));

    // The loss was the fresh client's alone: the other client's check
    // does not see it, and the deployment serves on.
    client.quiesce().unwrap();
    assert_eq!(
        client.point_query(Point::new(0.025, 0.025)).unwrap().len(),
        1
    );
    cluster.shutdown();
}

/// A 60 MiB length prefix on a client connection is a truncated frame
/// like any other: one counted loss (the reassembly buffer holds only the
/// bytes that came — `node::tests` pins that), and the client serves on.
#[test]
fn a_huge_length_prefix_to_a_client_is_a_counted_truncation() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(25)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    grid_insert(&mut client, 5);
    client.quiesce().unwrap();
    // A fresh client, so the raw connection is read before any report.
    let mut fresh = NetClient::connect(&cluster).unwrap();
    let huge = [&(60u32 << 20).to_be_bytes()[..], &[1, 2, 3]].concat();
    raw_connection(fresh.reply_port().unwrap(), &[], &huge);
    let got = fresh.point_query(Point::new(0.025, 0.025));
    assert!(
        matches!(got, Err(NetError::Undeliverable)),
        "expected Undeliverable, got {got:?}"
    );
    assert_eq!(cluster.delivery_failures(), 1);
    assert_eq!(
        fresh.point_query(Point::new(0.025, 0.025)).unwrap().len(),
        1
    );
    cluster.shutdown();
}

/// A well-formed `SetRouting` to a server without a routing node is
/// refused, and installs none: server 0 never hosts one, and an
/// `InsertDescend` sent after it is refused as well. Each refusal is one
/// delivery failure, and the node serves on.
#[test]
fn set_routing_to_a_data_only_server_is_refused() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(25)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    grid_insert(&mut client, 30);
    client.quiesce().unwrap();
    assert_eq!(cluster.delivery_failures(), 0);

    let everything = Rect::new(0.0, 0.0, 1.0, 1.0);
    let set_routing = Message {
        from: Endpoint::Server(ServerId(1)),
        to: Endpoint::Server(ServerId(0)),
        payload: Payload::SetRouting {
            node: sdr_core::RoutingNode {
                height: 1,
                dr: everything,
                left: sdr_core::Link::to_data(ServerId(0), everything),
                right: sdr_core::Link::to_data(ServerId(1), everything),
                parent: None,
                oc: OcTable::new(),
            },
        },
    };
    let frame = sdr_net::encode_message(&set_routing);
    let (prefix, body) = frame.split_at(4);
    raw_frame_is_counted(&cluster, prefix.try_into().unwrap(), body);
    assert_eq!(cluster.delivery_failures(), 1);

    let obj = Object::new(Oid(900), Rect::new(0.4, 0.4, 0.41, 0.41));
    let descend = Message {
        from: Endpoint::Server(ServerId(1)),
        to: Endpoint::Server(ServerId(0)),
        payload: Payload::InsertDescend {
            ins: Insertion::new(obj, ImageHolder::Nobody),
            oc: OcTable::new(),
            new_dr: None,
        },
    };
    let frame = sdr_net::encode_message(&descend);
    let (prefix, body) = frame.split_at(4);
    raw_frame_is_counted(&cluster, prefix.try_into().unwrap(), body);
    assert_eq!(cluster.delivery_failures(), 2);

    let mut late = NetClient::connect(&cluster).unwrap();
    late.insert(obj).unwrap();
    assert_eq!(
        late.point_query(Point::new(0.405, 0.405)).unwrap(),
        vec![obj]
    );
    assert_eq!(cluster.delivery_failures(), 2);
    cluster.shutdown();
}

/// No delivery escapes its draw, a message a server sends itself
/// included: such a message waits in the runner's queue, never touches a
/// socket, and still meets the fault plan when its turn takes it. Under a
/// plan that holds every insert message for one event (nothing is lost,
/// so each is drawn once and then delivered), raw frames grow one server
/// into two: server 1 holds the root and a data node, server 0 the other
/// data node, each over one of two clusters. Then an object just outside
/// each cluster goes to server 1's data node. Neither is covered there,
/// so each ascends to the root on the same server — a self-addressed
/// insert, which the cost model does not count. So the plan's draws
/// exceed the counted insert messages by at least those two, and they
/// equal the draws of the same frames posted to the simulator.
#[test]
fn a_message_a_node_sends_itself_meets_the_fault_plan() {
    let plan = FaultPlan::none().with_reorder_for(MsgCategory::Insert, 1.0);
    let config = SdrConfig::with_capacity(25);
    let at = |oid: u64, x: f64| Message {
        from: Endpoint::Server(ServerId(9)),
        to: Endpoint::Server(ServerId(9)),
        payload: Payload::InsertAtLeaf {
            ins: Insertion::new(
                Object::new(Oid(oid), Rect::new(x, x, x + 0.01, x + 0.01)),
                ImageHolder::Nobody,
            ),
            initial: true,
        },
    };
    let to = |server: u32, msg: Message| Message {
        to: Endpoint::Server(ServerId(server)),
        ..msg
    };
    // The frames, found on the simulator: enough for the first split, then
    // the two outside objects.
    let mut sim = sdr_core::Cluster::new(config);
    sim.install_faults(&plan, 0x5E1F);
    let mut frames = Vec::new();
    while sim.num_servers() < 2 {
        let oid = frames.len() as u64;
        frames.push(to(
            0,
            at(oid, [0.1, 0.8][oid as usize % 2] + (oid / 2) as f64 * 0.001),
        ));
        sim.post(frames[frames.len() - 1].clone());
        sim.drain();
    }
    for (oid, x) in [(1_000, 0.05), (1_001, 0.9)] {
        frames.push(to(1, at(oid, x)));
        sim.post(frames[frames.len() - 1].clone());
        sim.drain();
    }

    let cluster = NetCluster::launch_with_faults(config, &plan, 0x5E1F).unwrap();
    // Each raw frame settles `in_flight` once with no increment, so the
    // count reads minus the frames sent once each has fully settled.
    for (sent, msg) in (1..).zip(&frames) {
        let port = match msg.to {
            Endpoint::Server(id) => cluster.server_port(id).unwrap(),
            Endpoint::Client(_) => unreachable!(),
        };
        raw_connection(port, std::slice::from_ref(msg), &[]);
        wait_until("a raw frame's turn did not settle", || {
            cluster.in_flight() == -sent
        });
    }
    assert_eq!(cluster.delivery_failures(), 0, "a held message was lost");
    let counts = cluster.fault_counts();
    assert_eq!(counts, sim.fault_counts());
    let served = cluster.into_cluster();
    let counted = served.stats.category(MsgCategory::Insert);
    let drawn = counts.get(FaultKind::Reorder, MsgCategory::Insert);
    assert!(
        drawn >= counted + 2,
        "{drawn} draws for {counted} counted inserts: a self-addressed one escaped"
    );
    assert_eq!(served.structure_hash(), sim.structure_hash());
}

/// A raw connection that stops mid-frame does not hold its node: the
/// runner reads every connection to the deployment's listener without
/// blocking, so the frames on the kept link are handled beside the
/// stalled one. A node that read each
/// connection to its end was stuck on it for the 5 s read timeout, and
/// the insert waiting behind it failed as `Undeliverable`. Once the
/// stalled connection closes, its cut-short frame is one counted loss.
#[test]
fn a_connection_stalled_mid_frame_does_not_stop_its_node() {
    let cluster = NetCluster::launch(SdrConfig::with_capacity(1000)).unwrap();
    let mut client = NetClient::connect(&cluster).unwrap();
    let stored = Object::new(Oid(100), Rect::new(0.5, 0.5, 0.51, 0.51));
    client.insert(stored).unwrap();

    // 64 bytes promised, 3 sent, and the connection kept open.
    let port = cluster.server_port(ServerId(0)).expect("server 0 bound");
    let mut raw = TcpStream::connect(("127.0.0.1", port)).unwrap();
    raw.write_all(&64u32.to_be_bytes()).unwrap();
    raw.write_all(&[1, 2, 3]).unwrap();

    let started = Instant::now();
    grid_insert(&mut client, 20);
    let hits = client.point_query(Point::new(0.505, 0.505)).unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "20 inserts and a query took {elapsed:?} beside a stalled connection"
    );
    assert_eq!(hits, vec![stored]);
    assert_eq!(cluster.delivery_failures(), 0);

    drop(raw);
    wait_until("the stalled frame was not counted once closed", || {
        cluster.delivery_failures() != 0
    });
    assert_eq!(cluster.delivery_failures(), 1);
    cluster.shutdown();
}
