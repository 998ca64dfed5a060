//! Pinned traversal: the delivery order of every path a query, a delete
//! or a join probe can take, as digests recorded once and compared per
//! phase.
//!
//! `golden_trace.rs` keeps a whole, reviewable trace of a tiny run — one
//! single-hop delete, no join, the direct protocol, an IMCLIENT client.
//! This test covers what that cannot afford to print: a skewed tree at a
//! small capacity driven through all three variants and all three
//! termination protocols, deletes of three objects in four (forwarding
//! along overlapping coverage, node elimination, tombstones), queries
//! over the dissolved servers, two spatial joins and the re-inserts
//! between them — some 37 000 trace events. Each phase is reduced to the
//! FNV-1a of its `TraceLog::render()`, its event and message counts, the
//! size of its answers and the `structure_hash()` it leaves, so a
//! failure names the phase that diverged instead of a line in a
//! 37 000-line diff.
//!
//! The constants are a record of behaviour, not a specification: a
//! change that is meant to alter what is sent, or in which order, prints
//! the new table (`cargo test --test pinned_traversal -- --nocapture`)
//! and must say why; a refactor must leave them alone.

use sd_rtree::core::ReplyProtocol;
use sd_rtree::workload::{DatasetSpec, Distribution, PointSpec, WindowSpec};
use sd_rtree::{Client, ClientId, Cluster, Object, Oid, Rect, SdrConfig, Variant};
use sdr_det::fnv1a;

/// What one phase left behind.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    phase: &'static str,
    /// FNV-1a (64-bit) of the phase's rendered trace.
    trace: u64,
    /// Trace events recorded during the phase.
    events: usize,
    /// Server-addressed messages during the phase (`stats.total()`).
    messages: u64,
    /// Objects returned, deletes confirmed, or join pairs found.
    answers: u64,
    /// `Cluster::structure_hash()` at the end of the phase.
    structure: u64,
}

/// First recorded on the parent of the one-traversal refactor
/// (`3172fd0`); re-recorded when the distributed split became the R\*
/// sweep (DESIGN.md decision 16), which changes which objects each
/// server keeps and so every digest and `structure` below. `answers` did
/// not move in any phase. Messages, old → new: build 3 254 → 3 308,
/// queries 958 → 898, deletes 9 013 → 8 913, queries over tombstones
/// 771 → 765, join 907 → 727, re-inserts 3 068 → 2 923, second join
/// 3 130 → 3 105 — less sibling overlap, shorter OC tables, fewer
/// forwards.
const PINNED: [Pin; 7] = [
    Pin {
        phase: "build",
        trace: 0x1d22b5f657191085,
        events: 0xe72,
        messages: 0xcec,
        answers: 0x258,
        structure: 0xa64a838c03f119fb,
    },
    Pin {
        phase: "queries",
        trace: 0x6bc276341f0abf41,
        events: 0x5f2,
        messages: 0x382,
        answers: 0x1c6,
        structure: 0xa64a838c03f119fb,
    },
    Pin {
        phase: "deletes",
        trace: 0x560463b10dcf3cd0,
        events: 0x435e,
        messages: 0x22d1,
        answers: 0x1c2,
        structure: 0x308462fd04c4debb,
    },
    Pin {
        phase: "queries over tombstones",
        trace: 0x39e844d5c1bbbb99,
        events: 0x4f4,
        messages: 0x2fd,
        answers: 0x5e,
        structure: 0x308462fd04c4debb,
    },
    Pin {
        phase: "join",
        trace: 0xec496924cf46c2e1,
        events: 0x62e,
        messages: 0x2d7,
        answers: 0x73,
        structure: 0x308462fd04c4debb,
    },
    Pin {
        phase: "re-inserts",
        trace: 0x88781916a1a5dcec,
        events: 0xca2,
        messages: 0xb6b,
        answers: 0x258,
        structure: 0xf783c4ae2f9943a7,
    },
    Pin {
        phase: "second join",
        trace: 0xc0de86c7b5224867,
        events: 0x1d84,
        messages: 0xc21,
        answers: 0x817,
        structure: 0xf783c4ae2f9943a7,
    },
];

const PROTOCOLS: [ReplyProtocol; 3] = [
    ReplyProtocol::Direct,
    ReplyProtocol::ReversePath,
    ReplyProtocol::Probabilistic,
];

/// Runs `phase` and digests what it did to the trace, the message
/// counters and the structure; the trace is cleared for the next phase.
fn pin(phase: &'static str, cluster: &mut Cluster, run: impl FnOnce(&mut Cluster) -> u64) -> Pin {
    let before = cluster.stats.total();
    let answers = run(cluster);
    let log = cluster.obs_mut().trace_mut().expect("trace enabled");
    let (trace, events) = (fnv1a(log.render().as_bytes()), log.len());
    log.clear();
    Pin {
        phase,
        trace,
        events,
        messages: cluster.stats.total() - before,
        answers,
        structure: cluster.structure_hash(),
    }
}

/// Window and point queries by every client, the termination protocol
/// rotating with the query; returns the number of objects reported.
fn queries(cluster: &mut Cluster, clients: &mut [Client; 3], data: &[Rect], seed: u64) -> u64 {
    // Half of each uniform, half where the skewed data is: deep in the
    // overlap, never empty.
    let crowded = data.iter().step_by(data.len() / 18).map(Rect::center);
    let mut windows = WindowSpec::paper_default().generate(18, seed);
    windows.extend(crowded.clone().map(|c| Rect::centered(c, 0.06, 0.03)));
    let mut points = PointSpec::uniform().generate(18, seed + 1);
    points.extend(crowded);
    let mut reported = 0;
    for (i, w) in windows.iter().enumerate() {
        let client = &mut clients[i % 3];
        client.protocol = PROTOCOLS[(i / 3) % 3];
        reported += client.window_query(cluster, *w).results.len() as u64;
    }
    for (i, p) in points.iter().enumerate() {
        let client = &mut clients[i % 3];
        client.protocol = PROTOCOLS[(i / 3) % 3];
        reported += client.point_query(cluster, *p).results.len() as u64;
    }
    for client in clients {
        client.protocol = ReplyProtocol::Direct;
    }
    reported
}

/// 600 clustered rectangles large enough to overlap their neighbours:
/// sibling directory rectangles overlap, so OC tables are long, one hop
/// forwards to several outer nodes, and the joins have pairs to find.
fn dataset() -> Vec<Rect> {
    DatasetSpec::new(600, Distribution::default_skewed())
        .with_extents(0.004, 0.03)
        .generate(22)
}

fn run_phases() -> Vec<Pin> {
    let data = dataset();
    let object = |i: usize| Object::new(Oid(i as u64), data[i]);
    // Three in four go; the survivors keep every region populated.
    let doomed: Vec<usize> = (0..data.len()).filter(|i| i % 4 != 0).collect();
    let mut cluster = Cluster::new(SdrConfig::with_capacity(12));
    cluster.obs_mut().enable_trace();
    let mut clients = [
        Client::new(ClientId(0), Variant::ImClient, 1),
        Client::new(ClientId(1), Variant::ImServer, 2),
        Client::new(ClientId(2), Variant::Basic, 3),
    ];
    let clients = &mut clients;

    let mut pins = Vec::new();
    pins.push(pin("build", &mut cluster, |cluster| {
        for i in 0..data.len() {
            clients[i % 3].insert(cluster, object(i));
        }
        cluster.total_objects() as u64
    }));
    pins.push(pin("queries", &mut cluster, |cluster| {
        queries(cluster, clients, &data, 23)
    }));
    pins.push(pin("deletes", &mut cluster, |cluster| {
        let mut removed = 0;
        for (n, &i) in doomed.iter().enumerate() {
            removed += u64::from(clients[n % 3].delete(cluster, object(i)).0);
        }
        removed
    }));
    cluster.check_invariants();
    let dissolved = cluster.servers().iter().filter(|s| s.data.is_none());
    assert!(dissolved.count() >= 20, "the deletes eliminate data nodes");
    pins.push(pin("queries over tombstones", &mut cluster, |cluster| {
        queries(cluster, clients, &data, 25)
    }));
    pins.push(pin("join", &mut cluster, |cluster| {
        clients[0].spatial_join(cluster).pairs.len() as u64
    }));
    pins.push(pin("re-inserts", &mut cluster, |cluster| {
        for (n, &i) in doomed.iter().enumerate() {
            clients[n % 3].insert(cluster, object(i));
        }
        cluster.total_objects() as u64
    }));
    cluster.check_invariants();
    pins.push(pin("second join", &mut cluster, |cluster| {
        clients[2].spatial_join(cluster).pairs.len() as u64
    }));
    pins
}

/// The oracle first — the pins mean something only if the workload does
/// what its name says — then the pins, phase by phase.
#[test]
fn every_phase_sends_what_it_sent_when_the_pins_were_recorded() {
    let got = run_phases();
    println!("{got:#x?}");
    let answers = |phase: &str| got.iter().find(|p| p.phase == phase).map(|p| p.answers);
    assert_eq!(answers("deletes"), Some(450), "every delete confirmed");
    let data = dataset();
    let intersecting_pairs = |step: usize| {
        let live: Vec<&Rect> = data.iter().step_by(step).collect();
        let pairs = live.iter().enumerate().map(|(i, a)| {
            let later = &live[i + 1..];
            later.iter().filter(|b| a.intersects(b)).count() as u64
        });
        pairs.sum::<u64>()
    };
    assert_eq!(answers("join"), Some(intersecting_pairs(4)));
    assert_eq!(answers("second join"), Some(intersecting_pairs(1)));

    assert_eq!(got.len(), PINNED.len());
    for (got, want) in got.iter().zip(&PINNED) {
        assert_eq!(got, want, "phase `{}` diverged", want.phase);
    }
}
