//! Exhaustive wire round-trip: one (or more) concrete message per
//! `Payload` variant — every variant, every `ClientOp`, every `Found`,
//! both `tall_grandchildren` and `direct` arms, a traversal header at
//! and past its entry hop, every insert payload under each image
//! holder — each asserted to decode back bit-equal
//! with zero trailing bytes. The property suite explores deep random
//! structure; this test guarantees *coverage*: adding a variant to
//! `Payload` without extending the codec (or this list) fails the
//! `match` below at compile time, and a codec asymmetry fails at run
//! time. It also pins the format itself: a golden digest over every
//! sample's frame, and each frame's payload tag byte.

use sdr_core::ids::{ClientId, NodeRef, Oid, QueryId, ServerId};
use sdr_core::msg::{
    ClientOp, Endpoint, Found, ImageHolder, Insertion, Message, Pattern, Payload, QueryKind,
    QueryMode, QueryMsg, ReplyProtocol, Traversal,
};
use sdr_core::node::{Object, RoutingNode};
use sdr_core::oc::{OcEntry, OcTable};
use sdr_core::Link;
use sdr_geom::{Point, Rect};
use sdr_net::buf::ReadBuf;
use sdr_net::{decode_message, encode_message};

fn rect() -> Rect {
    Rect::new(0.125, -2.5, 7.75, 3.5)
}

fn link(s: u32) -> Link {
    Link::to_routing(ServerId(s), rect(), 2)
}

fn dlink(s: u32) -> Link {
    Link::to_data(ServerId(s), rect())
}

fn obj(o: u64) -> Object {
    Object::new(Oid(o), rect())
}

fn oc() -> OcTable {
    OcTable::from_entries(vec![
        OcEntry {
            ancestor: ServerId(1),
            outer: link(4),
            rect: rect(),
        },
        OcEntry {
            ancestor: ServerId(2),
            outer: dlink(5),
            rect: rect(),
        },
    ])
}

fn routing_node() -> RoutingNode {
    RoutingNode {
        height: 3,
        dr: rect(),
        left: link(1),
        right: dlink(2),
        parent: Some(ServerId(7)),
        oc: oc(),
    }
}

/// A hop's header, at the entry hop (`initial`) or past it.
fn traversal(mode: QueryMode, initial: bool) -> Traversal {
    Traversal {
        mode,
        region: rect(),
        visited: vec![NodeRef::data(ServerId(2)), NodeRef::routing(ServerId(4))],
        qid: QueryId(0xFACE),
        results_to: ClientId(1),
        trace: vec![link(3), dlink(9)],
        initial,
    }
}

fn query_msg() -> QueryMsg {
    QueryMsg {
        target: NodeRef::routing(ServerId(8)),
        hop: traversal(QueryMode::Descend, true),
        query: QueryKind::Window(rect()),
        repaired: false,
        iam_carrier: true,
        iam_to: ImageHolder::Server(ServerId(2)),
        protocol: ReplyProtocol::Probabilistic,
        reply_via: Some(ServerId(6)),
        parent_branch: 12,
    }
}

/// Every `Payload` variant at least once; variants with `Option`al or
/// enum-valued fields appear once per arm.
fn every_payload() -> Vec<Payload> {
    let holders = [
        ImageHolder::Client(ClientId(3)),
        ImageHolder::Server(ServerId(1)),
        ImageHolder::Nobody,
    ];
    let mut samples = Vec::new();
    for (i, iam_to) in (0u32..).zip(holders) {
        let ins = Insertion {
            obj: obj(u64::from(i)),
            trace: vec![link(i), dlink(i + 1)],
            iam_to,
        };
        samples.extend([
            Payload::InsertAtLeaf {
                ins: ins.clone(),
                initial: i == 0,
            },
            Payload::InsertAscend { ins: ins.clone() },
            Payload::InsertDescend {
                ins: ins.clone(),
                oc: if i == 0 { oc() } else { OcTable::new() },
                new_dr: (i != 1).then_some(rect()),
            },
            Payload::StoreAtLeaf {
                ins,
                oc: oc(),
                new_dr: rect(),
            },
        ]);
    }
    samples.extend([
        Payload::InsertAck {
            oid: Oid(5),
            trace: vec![link(1), link(2)],
        },
        Payload::SplitCreate {
            routing: routing_node(),
            objects: vec![obj(1), obj(2), obj(3)],
            data_dr: rect(),
            data_oc: oc(),
        },
        Payload::ChildSplit {
            old_child: NodeRef::data(ServerId(1)),
            new_child: dlink(2),
            children: (link(3), dlink(4)),
        },
        Payload::AdjustHeight {
            child: link(1),
            children: (link(2), link(3)),
            tall_grandchildren: Some((link(4), dlink(5))),
        },
        Payload::AdjustHeight {
            child: link(1),
            children: (link(2), link(3)),
            tall_grandchildren: None,
        },
        Payload::ChildRemoved {
            old_child: NodeRef::routing(ServerId(1)),
            new_child: dlink(2),
        },
        Payload::GatherRotation {
            origin: ServerId(4),
        },
        Payload::GatherRotationInner {
            origin: ServerId(4),
            b_link: link(1),
            b_children: (link(2), dlink(3)),
        },
        Payload::RotationInfo {
            pattern: Pattern {
                b: link(1),
                b_children: (link(2), dlink(3)),
                e_children: (dlink(4), link(5)),
            },
        },
        Payload::SetRouting {
            node: routing_node(),
        },
        Payload::SetParent {
            target: NodeRef::data(ServerId(3)),
            parent: ServerId(9),
        },
        Payload::RefreshChild { child: link(1) },
        Payload::ReplaceChild {
            old_child: NodeRef::routing(ServerId(2)),
            new_child: dlink(3),
        },
        Payload::UpdateOc {
            target: NodeRef::data(ServerId(1)),
            ancestor: ServerId(2),
            outer: link(3),
            rect: rect(),
        },
        Payload::RefreshOc {
            target: NodeRef::routing(ServerId(1)),
            table: oc(),
        },
        Payload::ShrinkChild { child: dlink(1) },
        Payload::Query(query_msg()),
        Payload::Report {
            qid: QueryId(5),
            found: Found::Objects(vec![obj(3)]),
            spawned: vec![ServerId(4), ServerId(0), ServerId(4)],
            trace: vec![link(1)],
            direct: Some(true),
        },
        Payload::Report {
            qid: QueryId(5),
            found: Found::Objects(vec![]),
            spawned: vec![],
            trace: vec![],
            direct: None,
        },
        Payload::Report {
            qid: QueryId(2),
            found: Found::Removed(true),
            spawned: vec![ServerId(3)],
            trace: vec![link(1)],
            direct: Some(false),
        },
        Payload::Report {
            qid: QueryId(4),
            found: Found::Pairs(vec![(Oid(1), Oid(2)), (Oid(3), Oid(9))]),
            spawned: vec![ServerId(2), ServerId(7)],
            trace: vec![link(1)],
            direct: None,
        },
        Payload::QueryAggregate {
            qid: QueryId(2),
            parent_branch: 3,
            results: vec![obj(1), obj(2)],
            trace: vec![dlink(1)],
        },
        Payload::Delete {
            target: NodeRef::data(ServerId(1)),
            hop: traversal(QueryMode::Check, true),
            obj: obj(6),
        },
        Payload::Delete {
            target: NodeRef::routing(ServerId(3)),
            hop: traversal(QueryMode::Ascend, false),
            obj: obj(6),
        },
        Payload::Eliminate {
            child: NodeRef::data(ServerId(1)),
            objects: vec![obj(8), obj(9)],
        },
        Payload::ClearParent {
            target: NodeRef::data(ServerId(1)),
        },
        Payload::DropOcAncestor {
            target: NodeRef::routing(ServerId(1)),
            ancestor: ServerId(2),
        },
        Payload::KnnLocal {
            p: Point::new(0.5, 0.5),
            k: 3,
            qid: QueryId(9),
            results_to: ClientId(0),
        },
        Payload::KnnLocalReply {
            qid: QueryId(9),
            items: vec![(obj(3), 1.25), (obj(4), 2.5)],
            dr: Some(rect()),
        },
        Payload::KnnLocalReply {
            qid: QueryId(9),
            items: vec![],
            dr: None,
        },
        Payload::Routed {
            op: ClientOp::Insert(obj(1)),
            results_to: ClientId(5),
        },
        Payload::Routed {
            op: ClientOp::Point(Point::new(0.25, 0.75), QueryId(1)),
            results_to: ClientId(5),
        },
        Payload::Routed {
            op: ClientOp::Window(rect(), QueryId(2)),
            results_to: ClientId(5),
        },
        Payload::Routed {
            op: ClientOp::Delete(obj(2), QueryId(3)),
            results_to: ClientId(5),
        },
        Payload::Routed {
            op: ClientOp::Knn(Point::new(0.25, 0.75), 10, QueryId(4)),
            results_to: ClientId(5),
        },
        Payload::JoinStart {
            target: NodeRef::routing(ServerId(0)),
            qid: QueryId(4),
            results_to: ClientId(1),
            trace: vec![link(2)],
        },
        Payload::JoinProbe {
            target: NodeRef::data(ServerId(3)),
            hop: traversal(QueryMode::Check, false),
            objects: vec![obj(9), obj(10)],
        },
    ]);
    samples
}

/// A witness that `every_payload` covers the whole enum: this match must
/// be updated whenever a variant is added, and the corresponding sample
/// must be added to the list above (checked by `variant_index` below).
fn variant_index(p: &Payload) -> usize {
    match p {
        Payload::InsertAtLeaf { .. } => 0,
        Payload::InsertAscend { .. } => 1,
        Payload::InsertDescend { .. } => 2,
        Payload::StoreAtLeaf { .. } => 3,
        Payload::InsertAck { .. } => 4,
        Payload::SplitCreate { .. } => 5,
        Payload::ChildSplit { .. } => 6,
        Payload::AdjustHeight { .. } => 7,
        Payload::ChildRemoved { .. } => 8,
        Payload::GatherRotation { .. } => 9,
        Payload::GatherRotationInner { .. } => 10,
        Payload::RotationInfo { .. } => 11,
        Payload::SetRouting { .. } => 12,
        Payload::SetParent { .. } => 13,
        Payload::RefreshChild { .. } => 14,
        Payload::ReplaceChild { .. } => 15,
        Payload::UpdateOc { .. } => 16,
        Payload::RefreshOc { .. } => 17,
        Payload::ShrinkChild { .. } => 18,
        Payload::Query(_) => 19,
        Payload::Report { .. } => 20,
        Payload::QueryAggregate { .. } => 21,
        Payload::Delete { .. } => 22,
        Payload::Eliminate { .. } => 23,
        Payload::ClearParent { .. } => 24,
        Payload::DropOcAncestor { .. } => 25,
        Payload::KnnLocal { .. } => 26,
        Payload::KnnLocalReply { .. } => 27,
        Payload::Routed { .. } => 28,
        Payload::JoinStart { .. } => 29,
        Payload::JoinProbe { .. } => 30,
    }
}

const NUM_VARIANTS: usize = 31;

#[test]
fn every_variant_is_covered() {
    let mut seen = [false; NUM_VARIANTS];
    for p in every_payload() {
        seen[variant_index(&p)] = true;
    }
    for (i, s) in seen.iter().enumerate() {
        assert!(s, "payload variant {i} has no sample in every_payload()");
    }
}

#[test]
fn every_variant_roundtrips_with_zero_trailing_bytes() {
    for (n, payload) in every_payload().into_iter().enumerate() {
        for (from, to) in [
            (Endpoint::Client(ClientId(7)), Endpoint::Server(ServerId(3))),
            (Endpoint::Server(ServerId(3)), Endpoint::Client(ClientId(7))),
        ] {
            let msg = Message {
                from,
                to,
                payload: payload.clone(),
            };
            let frame = encode_message(&msg);
            let len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
            assert_eq!(len + 4, frame.len(), "sample {n}: bad length prefix");
            let mut body = ReadBuf::new(&frame[4..]);
            let decoded = decode_message(&mut body).unwrap_or_else(|e| panic!("sample {n}: {e}"));
            assert_eq!(decoded, msg, "sample {n} did not round-trip");
            assert_eq!(body.remaining(), 0, "sample {n} left trailing bytes");
        }
    }
}

/// Every sample in both endpoint directions, with its frame.
fn every_frame() -> Vec<(Message, Vec<u8>)> {
    let (c, s) = (Endpoint::Client(ClientId(7)), Endpoint::Server(ServerId(3)));
    let mut out = Vec::new();
    for payload in every_payload() {
        for (from, to) in [(c, s), (s, c)] {
            let msg = Message {
                from,
                to,
                payload: payload.clone(),
            };
            let frame = encode_message(&msg);
            out.push((msg, frame));
        }
    }
    out
}

/// FNV-1a (the construction of `Cluster::structure_hash`) over the
/// concatenated frames of [`every_frame`]. Re-recorded once when the four
/// insert payloads took one `Insertion` header (`InsertAscend` lost
/// `initial`, `InsertAck` lost `direct`, `StoreAtLeaf` sends its OC table
/// before its rectangle) and `RotationInfo` one `Pattern` (same field
/// order, so the same bytes): the insert and ack frames moved, and the
/// samples grew to every insert payload under all three image holders
/// and a pattern of five distinct links. The digest before,
/// `0xec6d_3a13_6df3_8955`, was recorded when the traversal payloads took
/// one `Traversal` header and the three per-hop reports became one
/// `Report`; the one before that, `0x9a61_43ff_b749_3cbf`, was that of the
/// hand-mirrored put/get codec the field tables replaced
/// (`0x0e5e_0028_a58b_b659`) plus the `Routed { op: ClientOp::Knn(..) }`
/// sample.
const GOLDEN_DIGEST: u64 = 0x026a_207f_3f81_4c0d;

/// The format, pinned: a codec change that moves one byte of any frame
/// fails here.
#[test]
fn frames_match_the_golden_digest() {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (_, frame) in every_frame() {
        for byte in frame {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(h, GOLDEN_DIGEST, "wire format changed: {h:#018x}");
}

/// `variant_index` is the pinned tag numbering: the payload tag follows
/// the length prefix (4 bytes) and the two endpoints (tag + `u32` each).
/// A `Routed` payload's next byte is its `ClientOp` tag, pinned likewise.
#[test]
fn payload_tag_bytes_equal_variant_index() {
    for (msg, frame) in every_frame() {
        assert_eq!(
            usize::from(frame[4 + 5 + 5]),
            variant_index(&msg.payload),
            "tag byte of {}",
            msg.payload.name()
        );
        if let Payload::Routed { op, .. } = &msg.payload {
            let op_tag = match op {
                ClientOp::Insert(_) => 0,
                ClientOp::Point(..) => 1,
                ClientOp::Window(..) => 2,
                ClientOp::Delete(..) => 3,
                ClientOp::Knn(..) => 4,
            };
            assert_eq!(frame[4 + 5 + 5 + 1], op_tag, "client op tag of {op:?}");
        }
    }
}

#[test]
fn every_variant_fails_cleanly_on_truncation() {
    for (n, payload) in every_payload().into_iter().enumerate() {
        let msg = Message {
            from: Endpoint::Server(ServerId(0)),
            to: Endpoint::Server(ServerId(1)),
            payload,
        };
        let frame = encode_message(&msg);
        // Dropping the final byte must always surface as an error (every
        // encoding consumes its whole body).
        let mut body = ReadBuf::new(&frame[4..frame.len() - 1]);
        assert!(
            decode_message(&mut body).is_err(),
            "sample {n} decoded from a truncated frame"
        );
    }
}
