//! Property tests of the wire codec: arbitrary protocol messages must
//! round-trip bit-exactly, and corrupted frames — truncated, random,
//! or a valid frame with one byte flipped, a count inflated or another
//! frame's tail spliced in — must fail cleanly (error, never panic).

use sdr_core::ids::{ClientId, NodeKind, NodeRef, Oid, QueryId, ServerId};
use sdr_core::msg::{
    ChildWhy, ClientOp, Endpoint, Found, ImageHolder, Insertion, Message, Payload, QueryKind,
    QueryMode, QueryMsg, ReplyProtocol, Traversal,
};
use sdr_core::node::{Object, RoutingNode};
use sdr_core::oc::{OcEntry, OcTable};
use sdr_core::Link;
use sdr_det::prop::{
    bools, f64_in, just, one_of, option_of, u32_in, u32s, u64s, usize_in, vecs_of, Gen,
};
use sdr_geom::{Point, Rect};
use sdr_net::buf::ReadBuf;
use sdr_net::{decode_message, encode_message, WireError};

fn arb_rect() -> Gen<Rect> {
    f64_in(-1e6, 1e6)
        .zip(f64_in(-1e6, 1e6))
        .zip(f64_in(0.0, 1e3).zip(f64_in(0.0, 1e3)))
        .map(|((x, y), (w, h))| Rect::new(x, y, x + w, y + h))
}

fn arb_point() -> Gen<Point> {
    f64_in(-1e6, 1e6)
        .zip(f64_in(-1e6, 1e6))
        .map(|(x, y)| Point::new(x, y))
}

/// Server ids the codec admits: up to the protocol bound.
fn arb_server() -> Gen<ServerId> {
    u32_in(0..ServerId::MAX.0 + 1).map(ServerId)
}

fn arb_node_ref() -> Gen<NodeRef> {
    arb_server().zip(bools()).map(|(server, d)| NodeRef {
        server,
        kind: if d { NodeKind::Data } else { NodeKind::Routing },
    })
}

fn arb_link() -> Gen<Link> {
    arb_node_ref()
        .zip(arb_rect().zip(u32s().map(|h| h % 64)))
        .map(|(node, (dr, height))| Link { node, dr, height })
}

fn arb_object() -> Gen<Object> {
    u64s()
        .zip(arb_rect())
        .map(|(oid, r)| Object::new(Oid(oid), r))
}

fn arb_oc_table() -> Gen<OcTable> {
    vecs_of(
        arb_server()
            .zip(arb_link().zip(arb_rect()))
            .map(|(ancestor, (outer, rect))| OcEntry {
                ancestor,
                outer,
                rect,
            }),
        0..6,
    )
    .map(OcTable::from_entries)
}

fn arb_routing_node() -> Gen<RoutingNode> {
    u32s()
        .map(|h| h % 64)
        .zip(arb_rect())
        .zip(arb_link().zip(arb_link()))
        .zip(option_of(arb_server()).zip(arb_oc_table()))
        .map(
            |(((height, dr), (left, right)), (parent, oc))| RoutingNode {
                height,
                dr,
                left,
                right,
                parent,
                oc,
            },
        )
}

fn arb_image_holder() -> Gen<ImageHolder> {
    one_of(vec![
        u32s().map(|c| ImageHolder::Client(ClientId(c))),
        arb_server().map(ImageHolder::Server),
        just(ImageHolder::Nobody),
    ])
}

fn arb_trace() -> Gen<Vec<Link>> {
    vecs_of(arb_link(), 0..8)
}

/// The one insertion generator, shared by all four insert payloads.
fn arb_insertion() -> Gen<Insertion> {
    arb_object()
        .zip(arb_trace().zip(arb_image_holder()))
        .map(|(obj, (trace, iam_to))| Insertion { obj, trace, iam_to })
}

fn arb_mode() -> Gen<QueryMode> {
    one_of(vec![
        just(QueryMode::Check),
        just(QueryMode::Ascend),
        just(QueryMode::Descend),
    ])
}

/// The one header generator, shared by all three traversal payloads.
fn arb_traversal() -> Gen<Traversal> {
    arb_mode()
        .zip(arb_rect())
        .zip(vecs_of(arb_node_ref(), 0..5).zip(u64s()))
        .zip(u32s().zip(arb_trace().zip(bools())))
        .map(
            |(((mode, region), (visited, qid)), (rt, (trace, initial)))| Traversal {
                mode,
                region,
                visited,
                qid: QueryId(qid),
                results_to: ClientId(rt),
                trace,
                initial,
            },
        )
}

fn arb_query_msg() -> Gen<QueryMsg> {
    let head = arb_node_ref()
        .zip(arb_traversal())
        .zip(one_of(vec![
            arb_point().map(QueryKind::Point),
            arb_rect().map(QueryKind::Window),
        ]))
        .zip(bools().zip(bools()))
        .zip(arb_image_holder());
    let tail = one_of(vec![
        just(ReplyProtocol::Direct),
        just(ReplyProtocol::ReversePath),
        just(ReplyProtocol::Probabilistic),
    ])
    .zip(option_of(arb_server()).zip(u64s()));
    head.zip(tail).map(
        |(((((target, hop), query), (repaired, carrier)), iam), (protocol, (via, branch)))| {
            QueryMsg {
                target,
                hop,
                query,
                repaired,
                iam_carrier: carrier,
                iam_to: iam,
                protocol,
                reply_via: via,
                parent_branch: branch,
            }
        },
    )
}

fn arb_found() -> Gen<Found> {
    one_of(vec![
        vecs_of(arb_object(), 0..10).map(Found::Objects),
        bools().map(Found::Removed),
        vecs_of(u64s().zip(u64s()), 0..10)
            .map(|pairs| Found::Pairs(pairs.into_iter().map(|(a, b)| (Oid(a), Oid(b))).collect())),
    ])
}

/// Every cause of a child change, `Adjust` with and without the taller
/// child's children.
fn arb_child_why() -> Gen<ChildWhy> {
    let pair = || arb_link().zip(arb_link());
    one_of(vec![
        pair().map(|children| ChildWhy::Split { children }),
        pair()
            .zip(option_of(pair()))
            .map(|(children, tall_grandchildren)| ChildWhy::Adjust {
                children,
                tall_grandchildren,
            }),
        just(ChildWhy::Removed),
        just(ChildWhy::Refresh),
        just(ChildWhy::Replace),
    ])
}

fn arb_payload() -> Gen<Payload> {
    one_of(vec![
        arb_insertion()
            .zip(bools())
            .map(|(ins, initial)| Payload::InsertAtLeaf { ins, initial }),
        arb_insertion().map(|ins| Payload::InsertAscend { ins }),
        arb_insertion()
            .zip(arb_oc_table().zip(option_of(arb_rect())))
            .map(|(ins, (oc, new_dr))| Payload::InsertDescend { ins, oc, new_dr }),
        arb_insertion()
            .zip(arb_oc_table().zip(arb_rect()))
            .map(|(ins, (oc, new_dr))| Payload::StoreAtLeaf { ins, oc, new_dr }),
        arb_routing_node()
            .zip(vecs_of(arb_object(), 0..10))
            .zip(arb_rect().zip(arb_oc_table()))
            .map(
                |((routing, objects), (data_dr, data_oc))| Payload::SplitCreate {
                    routing,
                    objects,
                    data_dr,
                    data_oc,
                },
            ),
        arb_node_ref()
            .zip(arb_link().zip(arb_child_why()))
            .map(|(old_child, (new_child, why))| Payload::ChildChange {
                old_child,
                new_child,
                why,
            }),
        arb_query_msg().map(Payload::Query),
        u64s()
            .zip(arb_found())
            .zip(vecs_of(arb_server(), 0..6).zip(arb_trace().zip(option_of(bools()))))
            .map(
                |((qid, found), (spawned, (trace, direct)))| Payload::Report {
                    qid: QueryId(qid),
                    found,
                    spawned,
                    trace,
                    direct,
                },
            ),
        arb_node_ref()
            .zip(arb_traversal())
            .zip(arb_object())
            .map(|((target, hop), obj)| Payload::Delete { target, hop, obj }),
        arb_node_ref()
            .zip(arb_traversal())
            .zip(vecs_of(arb_object(), 0..10))
            .map(|((target, hop), objects)| Payload::JoinProbe {
                target,
                hop,
                objects,
            }),
        arb_node_ref()
            .zip(vecs_of(arb_object(), 0..10))
            .map(|(child, objects)| Payload::Eliminate { child, objects }),
        arb_node_ref().zip(u64s()).zip(u32s().zip(arb_trace())).map(
            |((target, qid), (results_to, trace))| Payload::JoinStart {
                target,
                qid: QueryId(qid),
                results_to: ClientId(results_to),
                trace,
            },
        ),
        arb_point()
            .zip(usize_in(0..100))
            .zip(u64s().zip(u32s()))
            .map(|((p, k), (qid, rt))| Payload::KnnLocal {
                p,
                k,
                qid: QueryId(qid),
                results_to: ClientId(rt),
            }),
        arb_object().zip(u64s()).map(|(o, qid)| Payload::Routed {
            op: ClientOp::Delete(o, QueryId(qid)),
            results_to: ClientId(3),
        }),
    ])
}

fn arb_endpoint() -> Gen<Endpoint> {
    one_of(vec![
        u32s().map(|c| Endpoint::Client(ClientId(c))),
        arb_server().map(Endpoint::Server),
    ])
}

/// Payloads whose last field is a collection, with the body offset of
/// that collection's `u32` count (endpoints are 5 bytes, the payload tag
/// 1, a `NodeRef` 5) and the count itself. Nothing follows the elements,
/// so a decoder that believes a larger count must run out of bytes.
fn arb_ends_in_collection() -> Gen<(Payload, usize, u32)> {
    one_of(vec![
        arb_node_ref()
            .zip(vecs_of(arb_object(), 0..10))
            .map(|(child, objects)| {
                let n = objects.len() as u32;
                (Payload::Eliminate { child, objects }, 5 + 5 + 1 + 5, n)
            }),
        arb_node_ref().zip(u64s()).zip(u32s().zip(arb_trace())).map(
            |((target, qid), (results_to, trace))| {
                let n = trace.len() as u32;
                let p = Payload::JoinStart {
                    target,
                    qid: QueryId(qid),
                    results_to: ClientId(results_to),
                    trace,
                };
                (p, 5 + 5 + 1 + 5 + 8 + 4, n)
            },
        ),
    ])
}

fn decode(body: &[u8]) -> Result<Message, WireError> {
    decode_message(&mut ReadBuf::new(body))
}

/// A corrupted body must decode without panicking, and whatever it
/// decodes to must be a message the codec round-trips. Compared as
/// frames: a flipped byte can make an `f64` NaN, which `==` rejects.
fn assert_fails_cleanly(body: &[u8]) {
    if let Ok(m) = decode(body) {
        let frame = encode_message(&m);
        let again = decode(&frame[4..]).expect("re-decode");
        assert_eq!(encode_message(&again), frame);
    }
}

sdr_det::prop! {
    fn a_flipped_byte_fails_cleanly(
        cases = 256;
        from in arb_endpoint(),
        to in arb_endpoint(),
        payload in arb_payload(),
        at in f64_in(0.0, 1.0),
        xor in u32_in(1..256),
    ) {
        let mut body = encode_message(&Message { from, to, payload }).split_off(4);
        let at = ((body.len() as f64) * at) as usize % body.len();
        body[at] ^= xor as u8;
        assert_fails_cleanly(&body);
    }

    fn an_inflated_count_is_truncated(
        cases = 256;
        from in arb_endpoint(),
        to in arb_endpoint(),
        sample in arb_ends_in_collection(),
        grow in u32s(),
    ) {
        let (payload, at, count) = sample;
        let mut body = encode_message(&Message { from, to, payload }).split_off(4);
        assert_eq!(body[at..at + 4], count.to_be_bytes(), "not the count's offset");
        // Any larger count, and the largest: refused by the guard (more
        // elements than bytes left) or by running out of elements.
        for bigger in [count + 1 + grow % (u32::MAX - count), u32::MAX] {
            body[at..at + 4].copy_from_slice(&bigger.to_be_bytes());
            assert_eq!(decode(&body), Err(WireError::Truncated), "{count} -> {bigger}");
        }
    }

    fn a_spliced_tail_fails_cleanly(
        cases = 256;
        from in arb_endpoint(),
        to in arb_endpoint(),
        payload in arb_payload(),
        other in arb_payload(),
        cut in f64_in(0.0, 1.0),
        other_cut in f64_in(0.0, 1.0),
    ) {
        let head = encode_message(&Message { from, to, payload }).split_off(4);
        let tail = encode_message(&Message { from, to, payload: other }).split_off(4);
        let mut body = head[..((head.len() as f64) * cut) as usize].to_vec();
        body.extend_from_slice(&tail[((tail.len() as f64) * other_cut) as usize..]);
        assert_fails_cleanly(&body);
    }

    fn messages_roundtrip(
        cases = 256;
        from in arb_endpoint(),
        to in arb_endpoint(),
        payload in arb_payload(),
    ) {
        let msg = Message { from, to, payload };
        let frame = encode_message(&msg);
        // Frame length prefix is consistent.
        let len = u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
        assert_eq!(len + 4, frame.len());
        let mut body = ReadBuf::new(&frame[4..]);
        let decoded = decode_message(&mut body).expect("decode");
        assert_eq!(decoded, msg);
        assert_eq!(body.remaining(), 0, "trailing bytes");
    }

    fn truncation_never_panics(
        cases = 256;
        from in arb_endpoint(),
        to in arb_endpoint(),
        payload in arb_payload(),
        cut_frac in f64_in(0.0, 1.0),
    ) {
        let msg = Message { from, to, payload };
        let frame = encode_message(&msg);
        let body_len = frame.len() - 4;
        let cut = 4 + ((body_len as f64) * cut_frac) as usize;
        let mut body = ReadBuf::new(&frame[4..cut]);
        // Must either fail or (if the cut happens to land at the end)
        // succeed — never panic.
        let _ = decode_message(&mut body);
    }

    /// A server id beyond the protocol bound is refused wherever one is
    /// decoded — an endpoint, a link's node inside a trace, a `spawned`
    /// list — while the bound itself still travels.
    fn a_server_id_beyond_the_bound_is_refused(
        cases = 64;
        excess in u32s(),
        trace in arb_trace(),
        at in usize_in(0..3),
    ) {
        let max = ServerId::MAX;
        let bad = ServerId(max.0 + 1 + excess % (u32::MAX - max.0));
        let msg = |id: ServerId| {
            let mut trace = trace.clone();
            trace.push(Link::to_data(if at == 1 { id } else { max }, Rect::new(0.0, 0.0, 1.0, 1.0)));
            Message {
                from: Endpoint::Server(if at == 0 { id } else { max }),
                to: Endpoint::Client(ClientId(0)),
                payload: Payload::Report {
                    qid: QueryId(1),
                    found: Found::Objects(vec![]),
                    spawned: vec![max, if at == 2 { id } else { max }],
                    trace,
                    direct: None,
                },
            }
        };
        assert_eq!(decode(&encode_message(&msg(max))[4..]), Ok(msg(max)));
        assert_eq!(decode(&encode_message(&msg(bad))[4..]), Err(WireError::BadServer(bad.0)));
    }

    fn random_bytes_never_panic(cases = 256; bytes in vecs_of(u32s().map(|v| v as u8), 0..300)) {
        let mut body = ReadBuf::new(&bytes);
        let _ = decode_message(&mut body);
    }
}
