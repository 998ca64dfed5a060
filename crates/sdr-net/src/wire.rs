//! Binary wire codec for the SD-Rtree protocol.
//!
//! Every [`Message`] is encoded as a length-prefixed frame:
//! `u32 (big-endian body length) ++ body`. The body is a tag-based
//! scheme: fixed-width integers big-endian, `f64` as IEEE-754 bits,
//! `bool` as one byte, `Option` as a presence byte plus the value,
//! collections as a `u32` count plus elements, enums as a tag byte plus
//! the variant's fields.
//!
//! The format is described **once**: a private `Wire` trait (how a type
//! is written and read back), implemented by hand for the primitives and
//! the three generic shapes, and for every protocol type by a row in one
//! of two tables — `record!` (a struct is its fields, in the listed
//! order) and `tagged!` (an enum is a tag byte, then the variant's
//! fields). Each row expands to both the encode arm and the decode arm,
//! so the two cannot drift; a field or a variant missing from a row is a
//! compile error (DESIGN.md decision 14). No serialization framework is
//! used: the dependency set stays empty and the format auditable.

use crate::buf::{ReadBuf, WriteBuf};
use sdr_core::ids::{ClientId, NodeKind, NodeRef, Oid, QueryId, ServerId};
use sdr_core::msg::{
    ClientOp, Endpoint, Found, ImageHolder, Insertion, Message, Pattern, Payload, QueryKind,
    QueryMode, QueryMsg, ReplyProtocol, Traversal,
};
use sdr_core::node::{Object, RoutingNode};
use sdr_core::oc::{OcEntry, OcTable};
use sdr_core::Link;
use sdr_geom::{Point, Rect};

/// Decoding failure.
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// An enum tag byte had no corresponding variant.
    BadTag(&'static str, u8),
    /// A server id beyond [`ServerId::MAX`].
    BadServer(u32),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadTag(what, tag) => write!(f, "invalid {what} tag {tag:#04x}"),
            WireError::BadServer(id) => write!(f, "server id {id} beyond the protocol bound"),
        }
    }
}

impl std::error::Error for WireError {}

type Result<T> = std::result::Result<T, WireError>;

/// Encodes a message into a fresh frame (length prefix included).
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut frame = WriteBuf::with_capacity(256);
    frame.put_u32(0); // the length, known once the body is written
    msg.put(&mut frame);
    frame.patch_u32(0, (frame.len() - 4) as u32);
    frame.into_vec()
}

/// Decodes one message body (the length prefix must already have been
/// consumed by the framing layer).
pub fn decode_message(buf: &mut ReadBuf<'_>) -> Result<Message> {
    Message::get(buf)
}

/// How one type travels. `get` is total: any input yields a value or a
/// [`WireError`], never a panic. Every impl is `#[inline]` — without it
/// the per-element `get` chain of a large collection stops inlining and
/// decoding a 1500-object `SplitCreate` takes almost five times as long
/// (measured; DESIGN.md decision 14).
trait Wire: Sized {
    fn put(&self, b: &mut WriteBuf);
    fn get(b: &mut ReadBuf<'_>) -> Result<Self>;
}

// ---------------------------------------------------- primitives, shapes --

macro_rules! primitive {
    ($($ty:ty: $put:ident, $get:ident;)*) => {$(
        impl Wire for $ty {
            #[inline]
            fn put(&self, b: &mut WriteBuf) {
                b.$put(*self)
            }
            #[inline]
            fn get(b: &mut ReadBuf<'_>) -> Result<Self> {
                b.$get().ok_or(WireError::Truncated)
            }
        }
    )*};
}

primitive! {
    u8: put_u8, try_get_u8;
    u32: put_u32, try_get_u32;
    u64: put_u64, try_get_u64;
    f64: put_f64, try_get_f64;
}

impl Wire for bool {
    #[inline]
    fn put(&self, b: &mut WriteBuf) {
        b.put_u8(u8::from(*self))
    }
    #[inline]
    fn get(b: &mut ReadBuf<'_>) -> Result<Self> {
        Ok(u8::get(b)? != 0)
    }
}

/// Counts and `k` travel as `u32`.
impl Wire for usize {
    #[inline]
    fn put(&self, b: &mut WriteBuf) {
        b.put_u32(*self as u32)
    }
    #[inline]
    fn get(b: &mut ReadBuf<'_>) -> Result<Self> {
        Ok(u32::get(b)? as usize)
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn put(&self, b: &mut WriteBuf) {
        self.is_some().put(b);
        if let Some(v) = self {
            v.put(b);
        }
    }
    #[inline]
    fn get(b: &mut ReadBuf<'_>) -> Result<Self> {
        Ok(if bool::get(b)? {
            Some(T::get(b)?)
        } else {
            None
        })
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    #[inline]
    fn put(&self, b: &mut WriteBuf) {
        self.0.put(b);
        self.1.put(b);
    }
    #[inline]
    fn get(b: &mut ReadBuf<'_>) -> Result<Self> {
        Ok((A::get(b)?, B::get(b)?))
    }
}

/// A `u32` count, then the elements.
#[inline]
fn encode_seq<T: Wire>(items: &[T], b: &mut WriteBuf) {
    items.len().put(b);
    for item in items {
        item.put(b);
    }
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn put(&self, b: &mut WriteBuf) {
        encode_seq(self, b)
    }
    #[inline]
    fn get(b: &mut ReadBuf<'_>) -> Result<Self> {
        let n = usize::get(b)?;
        // Every element is at least one byte, so a count beyond the bytes
        // left is corrupt: refuse it before anything is allocated for it.
        if n > b.remaining() {
            return Err(WireError::Truncated);
        }
        (0..n).map(|_| T::get(b)).collect()
    }
}

/// Ids are dense, so what holds one may be sized by it (an image's
/// slots): one beyond the protocol bound is refused here, like a corrupt
/// count, before anything is allocated for it.
impl Wire for ServerId {
    #[inline]
    fn put(&self, b: &mut WriteBuf) {
        self.0.put(b)
    }
    #[inline]
    fn get(b: &mut ReadBuf<'_>) -> Result<Self> {
        let id = ServerId(u32::get(b)?);
        if id > ServerId::MAX {
            return Err(WireError::BadServer(id.0));
        }
        Ok(id)
    }
}

impl Wire for OcTable {
    #[inline]
    fn put(&self, b: &mut WriteBuf) {
        encode_seq(self.entries(), b)
    }
    #[inline]
    fn get(b: &mut ReadBuf<'_>) -> Result<Self> {
        Vec::get(b).map(OcTable::from_entries)
    }
}

// ------------------------------------------------------------ the tables --

/// A struct is its fields, in the listed order (`0` names a newtype's
/// field). The struct literal in `get` makes an unlisted field `E0063`.
macro_rules! record {
    ($($ty:ident { $($field:tt),* })*) => {$(
        impl Wire for $ty {
            #[inline]
            fn put(&self, b: &mut WriteBuf) {
                $(self.$field.put(b);)*
            }
            #[inline]
            fn get(b: &mut ReadBuf<'_>) -> Result<Self> {
                Ok($ty { $($field: Wire::get(b)?),* })
            }
        }
    )*};
}

/// An enum is a tag byte, then the fields of the variant in the listed
/// order. One row is both directions: its pattern is the encode arm (no
/// `..`, no wildcard: an unlisted field or variant does not compile) and,
/// read as an expression, what the decode arm builds. A tag listed twice
/// is an unreachable decode arm, denied rather than warned about.
macro_rules! tagged {
    ($($ty:ident $label:literal {
        $($tag:literal $var:ident $(($($elem:ident),*))? $({ $($field:ident),* })?,)*
    })*) => {$(
        impl Wire for $ty {
            #[inline]
            fn put(&self, b: &mut WriteBuf) {
                match self {$(
                    $ty::$var $(($($elem),*))? $({ $($field),* })? => {
                        b.put_u8($tag);
                        $($($elem.put(b);)*)?
                        $($($field.put(b);)*)?
                    }
                )*}
            }
            #[inline]
            #[deny(unreachable_patterns)]
            fn get(b: &mut ReadBuf<'_>) -> Result<Self> {
                Ok(match u8::get(b)? {
                    $($tag => {
                        $($(let $elem = Wire::get(b)?;)*)?
                        $($(let $field = Wire::get(b)?;)*)?
                        $ty::$var $(($($elem),*))? $({ $($field),* })?
                    })*
                    tag => return Err(WireError::BadTag($label, tag)),
                })
            }
        }
    )*};
}

record! {
    ClientId { 0 }
    Oid { 0 }
    QueryId { 0 }
    Point { x, y }
    Rect { xmin, ymin, xmax, ymax }
    NodeRef { server, kind }
    Link { node, dr, height }
    Object { oid, mbb }
    OcEntry { ancestor, outer, rect }
    RoutingNode { height, dr, left, right, parent, oc }
    Insertion { obj, trace, iam_to }
    Pattern { b, b_children, e_children }
    Traversal { mode, region, visited, qid, results_to, trace, initial }
    QueryMsg { target, hop, query, repaired, iam_carrier, iam_to, protocol, reply_via, parent_branch }
    Message { from, to, payload }
}

tagged! {
    Endpoint "endpoint" {
        0 Client(c),
        1 Server(s),
    }
    NodeKind "node kind" {
        0 Data,
        1 Routing,
    }
    ImageHolder "image holder" {
        0 Client(c),
        1 Server(s),
        2 Nobody,
    }
    QueryKind "query kind" {
        0 Point(p),
        1 Window(w),
    }
    QueryMode "query mode" {
        0 Check,
        1 Ascend,
        2 Descend,
    }
    ReplyProtocol "protocol" {
        0 Direct,
        1 ReversePath,
        2 Probabilistic,
    }
    ClientOp "client op" {
        0 Insert(obj),
        1 Point(p, qid),
        2 Window(w, qid),
        3 Delete(obj, qid),
        4 Knn(p, k, qid),
    }
    Found "found" {
        0 Objects(objects),
        1 Removed(removed),
        2 Pairs(pairs),
    }
    Payload "payload" {
        0 InsertAtLeaf { ins, initial },
        1 InsertAscend { ins },
        2 InsertDescend { ins, oc, new_dr },
        3 StoreAtLeaf { ins, oc, new_dr },
        4 InsertAck { oid, trace },
        5 SplitCreate { routing, objects, data_dr, data_oc },
        6 ChildSplit { old_child, new_child, children },
        7 AdjustHeight { child, children, tall_grandchildren },
        8 ChildRemoved { old_child, new_child },
        9 GatherRotation { origin },
        10 GatherRotationInner { origin, b_link, b_children },
        11 RotationInfo { pattern },
        12 SetRouting { node },
        13 SetParent { target, parent },
        14 RefreshChild { child },
        15 ReplaceChild { old_child, new_child },
        16 UpdateOc { target, ancestor, outer, rect },
        17 RefreshOc { target, table },
        18 ShrinkChild { child },
        19 Query(q),
        20 Report { qid, found, spawned, trace, direct },
        21 QueryAggregate { qid, parent_branch, results, trace },
        22 Delete { target, hop, obj },
        23 Eliminate { child, objects },
        24 ClearParent { target },
        25 DropOcAncestor { target, ancestor },
        26 KnnLocal { p, k, qid, results_to },
        27 KnnLocalReply { qid, items, dr },
        28 Routed { op, results_to },
        29 JoinStart { target, qid, results_to, trace },
        30 JoinProbe { target, hop, objects },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn message(payload: Payload) -> Message {
        Message {
            from: Endpoint::Client(ClientId(0)),
            to: Endpoint::Server(ServerId(0)),
            payload,
        }
    }

    #[test]
    fn truncated_frames_error() {
        let frame = encode_message(&message(Payload::GatherRotation {
            origin: ServerId(1),
        }));
        for cut in 4..frame.len() - 1 {
            let mut body = ReadBuf::new(&frame[4..cut]);
            assert!(
                decode_message(&mut body).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    /// Each tagged type rejects an unknown tag under its own label. The
    /// offsets are into the frame body: endpoints are 5 bytes, a
    /// `NodeRef` 4 + 1, the query's `Traversal` header 54 (mode 1,
    /// region 32, empty `visited` 4, qid 8, `results_to` 4, empty trace
    /// 4, `initial` 1), a point 16.
    #[test]
    fn bad_tag_errors() {
        let point = Point::new(0.5, 0.25);
        let region = Rect::new(0.5, 0.25, 0.5, 0.25);
        let query = message(Payload::Query(QueryMsg {
            target: NodeRef::data(ServerId(2)),
            hop: Traversal {
                mode: QueryMode::Check,
                region,
                visited: vec![],
                qid: QueryId(9),
                results_to: ClientId(0),
                trace: vec![],
                initial: true,
            },
            query: QueryKind::Point(point),
            repaired: false,
            iam_carrier: false,
            iam_to: ImageHolder::Client(ClientId(0)),
            protocol: ReplyProtocol::Direct,
            reply_via: None,
            parent_branch: 0,
        }));
        let report = message(Payload::Report {
            qid: QueryId(9),
            found: Found::Removed(true),
            spawned: vec![],
            trace: vec![],
            direct: None,
        });
        let routed = message(Payload::Routed {
            op: ClientOp::Insert(Object::new(Oid(1), region)),
            results_to: ClientId(0),
        });
        for (label, msg, at) in [
            ("endpoint", &query, 0),
            ("endpoint", &query, 5),
            ("payload", &query, 10),
            ("node kind", &query, 15),
            ("query mode", &query, 16),
            ("query kind", &query, 70),
            ("image holder", &query, 89),
            ("protocol", &query, 94),
            ("found", &report, 19),
            ("client op", &routed, 11),
        ] {
            let mut body = encode_message(msg).split_off(4);
            assert_eq!(decode_message(&mut ReadBuf::new(&body)).as_ref(), Ok(msg));
            body[at] = 0xEE;
            let err = decode_message(&mut ReadBuf::new(&body)).unwrap_err();
            assert_eq!(err, WireError::BadTag(label, 0xEE), "byte {at}");
            assert_eq!(err.to_string(), format!("invalid {label} tag 0xee"));
        }
    }
}
