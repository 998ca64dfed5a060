//! The SD-Rtree message protocol.
//!
//! "The nodes communicate only through point-to-point messages" (§1).
//! Every interaction — insertion routing, out-of-range repair, splits,
//! height adjustment, rotations, overlapping-coverage maintenance, query
//! traversal, IAMs and replies — is one of the [`Payload`] variants
//! below, wrapped in a [`Message`] with explicit endpoints. The same
//! enum drives both the in-process simulator (`cluster`) and the TCP
//! deployment (`sdr-net`).
//!
//! The paper has one traversal and one reply rule, and so does the
//! protocol: a query, a delete and a join probe each carry one
//! [`Traversal`] header — what the hop decision reads — beside the work
//! the reached node does, and every hop of the three answers with one
//! [`Payload::Report`] whose [`Found`] says what it found. Insertion is
//! one operation too: its four hop payloads each carry one [`Insertion`]
//! the way traversal hops carry one `Traversal`, beside what the hop's
//! parent decided for the receiver.

use crate::ids::{ClientId, NodeKind, NodeRef, Oid, QueryId, ServerId};
use crate::link::Link;
use crate::node::{Object, RoutingNode};
use crate::oc::OcTable;
use sdr_geom::{Point, Rect};

/// A communication endpoint: a client component or a server.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A client (application node).
    Client(ClientId),
    /// A storage server.
    Server(ServerId),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Client(c) => write!(f, "{c}"),
            Endpoint::Server(s) => write!(f, "{s}"),
        }
    }
}

/// A point-to-point message.
#[derive(Clone, Debug, PartialEq)]
pub struct Message {
    /// Sender.
    pub from: Endpoint,
    /// Receiver.
    pub to: Endpoint,
    /// Content.
    pub payload: Payload,
}

/// The links collected along an operation's path, cumulated into the
/// image adjustment message (IAM) sent back to the requester.
///
/// "Each time a server S is visited, the following links can be
/// collected: the data link describing the data node of S; the routing
/// link describing the routing node of S, and the left and right links of
/// the routing node. ... When an operation requires a chain of n
/// messages, the links are cumulated so that the application finally
/// receives an IAM with 4n links." (§3.1)
pub type Trace = Vec<Link>;

/// Where IAMs produced by an operation should be sent: to the requesting
/// client (IMCLIENT) or to the contact server that routed the request on
/// the client's behalf (IMSERVER).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ImageHolder {
    /// The image lives on the client.
    Client(ClientId),
    /// The image lives on a contact server.
    Server(ServerId),
    /// Nobody maintains an image (the BASIC variant): IAMs are
    /// suppressed at the source.
    Nobody,
}

/// The spatial predicate of a search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryKind {
    /// Point query: objects whose mbb contains the point.
    Point(Point),
    /// Window query: objects whose mbb intersects the window.
    Window(Rect),
}

impl QueryKind {
    /// The query's own bounding rectangle (degenerate for points), used
    /// for containment tests during the out-of-range ascent.
    pub fn rect(&self) -> Rect {
        match self {
            QueryKind::Point(p) => Rect::from_point(*p),
            QueryKind::Window(w) => *w,
        }
    }

    /// Whether the query predicate can match anything inside `dr`.
    pub fn intersects(&self, dr: &Rect) -> bool {
        match self {
            QueryKind::Point(p) => dr.contains_point(p),
            QueryKind::Window(w) => dr.intersects(w),
        }
    }
}

/// How a query message should be interpreted by the receiving node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryMode {
    /// The message was addressed from an image or an OC entry: the
    /// receiver must check that it actually covers the query region and
    /// repair by ascending if not (the out-of-range mechanism of §3.2 /
    /// §4.1 case (ii)). On success it both handles the query and forwards
    /// along its own OC.
    Check,
    /// Bottom-up phase: the receiver forwards to its parent until a node
    /// covering the region (or the root) is found.
    Ascend,
    /// Pure top-down traversal (PQTRAVERSAL / WQTRAVERSAL): the sender
    /// already established relevance; descend without OC forwarding.
    Descend,
}

/// The state every insert hop carries (§3.2): the object, the links
/// collected so far — each hop appends its own, and the trace becomes the
/// IAM — and who receives that IAM.
#[derive(Clone, Debug, PartialEq)]
pub struct Insertion {
    /// The object.
    pub obj: Object,
    /// Links collected so far (becomes the IAM).
    pub trace: Trace,
    /// Where the IAM goes.
    pub iam_to: ImageHolder,
}

impl Insertion {
    /// An insertion at its first hop: nothing collected yet.
    pub fn new(obj: Object, iam_to: ImageHolder) -> Self {
        let trace = Vec::new();
        Insertion { obj, trace, iam_to }
    }
}

/// The header of one traversal hop: the state `Server::decide_hop`
/// reads, shared by a query, a delete and a join probe. The work the
/// reached node does travels beside it, in the payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Traversal {
    /// Check / Ascend / Descend.
    pub mode: QueryMode,
    /// The region this branch is responsible for. Starts as the
    /// operation's own rectangle; OC forwarding narrows it to the overlap
    /// rectangle. Drives the out-of-range ascent stop condition.
    pub region: Rect,
    /// Nodes that have been, or are being, sent this operation: the
    /// sender's own set plus everything its hop addressed (and the OC
    /// ancestors its fan-out already covers). OC forwarding skips them,
    /// which breaks loops through mutually-overlapping entries and keeps
    /// the targets of one hop from re-forwarding to each other.
    pub visited: Vec<NodeRef>,
    /// Operation instance, for reply accounting.
    pub qid: QueryId,
    /// Where the reports go.
    pub results_to: ClientId,
    /// Links collected so far (becomes the IAM).
    pub trace: Trace,
    /// Whether this is the operation's first hop. Its report is marked,
    /// so the client can anchor its sender accounting even when a
    /// contact server chose the entry point (IMSERVER), and says whether
    /// the image produced a direct match (Figure 13). Always `false` for
    /// a join probe: the client seeds a join's entry itself.
    pub initial: bool,
}

/// What one traversal hop found, by the operation it served.
#[derive(Clone, Debug, PartialEq)]
pub enum Found {
    /// A query's matching objects (empty for routing hops).
    Objects(Vec<Object>),
    /// Whether a delete removed its object here.
    Removed(bool),
    /// A join's intersecting pairs, `(smaller, larger)` by oid.
    Pairs(Vec<(Oid, Oid)>),
}

/// A query traversal message.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryMsg {
    /// Which node on the receiving server is addressed.
    pub target: NodeRef,
    /// The hop state.
    pub hop: Traversal,
    /// The predicate.
    pub query: QueryKind,
    /// Whether this branch went through an out-of-range repair (at least
    /// one Ascend hop). The hop that finally resolves a repaired branch
    /// arranges the IAM for the image holder (§3.1: addressing errors
    /// trigger IAMs).
    pub repaired: bool,
    /// Whether this branch carries the IAM duty: the resolving hop of a
    /// repaired branch delegates the IAM to one descending branch, so
    /// the image holder receives the complete out-of-range path —
    /// including the leaf finally reached — exactly the "links collected
    /// from the visited servers" of §3.2.
    pub iam_carrier: bool,
    /// Where IAMs go.
    pub iam_to: ImageHolder,
    /// Which termination protocol governs replies.
    pub protocol: ReplyProtocol,
    /// Reverse-path protocol only: the server to send the aggregate to
    /// (the sender of this message), or `None` at the query origin
    /// (reply directly to the client).
    pub reply_via: Option<ServerId>,
    /// Reverse-path protocol only: the sender's branch token; the
    /// receiver echoes it in its aggregate so the sender can match the
    /// reply to its pending entry.
    pub parent_branch: u64,
}

/// Termination protocol for point/window queries (§4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyProtocol {
    /// "Each server getting the query responds to the client, whether it
    /// found the relevant data or not", together with enough bookkeeping
    /// (here: its fan-out) for the client to detect completion. Used by
    /// the paper's evaluation.
    Direct,
    /// Replies flow back along the traversal tree and are aggregated at
    /// each hop; the initial server sends one combined reply. Costs each
    /// path twice.
    ReversePath,
    /// "Only the servers with data relevant to the query respond, \[and\]
    /// the client considers as established the result got within some
    /// timeout." Fewest reply messages; completion cannot be detected,
    /// which "may lead to a miss" on unreliable configurations (none in
    /// the simulator, whose drain *is* the timeout).
    Probabilistic,
}

/// Requests a client (or contact server) can ask the structure to
/// perform. Used by the IMSERVER variant to ship an operation to a
/// randomly chosen contact server which then routes it with its own
/// image.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientOp {
    /// Insert an object.
    Insert(Object),
    /// Run a point query.
    Point(Point, QueryId),
    /// Run a window query.
    Window(Rect, QueryId),
    /// Delete an object.
    Delete(Object, QueryId),
    /// Ask the data node most likely to hold a point for its local `k`
    /// nearest neighbours (kNN phase 1, see [`crate::knn`]).
    Knn(Point, usize, QueryId),
}

/// A rotation pattern `a(b(e(f,g),d),c)` as seen from the unbalanced
/// node `a` (§2.4): `b` is its taller child, `e` the taller child of `b`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pattern {
    /// Fresh link to `b`.
    pub b: Link,
    /// `b`'s children links (`e` and `d`, in `b`'s order).
    pub b_children: (Link, Link),
    /// The children links of `e` (`f`, `g`).
    pub e_children: (Link, Link),
}

/// Message payloads.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    // ------------------------------------------------------ insertion --
    /// INSERT-IN-LEAF (§3.2): ask a data node to store the object if its
    /// directory rectangle covers it.
    InsertAtLeaf {
        /// The insertion.
        ins: Insertion,
        /// First message of the operation: a store here needs no ack.
        initial: bool,
    },
    /// INSERT-IN-SUBTREE (§3.2), bottom-up phase: forwarded up until a
    /// routing node whose dr covers the object (or the root) is reached.
    InsertAscend {
        /// The insertion.
        ins: Insertion,
    },
    /// Top-down phase of the insertion: the receiving routing node covers
    /// the object (or is the root, which may enlarge freely).
    InsertDescend {
        /// The insertion.
        ins: Insertion,
        /// The receiver's up-to-date OC table, derived by its parent (see
        /// `OcTable::derive_child`).
        oc: OcTable,
        /// The receiver's directory rectangle after the enlargement
        /// decided by its parent, or `None` when no enlargement happened.
        new_dr: Option<Rect>,
    },
    /// Final hop: store the object at a data node whose new directory
    /// rectangle and OC were computed by the parent.
    StoreAtLeaf {
        /// The insertion.
        ins: Insertion,
        /// The data node's recomputed OC table.
        oc: OcTable,
        /// The data node's directory rectangle after enlargement.
        new_dr: Rect,
    },
    /// Acknowledgment carrying the IAM, sent to the image holder when the
    /// insertion needed more than one hop (§3.2).
    InsertAck {
        /// The stored object's id.
        oid: Oid,
        /// The IAM: all links collected on the out-of-range path.
        trace: Trace,
    },

    // ---------------------------------------------------------- split --
    /// Initializes a freshly allocated server with its routing node and
    /// the half of the split objects it receives (§2.2).
    SplitCreate {
        /// The new routing node (parent of both split halves).
        routing: RoutingNode,
        /// Objects relocated to the new server's data node.
        objects: Vec<Object>,
        /// Directory rectangle of the new data node.
        data_dr: Rect,
        /// OC table of the new data node.
        data_oc: OcTable,
    },
    /// Tells the split server's former parent that its child link must be
    /// replaced by the new routing node, kicking off the bottom-up height
    /// adjustment.
    ChildSplit {
        /// The node that split (the old child).
        old_child: NodeRef,
        /// Link to the new routing node taking its place.
        new_child: Link,
        /// The new routing node's children links (needed two levels up if
        /// a rotation pattern must be assembled).
        children: (Link, Link),
    },
    /// Bottom-up height/rectangle adjustment after a split or rotation
    /// (§2.2 "bottom-up traversal that follows any split operation").
    /// Carries the links a potential rotation at the receiver needs.
    AdjustHeight {
        /// Fresh link to the sending child.
        child: Link,
        /// The sending child's children links.
        children: (Link, Link),
        /// The children links of the sender's taller child — the `f`/`g`
        /// of a rotation pattern. `None` when the taller child is a data
        /// node.
        tall_grandchildren: Option<(Link, Link)>,
    },

    /// A child subtree was removed by node elimination; the parent
    /// replaces its link (the dissolved routing node) with the surviving
    /// sibling and re-runs the height adjustment.
    ChildRemoved {
        /// The dissolved routing node.
        old_child: NodeRef,
        /// Link to the surviving sibling subtree.
        new_child: Link,
    },
    /// First hop of the rotation-information gathering used when an
    /// imbalance is detected without the adjust chain's piggybacked links
    /// (this happens on the deletion path, where heights *decrease*): the
    /// unbalanced node asks its taller child for the rotation pattern.
    GatherRotation {
        /// The unbalanced routing node's server.
        origin: ServerId,
    },
    /// Second hop: the taller child forwards to *its* taller child, which
    /// holds the last missing links.
    GatherRotationInner {
        /// The unbalanced routing node's server.
        origin: ServerId,
        /// Fresh link to the taller child (`b` of the pattern).
        b_link: Link,
        /// `b`'s children links.
        b_children: (Link, Link),
    },
    /// Final hop: the assembled rotation pattern, sent back to the
    /// unbalanced node, which re-checks and rotates.
    RotationInfo {
        /// The pattern below the unbalanced node.
        pattern: Pattern,
    },

    // ------------------------------------------------------- rotation --
    /// Overwrites the receiving server's routing node (rotation: nodes
    /// `b` and `e` get new children/parent/OC computed by the driver).
    SetRouting {
        /// The complete new routing-node state.
        node: RoutingNode,
    },
    /// Updates the parent pointer of one node (rotation: the moved
    /// subtrees learn their new parent).
    SetParent {
        /// Which node on the receiving server.
        target: NodeRef,
        /// The new parent's server.
        parent: ServerId,
    },
    /// A re-parented node reports its current state to its new parent,
    /// repairing any staleness in the link snapshots the rotation driver
    /// worked from (concurrent inserts may have enlarged the moved
    /// subtree while the rotation messages were in flight).
    RefreshChild {
        /// Fresh link to the sending child.
        child: Link,
    },
    /// Replaces a child link in the receiving routing node without
    /// cascading height adjustment (rotation preserves subtree height:
    /// "the bottom-up adjustment path stops there").
    ReplaceChild {
        /// The link's current node.
        old_child: NodeRef,
        /// The replacement link.
        new_child: Link,
    },

    // ------------------------------------------- overlapping coverage --
    /// The paper's UPDATEOC procedure (§2.3): one ancestor's outer
    /// rectangle changed; update the local entry and diffuse into
    /// children whose rectangles intersect.
    UpdateOc {
        /// Which node on the receiving server.
        target: NodeRef,
        /// The ancestor whose entry changes.
        ancestor: ServerId,
        /// Link to the (possibly updated) outer node.
        outer: Link,
        /// The outer node's directory rectangle, progressively
        /// intersected along the diffusion.
        rect: Rect,
    },
    /// Full-table refresh used after rotations: the parent recomputed the
    /// receiver's whole OC table. The receiver stores it and, if coverage
    /// changed, derives and forwards its children's tables.
    RefreshOc {
        /// Which node on the receiving server.
        target: NodeRef,
        /// The recomputed table.
        table: OcTable,
    },
    /// A child's directory rectangle shrank after deletions; the parent
    /// updates the link and propagates further shrinks upward (§3.3
    /// "may adjust covering rectangles on the path to the root").
    ShrinkChild {
        /// The shrunken child.
        child: Link,
    },

    // -------------------------------------------------------- queries --
    /// A query traversal hop (point or window; all modes).
    Query(QueryMsg),
    /// Direct-protocol reply: one per server that processed a traversal
    /// hop of a query, a delete or a join. `spawned` lists the servers
    /// the onward hops target, so the client can verify *which* servers
    /// still owe a report — a plain count would balance out (and
    /// silently lose results) whenever a dropped report happened to have
    /// spawned exactly one child.
    Report {
        /// The operation.
        qid: QueryId,
        /// What this hop found.
        found: Found,
        /// Servers targeted by the onward messages this hop emitted (one
        /// entry per message; repeats are legitimate).
        spawned: Vec<ServerId>,
        /// Links cumulated along the path from the first hop to this
        /// one: the hop appends its own links to the trace it received
        /// and sends that path both onward and here (see [`Trace`]).
        trace: Trace,
        /// On the entry hop's report of a query or a delete, whether the
        /// image addressed the right data node (`Some(false)`: out of
        /// range, Figure 13); `None` on every other report.
        direct: Option<bool>,
    },
    /// Reverse-path protocol reply: aggregated results flowing back along
    /// the traversal tree.
    QueryAggregate {
        /// The query.
        qid: QueryId,
        /// The receiver's branch token this aggregate answers.
        parent_branch: u64,
        /// Aggregated objects from the sender's whole branch.
        results: Vec<Object>,
        /// Links collected along the branch.
        trace: Trace,
    },

    // ------------------------------------------------------- deletion --
    /// Delete an object (routed like a point query on its mbb; §3.3).
    Delete {
        /// Addressed node.
        target: NodeRef,
        /// The hop state (the region starts as the object's mbb).
        hop: Traversal,
        /// The object to delete (oid + mbb for exact matching).
        obj: Object,
    },
    /// Node elimination (§3.3): the underflowing data node sends its
    /// remaining objects to its parent, which dissolves itself and
    /// re-injects the objects into the sibling subtree.
    Eliminate {
        /// The underflowing data node.
        child: NodeRef,
        /// Its remaining objects.
        objects: Vec<Object>,
    },
    /// The target node becomes the tree root (its parent dissolved).
    ClearParent {
        /// Which node on the receiving server.
        target: NodeRef,
    },
    /// Recursively removes the OC entries keyed by a dissolved ancestor.
    DropOcAncestor {
        /// Which node on the receiving server.
        target: NodeRef,
        /// The dissolved routing node's server.
        ancestor: ServerId,
    },

    // ------------------------------------------------------------ kNN --
    /// Ask a data node for its local k nearest neighbours (extension;
    /// §7 lists kNN as future work).
    KnnLocal {
        /// Query point.
        p: Point,
        /// Number of neighbours.
        k: usize,
        /// Query instance.
        qid: QueryId,
        /// Reply destination.
        results_to: ClientId,
    },
    /// Local kNN reply: candidates plus the data node's directory
    /// rectangle, letting the client bound the verification radius.
    KnnLocalReply {
        /// The query instance.
        qid: QueryId,
        /// Up to `k` local `(object, distance)` pairs, nearest first.
        items: Vec<(Object, f64)>,
        /// The replying data node's directory rectangle.
        dr: Option<Rect>,
    },

    // --------------------------------------------------- spatial join --
    /// Starts a distributed self-join (every intersecting object pair) —
    /// broadcast down the tree; each data node computes its local pairs
    /// and probes the overlap regions its OC table records (extension;
    /// §7 lists spatial joins as future work).
    JoinStart {
        /// Which node on the receiving server.
        target: NodeRef,
        /// The join instance.
        qid: QueryId,
        /// Reply destination.
        results_to: ClientId,
        /// Links collected (IAM material).
        trace: Trace,
    },
    /// A boundary probe: objects from one data node that intersect an
    /// overlap region, shipped to the outer subtree for cross-node pair
    /// detection.
    JoinProbe {
        /// Which node on the receiving server.
        target: NodeRef,
        /// The hop state, with the same stale-link repair semantics as
        /// query traversal; its region is the overlap region probed.
        hop: Traversal,
        /// The probing objects (already clipped to the overlap region).
        objects: Vec<Object>,
    },

    // ------------------------------------------------------- IMSERVER --
    /// A client request shipped to a randomly chosen contact server,
    /// which routes it using its own image (the IMSERVER variant, §5).
    Routed {
        /// The operation to perform.
        op: ClientOp,
        /// The requesting client (final results destination).
        results_to: ClientId,
    },
}

impl Payload {
    /// An insertion as the request the addressed kind of node takes
    /// (§3.2): a data node re-checks its coverage, a routing node
    /// continues the ascent. `initial` marks the client's first hop;
    /// only a data node reads it (a store there needs no ack).
    pub(crate) fn insert_at(kind: NodeKind, ins: Insertion, initial: bool) -> Payload {
        match kind {
            NodeKind::Data => Payload::InsertAtLeaf { ins, initial },
            NodeKind::Routing => Payload::InsertAscend { ins },
        }
    }

    /// The variant's name, for tracing and fault-injection diagnostics.
    /// Lives here — next to the enum — so the list can never drift from
    /// the variants the way a transport-side copy could.
    pub fn name(&self) -> &'static str {
        match self {
            Payload::InsertAtLeaf { .. } => "InsertAtLeaf",
            Payload::InsertAscend { .. } => "InsertAscend",
            Payload::InsertDescend { .. } => "InsertDescend",
            Payload::StoreAtLeaf { .. } => "StoreAtLeaf",
            Payload::InsertAck { .. } => "InsertAck",
            Payload::SplitCreate { .. } => "SplitCreate",
            Payload::ChildSplit { .. } => "ChildSplit",
            Payload::AdjustHeight { .. } => "AdjustHeight",
            Payload::ChildRemoved { .. } => "ChildRemoved",
            Payload::GatherRotation { .. } => "GatherRotation",
            Payload::GatherRotationInner { .. } => "GatherRotationInner",
            Payload::RotationInfo { .. } => "RotationInfo",
            Payload::SetRouting { .. } => "SetRouting",
            Payload::SetParent { .. } => "SetParent",
            Payload::RefreshChild { .. } => "RefreshChild",
            Payload::ReplaceChild { .. } => "ReplaceChild",
            Payload::UpdateOc { .. } => "UpdateOc",
            Payload::RefreshOc { .. } => "RefreshOc",
            Payload::ShrinkChild { .. } => "ShrinkChild",
            Payload::Query(_) => "Query",
            // One variant, three labels: a trace names the operation a
            // report answers.
            Payload::Report { found, .. } => match found {
                Found::Objects(_) => "QueryReport",
                Found::Removed(_) => "DeleteReport",
                Found::Pairs(_) => "JoinReport",
            },
            Payload::QueryAggregate { .. } => "QueryAggregate",
            Payload::Delete { .. } => "Delete",
            Payload::Eliminate { .. } => "Eliminate",
            Payload::ClearParent { .. } => "ClearParent",
            Payload::DropOcAncestor { .. } => "DropOcAncestor",
            Payload::KnnLocal { .. } => "KnnLocal",
            Payload::KnnLocalReply { .. } => "KnnLocalReply",
            Payload::JoinStart { .. } => "JoinStart",
            Payload::JoinProbe { .. } => "JoinProbe",
            Payload::Routed { .. } => "Routed",
        }
    }

    /// Coarse category for statistics, mirroring the cost decomposition
    /// of the paper's experiments (insertion vs adjustment vs rotation vs
    /// OC maintenance vs queries).
    pub fn category(&self) -> crate::stats::MsgCategory {
        use crate::stats::MsgCategory::*;
        match self {
            Payload::InsertAtLeaf { .. }
            | Payload::InsertAscend { .. }
            | Payload::InsertDescend { .. }
            | Payload::StoreAtLeaf { .. }
            | Payload::Routed {
                op: ClientOp::Insert(_),
                ..
            } => Insert,
            Payload::InsertAck { .. } => Iam,
            Payload::SplitCreate { .. } | Payload::ChildSplit { .. } => Split,
            Payload::AdjustHeight { .. }
            | Payload::ShrinkChild { .. }
            | Payload::RefreshChild { .. }
            | Payload::GatherRotation { .. }
            | Payload::GatherRotationInner { .. }
            | Payload::RotationInfo { .. } => Adjust,
            Payload::ChildRemoved { .. } => Delete,
            Payload::SetRouting { .. }
            | Payload::SetParent { .. }
            | Payload::ReplaceChild { .. } => Rotation,
            Payload::UpdateOc { .. }
            | Payload::RefreshOc { .. }
            | Payload::DropOcAncestor { .. } => Oc,
            Payload::Query(_)
            | Payload::KnnLocal { .. }
            | Payload::JoinStart { .. }
            | Payload::JoinProbe { .. }
            | Payload::Routed { .. } => Query,
            Payload::Report { .. }
            | Payload::QueryAggregate { .. }
            | Payload::KnnLocalReply { .. } => Reply,
            Payload::Delete { .. } | Payload::Eliminate { .. } | Payload::ClearParent { .. } => {
                Delete
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MsgCategory;

    #[test]
    fn query_kind_geometry() {
        let p = QueryKind::Point(Point::new(1.0, 1.0));
        assert_eq!(p.rect(), Rect::new(1.0, 1.0, 1.0, 1.0));
        assert!(p.intersects(&Rect::new(0.0, 0.0, 2.0, 2.0)));
        assert!(!p.intersects(&Rect::new(2.0, 2.0, 3.0, 3.0)));
        let w = QueryKind::Window(Rect::new(0.0, 0.0, 1.0, 1.0));
        assert!(w.intersects(&Rect::new(0.5, 0.5, 2.0, 2.0)));
        assert!(!w.intersects(&Rect::new(1.5, 1.5, 2.0, 2.0)));
    }

    #[test]
    fn categories_route_to_stats_buckets() {
        let obj = Object::new(Oid(1), Rect::new(0.0, 0.0, 1.0, 1.0));
        let ins = Insertion::new(obj, ImageHolder::Nobody);
        let p = Payload::InsertAtLeaf { ins, initial: true };
        assert_eq!(p.category(), MsgCategory::Insert);
        let ack = Payload::InsertAck {
            oid: Oid(1),
            trace: vec![],
        };
        assert_eq!(ack.category(), MsgCategory::Iam);
    }
}
