//! Server-side query processing (§4): point and window queries with
//! image-targeted addressing, out-of-range repair, OC-driven forwarding,
//! both termination protocols, plus deletion routing (§3.3) and local
//! kNN (the §7 extension).
//!
//! There is one traversal, and `Server::decide_hop` is the one place
//! that decides it — for a query, a delete and a join probe alike. It
//! reads the hop's [`Traversal`] header and only *decides*: what the
//! addressed node turned out to be (`Step`), the onward hops, and the
//! `visited` set they share. *Saying* it is the caller's: `on_query`,
//! `on_delete` and `join::on_join_probe` each wrap the onward headers
//! (`Hop::headers`) in their own payload, then answer the client with
//! one `Report` of what the hop found. A delete passes its object's mbb
//! as the whole rectangle and follows the OC, exactly like a window
//! query on that mbb; what a join probe passes is told in `join.rs`.
//!
//! The traversal state machine:
//!
//! * **Check** (from an image or an OC entry): the node verifies it
//!   covers the branch's *region*. A covering data node searches locally
//!   and forwards along its OC; a covering routing node resolves by
//!   descending plus OC-forwarding; a non-covering node starts the
//!   bottom-up **Ascend** ("out of range", §4.1 case (ii)).
//! * **Ascend**: climb to the parent until a routing node covering the
//!   region (or the root) is found, then resolve as above.
//! * **Descend**: the classical PQTRAVERSAL / WQTRAVERSAL: recurse into
//!   every child intersecting the query.
//!
//! OC forwarding carries a narrowed region (query ∩ overlap rectangle)
//! and the set of nodes that have been, or are being, sent this query.
//! A resolving hop fills it once and hands the same set to every message
//! it emits: itself, all of its targets and — when its directory
//! rectangle covers the whole query — the ancestors of its OC table,
//! whose other subtrees its own forwards already reach (Definition 3).
//! The set breaks the forwarding cycles that mutual overlap would
//! otherwise create (node A's OC points at B and vice versa) and keeps
//! the k outer nodes of one hop from re-forwarding to each other; see
//! DESIGN.md decision 3.

use crate::ids::{ClientId, NodeKind, NodeRef, QueryId, ServerId};
use crate::msg::{
    Endpoint, Found, ImageHolder, Payload, QueryKind, QueryMode, QueryMsg, ReplyProtocol, Traversal,
};
use crate::node::Object;
use crate::server::{Outbox, Server};
use sdr_geom::{Point, Rect};
use std::collections::{btree_map, BTreeMap};

/// Per-server state for the reverse-path termination protocol: one entry
/// per inbound traversal hop that spawned children, keyed by this hop's
/// branch token.
#[derive(Clone, Debug, Default)]
pub struct PendingAggregates {
    entries: BTreeMap<u64, Pending>,
    /// One-shot child routes: each spawned child is handed its own
    /// branch token, mapped here to the accumulator's key. The route is
    /// consumed by the first aggregate that answers it, so a duplicated
    /// `QueryAggregate` (fault injection, or a retransmit in a real
    /// deployment) finds no route and is discarded instead of
    /// double-decrementing `remaining` — which used to terminate the
    /// branch early and silently drop the still-outstanding subtree's
    /// results (surfaced by the per-op trace trees under `dup` faults).
    routes: BTreeMap<u64, u64>,
    next_branch: u64,
}

#[derive(Clone, Debug)]
struct Pending {
    qid: QueryId,
    remaining: usize,
    results: Vec<Object>,
    trace: crate::msg::Trace,
    /// Where to send the completed aggregate: back along the traversal
    /// tree, or to the client at the query origin.
    reply_via: Option<ServerId>,
    parent_branch: u64,
    results_to: ClientId,
}

impl Pending {
    /// Sends the branch's finished aggregate one step back along the
    /// traversal tree, or to the client at the query origin.
    fn send(self, out: &mut Outbox) {
        let to = match self.reply_via {
            Some(server) => Endpoint::Server(server),
            None => Endpoint::Client(self.results_to),
        };
        let aggregate = Payload::QueryAggregate {
            qid: self.qid,
            parent_branch: self.parent_branch,
            results: self.results,
            trace: self.trace,
        };
        out.send(to, aggregate);
    }
}

impl PendingAggregates {
    /// Allocates a fresh branch token for an outgoing hop.
    fn alloc_branch(&mut self, server: ServerId) -> u64 {
        self.next_branch += 1;
        ((server.0 as u64) << 32) | self.next_branch
    }
}

/// What a traversal hop found at the node it addressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// The node dissolved (§3.3): the hop follows its tombstone.
    Dissolved,
    /// The node does not cover the branch's region: the hop climbs to
    /// the parent (§4.1 case (ii)).
    OutOfRange,
    /// A Check or Ascend hop reached a node covering the region (or the
    /// root): the operation is handled here, descends, and is forwarded
    /// along the overlapping coverage.
    Resolved,
    /// A Descend hop: the sender established relevance.
    Descended,
}

impl Step {
    /// Whether the operation applies to the addressed node itself (a
    /// data node is searched), not only passes through it.
    pub(crate) fn reached(self) -> bool {
        matches!(self, Step::Resolved | Step::Descended)
    }
}

/// One decided hop: what the node turned out to be and where the
/// operation goes next. The caller says it, in its own payload.
pub(crate) struct Hop {
    pub(crate) step: Step,
    /// Onward hops `(target, mode, region)` in emission order: descents
    /// left then right, then OC forwards in table order.
    pub(crate) onward: Vec<(NodeRef, QueryMode, Rect)>,
    /// The set every onward message carries (DESIGN.md decision 3).
    pub(crate) visited: Vec<NodeRef>,
}

impl Hop {
    /// The servers the onward hops address, one entry per message: what
    /// a report tells the client it is still owed.
    pub(crate) fn spawned(&self) -> Vec<ServerId> {
        self.onward.iter().map(|next| next.0.server).collect()
    }

    /// Each onward hop's target and header, in emission order: never an
    /// entry hop, this decision's `visited`, the links collected at `at`.
    pub(crate) fn headers<'a>(
        &'a self,
        at: &'a Traversal,
    ) -> impl Iterator<Item = (NodeRef, Traversal)> + 'a {
        self.onward.iter().map(move |&(target, mode, region)| {
            let hop = Traversal {
                mode,
                region,
                visited: self.visited.clone(),
                qid: at.qid,
                results_to: at.results_to,
                trace: at.trace.clone(),
                initial: false,
            };
            (target, hop)
        })
    }
}

impl Server {
    /// Decides one Check / Ascend / Descend hop of `hop` at `target` —
    /// for a query, a delete and a join probe alike (the module docs
    /// tell the state machine). `whole` is the operation's entire
    /// rectangle, of which the header's region is this branch's share;
    /// `can_match` says whether a child's rectangle can hold anything
    /// the operation is after; `follow_oc` whether a resolving hop
    /// forwards along its OC table.
    ///
    /// The returned `visited` is the inbound set, this node, all targets
    /// of this hop and — if this node's rectangle covers `whole` — the
    /// ancestors of its OC table, whose other subtrees that can match
    /// are exactly those targets (Definition 3).
    pub(crate) fn decide_hop(
        &self,
        target: NodeRef,
        hop: &Traversal,
        whole: &Rect,
        can_match: impl Fn(&Rect) -> bool,
        follow_oc: bool,
    ) -> Hop {
        let (mode, region, visited) = (hop.mode, hop.region, &hop.visited);
        // The nodes that have been sent the operation, this one
        // included, with room for `more`.
        let told = |more: usize| {
            let mut told = Vec::with_capacity(visited.len() + 1 + more);
            told.extend_from_slice(visited);
            if !told.contains(&target) {
                told.push(target);
            }
            told
        };
        let node = match target.kind {
            NodeKind::Data => self
                .data
                .as_ref()
                .map(|d| (d.dr, d.parent, None, d.oc.entries())),
            NodeKind::Routing => self.routing.as_ref().map(|r| {
                (
                    Some(r.dr),
                    r.parent,
                    Some([r.left, r.right]),
                    r.oc.entries(),
                )
            }),
        };
        let Some((dr, parent, children, oc)) = node else {
            // A stale image or link addressed a dissolved node: follow
            // the tombstone unless it was told already (loop-free). The
            // parent a data node left to is checked afresh; the sibling
            // that took a routing node's place continues in its mode.
            let mode = match target.kind {
                NodeKind::Data => QueryMode::Check,
                NodeKind::Routing => mode,
            };
            let forward = self.tombstone(target.kind);
            let onward = forward.filter(|t| !visited.contains(t));
            return Hop {
                step: Step::Dissolved,
                onward: onward.map(|t| (t, mode, region)).into_iter().collect(),
                visited: told(0),
            };
        };
        let covers = |rect: &Rect| dr.is_some_and(|dr| dr.contains(rect));
        let step = match (mode, parent) {
            (QueryMode::Descend, _) => Step::Descended,
            (_, Some(parent)) if !covers(&region) => {
                return Hop {
                    step: Step::OutOfRange,
                    onward: vec![(NodeRef::routing(parent), QueryMode::Ascend, region)],
                    visited: told(0),
                }
            }
            _ => Step::Resolved,
        };
        let oc = if step == Step::Resolved && follow_oc {
            oc
        } else {
            &[]
        };
        let descents = children
            .iter()
            .flatten()
            .filter(|c| can_match(&c.dr))
            .map(|c| (c.node, QueryMode::Descend, region));
        // An OC forward carries the narrowed region (whole ∩ overlap
        // rectangle) to an outer node that has not been sent it yet.
        let forwards = oc
            .iter()
            .filter(|e| !visited.contains(&e.outer.node))
            .filter_map(|e| Some((e.outer.node, QueryMode::Check, e.rect.intersection(whole)?)));
        // One allocation, on every hop of every operation: at most both
        // children and the whole table.
        let mut onward = Vec::with_capacity(2 + oc.len());
        onward.extend(descents.chain(forwards));
        let ancestors = if covers(whole) { oc } else { &[] };
        let mut visited = told(onward.len() + ancestors.len());
        for node in onward
            .iter()
            .map(|hop| hop.0)
            .chain(ancestors.iter().map(|e| NodeRef::routing(e.ancestor)))
        {
            if !visited.contains(&node) {
                visited.push(node);
            }
        }
        Hop {
            step,
            onward,
            visited,
        }
    }

    /// Handles one query traversal hop.
    pub(crate) fn on_query(&mut self, mut q: QueryMsg, out: &mut Outbox) {
        self.append_iam(&mut q.hop.trace);
        let query = q.query;
        let matches = |dr: &Rect| query.intersects(dr);
        let decided = self.decide_hop(q.target, &q.hop, &query.rect(), matches, true);
        let at_data = q.target.kind == NodeKind::Data;
        let results = match self.data.as_ref() {
            Some(d) if at_data && decided.step.reached() => local_search(d, &query),
            _ => vec![],
        };
        // The hop that resolves a repaired branch owes the image holder
        // an IAM; so does the carrier it delegates that duty to, down
        // one descend path, so that the holder learns the whole
        // corrected path.
        let owes_iam = decided.step.reached() && (q.repaired || q.iam_carrier);
        let carrier = decided
            .onward
            .iter()
            .position(|next| owes_iam && next.1 == QueryMode::Descend);
        // Reverse path: the accumulator the children's aggregates are
        // merged under lives under a fresh local key; each child is
        // handed its *own* one-shot branch token routed to that key, so
        // sibling aggregates are distinguishable and a duplicated one
        // cannot be double-counted (see `PendingAggregates::routes`).
        let waits = q.protocol == ReplyProtocol::ReversePath && !decided.onward.is_empty();
        let pending_key = waits.then(|| self.pending.alloc_branch(self.id));
        for (i, (target, hop)) in decided.headers(&q.hop).enumerate() {
            let (reply_via, parent_branch) = match pending_key {
                Some(key) => {
                    let child = self.pending.alloc_branch(self.id);
                    self.pending.routes.insert(child, key);
                    (Some(self.id), child)
                }
                None => (None, 0),
            };
            // Possibly self-addressed — the cluster does not bill those,
            // matching the paper's co-location rule, but they still
            // produce their own report so the termination accounting
            // stays uniform.
            out.send_server(
                target.server,
                Payload::Query(QueryMsg {
                    target,
                    // An Ascend hop marks the branch as repaired; the
                    // resolving hop arranges the IAM and descendants
                    // start clean.
                    repaired: hop.mode == QueryMode::Ascend,
                    hop,
                    query,
                    iam_carrier: carrier == Some(i),
                    iam_to: q.iam_to,
                    protocol: q.protocol,
                    reply_via,
                    parent_branch,
                }),
            );
        }
        // Figure 13: did the image address the right data node?
        let hit = at_data && decided.step == Step::Resolved;
        let outcome = HopOutcome {
            results,
            spawned: decided.spawned(),
            direct: q.hop.initial.then_some(hit),
            iam_due: owes_iam && carrier.is_none(),
            pending_key,
        };
        self.reply_for_hop(q, outcome, out);
    }

    /// Emits the reply for a processed hop, per the active termination
    /// protocol (§4.3).
    fn reply_for_hop(&mut self, q: QueryMsg, outcome: HopOutcome, out: &mut Outbox) {
        let Traversal {
            qid,
            results_to,
            trace,
            ..
        } = q.hop;
        match q.protocol {
            ReplyProtocol::Probabilistic => {
                // §4.3: only servers with relevant data respond; the
                // client works with whatever arrives (the simulator's
                // drain plays the role of the timeout).
                if !outcome.results.is_empty() {
                    let found = Found::Objects(outcome.results);
                    out.report(results_to, qid, found, vec![], trace, outcome.direct);
                }
            }
            ReplyProtocol::Direct => {
                // An addressing error was repaired: the terminal hop of
                // the repaired branch's carrier path sends the IAM with
                // the accumulated trace to the image holder (contact
                // server in IMSERVER; the client already receives traces
                // with its reports) — the one hop that copies its trace.
                let iam = match q.iam_to {
                    ImageHolder::Server(s) if outcome.iam_due => Some((s, trace.clone())),
                    _ => None,
                };
                // "Each server getting the query responds to the client,
                // whether it found the relevant data or not", carrying
                // the path description (trace) and its fan-out.
                let found = Found::Objects(outcome.results);
                out.report(
                    results_to,
                    qid,
                    found,
                    outcome.spawned,
                    trace,
                    outcome.direct,
                );
                if let Some((s, trace)) = iam {
                    let iam = Payload::Report {
                        qid,
                        found: Found::Objects(vec![]),
                        spawned: vec![],
                        trace,
                        direct: None,
                    };
                    out.send_server(s, iam);
                }
            }
            ReplyProtocol::ReversePath => {
                let branch = Pending {
                    qid,
                    remaining: outcome.spawned.len(),
                    results: outcome.results,
                    trace,
                    reply_via: q.reply_via,
                    parent_branch: q.parent_branch,
                    results_to,
                };
                match outcome.pending_key {
                    // Wait for the children.
                    Some(key) => {
                        self.pending.entries.insert(key, branch);
                    }
                    // Leaf of the traversal tree: answer immediately.
                    None => branch.send(out),
                }
            }
        }
    }

    /// Reverse-path protocol: a child branch completed.
    pub(crate) fn on_query_aggregate(
        &mut self,
        parent_branch: u64,
        qid: QueryId,
        results: Vec<Object>,
        trace: crate::msg::Trace,
        out: &mut Outbox,
    ) {
        // Consume the child's one-shot route first: a duplicate of an
        // already-counted aggregate finds no route and is discarded,
        // never double-decrementing `remaining` (which would send the
        // merged aggregate upward with a subtree still outstanding).
        let Some(group) = self.pending.routes.remove(&parent_branch) else {
            return;
        };
        let btree_map::Entry::Occupied(mut entry) = self.pending.entries.entry(group) else {
            return;
        };
        let branch = entry.get_mut();
        debug_assert_eq!(branch.qid, qid);
        branch.results.extend(results);
        branch.trace.extend(trace);
        // Saturating out of caution only: every live route decrements
        // at most once, and `remaining` starts at the route count.
        branch.remaining = branch.remaining.saturating_sub(1);
        if branch.remaining == 0 {
            entry.remove().send(out);
        }
    }

    // -------------------------------------------------------- deletion --

    /// Deletion routing (§3.3): traverses like a window query on the
    /// object's mbb (the same hop decision, the OC followed); the data
    /// node holding the object removes it, tightens its rectangle, and
    /// may eliminate itself.
    pub(crate) fn on_delete(
        &mut self,
        target: NodeRef,
        mut hop: Traversal,
        obj: Object,
        out: &mut Outbox,
    ) {
        self.append_iam(&mut hop.trace);
        let matches = |dr: &Rect| dr.intersects(&obj.mbb);
        let decided = self.decide_hop(target, &hop, &obj.mbb, matches, true);
        for (target, hop) in decided.headers(&hop) {
            out.send_server(target.server, Payload::Delete { target, hop, obj });
        }
        // Where a query would search, remove: the local R-tree gives up
        // only an entry with this oid and exactly this mbb.
        let at_data = target.kind == NodeKind::Data;
        let removed = at_data && decided.step.reached() && self.remove_local(&obj, out);
        let hit = at_data && decided.step == Step::Resolved;
        let direct = hop.initial.then_some(hit);
        let found = Found::Removed(removed);
        out.report(
            hop.results_to,
            hop.qid,
            found,
            decided.spawned(),
            hop.trace,
            direct,
        );
    }

    /// Removes an object from the local repository and performs the
    /// §3.3 aftermath: rectangle tightening or node elimination.
    fn remove_local(&mut self, obj: &Object, out: &mut Outbox) -> bool {
        let self_id = self.id;
        let Some(d) = self.data.as_mut() else {
            return false;
        };
        if !d.tree.remove(&obj.mbb, &obj.oid) {
            return false;
        }
        let min = self.config.min_objects();
        let underflow = d.tree.len() < min || d.tree.is_empty();
        if let Some(parent) = d.parent.filter(|_| underflow) {
            // Eliminate: ship the remaining objects to the parent, which
            // dissolves itself and re-injects them through the sibling.
            let objects: Vec<Object> = d
                .tree
                .drain_all()
                .into_iter()
                .map(|e| Object::new(e.item, e.rect))
                .collect();
            self.data = None;
            self.data_tombstone = Some(crate::ids::NodeRef::routing(parent));
            out.send_server(
                parent,
                Payload::Eliminate {
                    child: crate::ids::NodeRef::data(self_id),
                    objects,
                },
            );
            return true;
        }
        // Tighten the directory rectangle to the remaining contents.
        match d.tree.bbox() {
            Some(bbox) => {
                if d.dr != Some(bbox) {
                    d.dr = Some(bbox);
                    d.oc.intersect_all(&bbox);
                    if let Some(p) = d.parent {
                        let link = d.link(self_id);
                        out.send_server(p, Payload::ShrinkChild { child: link });
                    }
                }
            }
            None => {
                // Empty root leaf: reset.
                d.dr = None;
                d.oc = crate::oc::OcTable::new();
            }
        }
        true
    }

    // ------------------------------------------------------------- kNN --

    /// Local k-nearest-neighbours, the first phase of the distributed
    /// kNN algorithm (see `knn` module).
    pub(crate) fn on_knn_local(
        &mut self,
        p: Point,
        k: usize,
        qid: QueryId,
        results_to: ClientId,
        out: &mut Outbox,
    ) {
        let (items, dr) = match self.data.as_ref() {
            Some(d) => {
                let items = d
                    .tree
                    .nearest(p, k)
                    .into_iter()
                    .map(|(e, dist)| (Object::new(e.item, e.rect), dist))
                    .collect();
                (items, d.dr)
            }
            None => (vec![], None),
        };
        out.send(
            Endpoint::Client(results_to),
            Payload::KnnLocalReply { qid, items, dr },
        );
    }
}

/// What a query hop reports, per the termination protocol.
struct HopOutcome {
    results: Vec<Object>,
    spawned: Vec<ServerId>,
    direct: Option<bool>,
    /// Whether this hop must send the IAM to a server-held image (the
    /// IMSERVER contact): set at the terminal of a repaired branch so
    /// the contact receives the complete out-of-range path.
    iam_due: bool,
    /// Reverse path: the key the children's branch tokens are routed
    /// to, if the hop has children to wait for.
    pending_key: Option<u64>,
}

fn local_search(d: &crate::node::DataNode, query: &QueryKind) -> Vec<Object> {
    let mut found = Vec::new();
    let push = |e: &sdr_rtree::Entry<_>| found.push(Object::new(e.item, e.rect));
    match query {
        QueryKind::Point(p) => d.tree.visit_point(p, push),
        QueryKind::Window(w) => d.tree.visit_window(w, push),
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SdrConfig;
    use crate::link::Link;
    use crate::msg::QueryKind;
    use crate::node::RoutingNode;
    use crate::oc::{OcEntry, OcTable};
    use sdr_geom::Rect;

    /// Server 5 hosting a routing node over `[0,1]²` with children
    /// d5 | d6 split at x = 0.5, below ancestors r1 (outer: d2, sharing
    /// x ≤ 0.7) and r3 (outer: r4, sharing x ≥ 0.6).
    fn hop_server() -> Server {
        let mut s = Server::new(ServerId(5), SdrConfig::with_capacity(10));
        let entry = |ancestor, outer, rect| OcEntry {
            ancestor: ServerId(ancestor),
            outer,
            rect,
        };
        let (west, east) = (Rect::new(0.0, 0.0, 0.7, 1.0), Rect::new(0.6, 0.0, 1.0, 1.0));
        s.routing = Some(RoutingNode {
            height: 1,
            dr: Rect::new(0.0, 0.0, 1.0, 1.0),
            left: Link::to_data(ServerId(5), Rect::new(0.0, 0.0, 0.5, 1.0)),
            right: Link::to_data(ServerId(6), Rect::new(0.5, 0.0, 1.0, 1.0)),
            parent: Some(ServerId(3)),
            oc: OcTable::from_entries(vec![
                entry(1, Link::to_data(ServerId(2), west), west),
                entry(3, Link::to_routing(ServerId(4), east, 2), east),
            ]),
        });
        s
    }

    /// The header of operation 1 for client 0, no links collected yet.
    fn header(mode: QueryMode, region: Rect, visited: Vec<NodeRef>, initial: bool) -> Traversal {
        Traversal {
            mode,
            region,
            visited,
            qid: QueryId(1),
            results_to: ClientId(0),
            trace: vec![],
            initial,
        }
    }

    /// Runs one Check hop at r5 and returns the query messages it emitted.
    fn hop(
        s: &mut Server,
        query: QueryKind,
        region: Rect,
        protocol: ReplyProtocol,
    ) -> Vec<QueryMsg> {
        let mut out = Outbox::new(s.id, 100);
        let q = QueryMsg {
            target: NodeRef::routing(s.id),
            hop: header(QueryMode::Check, region, vec![], true),
            query,
            repaired: false,
            iam_carrier: false,
            iam_to: ImageHolder::Nobody,
            protocol,
            reply_via: None,
            parent_branch: 0,
        };
        s.on_query(q, &mut out);
        out.msgs
            .into_iter()
            .filter_map(|m| match m.payload {
                Payload::Query(q) => Some(q),
                _ => None,
            })
            .collect()
    }

    const R5: NodeRef = NodeRef::routing(ServerId(5));
    const D5: NodeRef = NodeRef::data(ServerId(5));
    const D6: NodeRef = NodeRef::data(ServerId(6));
    const D2: NodeRef = NodeRef::data(ServerId(2));
    const R4: NodeRef = NodeRef::routing(ServerId(4));
    const R1: NodeRef = NodeRef::routing(ServerId(1));
    const R3: NodeRef = NodeRef::routing(ServerId(3));

    #[test]
    fn a_covering_hop_tells_each_target_about_its_siblings_and_oc_ancestors() {
        let p = Point::new(0.65, 0.5);
        let sent = hop(
            &mut hop_server(),
            QueryKind::Point(p),
            Rect::from_point(p),
            ReplyProtocol::Direct,
        );
        let targets: Vec<NodeRef> = sent.iter().map(|q| q.target).collect();
        assert_eq!(
            targets,
            [D6, D2, R4],
            "the child holding p, then the OC in table order"
        );
        for q in &sent {
            assert_eq!(q.hop.visited, [R5, D6, D2, R4, R1, R3], "to {:?}", q.target);
        }
    }

    #[test]
    fn a_hop_covering_only_its_region_shares_targets_but_not_ancestors() {
        // The window sticks out of r5's rectangle on the east; the region
        // is what an OC forward would have narrowed it to.
        let w = Rect::new(0.55, 0.4, 1.3, 0.6);
        let region = Rect::new(0.55, 0.4, 1.0, 0.6);
        let sent = hop(
            &mut hop_server(),
            QueryKind::Window(w),
            region,
            ReplyProtocol::Direct,
        );
        assert_eq!(sent.len(), 3);
        for q in &sent {
            assert_eq!(q.hop.visited, [R5, D6, D2, R4], "to {:?}", q.target);
        }
    }

    #[test]
    fn a_reverse_path_hop_rekeys_exactly_its_spawned_children() {
        let mut s = hop_server();
        let p = Point::new(0.65, 0.5);
        let sent = hop(
            &mut s,
            QueryKind::Point(p),
            Rect::from_point(p),
            ReplyProtocol::ReversePath,
        );
        assert_eq!(sent.len(), 3);
        assert_eq!(s.pending.entries.len(), 1);
        let (&key, waiting) = s.pending.entries.iter().next().expect("one accumulator");
        assert_eq!(waiting.remaining, 3);
        let branches: std::collections::BTreeSet<u64> =
            sent.iter().map(|q| q.parent_branch).collect();
        assert_eq!(branches.len(), 3, "one token per child");
        assert_eq!(s.pending.routes.len(), 3);
        for q in &sent {
            assert_eq!(q.reply_via, Some(ServerId(5)));
            assert_eq!(s.pending.routes.get(&q.parent_branch), Some(&key));
            assert_eq!(q.hop.visited.len(), 6, "sharing edits `visited` only");
        }
    }

    // ------------------------------------------- the decision, alone --

    /// Server 6 hosting data node d6 over x ≥ 0.5 below r5 (outer: d5,
    /// sharing 0.5 ≤ x ≤ 0.55) and r3 (outer: r4, sharing x ≥ 0.6),
    /// holding object 9 mid-field and two more in its east corners.
    fn data_server() -> Server {
        let mut s = Server::new(ServerId(6), SdrConfig::with_capacity(10));
        let (seam, east) = (
            Rect::new(0.5, 0.0, 0.55, 1.0),
            Rect::new(0.6, 0.0, 1.0, 1.0),
        );
        let d = s.data.as_mut().expect("a fresh server has a data node");
        let mid = Rect::new(0.7, 0.4, 0.8, 0.5);
        let corners = [
            Rect::new(0.9, 0.1, 0.95, 0.15),
            Rect::new(0.9, 0.8, 0.95, 0.85),
        ];
        for (oid, mbb) in (9..).zip([mid].into_iter().chain(corners)) {
            d.store(Object::new(crate::ids::Oid(oid), mbb));
        }
        d.dr = Some(Rect::new(0.5, 0.0, 1.0, 1.0));
        d.parent = Some(ServerId(5));
        d.oc = OcTable::from_entries(vec![
            OcEntry {
                ancestor: ServerId(5),
                outer: Link::to_data(ServerId(5), Rect::new(0.0, 0.0, 0.55, 1.0)),
                rect: seam,
            },
            OcEntry {
                ancestor: ServerId(3),
                outer: Link::to_routing(ServerId(4), east, 2),
                rect: east,
            },
        ]);
        s
    }

    /// Server 7 after both its nodes dissolved: d7 left to its parent
    /// r5, r7's place was taken by d6.
    fn dissolved_server() -> Server {
        let mut s = Server::bare(ServerId(7), SdrConfig::with_capacity(10));
        s.data_tombstone = Some(R5);
        s.routing_tombstone = Some(D6);
        s
    }

    /// `hop_server()` with r5 made the root.
    fn root_server() -> Server {
        let mut s = hop_server();
        s.routing.as_mut().expect("r5").parent = None;
        s
    }

    use QueryMode::{Ascend, Check, Descend};
    use Step::{Descended, Dissolved, OutOfRange, Resolved};

    /// The decision on its own, row by row: the hop put to a server
    /// (target, mode, the operation's whole rectangle and this branch's
    /// region of it, the inbound `visited`, whether the OC is followed)
    /// and what it must decide (step, onward hops, the shared `visited`).
    /// A child can match when it intersects the whole rectangle.
    #[test]
    fn one_function_decides_every_hop() {
        let unit = Rect::new(0.0, 0.0, 1.0, 1.0);
        // Inside d6, r5's east child, and inside both of r5's overlaps.
        let inside = Rect::new(0.62, 0.4, 0.68, 0.6);
        // Sticks out of r5 and d6 on the east; `clipped` is what an OC
        // forward narrowed it to.
        let wide = Rect::new(0.55, 0.4, 1.3, 0.6);
        let clipped = Rect::new(0.55, 0.4, 1.0, 0.6);
        // `wide` cut to r5's two overlap rectangles and to d6's seam.
        let wide_west = Rect::new(0.55, 0.4, 0.7, 0.6);
        let wide_east = Rect::new(0.6, 0.4, 1.0, 0.6);
        let wide_seam = Rect::new(0.55, 0.4, 0.55, 0.6);
        let (west, east) = (Rect::new(0.0, 0.0, 0.7, 1.0), Rect::new(0.6, 0.0, 1.0, 1.0));
        let (d0, d7) = (NodeRef::data(ServerId(0)), NodeRef::data(ServerId(7)));
        let (r6, r7) = (NodeRef::routing(ServerId(6)), NodeRef::routing(ServerId(7)));
        let leaf = || Server::new(ServerId(0), SdrConfig::with_capacity(10));
        let (oc, no_oc) = (true, false);
        #[rustfmt::skip]
        let table = vec![
            // -- a routing node: resolves when it covers the region
            ("r check covers", hop_server(), R5, Check, inside, inside, vec![], oc,
             Resolved, vec![(D6, Descend, inside), (D2, Check, inside), (R4, Check, inside)],
             vec![R5, D6, D2, R4, R1, R3]),
            ("r ascend covers", hop_server(), R5, Ascend, inside, inside, vec![D6], oc,
             Resolved, vec![(D6, Descend, inside), (D2, Check, inside), (R4, Check, inside)],
             vec![D6, R5, D2, R4, R1, R3]),
            ("r check covers, OC not followed", hop_server(), R5, Check, inside, inside, vec![], no_oc,
             Resolved, vec![(D6, Descend, inside)],
             vec![R5, D6]),
            // both children can match; each forward is narrowed to its overlap
            ("r check covers, both children", hop_server(), R5, Check, unit, unit, vec![], oc,
             Resolved, vec![(D5, Descend, unit), (D6, Descend, unit), (D2, Check, west), (R4, Check, east)],
             vec![R5, D5, D6, D2, R4, R1, R3]),
            // dr ⊇ region but not ⊇ whole: targets shared, ancestors not
            ("r check covers the region only", hop_server(), R5, Check, wide, clipped, vec![], oc,
             Resolved, vec![(D6, Descend, clipped), (D2, Check, wide_west), (R4, Check, wide_east)],
             vec![R5, D6, D2, R4]),
            // an OC outer of the inbound set is skipped; ancestors still added
            ("r check, OC outer already told", hop_server(), R5, Check, inside, inside, vec![R3, D2], oc,
             Resolved, vec![(D6, Descend, inside), (R4, Check, inside)],
             vec![R3, D2, R5, D6, R4, R1]),
            // -- out of range: one ascent, the region unchanged
            ("r check out of range", hop_server(), R5, Check, wide, wide, vec![D6], oc,
             OutOfRange, vec![(R3, Ascend, wide)],
             vec![D6, R5]),
            ("r ascend out of range", hop_server(), R5, Ascend, wide, wide, vec![], no_oc,
             OutOfRange, vec![(R3, Ascend, wide)],
             vec![R5]),
            // -- the root resolves what it does not cover
            ("root check out of range", root_server(), R5, Check, wide, wide, vec![], oc,
             Resolved, vec![(D6, Descend, wide), (D2, Check, wide_west), (R4, Check, wide_east)],
             vec![R5, D6, D2, R4]),
            ("root ascend out of range", root_server(), R5, Ascend, wide, wide, vec![], no_oc,
             Resolved, vec![(D6, Descend, wide)],
             vec![R5, D6]),
            // -- a descent: no coverage test, no OC, no ancestors
            ("r descend", hop_server(), R5, Descend, wide, wide, vec![R3], oc,
             Descended, vec![(D6, Descend, wide)],
             vec![R3, R5, D6]),
            ("r descend, OC not followed", hop_server(), R5, Descend, unit, unit, vec![], no_oc,
             Descended, vec![(D5, Descend, unit), (D6, Descend, unit)],
             vec![R5, D5, D6]),
            // -- a data node: `inside` misses the seam shared with d5
            ("d check covers", data_server(), D6, Check, inside, inside, vec![], oc,
             Resolved, vec![(R4, Check, inside)],
             vec![D6, R4, R5, R3]),
            ("d ascend covers the region only", data_server(), D6, Ascend, wide, clipped, vec![R5], oc,
             Resolved, vec![(D5, Check, wide_seam), (R4, Check, wide_east)],
             vec![R5, D6, D5, R4]),
            ("d check covers, OC not followed", data_server(), D6, Check, inside, inside, vec![], no_oc,
             Resolved, vec![],
             vec![D6]),
            ("d check out of range", data_server(), D6, Check, wide, wide, vec![], oc,
             OutOfRange, vec![(R5, Ascend, wide)],
             vec![D6]),
            ("d ascend out of range", data_server(), D6, Ascend, wide, wide, vec![], no_oc,
             OutOfRange, vec![(R5, Ascend, wide)],
             vec![D6]),
            ("d descend out of range", data_server(), D6, Descend, wide, wide, vec![R5, D6], oc,
             Descended, vec![],
             vec![R5, D6]),
            // a root leaf has no rectangle to be out of
            ("root leaf check", leaf(), d0, Check, wide, wide, vec![], oc,
             Resolved, vec![],
             vec![d0]),
            // -- dissolved: the parent a data node left to is checked afresh,
            // the sibling in a routing node's place keeps the mode
            ("d gone, descend", dissolved_server(), d7, Descend, inside, inside, vec![], oc,
             Dissolved, vec![(R5, Check, inside)],
             vec![d7]),
            ("r gone, ascend", dissolved_server(), r7, Ascend, wide, wide, vec![R4], no_oc,
             Dissolved, vec![(D6, Ascend, wide)],
             vec![R4, r7]),
            ("r gone, descend", dissolved_server(), r7, Descend, inside, inside, vec![], oc,
             Dissolved, vec![(D6, Descend, inside)],
             vec![r7]),
            // tombstone target already told: the branch ends here
            ("d gone, tombstone told", dissolved_server(), d7, Check, inside, inside, vec![R5], oc,
             Dissolved, vec![],
             vec![R5, d7]),
            ("r gone, no tombstone", data_server(), r6, Check, inside, inside, vec![], oc,
             Dissolved, vec![],
             vec![r6]),
        ];
        for (
            name,
            server,
            target,
            mode,
            whole,
            region,
            inbound,
            follow_oc,
            step,
            onward,
            visited,
        ) in table
        {
            let matches = |dr: &Rect| dr.intersects(&whole);
            let at = header(mode, region, inbound, false);
            let hop = server.decide_hop(target, &at, &whole, matches, follow_oc);
            assert_eq!(hop.step, step, "{name}: step");
            assert_eq!(hop.onward, onward, "{name}: onward");
            assert_eq!(hop.visited, visited, "{name}: visited");
        }
    }

    /// What each payload does with the decision: a join probe joins a
    /// live data node whatever the step, a delete removes only where
    /// the traversal reached.
    #[test]
    fn a_join_probe_joins_a_live_data_node_whatever_its_step() {
        let wide = Rect::new(0.55, 0.4, 1.3, 0.6);
        let probe = Object::new(crate::ids::Oid(3), Rect::new(0.75, 0.45, 0.9, 0.6));
        for (mode, onward) in [(Check, vec![(R5, Ascend)]), (Descend, vec![])] {
            let mut s = data_server();
            let mut out = Outbox::new(s.id, 100);
            s.on_join_probe(D6, header(mode, wide, vec![], false), vec![probe], &mut out);
            let mut sent = vec![];
            let mut reported = None;
            for m in out.msgs {
                match m.payload {
                    Payload::JoinProbe { target, hop, .. } => {
                        assert_eq!((hop.region, hop.visited), (wide, vec![D6]));
                        sent.push((target, hop.mode));
                    }
                    Payload::Report {
                        found: Found::Pairs(pairs),
                        spawned,
                        ..
                    } => reported = Some((pairs, spawned)),
                    other => panic!("unexpected {}", other.name()),
                }
            }
            let (pairs, spawned) = reported.expect("one report per hop");
            assert_eq!(
                pairs,
                [(crate::ids::Oid(3), crate::ids::Oid(9))],
                "{mode:?}"
            );
            assert_eq!(sent, onward, "{mode:?}");
            assert_eq!(spawned.len(), sent.len());
        }
    }

    #[test]
    fn a_delete_removes_only_where_the_traversal_reached() {
        let obj = Object::new(crate::ids::Oid(9), Rect::new(0.7, 0.4, 0.8, 0.5));
        // A region beyond d6 sends the delete up; d6 is not searched.
        let beyond = Rect::new(0.4, 0.4, 0.8, 0.5);
        for (region, removed) in [(beyond, false), (obj.mbb, true)] {
            let mut s = data_server();
            let mut out = Outbox::new(s.id, 100);
            s.on_delete(D6, header(Check, region, vec![], true), obj, &mut out);
            let report = out.msgs.iter().find_map(|m| match &m.payload {
                Payload::Report {
                    found: Found::Removed(removed),
                    spawned,
                    direct,
                    ..
                } => Some((*removed, spawned.len(), direct.is_some())),
                _ => None,
            });
            let deletes = out
                .msgs
                .iter()
                .filter(|m| matches!(&m.payload, Payload::Delete { hop, .. } if !hop.initial))
                .count();
            assert_eq!(report, Some((removed, deletes, true)), "region {region:?}");
            assert_eq!(
                s.data.as_ref().map(|d| d.len()),
                Some(3 - usize::from(removed))
            );
        }
    }
}
