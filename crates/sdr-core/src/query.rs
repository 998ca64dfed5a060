//! Server-side query processing (§4): point and window queries with
//! image-targeted addressing, out-of-range repair, OC-driven forwarding,
//! both termination protocols, plus deletion routing (§3.3) and local
//! kNN (the §7 extension).
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
use crate::msg::{Endpoint, ImageHolder, Payload, QueryMode, QueryMsg, ReplyProtocol};
use crate::node::Object;
use crate::server::{Outbox, Server};
use sdr_geom::Point;
use std::collections::BTreeMap;

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
    remaining: u32,
    results: Vec<Object>,
    trace: crate::msg::Trace,
    /// Where to send the completed aggregate: back along the traversal
    /// tree, or to the client at the query origin.
    reply_via: Option<ServerId>,
    parent_branch: u64,
    results_to: ClientId,
}

impl PendingAggregates {
    /// Allocates a fresh branch token for an outgoing hop.
    fn alloc_branch(&mut self, server: ServerId) -> u64 {
        self.next_branch += 1;
        ((server.0 as u64) << 32) | self.next_branch
    }
}

impl Server {
    /// Handles one query traversal hop.
    pub(crate) fn on_query(&mut self, mut q: QueryMsg, out: &mut Outbox) {
        self.append_iam(&mut q.trace);
        let hop = self.process_query_hop(&mut q, out);
        self.reply_for_hop(q, hop, out);
    }

    /// Runs the traversal logic; returns the hop's local results and
    /// fan-out.
    fn process_query_hop(&mut self, q: &mut QueryMsg, out: &mut Outbox) -> HopOutcome {
        match q.target.kind {
            NodeKind::Data => {
                let Some(d) = self.data.as_ref() else {
                    // Eliminated data node addressed by a stale image:
                    // follow the tombstone left at dissolution (skipping
                    // already-visited nodes to stay loop-free).
                    let forward = self
                        .tombstone(NodeKind::Data)
                        .filter(|t| !q.visited.contains(t));
                    let spawned = match forward {
                        Some(t) => self.forward_alone(q, t, QueryMode::Check, out),
                        None => vec![],
                    };
                    return HopOutcome {
                        results: vec![],
                        spawned,
                        direct: some_direct(q, false),
                        iam_due: false,
                    };
                };
                let covered = d.dr.map(|dr| dr.contains(&q.region)).unwrap_or(false);
                let is_root_leaf = d.parent.is_none();
                match q.mode {
                    QueryMode::Descend => {
                        // The parent established relevance: pure local
                        // search.
                        HopOutcome {
                            results: local_search(d, q),
                            spawned: vec![],
                            direct: None,
                            iam_due: q.iam_carrier,
                        }
                    }
                    QueryMode::Check | QueryMode::Ascend if covered || is_root_leaf => {
                        let results = local_search(d, q);
                        let spawned = self.fan_out(q, &[], d.dr, d.oc.entries(), out);
                        HopOutcome {
                            results,
                            spawned,
                            direct: some_direct(q, true),
                            iam_due: q.repaired || q.iam_carrier,
                        }
                    }
                    QueryMode::Check | QueryMode::Ascend => {
                        // Out of range: climb (§4.1 case (ii)).
                        // sdr-lint: allow(panic-safety) — a root data node
                        // is never out of range for its own query
                        let parent = d.parent.expect("non-root data node has a parent");
                        let target = NodeRef::routing(parent);
                        let spawned = self.forward_alone(q, target, QueryMode::Ascend, out);
                        HopOutcome {
                            results: vec![],
                            spawned,
                            direct: some_direct(q, false),
                            iam_due: false,
                        }
                    }
                }
            }
            NodeKind::Routing => {
                let Some(r) = self.routing.as_ref() else {
                    // Dissolved routing node: follow the tombstone.
                    let forward = self
                        .tombstone(NodeKind::Routing)
                        .filter(|t| !q.visited.contains(t));
                    let spawned = match forward {
                        Some(t) => self.forward_alone(q, t, q.mode, out),
                        None => vec![],
                    };
                    return HopOutcome {
                        results: vec![],
                        spawned,
                        direct: some_direct(q, false),
                        iam_due: false,
                    };
                };
                match q.mode {
                    QueryMode::Descend => {
                        let before = out.msgs.len();
                        let spawned = self.fan_out(q, &[r.left, r.right], None, &[], out);
                        let delegated = q.iam_carrier && delegate_iam_carrier(out, before);
                        HopOutcome {
                            results: vec![],
                            spawned,
                            direct: None,
                            iam_due: q.iam_carrier && !delegated,
                        }
                    }
                    QueryMode::Check | QueryMode::Ascend => {
                        if r.dr.contains(&q.region) || r.is_root() {
                            let before = out.msgs.len();
                            let (children, oc) = ([r.left, r.right], r.oc.entries());
                            let spawned = self.fan_out(q, &children, Some(r.dr), oc, out);
                            // A repaired branch delegates its IAM duty
                            // down one descend path, so the image holder
                            // learns the whole corrected path.
                            let owes_iam = q.repaired || q.iam_carrier;
                            let delegated = owes_iam && delegate_iam_carrier(out, before);
                            HopOutcome {
                                results: vec![],
                                spawned,
                                direct: some_direct(q, q.target.kind == NodeKind::Data),
                                iam_due: owes_iam && !delegated,
                            }
                        } else {
                            // sdr-lint: allow(panic-safety) — this branch
                            // is the !is_root() arm
                            let parent = r.parent.expect("non-root routing node has a parent");
                            let target = NodeRef::routing(parent);
                            let spawned = self.forward_alone(q, target, QueryMode::Ascend, out);
                            HopOutcome {
                                results: vec![],
                                spawned,
                                direct: some_direct(q, false),
                                iam_due: false,
                            }
                        }
                    }
                }
            }
        }
    }

    /// Emits a hop's fan-out: into each of `children` the query can
    /// match and to every outer node of `oc` it can match that has not
    /// been sent it yet (a resolving hop passes its OC table, a pure
    /// descent none). Every message carries the same `visited`: the
    /// inbound set, this node, all targets of this hop and — if this
    /// node's rectangle `dr` covers the whole query — the ancestors of
    /// `oc`, whose other subtrees that can match are exactly those
    /// targets (Definition 3; DESIGN.md decision 3).
    fn fan_out(
        &self,
        q: &QueryMsg,
        children: &[crate::link::Link],
        dr: Option<sdr_geom::Rect>,
        oc: &[crate::oc::OcEntry],
        out: &mut Outbox,
    ) -> Vec<ServerId> {
        let qrect = q.query.rect();
        let descents = children
            .iter()
            .filter(|c| q.query.intersects(&c.dr))
            .map(|c| (c.node, QueryMode::Descend, q.region));
        let forwards = oc
            .iter()
            .filter(|e| !q.visited.contains(&e.outer.node))
            .filter_map(|e| Some((e.outer.node, QueryMode::Check, e.rect.intersection(&qrect)?)));
        let targets = descents.chain(forwards);
        let covers_query = dr.is_some_and(|dr| dr.contains(&qrect));
        let ancestors = if covers_query { oc } else { &[] };
        let mut visited = told(q, children.len() + 2 * oc.len());
        for node in targets
            .clone()
            .map(|t| t.0)
            .chain(ancestors.iter().map(|e| NodeRef::routing(e.ancestor)))
        {
            if !visited.contains(&node) {
                visited.push(node);
            }
        }
        targets
            .map(|(to, mode, region)| self.forward_query(q, to, mode, region, visited.clone(), out))
            .collect()
    }

    /// A hop's only onward message (an ascent, or a tombstone followed):
    /// the branch's region, unchanged, and this node added to `visited`.
    fn forward_alone(
        &self,
        q: &QueryMsg,
        target: NodeRef,
        mode: QueryMode,
        out: &mut Outbox,
    ) -> Vec<ServerId> {
        vec![self.forward_query(q, target, mode, q.region, told(q, 0), out)]
    }

    /// Emits one onward traversal message (possibly self-addressed — the
    /// cluster does not bill those, matching the paper's co-location
    /// rule, but they still produce their own report so the termination
    /// accounting stays uniform).
    fn forward_query(
        &self,
        q: &QueryMsg,
        target: NodeRef,
        mode: QueryMode,
        region: sdr_geom::Rect,
        visited: Vec<NodeRef>,
        out: &mut Outbox,
    ) -> ServerId {
        let (reply_via, parent_branch) = match q.protocol {
            ReplyProtocol::Direct | ReplyProtocol::Probabilistic => (None, 0),
            ReplyProtocol::ReversePath => (Some(self.id), q.parent_branch),
        };
        out.send_server(
            target.server,
            Payload::Query(QueryMsg {
                target,
                query: q.query,
                region,
                mode,
                qid: q.qid,
                initial: false,
                // An Ascend hop marks the branch as repaired; the
                // resolving hop emits the IAM and descendants start
                // clean.
                repaired: mode == QueryMode::Ascend,
                iam_carrier: false,
                visited,
                results_to: q.results_to,
                iam_to: q.iam_to,
                protocol: q.protocol,
                reply_via,
                parent_branch,
                trace: q.trace.clone(),
            }),
        );
        target.server
    }

    /// Emits the reply for a processed hop, per the active termination
    /// protocol (§4.3).
    fn reply_for_hop(&mut self, q: QueryMsg, hop: HopOutcome, out: &mut Outbox) {
        match q.protocol {
            ReplyProtocol::Probabilistic => {
                // §4.3: only servers with relevant data respond; the
                // client works with whatever arrives (the simulator's
                // drain plays the role of the timeout).
                if !hop.results.is_empty() {
                    out.send(
                        Endpoint::Client(q.results_to),
                        Payload::QueryReport {
                            qid: q.qid,
                            results: hop.results,
                            spawned: vec![],
                            trace: q.trace,
                            direct: hop.direct,
                        },
                    );
                }
            }
            ReplyProtocol::Direct => {
                // An addressing error was repaired: the terminal hop of
                // the repaired branch's carrier path sends the IAM with
                // the accumulated trace to the image holder (contact
                // server in IMSERVER; the client already receives traces
                // with its reports) — the one hop that copies its trace.
                let iam = match q.iam_to {
                    ImageHolder::Server(s) if hop.iam_due => Some((s, q.trace.clone())),
                    _ => None,
                };
                // "Each server getting the query responds to the client,
                // whether it found the relevant data or not", carrying
                // the path description (trace) and its fan-out.
                out.send(
                    Endpoint::Client(q.results_to),
                    Payload::QueryReport {
                        qid: q.qid,
                        results: hop.results,
                        spawned: hop.spawned,
                        trace: q.trace,
                        direct: hop.direct,
                    },
                );
                if let Some((s, trace)) = iam {
                    out.send_server(
                        s,
                        Payload::QueryReport {
                            qid: q.qid,
                            results: vec![],
                            spawned: vec![],
                            trace,
                            direct: None,
                        },
                    );
                }
            }
            ReplyProtocol::ReversePath => {
                if hop.spawned.is_empty() {
                    // Leaf of the traversal tree: answer immediately.
                    send_aggregate(
                        q.reply_via,
                        q.parent_branch,
                        q.qid,
                        hop.results,
                        q.trace,
                        q.results_to,
                        out,
                    );
                } else {
                    // Wait for the children. The accumulator lives under
                    // a fresh local key; each child is re-keyed onto its
                    // *own* one-shot branch token routed to that key, so
                    // sibling aggregates are distinguishable and a
                    // duplicated one cannot be double-counted (see
                    // `PendingAggregates::routes`).
                    let key = self.pending.alloc_branch(self.id);
                    let mut rewritten: u32 = 0;
                    for m in out.msgs.iter_mut().rev().take(hop.spawned.len()) {
                        if let Payload::Query(cq) = &mut m.payload {
                            if cq.qid == q.qid {
                                let child = self.pending.alloc_branch(self.id);
                                cq.parent_branch = child;
                                self.pending.routes.insert(child, key);
                                rewritten += 1;
                            }
                        }
                    }
                    // A lossy `as u32` here would wrap a huge (forged or
                    // future-widened) fan-out into a small `remaining`
                    // and terminate the branch early with a silently
                    // incomplete aggregate. Fail loudly instead: the
                    // fan-out is bounded by the number of servers (u32
                    // ids), so the conversion cannot fail on real input.
                    let remaining = u32::try_from(hop.spawned.len())
                        // sdr-lint: allow(panic-safety) — deliberate loud failure on an impossible >u32::MAX fan-out
                        .expect("query fan-out exceeds u32: corrupt hop state");
                    debug_assert_eq!(rewritten, remaining, "every spawned child re-keyed");
                    self.pending.entries.insert(
                        key,
                        Pending {
                            qid: q.qid,
                            remaining,
                            results: hop.results,
                            trace: q.trace,
                            reply_via: q.reply_via,
                            parent_branch: q.parent_branch,
                            results_to: q.results_to,
                        },
                    );
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
        let Some(entry) = self.pending.entries.get_mut(&group) else {
            return;
        };
        debug_assert_eq!(entry.qid, qid);
        entry.results.extend(results);
        entry.trace.extend(trace);
        // Saturating out of caution only: every live route decrements
        // at most once, and `remaining` starts at the route count.
        entry.remaining = entry.remaining.saturating_sub(1);
        if entry.remaining == 0 {
            let entry = self
                .pending
                .entries
                .remove(&group)
                // sdr-lint: allow(panic-safety) — the same key was just
                // read through get_mut to decrement `remaining`
                .expect("present");
            send_aggregate(
                entry.reply_via,
                entry.parent_branch,
                entry.qid,
                entry.results,
                entry.trace,
                entry.results_to,
                out,
            );
        }
    }

    // -------------------------------------------------------- deletion --

    /// Deletion routing (§3.3): traverses like a window query on the
    /// object's mbb; the data node holding the object removes it,
    /// tightens its rectangle, and may eliminate itself.
    pub(crate) fn on_delete(&mut self, payload: Payload, out: &mut Outbox) {
        let Payload::Delete {
            obj,
            qid,
            mode,
            region,
            visited,
            target,
            results_to,
            iam_to,
            mut trace,
            initial,
        } = payload
        else {
            // sdr-lint: allow(panic-safety) — the dispatcher matches on
            // the Delete variant before calling on_delete
            unreachable!("on_delete only receives Delete payloads");
        };
        self.append_iam(&mut trace);
        // Reuse the query traversal by embedding the delete in a
        // window-query shell, then act on the local hits.
        let mut shell = QueryMsg {
            target,
            query: crate::msg::QueryKind::Window(obj.mbb),
            region,
            mode,
            qid,
            initial: false,
            repaired: false,
            iam_carrier: false,
            visited,
            results_to,
            iam_to,
            protocol: ReplyProtocol::Direct,
            reply_via: None,
            parent_branch: 0,
            trace: trace.clone(),
        };
        // Process the hop but translate emissions into Delete messages.
        let before = out.msgs.len();
        let hop = self.process_query_hop(&mut shell, out);
        let mut spawned = Vec::new();
        for m in out.msgs.iter_mut().skip(before) {
            if let Payload::Query(cq) = &m.payload {
                let cq = cq.clone();
                spawned.push(cq.target.server);
                m.payload = Payload::Delete {
                    obj,
                    qid,
                    mode: cq.mode,
                    region: cq.region,
                    visited: cq.visited,
                    target: cq.target,
                    results_to,
                    iam_to,
                    trace: cq.trace,
                    initial: false,
                };
            }
        }
        // Local removal if this hop searched a data node.
        let mut removed = false;
        if target.kind == NodeKind::Data
            && hop
                .results
                .iter()
                .any(|o| o.oid == obj.oid && o.mbb == obj.mbb)
        {
            removed = self.remove_local(&obj, out);
        }
        out.send(
            Endpoint::Client(results_to),
            Payload::DeleteReport {
                qid,
                removed,
                spawned,
                trace,
                initial,
            },
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

struct HopOutcome {
    results: Vec<Object>,
    spawned: Vec<crate::ids::ServerId>,
    direct: Option<bool>,
    /// Whether this hop must send the IAM to a server-held image (the
    /// IMSERVER contact): set at the terminal of a repaired branch so
    /// the contact receives the complete out-of-range path.
    iam_due: bool,
}

/// Marks the first Descend query emitted after `from` as the IAM
/// carrier. Returns whether a carrier was found.
fn delegate_iam_carrier(out: &mut Outbox, from: usize) -> bool {
    for m in out.msgs.iter_mut().skip(from) {
        if let Payload::Query(cq) = &mut m.payload {
            if cq.mode == QueryMode::Descend {
                cq.iam_carrier = true;
                return true;
            }
        }
    }
    false
}

/// The nodes that have been sent `q`, the one processing it included,
/// with room for `more`.
fn told(q: &QueryMsg, more: usize) -> Vec<NodeRef> {
    let mut visited = Vec::with_capacity(q.visited.len() + 1 + more);
    visited.extend_from_slice(&q.visited);
    if !visited.contains(&q.target) {
        visited.push(q.target);
    }
    visited
}

fn some_direct(q: &QueryMsg, hit: bool) -> Option<bool> {
    q.initial.then_some(hit)
}

fn local_search(d: &crate::node::DataNode, q: &QueryMsg) -> Vec<Object> {
    match q.query {
        crate::msg::QueryKind::Point(p) => d
            .tree
            .search_point(&p)
            .into_iter()
            .map(|e| Object::new(e.item, e.rect))
            .collect(),
        crate::msg::QueryKind::Window(w) => d
            .tree
            .search_window(&w)
            .into_iter()
            .map(|e| Object::new(e.item, e.rect))
            .collect(),
    }
}

fn send_aggregate(
    reply_via: Option<ServerId>,
    parent_branch: u64,
    qid: QueryId,
    results: Vec<Object>,
    trace: crate::msg::Trace,
    results_to: ClientId,
    out: &mut Outbox,
) {
    match reply_via {
        Some(server) => out.send_server(
            server,
            Payload::QueryAggregate {
                qid,
                parent_branch,
                results,
                trace,
            },
        ),
        None => out.send(
            Endpoint::Client(results_to),
            Payload::QueryAggregate {
                qid,
                parent_branch,
                results,
                trace,
            },
        ),
    }
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
            query,
            region,
            mode: QueryMode::Check,
            qid: QueryId(1),
            initial: true,
            repaired: false,
            iam_carrier: false,
            visited: vec![],
            results_to: ClientId(0),
            iam_to: ImageHolder::Nobody,
            protocol,
            reply_via: None,
            parent_branch: 0,
            trace: vec![],
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
    const D6: NodeRef = NodeRef::data(ServerId(6));
    const D2: NodeRef = NodeRef::data(ServerId(2));
    const R4: NodeRef = NodeRef::routing(ServerId(4));

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
        let (r1, r3) = (NodeRef::routing(ServerId(1)), NodeRef::routing(ServerId(3)));
        for q in &sent {
            assert_eq!(q.visited, [R5, D6, D2, R4, r1, r3], "to {:?}", q.target);
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
            assert_eq!(q.visited, [R5, D6, D2, R4], "to {:?}", q.target);
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
            assert_eq!(q.visited.len(), 6, "sharing edits `visited` only");
        }
    }
}
