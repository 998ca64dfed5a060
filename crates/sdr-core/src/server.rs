//! The server component: one participant of the distributed tree,
//! hosting a data node and (except the very first server) a routing node.
//!
//! A server is a message-driven state machine: [`Server::handle`] consumes
//! one incoming [`Payload`] and emits follow-up messages through an
//! [`Outbox`]. The same state machine runs inside the in-process
//! simulator (`cluster`) and behind TCP endpoints (`sdr-net`), and one
//! function drives it for both: `turn`, inside the one delivery loop,
//! `Cluster::drain_with`.
//!
//! Insert hops carry one [`Insertion`] the way traversal hops carry one
//! `Traversal`. [`Server::handle`] resolves the node a payload acts on
//! once and hands it to the handler, which is a method of that node: the
//! descent of the [`RoutingNode`] it descends, the adjust and rotation
//! steps (`balance`), the overlapping-coverage upkeep (`oc_maint`).
//! When the node is missing, the dispatch alone decides: the protocol
//! answers where it has an answer (parking on a bare server, tombstones
//! for inserts and traversals, orphan rerouting, an empty kNN reply),
//! and anything else is [`Refused`] before it changes state.

use crate::config::{SdrConfig, LOCAL_RTREE};
use crate::ids::{ClientId, NodeKind, NodeRef, QueryId, ServerId};
use crate::image::Image;
use crate::link::Link;
use crate::msg::{ChildWhy, Endpoint, Found, ImageHolder, Insertion, Message, Payload, Trace};
use crate::node::{DataNode, NodeMut, Object, RoutingNode};
use crate::oc::OcTable;
use crate::stats::Stats;
use sdr_geom::Rect;
use sdr_rtree::{Entry, RTree};

/// Collects the messages a server emits while handling one input, and
/// provisions fresh servers for splits.
///
/// Server allocation is the one piece of global coordination an SDDS
/// needs. Ids are dense: the server turn hands out the next index of its
/// cluster's server list and adopts the new servers, in the simulator and
/// in the TCP deployment's runner alike; a production deployment would
/// ask its node manager.
#[derive(Debug)]
pub struct Outbox {
    /// Messages to deliver, in emission order.
    pub msgs: Vec<Message>,
    /// Messages to deliver only after the regular traffic quiesces, one
    /// at a time: the deferred lane.
    ///
    /// Node elimination re-injects orphaned objects as fresh inserts;
    /// letting those race the elimination's own structural repair
    /// (height adjustment, rotation gathering) invalidates rotation
    /// snapshots mid-flight — a reinsert-driven split can orphan the new
    /// server. The delivery loop hands these messages to its fault
    /// executor, which releases the oldest alone each time the queue
    /// empties (`FaultExecutor::release_idle`), so each reinsert starts
    /// after the repair chain and the reinserts before it have settled.
    /// Releasing them FIFO is not enough: a gathered rotation's
    /// `SetRouting` then overwrites a routing link a reinsert's descent
    /// has just enlarged, and no later message refreshes it (DESIGN.md
    /// decision 4f).
    pub deferred: Vec<Message>,
    /// Server ids allocated during this handling step.
    pub allocated: Vec<ServerId>,
    /// Why each message refused during this handling step was refused;
    /// none of them changed anything.
    pub refused: Vec<Refused>,
    /// The id the next allocated server gets: ids are dense, so it is
    /// the number of servers.
    next_server: u32,
    /// The server currently handling a message.
    self_id: ServerId,
}

/// Why a server refused a message, before the message changed anything.
/// The server turn counts refusals in the cluster's `Stats`; a TCP
/// deployment also books each as a delivery failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refused {
    /// The payload acts on a node of this kind, which the server does not
    /// host, and no protocol rule routes it on.
    Missing(NodeKind),
    /// The rotation pattern admits no balanced redistribution (§2.4):
    /// its heights went stale in flight.
    Unbalanced,
    /// A `SplitCreate` reached a server that already hosts a node or a
    /// tombstone; only a freshly allocated server takes one (§2.2).
    Initialized,
}

impl Outbox {
    /// Creates an outbox for `self_id`, allocating new servers
    /// sequentially from `next_server` upward.
    pub fn new(self_id: ServerId, next_server: u32) -> Self {
        Outbox {
            msgs: Vec::new(),
            deferred: Vec::new(),
            allocated: Vec::new(),
            refused: Vec::new(),
            next_server,
            self_id,
        }
    }

    /// Empties the outbox for the next handling step, by `self_id` and
    /// allocating sequentially from `next_server` upward, as
    /// [`Outbox::new`] would, but keeping its buffers.
    pub(crate) fn reset(&mut self, self_id: ServerId, next_server: u32) {
        self.msgs.clear();
        self.deferred.clear();
        self.allocated.clear();
        self.refused.clear();
        self.next_server = next_server;
        self.self_id = self_id;
    }

    /// Emits a message to an arbitrary endpoint.
    pub fn send(&mut self, to: Endpoint, payload: Payload) {
        self.msgs.push(Message {
            from: Endpoint::Server(self.self_id),
            to,
            payload,
        });
    }

    /// Emits a message to another server.
    pub fn send_server(&mut self, to: ServerId, payload: Payload) {
        self.send(Endpoint::Server(to), payload);
    }

    /// Acknowledges a stored insertion to its image holder, its trace as
    /// the IAM (§3.2).
    pub(crate) fn ack(&mut self, ins: Insertion) {
        let (oid, trace) = (ins.obj.oid, ins.trace);
        self.send_image_holder(ins.iam_to, Payload::InsertAck { oid, trace });
    }

    /// Sends client `to` one hop's [`Payload::Report`].
    pub(crate) fn report(
        &mut self,
        to: ClientId,
        qid: QueryId,
        found: Found,
        spawned: Vec<ServerId>,
        trace: Trace,
        direct: Option<bool>,
    ) {
        let report = Payload::Report {
            qid,
            found,
            spawned,
            trace,
            direct,
        };
        self.send(Endpoint::Client(to), report);
    }

    /// Emits a server message into the deferred lane (see `deferred`).
    pub fn send_server_deferred(&mut self, to: ServerId, payload: Payload) {
        self.deferred.push(Message {
            from: Endpoint::Server(self.self_id),
            to: Endpoint::Server(to),
            payload,
        });
    }

    /// Emits a message to the holder of an image (client or contact
    /// server); suppressed for the BASIC variant.
    pub fn send_image_holder(&mut self, to: ImageHolder, payload: Payload) {
        match to {
            ImageHolder::Client(c) => self.send(Endpoint::Client(c), payload),
            ImageHolder::Server(s) => self.send(Endpoint::Server(s), payload),
            ImageHolder::Nobody => {}
        }
    }

    /// Provisions a fresh, empty server and returns its id.
    pub fn alloc_server(&mut self) -> ServerId {
        let id = ServerId(self.next_server);
        self.next_server += 1;
        self.allocated.push(id);
        id
    }
}

/// One SD-Rtree server.
#[derive(Clone, Debug)]
pub struct Server {
    /// This server's id.
    pub id: ServerId,
    /// The routing node. Server 0 never hosts one (§2.1); other servers
    /// lack it until their `SplitCreate` arrives and after node
    /// elimination.
    pub routing: Option<RoutingNode>,
    /// The data node; absent only after node elimination.
    pub data: Option<DataNode>,
    /// The server's own image of the structure, used when it acts as a
    /// contact server in the IMSERVER variant.
    pub image: Image,
    /// Structure configuration (shared by every server).
    pub config: SdrConfig,
    /// Reverse-path termination protocol state (§4.3).
    pub(crate) pending: crate::query::PendingAggregates,
    /// Forwarding address left behind when the data node dissolved
    /// (node elimination, §3.3): the parent that absorbed its objects.
    /// Stale images keep addressing the dissolved node for a while; the
    /// tombstone routes those requests back into the live structure.
    pub(crate) data_tombstone: Option<NodeRef>,
    /// Forwarding address left when the routing node dissolved: the
    /// sibling subtree that took its tree position.
    pub(crate) routing_tombstone: Option<NodeRef>,
    /// Messages that arrived before this server's `SplitCreate`.
    ///
    /// The simulator's global FIFO queue delivers the `SplitCreate`
    /// first by construction, but over TCP there is no ordering between
    /// connections from different peers: a descend routed through the
    /// freshly notified parent can outrun the initialization. Such
    /// messages are parked and replayed right after initialization.
    parked: Vec<(Endpoint, Payload)>,
}

/// One server turn, the only driver of [`Server::handle`]: the delivery
/// loop (`Cluster::drain_with`), which the simulator and the TCP
/// deployment's runner both run, takes every server-bound message
/// through it. It finds the addressed server among the dense `servers`
/// (an unknown id is refused), counts the message in `stats` under the
/// paper's cost model and shows a counted one to `tap`, lets the server
/// handle it, books the refusals, and adopts the servers the handling
/// allocated before any message can reach them. `out.msgs` and
/// `out.deferred` then hold what the server sent, in emission order, for
/// the driver to route, and `out.allocated` the servers it adopted.
/// Returns how many messages were refused.
pub(crate) fn turn(
    servers: &mut Vec<Server>,
    stats: &mut Stats,
    msg: Message,
    out: &mut Outbox,
    tap: Option<fn(&Message)>,
) -> usize {
    let Endpoint::Server(sid) = msg.to else {
        return 0;
    };
    #[expect(
        clippy::cast_possible_truncation,
        reason = "server ids are allocated densely from 0; the count fits u32 by the id-space contract"
    )]
    out.reset(sid, servers.len() as u32);
    let Some(server) = servers.get_mut(sid.0 as usize) else {
        stats.record_refused(1);
        return 1;
    };
    // The paper's cost model: messages between nodes on the same server
    // are free.
    if msg.from != msg.to {
        stats.record_server_msg(sid, msg.payload.category());
        if let Some(tap) = tap {
            tap(&msg);
        }
    }
    server.handle(msg.from, msg.payload, out);
    let config = server.config;
    stats.record_refused(out.refused.len());
    for &alloc in &out.allocated {
        debug_assert_eq!(alloc.0 as usize, servers.len());
        servers.push(Server::bare(alloc, config));
    }
    out.refused.len()
}

impl Server {
    /// Creates the first server of a deployment: an empty data node, no
    /// routing node (§2.1: server 0 stores only `d0`).
    pub fn new(id: ServerId, config: SdrConfig) -> Self {
        let data = Some(DataNode::new(LOCAL_RTREE));
        Server {
            data,
            ..Server::bare(id, config)
        }
    }

    /// Creates a bare server awaiting its `SplitCreate` initialization.
    pub fn bare(id: ServerId, config: SdrConfig) -> Self {
        Server {
            id,
            routing: None,
            data: None,
            image: Image::new(),
            config,
            pending: Default::default(),
            data_tombstone: None,
            routing_tombstone: None,
            parked: Vec::new(),
        }
    }

    /// Whether this server has not yet been initialized by its
    /// `SplitCreate` (distinct from a *dissolved* server, which leaves
    /// tombstones behind).
    fn is_bare(&self) -> bool {
        self.routing.is_none()
            && self.data.is_none()
            && self.data_tombstone.is_none()
            && self.routing_tombstone.is_none()
    }

    /// The forwarding address for a dissolved node of the given kind.
    pub(crate) fn tombstone(&self, kind: crate::ids::NodeKind) -> Option<NodeRef> {
        match kind {
            crate::ids::NodeKind::Data => self.data_tombstone,
            crate::ids::NodeKind::Routing => self.routing_tombstone,
        }
    }

    /// Re-routes the orphans of an `Eliminate` this server cannot act on
    /// as fresh inserts, on the deferred lane: through the tombstone
    /// chain or its own nodes, where the out-of-range machinery takes
    /// over. A server with no route anywhere refuses them.
    fn reroute_orphans(&self, objects: Vec<Object>, out: &mut Outbox) -> Result<(), Refused> {
        let t = self
            .routing_tombstone
            .or(self.data_tombstone)
            .or_else(|| self.routing.as_ref().map(|_| NodeRef::routing(self.id)))
            .or_else(|| self.data.as_ref().map(|_| NodeRef::data(self.id)))
            .ok_or(Refused::Missing(NodeKind::Routing))?;
        for obj in objects {
            let ins = Insertion::new(obj, ImageHolder::Nobody);
            out.send_server_deferred(t.server, Payload::insert_at(t.kind, ins, false));
        }
        Ok(())
    }

    /// The links a visit to this server contributes to an IAM (§3.1):
    /// its data link, its routing link, and the routing node's left and
    /// right links.
    pub fn iam_links(&self) -> Vec<Link> {
        let mut links = Vec::with_capacity(4);
        self.append_iam(&mut links);
        links
    }

    /// Appends this server's [`Server::iam_links`] to an operation trace.
    pub(crate) fn append_iam(&self, trace: &mut Trace) {
        append_iam(self.id, self.data.as_ref(), self.routing.as_ref(), trace);
    }

    /// Main dispatch: handles one message, emitting follow-ups into
    /// `out`. A message the server cannot act on goes to `out.refused`,
    /// also when it was parked before `SplitCreate` and is replayed.
    pub fn handle(&mut self, from: Endpoint, payload: Payload, out: &mut Outbox) {
        if self.is_bare() && !matches!(payload, Payload::SplitCreate { .. }) {
            self.parked.push((from, payload));
            return;
        }
        if let Err(refused) = self.dispatch(payload, out) {
            out.refused.push(refused);
        }
    }

    /// Resolves the node a payload acts on, once, and runs its handler.
    fn dispatch(&mut self, payload: Payload, out: &mut Outbox) -> Result<(), Refused> {
        let id = self.id;
        match payload {
            Payload::InsertAtLeaf { ins, initial } => self.on_insert_at_leaf(ins, initial, out)?,
            Payload::InsertAscend { ins } => self.on_insert_ascend(ins, out)?,
            Payload::InsertDescend { ins, oc, new_dr } => {
                self.on_insert_descend(ins, oc, new_dr, out)?
            }
            Payload::StoreAtLeaf { ins, oc, new_dr } => {
                self.on_store_at_leaf(ins, oc, new_dr, out)?
            }
            Payload::SplitCreate {
                routing,
                objects,
                data_dr,
                data_oc,
            } => {
                if !self.is_bare() {
                    return Err(Refused::Initialized);
                }
                self.on_split_create(routing, objects, data_dr, data_oc);
                // Replay anything that outran the initialization.
                for (from, payload) in std::mem::take(&mut self.parked) {
                    self.handle(from, payload, out);
                }
            }
            Payload::ChildChange {
                old_child,
                new_child,
                why,
            } => self
                .routing_node()?
                .on_child_change(id, old_child, new_child, why, out)?,
            Payload::GatherRotation { origin, b } => {
                self.routing_node()?.on_gather_rotation(id, origin, b, out)
            }
            Payload::RotationInfo { pattern } => {
                self.routing_node()?.on_rotation_info(id, pattern, out)?
            }
            Payload::DropOcAncestor { target, ancestor } => {
                self.node(target.kind)?.on_drop_oc_ancestor(ancestor, out)
            }
            Payload::SetRouting { node } => *self.routing_node()? = node,
            Payload::SetParent { target, parent } => {
                self.node(target.kind)?.on_set_parent(id, parent, out)
            }
            Payload::UpdateOc {
                target,
                ancestor,
                outer,
                rect,
            } => self
                .node(target.kind)?
                .on_update_oc(ancestor, outer, rect, out),
            Payload::RefreshOc { target, table } => {
                self.node(target.kind)?.on_refresh_oc(id, table, out)
            }
            Payload::ShrinkChild { child } => self.routing_node()?.on_shrink_child(id, child, out),
            Payload::Query(q) => self.on_query(q, out),
            Payload::Delete { target, hop, obj } => self.on_delete(target, hop, obj, out),
            // A dissolving child takes its parent along. A stale child, or a
            // routing node a crossing elimination took, re-routes the orphans.
            Payload::Eliminate { child, objects } => {
                match self.routing.take_if(|r| r.side_of(child).is_some()) {
                    Some(r) => self.on_eliminate(r, child, objects, out),
                    None => self.reroute_orphans(objects, out)?,
                }
            }
            Payload::KnnLocal {
                p,
                k,
                qid,
                results_to,
            } => self.on_knn_local(p, k, qid, results_to, out),
            Payload::JoinStart {
                target,
                qid,
                results_to,
                trace,
            } => self.on_join_start(target, qid, results_to, trace, out),
            Payload::JoinProbe {
                target,
                hop,
                objects,
            } => self.on_join_probe(target, hop, objects, out),
            // Contact server of the IMSERVER variant (§5): route the
            // client's operation with the local image.
            Payload::Routed { op, results_to } => {
                crate::variant::route_from_server(self, op, results_to, out)
            }
            Payload::QueryAggregate {
                qid,
                parent_branch,
                results,
                trace,
            } => self.on_query_aggregate(parent_branch, qid, results, trace, out),
            // Replies addressed to servers belong to the IMSERVER image
            // maintenance (IAMs) — absorb the links.
            Payload::InsertAck { trace, .. } => self.image.absorb(&trace),
            Payload::Report { trace, .. } => self.image.absorb(&trace),
            Payload::KnnLocalReply { .. } => {}
        }
        Ok(())
    }

    /// The node of `kind` a payload acts on.
    fn node(&mut self, kind: NodeKind) -> Result<NodeMut<'_>, Refused> {
        let node = match kind {
            NodeKind::Routing => self.routing.as_mut().map(NodeMut::Routing),
            NodeKind::Data => self.data.as_mut().map(NodeMut::Data),
        };
        node.ok_or(Refused::Missing(kind))
    }

    /// The routing node a payload acts on.
    fn routing_node(&mut self) -> Result<&mut RoutingNode, Refused> {
        self.routing
            .as_mut()
            .ok_or(Refused::Missing(NodeKind::Routing))
    }

    // ---------------------------------------------------------- insert --

    /// INSERT-IN-LEAF (§3.2): store if covered, else start the
    /// out-of-range ascent.
    fn on_insert_at_leaf(
        &mut self,
        mut ins: Insertion,
        initial: bool,
        out: &mut Outbox,
    ) -> Result<(), Refused> {
        let Some(d) = self.data.as_mut() else {
            // Eliminated data node (a stale image addressed it): follow
            // the tombstone left at dissolution. Tombstone chains are
            // acyclic (they always point at a node that was live when
            // the tombstone was written, and server ids are never
            // reused), so this terminates.
            self.append_iam(&mut ins.trace);
            match self.tombstone(NodeKind::Data) {
                Some(t) => forward_insert(t, ins, out),
                None if self.routing.is_some() => return self.on_insert_ascend(ins, out),
                None => return Err(Refused::Missing(NodeKind::Data)),
            }
            return Ok(());
        };
        // A parentless data node is the root leaf, which covers everything.
        let up = d.parent.filter(|_| !d.covers(&ins.obj.mbb));
        // The trace is the IAM: only a forward or an acknowledgement
        // carries it, so an initial insert stored on the spot (the common
        // case) never builds one.
        if up.is_some() || !initial {
            append_iam(self.id, Some(d), self.routing.as_ref(), &mut ins.trace);
        }
        if let Some(parent) = up {
            forward_insert(NodeRef::routing(parent), ins, out);
            return Ok(());
        }
        d.store(ins.obj);
        if !initial {
            // Multi-hop insertions acknowledge with the IAM (§3.2:
            // "If the insertion could not be performed in one hop").
            out.ack(ins);
        }
        self.maybe_split(out);
        Ok(())
    }

    /// INSERT-IN-SUBTREE (§3.2), bottom-up: climb until the subtree
    /// covers the object, then switch to the classical top-down insert.
    fn on_insert_ascend(&mut self, mut ins: Insertion, out: &mut Outbox) -> Result<(), Refused> {
        self.append_iam(&mut ins.trace);
        let Some(r) = self.routing.as_mut() else {
            // A stale image addressed a routing node that does not exist
            // (yet or anymore): follow the tombstone, falling back to the
            // data-node path.
            let Some(t) = self.tombstone(NodeKind::Routing) else {
                return self.on_insert_at_leaf(ins, false, out);
            };
            forward_insert(t, ins, out);
            return Ok(());
        };
        if let Some(parent) = r.parent.filter(|_| !r.dr.contains(&ins.obj.mbb)) {
            forward_insert(NodeRef::routing(parent), ins, out);
            return Ok(());
        }
        if r.is_root() {
            // Only the root may enlarge without asking anyone (§2.3).
            r.dr.enlarge(&ins.obj.mbb);
        }
        match r.descend(self.id, ins, out) {
            Some((ins, oc, new_dr)) => self.on_store_at_leaf(ins, oc, new_dr, out),
            None => Ok(()),
        }
    }

    /// Top-down hop: the parent already computed our enlarged rectangle
    /// and fresh OC table.
    fn on_insert_descend(
        &mut self,
        mut ins: Insertion,
        oc: OcTable,
        new_dr: Option<Rect>,
        out: &mut Outbox,
    ) -> Result<(), Refused> {
        self.append_iam(&mut ins.trace);
        let id = self.id;
        let r = self.routing_node()?;
        if let Some(ndr) = new_dr {
            // Union rather than overwrite: under TCP concurrency our dr
            // may have grown since the parent computed `ndr` (identical
            // in the synchronous regime).
            r.dr.enlarge(&ndr);
        }
        r.oc = oc;
        match r.descend(id, ins, out) {
            Some((ins, oc, new_dr)) => self.on_store_at_leaf(ins, oc, new_dr, out),
            None => Ok(()),
        }
    }

    /// Final hop of a routed insertion: a `StoreAtLeaf`, or a descent
    /// into this server's own data node. A missing data node refuses the
    /// store; a descent that chose it keeps its own step, as it does when
    /// the leaf is remote.
    fn on_store_at_leaf(
        &mut self,
        mut ins: Insertion,
        oc: OcTable,
        new_dr: Rect,
        out: &mut Outbox,
    ) -> Result<(), Refused> {
        self.append_iam(&mut ins.trace);
        let self_id = self.id;
        let d = self.data.as_mut().ok_or(Refused::Missing(NodeKind::Data))?;
        // In the synchronous regime `new_dr` equals our dr united with
        // the object. Under real concurrency (TCP deployment) we may
        // have split while the message was in flight, making `new_dr`
        // stale; merge from our actual contents and, if the results
        // disagree, re-sync the parent (a no-op in the simulator, so the
        // paper's message counts are unaffected).
        let merged = match d.dr {
            Some(cur) => cur.union(&ins.obj.mbb),
            None => new_dr,
        };
        d.dr = Some(merged);
        d.oc = oc;
        d.store(ins.obj);
        if merged != new_dr {
            if let Some(p) = d.parent {
                out.send_server(p, Payload::from_child(d.link(self_id), ChildWhy::Refresh));
            }
        }
        out.ack(ins);
        self.maybe_split(out);
        Ok(())
    }

    // ----------------------------------------------------------- split --

    /// Splits this server's data node if it exceeded capacity (§2.2).
    pub(crate) fn maybe_split(&mut self, out: &mut Outbox) {
        let capacity = self.config.capacity;
        let Some(d) = self.data.as_mut().filter(|d| d.tree.len() > capacity) else {
            return;
        };
        let new_id = out.alloc_server();

        // Divide the objects in two approximately equal subsets (§2.2):
        // the whole node goes through the R* sweep once, as if it were one
        // overflowing R-tree node whose halves must each keep 40 %. That is
        // O(n) in the node: four radix sorts and a few linear passes
        // (DESIGN.md decision 16). `keep` reuses the drained vector and
        // `give` moves through `SplitCreate` without a copy.
        let entries = d.tree.drain_all();
        let min_half = ((entries.len() * 2) / 5).max(1);
        let (keep, give) = sdr_rtree::partition(entries, min_half);
        #[expect(
            clippy::expect_used,
            reason = "partition() of > capacity ≥ 2 entries returns two non-empty halves by its min_entries contract"
        )]
        let keep_dr = Rect::mbb(keep.iter().map(|e| &e.rect)).expect("non-empty half");
        #[expect(clippy::expect_used, reason = "same partition() contract")]
        let give_dr = Rect::mbb(give.iter().map(|e| &e.rect)).expect("non-empty half");

        let old_parent = d.parent;
        let old_oc = std::mem::take(&mut d.oc);

        // This server keeps `keep`; its data node's parent becomes the
        // new routing node.
        d.tree = RTree::bulk_load(LOCAL_RTREE, keep);
        d.dr = Some(keep_dr);
        d.parent = Some(new_id);

        let left = Link::to_data(self.id, keep_dr);
        let right = Link::to_data(new_id, give_dr);
        let routing_dr = keep_dr.union(&give_dr);
        let routing = RoutingNode {
            height: 1,
            dr: routing_dr,
            left,
            right,
            parent: old_parent,
            oc: old_oc,
        };

        // Derive the two data nodes' OC tables from the routing node's.
        d.oc = routing.oc.derive_child(new_id, &keep_dr, &right);
        let give_oc = routing.oc.derive_child(new_id, &give_dr, &left);
        let routing_link = routing.link(new_id);
        let give_objects: Vec<Object> = give
            .into_iter()
            .map(|Entry { rect, item }| Object::new(item, rect))
            .collect();

        out.send_server(
            new_id,
            Payload::SplitCreate {
                routing,
                objects: give_objects,
                data_dr: give_dr,
                data_oc: give_oc,
            },
        );

        if let Some(parent) = old_parent {
            out.send_server(
                parent,
                Payload::ChildChange {
                    old_child: NodeRef::data(self.id),
                    new_child: routing_link,
                    why: ChildWhy::Split {
                        children: (left, right),
                    },
                },
            );
        }
    }

    /// Initializes a freshly allocated server after a split.
    fn on_split_create(
        &mut self,
        routing: RoutingNode,
        objects: Vec<Object>,
        data_dr: Rect,
        data_oc: OcTable,
    ) {
        self.routing = Some(routing);
        let entries: Vec<Entry<crate::ids::Oid>> = objects
            .into_iter()
            .map(|o| Entry::new(o.mbb, o.oid))
            .collect();
        self.data = Some(DataNode {
            tree: RTree::bulk_load(LOCAL_RTREE, entries),
            dr: Some(data_dr),
            parent: Some(self.id),
            oc: data_oc,
        });
    }
}

/// Appends the IAM links of server `id`, hosting `data` and `routing`, to
/// an operation trace: [`Server::append_iam`] for a caller that already
/// holds the data node mutably.
fn append_iam(
    id: ServerId,
    data: Option<&DataNode>,
    routing: Option<&RoutingNode>,
    trace: &mut Trace,
) {
    debug_assert!(
        trace.len() < 400,
        "operation path exploded ({} links) at {id}: forwarding loop?",
        trace.len(),
    );
    if let Some(d) = data.filter(|d| d.dr.is_some()) {
        trace.push(d.link(id));
    }
    if let Some(r) = routing {
        trace.extend([r.link(id), r.left, r.right]);
    }
}

/// Sends an insertion one hop on — up to a parent, or along a tombstone.
fn forward_insert(to: NodeRef, ins: Insertion, out: &mut Outbox) {
    out.send_server(to.server, Payload::insert_at(to.kind, ins, false));
}

impl RoutingNode {
    /// One step of the classical R-tree top-down insertion (§3.2) at this
    /// routing node, hosted on `self_id`: choose a subtree, enlarge it,
    /// maintain the overlapping coverage (§2.3), and forward. When the
    /// chosen child is `self_id`'s own data node no message is needed
    /// (§3.2 "r4 and d4 reside on the same server"): the insertion comes
    /// back with that node's new OC table and rectangle, for the caller
    /// to store.
    fn descend(
        &mut self,
        self_id: ServerId,
        ins: Insertion,
        out: &mut Outbox,
    ) -> Option<(Insertion, OcTable, Rect)> {
        let side = self.choose_subtree(&ins.obj.mbb);
        let sibling = *self.child(side.other());
        let chosen = *self.child(side);
        let new_dr = chosen.dr.union(&ins.obj.mbb);
        let enlarged = new_dr != chosen.dr;
        // The child's fresh OC table, derivable because we know our own
        // OC and the sibling (Figure 3.c).
        let oc = self.oc.derive_child(self_id, &new_dr, &sibling);
        if enlarged {
            self.child_mut(side).dr = new_dr;
            // If the overlap with the sibling changed, diffuse UPDATEOC
            // into the sibling subtree (§2.3 step 2).
            if new_dr.intersection(&sibling.dr) != chosen.dr.intersection(&sibling.dr) {
                let update = Payload::UpdateOc {
                    target: sibling.node,
                    ancestor: self_id,
                    outer: *self.child(side),
                    rect: new_dr,
                };
                out.send_server(sibling.node.server, update);
            }
        }
        let payload = match chosen.node.kind {
            NodeKind::Data if chosen.node.server == self_id => return Some((ins, oc, new_dr)),
            NodeKind::Data => Payload::StoreAtLeaf { ins, oc, new_dr },
            NodeKind::Routing => Payload::InsertDescend {
                ins,
                oc,
                new_dr: enlarged.then_some(new_dr),
            },
        };
        out.send_server(chosen.node.server, payload);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Oid;

    fn obj(id: u64, x: f64, y: f64) -> Object {
        Object::new(Oid(id), Rect::new(x, y, x + 0.5, y + 0.5))
    }

    #[test]
    fn first_server_accepts_everything() {
        let mut s = Server::new(ServerId(0), SdrConfig::with_capacity(100));
        let mut out = Outbox::new(ServerId(0), 1);
        for i in 0..50 {
            s.handle(
                Endpoint::Client(crate::ids::ClientId(0)),
                Payload::InsertAtLeaf {
                    ins: Insertion::new(obj(i, i as f64, 0.0), ImageHolder::Nobody),
                    initial: true,
                },
                &mut out,
            );
        }
        assert_eq!(s.data.as_ref().unwrap().len(), 50);
        assert!(out.msgs.is_empty(), "covered inserts need no messages");
    }

    #[test]
    fn overflow_triggers_split_messages() {
        let mut s = Server::new(ServerId(0), SdrConfig::with_capacity(10));
        let mut out = Outbox::new(ServerId(0), 1);
        for i in 0..11 {
            s.handle(
                Endpoint::Client(crate::ids::ClientId(0)),
                Payload::InsertAtLeaf {
                    ins: Insertion::new(
                        obj(i, (i % 4) as f64, (i / 4) as f64),
                        ImageHolder::Nobody,
                    ),
                    initial: true,
                },
                &mut out,
            );
        }
        // Exactly one allocation and one SplitCreate; no ChildChange since
        // server 0 was the root.
        assert_eq!(out.allocated, vec![ServerId(1)]);
        let split_msgs: Vec<_> = out
            .msgs
            .iter()
            .filter(|m| matches!(m.payload, Payload::SplitCreate { .. }))
            .collect();
        assert_eq!(split_msgs.len(), 1);
        assert!(!out
            .msgs
            .iter()
            .any(|m| matches!(m.payload, Payload::ChildChange { .. })));
        // The local half respects the configured capacity.
        let kept = s.data.as_ref().unwrap().len();
        assert!((4..=7).contains(&kept), "kept {kept}");
        assert_eq!(s.data.as_ref().unwrap().parent, Some(ServerId(1)));
    }

    #[test]
    fn split_create_initializes_server() {
        let mut s0 = Server::new(ServerId(0), SdrConfig::with_capacity(10));
        let mut out = Outbox::new(ServerId(0), 1);
        for i in 0..11 {
            s0.handle(
                Endpoint::Client(crate::ids::ClientId(0)),
                Payload::InsertAtLeaf {
                    ins: Insertion::new(
                        obj(i, (i % 4) as f64, (i / 4) as f64),
                        ImageHolder::Nobody,
                    ),
                    initial: true,
                },
                &mut out,
            );
        }
        let mut s1 = Server::new(ServerId(1), SdrConfig::with_capacity(10));
        s1.data = None; // freshly allocated servers start bare
        let msg = out
            .msgs
            .iter()
            .find(|m| matches!(m.payload, Payload::SplitCreate { .. }))
            .unwrap();
        let mut out1 = Outbox::new(ServerId(1), 2);
        s1.handle(msg.from, msg.payload.clone(), &mut out1);
        let r = s1.routing.as_ref().unwrap();
        assert_eq!(r.height, 1);
        assert!(r.is_root());
        assert_eq!(r.left.node, NodeRef::data(ServerId(0)));
        assert_eq!(r.right.node, NodeRef::data(ServerId(1)));
        let d = s1.data.as_ref().unwrap();
        assert_eq!(d.parent, Some(ServerId(1)));
        assert_eq!(d.len() + s0.data.as_ref().unwrap().len(), 11);
        // Both halves' OCs know about each other through ancestor S1.
        assert!(out1.msgs.is_empty());
    }

    #[test]
    fn out_of_range_insert_ascends() {
        let mut s = Server::new(ServerId(0), SdrConfig::with_capacity(10));
        s.data.as_mut().unwrap().dr = Some(Rect::new(0.0, 0.0, 1.0, 1.0));
        s.data.as_mut().unwrap().parent = Some(ServerId(3));
        let mut out = Outbox::new(ServerId(0), 5);
        s.handle(
            Endpoint::Client(crate::ids::ClientId(0)),
            Payload::InsertAtLeaf {
                ins: Insertion::new(
                    obj(9, 5.0, 5.0),
                    ImageHolder::Client(crate::ids::ClientId(0)),
                ),
                initial: true,
            },
            &mut out,
        );
        assert_eq!(out.msgs.len(), 1);
        assert_eq!(out.msgs[0].to, Endpoint::Server(ServerId(3)));
        assert!(matches!(out.msgs[0].payload, Payload::InsertAscend { .. }));
    }

    const CLIENT: crate::ids::ClientId = crate::ids::ClientId(0);

    /// Server 1 hosting routing node `r1` over `d0` = [0,1]² on server 0
    /// and its own `d1` = [1,2]×[0,1], under `parent`.
    fn routing_server(parent: Option<ServerId>) -> Server {
        let (left, right) = (Rect::new(0.0, 0.0, 1.0, 1.0), Rect::new(1.0, 0.0, 2.0, 1.0));
        let mut s = Server::new(ServerId(1), SdrConfig::with_capacity(10));
        let d = s.data.as_mut().unwrap();
        d.dr = Some(right);
        d.parent = Some(ServerId(1));
        s.routing = Some(RoutingNode {
            height: 1,
            dr: left.union(&right),
            left: Link::to_data(ServerId(0), left),
            right: Link::to_data(ServerId(1), right),
            parent,
            oc: OcTable::new(),
        });
        s
    }

    fn insertion(obj: Object) -> Insertion {
        let trace = vec![Link::to_data(ServerId(4), obj.mbb)];
        let iam_to = ImageHolder::Client(CLIENT);
        Insertion { obj, trace, iam_to }
    }

    #[test]
    fn uncovered_insert_ascends_to_the_parent_with_the_grown_trace() {
        let mut s = routing_server(Some(ServerId(7)));
        let ins = insertion(obj(9, 5.0, 5.0));
        let mut expected = ins.clone();
        expected.trace.extend(s.iam_links());
        let mut out = Outbox::new(ServerId(1), 5);
        s.handle(
            Endpoint::Client(CLIENT),
            Payload::InsertAscend { ins },
            &mut out,
        );
        assert_eq!(out.msgs.len(), 1);
        assert_eq!(out.msgs[0].to, Endpoint::Server(ServerId(7)));
        assert_eq!(out.msgs[0].payload, Payload::InsertAscend { ins: expected });
        assert_eq!(s.routing.unwrap().dr, Rect::new(0.0, 0.0, 2.0, 1.0));
    }

    #[test]
    fn uncovering_root_enlarges_and_descends() {
        let mut s = routing_server(None);
        let o = obj(9, -5.0, -5.0);
        let mut out = Outbox::new(ServerId(1), 5);
        let ins = insertion(o);
        s.handle(
            Endpoint::Client(CLIENT),
            Payload::InsertAscend { ins },
            &mut out,
        );
        let r = s.routing.as_ref().unwrap();
        assert!(r.dr.contains(&o.mbb), "the root covers the object");
        assert_eq!(r.left.dr, Rect::new(-5.0, -5.0, 1.0, 1.0));
        assert_eq!(out.msgs.len(), 1);
        assert_eq!(out.msgs[0].to, Endpoint::Server(ServerId(0)));
        let Payload::StoreAtLeaf { ins, new_dr, .. } = &out.msgs[0].payload else {
            panic!("expected StoreAtLeaf, got {:?}", out.msgs[0].payload);
        };
        assert_eq!((ins.obj, *new_dr), (o, r.left.dr));
    }

    #[test]
    fn refusals_name_the_broken_precondition_and_change_nothing() {
        // Server 0 never hosts a routing node.
        let mut s = Server::new(ServerId(0), SdrConfig::with_capacity(10));
        let mut out = Outbox::new(ServerId(0), 5);
        let descend = Payload::InsertDescend {
            ins: insertion(obj(9, 0.0, 0.0)),
            oc: OcTable::new(),
            new_dr: None,
        };
        s.handle(Endpoint::Server(ServerId(7)), descend, &mut out);
        assert_eq!(out.refused, vec![Refused::Missing(NodeKind::Routing)]);
        assert!(out.msgs.is_empty() && s.data.as_ref().unwrap().is_empty());

        // A message parked on a bare server and refused when its
        // `SplitCreate` replays it lands in that step's outbox: an adjust
        // whose pattern no move balances.
        let r1 = routing_server(None).routing.unwrap();
        let tall = Link::to_routing(ServerId(5), r1.dr, 5);
        let adjust = Payload::ChildChange {
            old_child: r1.left.node,
            new_child: Link::to_routing(ServerId(4), r1.left.dr, 2),
            why: ChildWhy::Adjust {
                children: (tall, tall),
                tall_grandchildren: Some((tall, tall)),
            },
        };
        let split = Payload::SplitCreate {
            routing: r1.clone(),
            objects: vec![],
            data_dr: r1.right.dr,
            data_oc: OcTable::new(),
        };
        let mut bare = Server::bare(ServerId(1), SdrConfig::with_capacity(10));
        let mut out = Outbox::new(ServerId(1), 5);
        bare.handle(Endpoint::Server(ServerId(7)), adjust, &mut out);
        bare.handle(Endpoint::Server(ServerId(0)), split, &mut out);
        assert_eq!(out.refused, vec![Refused::Unbalanced]);
        assert!(out.msgs.is_empty());
        assert_eq!(bare.routing, Some(r1));
    }

    #[test]
    fn descent_into_the_own_data_node_stores_without_a_server_message() {
        let mut s = routing_server(Some(ServerId(7)));
        let o = obj(9, 1.25, 0.25);
        let mut out = Outbox::new(ServerId(1), 5);
        let (ins, oc) = (insertion(o), OcTable::new());
        let descend = Payload::InsertDescend {
            ins,
            oc,
            new_dr: None,
        };
        s.handle(Endpoint::Server(ServerId(7)), descend, &mut out);
        assert_eq!(s.data.as_ref().unwrap().len(), 1);
        assert_eq!(out.msgs.len(), 1, "one ack, nothing else: {:?}", out.msgs);
        assert_eq!(out.msgs[0].to, Endpoint::Client(CLIENT));
        assert!(matches!(
            out.msgs[0].payload,
            Payload::InsertAck { oid, .. } if oid == o.oid
        ));
    }
}
