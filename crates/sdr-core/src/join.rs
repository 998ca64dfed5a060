//! Distributed spatial self-join — the §7 future-work extension.
//!
//! Computes every pair of indexed objects whose mbbs intersect, fully
//! distributed:
//!
//! 1. **Broadcast.** `JoinStart` fans out down the tree to every data
//!    node (one message per tree edge, `O(N)` total).
//! 2. **Local phase.** Each data node self-joins its repository with its
//!    local R-tree (`O(n log n)` per node).
//! 3. **Boundary phase.** Cross-node pairs can only live in the regions
//!    where two subtrees overlap — which is *exactly* what the
//!    overlapping-coverage tables record (§2.3). Each data node ships
//!    the objects intersecting each OC entry's rectangle as a
//!    `JoinProbe` addressed to the entry's **ancestor** routing node,
//!    which descends it into every child subtree intersecting the
//!    overlap region; receiving data nodes join the probe set against
//!    their local objects.
//!
//! Probes are routed through the *ancestor*, not the entry's cached
//! outer link, deliberately: the invariant the structure maintains for
//! OC tables (see `invariants.rs`) guarantees an entry per current
//! ancestor with a covering rectangle, but allows the cached outer link
//! to lag behind rotations. A lagged link can point at a node that is no
//! longer the sibling-subtree root yet still covers the (small) overlap
//! region — the probe would "resolve" there and silently miss every
//! object that a rotation moved out from under it. Ancestor identities
//! and parent/child pointers, by contrast, are maintained exactly, so
//! descending from the ancestor is always complete. The ancestor-side
//! descent also revisits the sender's own half of the tree; the pairs
//! that produces are duplicates of lower-ancestor probes and are
//! de-duplicated by the client. If the OC rectangle itself lags larger
//! than the ancestor's directory rectangle, the probe repairs with the
//! same ascend-and-retry mechanism as queries — literally the same: a
//! probe carries a query's [`Traversal`] header beside its objects, and
//! its hop is decided by `Server::decide_hop` (`query.rs`), which is
//! passed the probe's region as the whole rectangle and told not to
//! follow the OC; a live data node is joined whatever that decision.
//!
//! Double counting is avoided without global coordination: probes flow
//! in *both* directions across every overlap region, and the receiving
//! node emits a pair only when `probe.oid < local.oid` — so each cross
//! pair is produced exactly once, at the node holding its larger oid.
//!
//! Termination uses the direct protocol of §4.3: every hop — broadcast
//! or probe — answers with the `Report` a query hop sends, its pairs as
//! [`Found::Pairs`], naming its fan-out; the client counts replies.

use crate::client::{loud, Await, Client, Over, Transport};
use crate::cluster::Cluster;
use crate::ids::{ClientId, NodeKind, NodeRef, Oid, QueryId};
use crate::msg::{Found, Payload, QueryKind, QueryMode, Trace, Traversal};
use crate::node::Object;
use crate::server::{Outbox, Server};
use sdr_geom::{Point, Rect};

/// Outcome of a distributed spatial self-join.
#[derive(Clone, Debug)]
pub struct JoinOutcome {
    /// Every intersecting pair, `(smaller oid, larger oid)`, sorted.
    pub pairs: Vec<(Oid, Oid)>,
    /// Server-addressed messages the join cost.
    pub messages: u64,
}

impl<T: Transport> Over<'_, T> {
    /// Runs a distributed spatial self-join (see [`Client::spatial_join`]).
    pub fn spatial_join(&mut self) -> Result<JoinOutcome, T::Error> {
        let before = self.t.messages();
        let qid = self.c.next_query_id();
        // The broadcast starts at the root regardless of variant — a
        // join touches every server, so there is nothing for an image
        // to shortcut (BASIC, IMCLIENT and IMSERVER behave identically).
        let root = self.t.root().unwrap_or(NodeRef::data(self.c.contact));
        let start = Payload::JoinStart {
            target: root,
            qid,
            results_to: self.c.id,
            trace: vec![],
        };
        // The client addressed the root itself, so it seeds the entry
        // hop; every report then names the servers still owed.
        let fold = self.exchange((root.server, start, None), Some(qid), Await::Broadcast)?;
        let mut pairs = fold.pairs;
        pairs.sort_unstable();
        pairs.dedup();
        Ok(JoinOutcome {
            pairs,
            messages: self.t.messages() - before,
        })
    }

    /// Every object within Euclidean distance `radius` of `p` (measured
    /// to the object's mbb) with that distance, nearest first: the
    /// distance query, and each verification round of kNN.
    pub fn ball(&mut self, p: Point, radius: f64) -> Result<crate::knn::Near, T::Error> {
        // The ball is contained in its bounding window; a window query
        // is complete over it, then the exact distance filters.
        let window = Rect::new(p.x - radius, p.y - radius, p.x + radius, p.y + radius);
        let mut hits = self.query(QueryKind::Window(window))?.results;
        // Filter first: a last-resort kNN round holds every object here.
        hits.retain(|o| o.mbb.min_dist(&p) <= radius);
        let mut out: crate::knn::Near = hits.iter().map(|o| (*o, o.mbb.min_dist(&p))).collect();
        out.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        Ok(out)
    }
}

impl Client {
    /// Runs a distributed spatial self-join: every pair of objects whose
    /// mbbs intersect.
    ///
    /// ```
    /// use sdr_core::{Client, ClientId, Cluster, Object, Oid, SdrConfig, Variant};
    /// use sdr_geom::Rect;
    ///
    /// let mut cluster = Cluster::new(SdrConfig::with_capacity(10));
    /// let mut client = Client::new(ClientId(0), Variant::ImClient, 1);
    /// // Two overlapping chains: (0,1) and (2,3) intersect; nothing else.
    /// for (i, x) in [0.10, 0.12, 0.50, 0.52].iter().enumerate() {
    ///     let r = Rect::new(*x, 0.1, x + 0.03, 0.2);
    ///     client.insert(&mut cluster, Object::new(Oid(i as u64), r));
    /// }
    /// let join = client.spatial_join(&mut cluster);
    /// let pairs: Vec<(u64, u64)> = join.pairs.iter().map(|(a, b)| (a.0, b.0)).collect();
    /// assert_eq!(pairs, vec![(0, 1), (2, 3)]);
    /// ```
    pub fn spatial_join(&mut self, cluster: &mut Cluster) -> JoinOutcome {
        loud(self.over(cluster).spatial_join())
    }

    /// Distance query (§7 future work): every object within Euclidean
    /// distance `radius` of `p` (measured to the object's mbb), nearest
    /// first.
    pub fn within(&mut self, cluster: &mut Cluster, p: Point, radius: f64) -> Vec<(Oid, f64)> {
        assert!(radius >= 0.0, "radius must be non-negative");
        let near = loud(self.over(cluster).ball(p, radius));
        near.into_iter().map(|(o, d)| (o.oid, d)).collect()
    }
}

impl Server {
    /// JoinStart: broadcast onward, and at data nodes run the local and
    /// boundary phases.
    pub(crate) fn on_join_start(
        &mut self,
        target: NodeRef,
        qid: QueryId,
        results_to: ClientId,
        mut trace: Trace,
        out: &mut Outbox,
    ) {
        self.append_iam(&mut trace);
        let mut spawned: Vec<crate::ids::ServerId> = Vec::new();
        let mut pairs: Vec<(Oid, Oid)> = Vec::new();
        let start = |target: NodeRef, out: &mut Outbox| {
            let start = Payload::JoinStart {
                target,
                qid,
                results_to,
                trace: trace.clone(),
            };
            out.send_server(target.server, start);
            target.server
        };
        match (target.kind, &self.routing, &self.data) {
            (NodeKind::Routing, Some(r), _) => {
                spawned.extend([r.left, r.right].map(|child| start(child.node, out)));
            }
            (NodeKind::Data, _, Some(d)) => {
                // Local phase: each object against the local tree.
                for e in d.tree.iter() {
                    d.tree.visit_window(&e.rect, |hit| {
                        if e.item < hit.item {
                            pairs.push((e.item, hit.item));
                        }
                    });
                }
                // Boundary phase: probe every overlap region through
                // its ancestor (see the module docs for why the
                // cached outer link cannot be trusted here).
                let self_node = NodeRef::data(self.id);
                for entry in d.oc.entries() {
                    let mut objects = Vec::new();
                    d.tree.visit_window(&entry.rect, |e| {
                        objects.push(Object::new(e.item, e.rect));
                    });
                    if objects.is_empty() {
                        continue;
                    }
                    let ancestor = NodeRef::routing(entry.ancestor);
                    let hop = Traversal {
                        mode: QueryMode::Check,
                        region: entry.rect,
                        visited: vec![self_node],
                        qid,
                        results_to,
                        trace: trace.clone(),
                        initial: false,
                    };
                    let probe = Payload::JoinProbe {
                        target: ancestor,
                        hop,
                        objects,
                    };
                    out.send_server(ancestor.server, probe);
                    spawned.push(ancestor.server);
                }
            }
            // A dissolved node (elimination) must not silently drop its
            // subtree from the join: follow the tombstone, like queries do.
            (kind, ..) => spawned.extend(self.tombstone(kind).map(|t| start(t, out))),
        }
        out.report(results_to, qid, Found::Pairs(pairs), spawned, trace, None);
    }

    /// JoinProbe: route the probe set into the target subtree and join
    /// it against local objects. The hop is decided like a query's, with
    /// the probe *region* as the whole rectangle — every pair's
    /// intersection lies inside it (both members intersect the overlap
    /// rectangle the probe was born with), so descending by the region
    /// rather than the probes' bbox prunes boundary fan-out without
    /// losing pairs — and the OC not followed: probes are born per OC
    /// entry and travel through its ancestor (module docs).
    pub(crate) fn on_join_probe(
        &mut self,
        target: NodeRef,
        mut hop: Traversal,
        objects: Vec<Object>,
        out: &mut Outbox,
    ) {
        self.append_iam(&mut hop.trace);
        let region = hop.region;
        let matches = |dr: &Rect| dr.intersects(&region);
        let decided = self.decide_hop(target, &hop, &region, matches, false);
        // A live data node is joined whatever the step — also one the
        // region extends beyond (since a split) and that repairs upward.
        // Emit `probe < local` pairs only (the other direction is
        // produced by the symmetric probe).
        let mut pairs: Vec<(Oid, Oid)> = Vec::new();
        if let Some(d) = self.data.as_ref().filter(|_| target.kind == NodeKind::Data) {
            for probe in &objects {
                d.tree.visit_window(&probe.mbb, |hit| {
                    if probe.oid < hit.item {
                        pairs.push((probe.oid, hit.item));
                    }
                });
            }
        }
        for (target, hop) in decided.headers(&hop) {
            let objects = objects.clone();
            let probe = Payload::JoinProbe {
                target,
                hop,
                objects,
            };
            out.send_server(target.server, probe);
        }
        let found = Found::Pairs(pairs);
        out.report(
            hop.results_to,
            hop.qid,
            found,
            decided.spawned(),
            hop.trace,
            None,
        );
    }
}
