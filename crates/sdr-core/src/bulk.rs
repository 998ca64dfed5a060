//! Bulk loading: build a whole SD-Rtree cluster from a dataset in one
//! shot.
//!
//! The paper grows the structure purely by incremental insertion; a
//! practical deployment ingesting an existing dataset wants to skip the
//! O(n) routed inserts and the splits they trigger. This builder packs
//! the objects into data nodes with a recursive KD-style median cut
//! aligned with the routing tree's own splits (see [`kd_pack`]'s note on
//! why a plain STR ordering is a poor fit here), erects a *perfectly
//! height-balanced* binary routing tree over them, and derives every
//! overlapping-coverage table top-down with the §2.3 derivation —
//! producing exactly the invariants an incrementally built tree
//! maintains (the test suite checks the result with the same oracle).
//!
//! Server assignment mirrors the incremental layout: leaf `i` lives on
//! server `i`; each internal node lives on the server of the *leftmost
//! leaf of its right subtree* — the server whose split would have
//! created that routing node, had the tree grown incrementally. That map
//! is a bijection from internal nodes onto servers `1..N-1`, so every
//! server hosts one data node plus (except server 0) one routing node,
//! matching §2.1.

use crate::cluster::Cluster;
use crate::config::{SdrConfig, LOCAL_RTREE};
use crate::ids::{NodeRef, ServerId};
use crate::link::Link;
use crate::node::{DataNode, Object, RoutingNode};
use crate::oc::OcTable;
use crate::server::Server;
use sdr_geom::Rect;
use sdr_rtree::{Entry, RTree};

impl Cluster {
    /// Builds a cluster holding `objects`, with data nodes filled to
    /// roughly 70 % of capacity (the steady-state load factor of
    /// incremental growth, ≈ ln 2 — see Table 1).
    ///
    /// ```
    /// use sdr_core::{Client, ClientId, Cluster, Object, Oid, SdrConfig, Variant};
    /// use sdr_geom::{Point, Rect};
    ///
    /// let objects: Vec<Object> = (0..1_000)
    ///     .map(|i| {
    ///         let x = (i % 40) as f64;
    ///         let y = (i / 40) as f64;
    ///         Object::new(Oid(i), Rect::new(x, y, x + 0.5, y + 0.5))
    ///     })
    ///     .collect();
    /// let mut cluster = Cluster::bulk_load(SdrConfig::with_capacity(100), objects);
    /// assert!(cluster.num_servers() >= 10);
    /// assert_eq!(cluster.stats.total(), 0); // no messages were exchanged
    ///
    /// let mut client = Client::new(ClientId(0), Variant::ImClient, 1);
    /// let hit = client.point_query(&mut cluster, Point::new(3.25, 7.25));
    /// assert_eq!(hit.results.len(), 1);
    /// ```
    pub fn bulk_load(config: SdrConfig, objects: Vec<Object>) -> Cluster {
        config.validate();
        let mut cluster = Cluster::new(config);
        if objects.is_empty() {
            return cluster;
        }
        let fill = ((config.capacity as f64 * 0.7) as usize).max(1);
        let leaves = kd_pack(objects, fill);
        let n = leaves.len();

        if n == 1 {
            let server = cluster.server_mut(ServerId(0));
            let d = server.data.as_mut().expect("fresh server has a data node");
            let entries: Vec<Entry<_>> = leaves
                .into_iter()
                .next()
                .expect("n == 1")
                .into_iter()
                .map(|o| Entry::new(o.mbb, o.oid))
                .collect();
            d.dr = Rect::mbb(entries.iter().map(|e| &e.rect));
            d.tree = RTree::bulk_load(LOCAL_RTREE, entries);
            return cluster;
        }

        // Provision the servers: leaf i => data node on server i.
        for i in 1..n {
            cluster.push_server(Server::bare(ServerId(i as u32), config));
        }
        for (i, objs) in leaves.iter().enumerate() {
            let entries: Vec<Entry<_>> = objs.iter().map(|o| Entry::new(o.mbb, o.oid)).collect();
            let dr = Rect::mbb(entries.iter().map(|e| &e.rect)).expect("non-empty leaf");
            let server = cluster.server_mut(ServerId(i as u32));
            server.data = Some(DataNode {
                tree: RTree::bulk_load(LOCAL_RTREE, entries),
                dr: Some(dr),
                parent: None, // fixed during tree construction
                oc: OcTable::new(),
            });
        }

        // Erect the balanced routing tree over leaf indexes [0, n).
        let root = build_subtree(&mut cluster, 0, n);
        if let NodeRef {
            kind: crate::ids::NodeKind::Routing,
            server,
        } = root.node
        {
            cluster
                .server_mut(server)
                .routing
                .as_mut()
                .expect("just built")
                .parent = None;
            // Derive every OC table from the root down.
            derive_oc(&mut cluster, root.node, OcTable::new());
        }
        cluster
    }
}

/// Builds the subtree over leaves `[lo, hi)`; returns its link.
/// The routing node for a multi-leaf range lives on the server of the
/// leftmost leaf of its right half.
fn build_subtree(cluster: &mut Cluster, lo: usize, hi: usize) -> Link {
    debug_assert!(lo < hi);
    if hi - lo == 1 {
        let id = ServerId(lo as u32);
        let d = cluster.server(id).data.as_ref().expect("leaf built");
        return Link::to_data(id, d.dr.expect("non-empty leaf"));
    }
    let mid = lo + (hi - lo).div_ceil(2);
    let host = ServerId(mid as u32);
    let left = build_subtree(cluster, lo, mid);
    let right = build_subtree(cluster, mid, hi);
    // Wire the children's parent pointers.
    for child in [left, right] {
        let s = cluster.server_mut(child.node.server);
        match child.node.kind {
            crate::ids::NodeKind::Data => s.data.as_mut().expect("leaf built").parent = Some(host),
            crate::ids::NodeKind::Routing => {
                s.routing.as_mut().expect("subtree built").parent = Some(host)
            }
        }
    }
    let node = RoutingNode {
        height: left.height.max(right.height) + 1,
        dr: left.dr.union(&right.dr),
        left,
        right,
        parent: None, // fixed by the caller
        oc: OcTable::new(),
    };
    let link = node.link(host);
    cluster.server_mut(host).routing = Some(node);
    link
}

/// Installs `table` at `node` and recurses with the §2.3 derivation.
fn derive_oc(cluster: &mut Cluster, node: NodeRef, table: OcTable) {
    match node.kind {
        crate::ids::NodeKind::Data => {
            cluster
                .server_mut(node.server)
                .data
                .as_mut()
                .expect("built")
                .oc = table;
        }
        crate::ids::NodeKind::Routing => {
            let (left, right) = {
                let r = cluster.server(node.server).routing.as_ref().expect("built");
                (r.left, r.right)
            };
            let left_oc = table.derive_child(node.server, &left.dr, &right);
            let right_oc = table.derive_child(node.server, &right.dr, &left);
            cluster
                .server_mut(node.server)
                .routing
                .as_mut()
                .expect("built")
                .oc = table;
            derive_oc(cluster, left.node, left_oc);
            derive_oc(cluster, right.node, right_oc);
        }
    }
}

/// Recursive KD-style packing of objects into `ceil(n / fill)` leaf
/// groups, in an order that *matches the routing tree's own midpoint
/// splits*: at every level the object set is cut at the median of its
/// wider axis, exactly where `build_subtree` will cut the leaf range.
/// Every internal node therefore separates two spatially clean halves —
/// a plain STR ordering (x-slices, y-runs) leaves mid-tree siblings
/// overlapping across slice boundaries and multiplies the query fan-out
/// several-fold.
fn kd_pack(objects: Vec<Object>, fill: usize) -> Vec<Vec<Object>> {
    let leaves = objects.len().div_ceil(fill).max(1);
    kd_pack_into(objects, leaves)
}

fn kd_pack_into(mut objects: Vec<Object>, leaves: usize) -> Vec<Vec<Object>> {
    if leaves <= 1 {
        return vec![objects];
    }
    let left_leaves = leaves.div_ceil(2);
    let right_leaves = leaves - left_leaves;
    // Balanced object counts, with every leaf guaranteed non-empty.
    let left_count =
        (objects.len() * left_leaves / leaves).clamp(left_leaves, objects.len() - right_leaves);
    let bbox = Rect::mbb(objects.iter().map(|o| &o.mbb)).expect("non-empty");
    let by_x = bbox.width() >= bbox.height();
    objects.sort_by(|a, b| {
        let (ka, kb) = if by_x {
            (a.mbb.center().x, b.mbb.center().x)
        } else {
            (a.mbb.center().y, b.mbb.center().y)
        };
        ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
    });
    let right = objects.split_off(left_count);
    let mut out = kd_pack_into(objects, left_leaves);
    out.extend(kd_pack_into(right, right_leaves));
    out
}
