//! Distributed k-nearest-neighbour queries — the extension the paper
//! lists as future work (§7: "Future work on SDR-tree should include
//! other spatial operations: kNN queries, distance queries...").
//!
//! The algorithm is a two-phase radius refinement built entirely on the
//! existing machinery, so it inherits the image-based addressing and the
//! out-of-range repair for free:
//!
//! 1. **Estimate.** Address the data node most likely to contain the
//!    query point (via the image) and ask for its local k nearest
//!    neighbours. The k-th local distance bounds the true k-th distance
//!    from above. The image is the client's under IMCLIENT and the
//!    contact server's under IMSERVER (the request travels as
//!    `Routed { op: ClientOp::Knn }` like every other IMSERVER
//!    operation); BASIC has none and asks its contact's data node.
//! 2. **Verify.** Run a window query over the ball of that radius; every
//!    object within the true k-th distance intersects this window. If
//!    fewer than `k` candidates fall inside the radius, double it and
//!    retry (bounded by the space diagonal).
//!
//! Each phase costs the same as the underlying point/window query, so
//! kNN is `O(log N)` messages plus the window fan-out.

use crate::client::{loud, Await, Client, Over, Transport};
use crate::cluster::Cluster;
use crate::ids::Oid;
use crate::msg::ClientOp;
use crate::node::Object;
use sdr_geom::Point;

/// Objects with their distance from a query point, nearest first.
pub type Near = Vec<(Object, f64)>;

/// Outcome of a kNN query.
#[derive(Clone, Debug)]
pub struct KnnOutcome {
    /// Up to `k` `(oid, distance)` pairs, nearest first. Distances are
    /// measured to the objects' mbbs (0 when the point is inside).
    pub neighbors: Vec<(Oid, f64)>,
    /// Server-addressed messages the whole query cost.
    pub messages: u64,
    /// Number of verification window queries run (1 in the common case).
    pub rounds: u32,
}

impl<T: Transport> Over<'_, T> {
    /// Runs a distributed k-nearest-neighbour query around `p`: up to `k`
    /// `(object, distance)` pairs, nearest first, and the number of
    /// verification rounds.
    pub fn knn(&mut self, p: Point, k: usize) -> Result<(Near, u32), T::Error> {
        if k == 0 {
            return Ok((vec![], 0));
        }
        // Phase 1: local estimate from the most promising data node.
        let qid = self.c.next_query_id();
        let fold = self.operate(ClientOp::Knn(p, k, qid), Some(qid), Await::Estimate)?;
        // A lost estimate is no estimate: start from the default radius.
        let (items, dr) = fold.estimate.unwrap_or_default();
        let mut radius = match items.get(k - 1) {
            // A zero radius (k duplicates exactly at p) still needs a
            // positive verification window.
            Some(kth) => kth.1.max(1e-9),
            // Fewer than k local objects: start from the node's own extent.
            None => dr
                .map(|dr| dr.width().max(dr.height()))
                .filter(|r| *r > 0.0)
                .unwrap_or(0.01),
        };

        // Phase 2: verification by expanding window queries.
        let mut rounds = 0u32;
        let max_radius = 4.0; // beyond any unit-square diagonal
        loop {
            rounds += 1;
            // Complete within `radius`: the window contains the ball.
            let mut near = self.ball(p, radius)?;
            if near.len() >= k || radius >= max_radius {
                near.truncate(k);
                return Ok((near, rounds));
            }
            radius *= 2.0;
        }
    }
}

impl Client {
    /// Runs a distributed k-nearest-neighbour query around `p`.
    ///
    /// ```
    /// use sdr_core::{Client, ClientId, Cluster, Object, Oid, SdrConfig, Variant};
    /// use sdr_geom::{Point, Rect};
    ///
    /// let mut cluster = Cluster::new(SdrConfig::with_capacity(20));
    /// let mut client = Client::new(ClientId(0), Variant::ImClient, 1);
    /// for i in 0..100u64 {
    ///     let x = (i % 10) as f64 / 10.0;
    ///     let y = (i / 10) as f64 / 10.0;
    ///     client.insert(&mut cluster, Object::new(Oid(i), Rect::new(x, y, x + 0.01, y + 0.01)));
    /// }
    /// let knn = client.knn(&mut cluster, Point::new(0.505, 0.505), 1);
    /// assert_eq!(knn.neighbors[0].0, Oid(55)); // the grid cell at (0.5, 0.5)
    /// ```
    pub fn knn(&mut self, cluster: &mut Cluster, p: Point, k: usize) -> KnnOutcome {
        let before = cluster.stats.total();
        let (near, rounds) = loud(self.over(cluster).knn(p, k));
        KnnOutcome {
            neighbors: near.into_iter().map(|(o, d)| (o.oid, d)).collect(),
            messages: cluster.stats.total() - before,
            rounds,
        }
    }
}
