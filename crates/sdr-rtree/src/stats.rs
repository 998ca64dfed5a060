//! Structural statistics used by tests (invariant checking) and by the
//! benchmark's per-layer probes (leaf fill).

use crate::node::{Arena, Kind, NodeId};
use crate::tree::RTree;
use sdr_geom::Rect;

/// A structural snapshot of an [`RTree`].
///
/// # Examples
///
/// ```
/// use sdr_geom::Rect;
/// use sdr_rtree::{RTree, RTreeConfig};
///
/// let mut tree = RTree::new(RTreeConfig::default());
/// for i in 0..100 {
///     tree.insert(Rect::new(f64::from(i), 0.0, f64::from(i) + 1.0, 1.0), i);
/// }
/// let stats = tree.stats();
/// assert_eq!(stats.entries, 100);
/// assert!(stats.leaves > 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RTreeStats {
    /// Number of leaf nodes.
    pub leaves: usize,
    /// Number of internal nodes.
    pub internals: usize,
    /// Number of stored entries.
    pub entries: usize,
    /// Tree height (single leaf = 0).
    pub height: usize,
    /// Average leaf fill ratio in `[0, 1]`.
    pub avg_leaf_fill: f64,
}

impl<T> RTree<T> {
    /// Computes structural statistics in one traversal.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdr_geom::Rect;
    /// use sdr_rtree::{RTree, RTreeConfig};
    ///
    /// let mut tree = RTree::new(RTreeConfig::default());
    /// tree.insert(Rect::new(0.0, 0.0, 1.0, 1.0), ());
    /// let stats = tree.stats();
    /// assert_eq!((stats.entries, stats.leaves, stats.height), (1, 1, 0));
    /// ```
    pub fn stats(&self) -> RTreeStats {
        let mut s = RTreeStats {
            height: self.height(),
            entries: self.len(),
            ..Default::default()
        };
        let mut leaf_fill_sum = 0.0;
        visit(
            &self.arena,
            self.root,
            &mut s,
            &mut leaf_fill_sum,
            self.config.max_entries,
        );
        if s.leaves > 0 {
            s.avg_leaf_fill = leaf_fill_sum / s.leaves as f64;
        }
        s
    }

    /// Checks every structural invariant; panics with a description on
    /// violation. Test-oriented (O(n log n)).
    ///
    /// Beyond the classical R-tree invariants (fanout bounds, cached
    /// child rectangle == recomputed MBB, uniform leaf depth, `len`
    /// agreement) this also verifies the arena layout: every node's
    /// coordinate slabs stay parallel to its payload, leaf slabs mirror
    /// their entries' rectangles exactly, and the arena holds no live
    /// slots beyond the reachable tree (no leaks past the free list).
    ///
    /// # Examples
    ///
    /// ```
    /// use sdr_geom::Rect;
    /// use sdr_rtree::{RTree, RTreeConfig};
    ///
    /// let mut tree = RTree::new(RTreeConfig::default());
    /// for i in 0..50 {
    ///     tree.insert(Rect::new(f64::from(i), 0.0, f64::from(i) + 1.0, 1.0), i);
    /// }
    /// tree.check_invariants(); // passes silently on a well-formed tree
    /// ```
    pub fn check_invariants(&self) {
        let mut nodes_seen = 0usize;
        check(
            &self.arena,
            self.root,
            self.config.min_entries,
            self.config.max_entries,
            true,
            None,
            &mut nodes_seen,
        );
        let counted = self.iter().count();
        assert_eq!(counted, self.len(), "len() disagrees with entry count");
        let (slots, free) = self.arena.accounting();
        assert_eq!(
            slots - free,
            nodes_seen,
            "arena accounting: live slots != reachable nodes"
        );
    }
}

fn visit<T>(arena: &Arena<T>, id: NodeId, s: &mut RTreeStats, leaf_fill_sum: &mut f64, max: usize) {
    let node = arena.node(id);
    match &node.kind {
        Kind::Leaf(es) => {
            s.leaves += 1;
            *leaf_fill_sum += es.len() as f64 / max as f64;
        }
        Kind::Internal(cs) => {
            s.internals += 1;
            for &child in cs {
                visit(arena, child, s, leaf_fill_sum, max);
            }
        }
    }
}

/// Recursive invariant check: fanout bounds, rect accuracy, slab/payload
/// parity, uniform leaf depth. Returns the subtree height and counts the
/// nodes it visits.
fn check<T>(
    arena: &Arena<T>,
    id: NodeId,
    min: usize,
    max: usize,
    is_root: bool,
    expected_rect: Option<&Rect>,
    nodes_seen: &mut usize,
) -> usize {
    *nodes_seen += 1;
    let node = arena.node(id);
    let fanout = node.fanout();
    if is_root {
        assert!(fanout <= max, "root overflow: {fanout} > {max}");
    } else {
        assert!(fanout >= min, "node underflow: {fanout} < {min}");
        assert!(fanout <= max, "node overflow: {fanout} > {max}");
    }
    if let Some(expected) = expected_rect {
        let actual = node.mbb().expect("non-root nodes are non-empty");
        assert_eq!(&actual, expected, "cached child rect out of date");
    }
    match &node.kind {
        Kind::Leaf(es) => {
            assert_eq!(es.len(), node.slabs.len(), "leaf slabs out of sync");
            for (i, e) in es.iter().enumerate() {
                assert_eq!(
                    node.slabs.rect(i),
                    e.rect,
                    "leaf slab {i} does not mirror its entry"
                );
            }
            0
        }
        Kind::Internal(cs) => {
            assert_eq!(cs.len(), node.slabs.len(), "internal slabs out of sync");
            assert!(!cs.is_empty(), "empty internal node");
            let mut first: Option<usize> = None;
            for (i, &c) in cs.iter().enumerate() {
                let r = node.slabs.rect(i);
                let h = check(arena, c, min, max, false, Some(&r), nodes_seen);
                match first {
                    None => first = Some(h),
                    Some(f) => assert_eq!(h, f, "leaves at non-uniform depth"),
                }
            }
            first.expect("non-empty") + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;

    fn build(n: usize) -> RTree<usize> {
        let mut t = RTree::new(RTreeConfig::with_max(8));
        for i in 0..n {
            let x = ((i * 37) % 100) as f64;
            let y = ((i * 61) % 100) as f64;
            t.insert(Rect::new(x, y, x + 1.5, y + 1.5), i);
        }
        t
    }

    #[test]
    fn invariants_hold_after_inserts() {
        build(800).check_invariants();
    }

    #[test]
    fn invariants_hold_after_mixed_ops() {
        let mut t = build(400);
        for i in (0..400).step_by(3) {
            let x = ((i * 37) % 100) as f64;
            let y = ((i * 61) % 100) as f64;
            assert!(t.remove(&Rect::new(x, y, x + 1.5, y + 1.5), &i));
        }
        t.check_invariants();
    }

    #[test]
    fn stats_count_nodes() {
        let t = build(500);
        let s = t.stats();
        assert_eq!(s.entries, 500);
        assert!(s.leaves >= 500 / 8);
        assert!(s.internals >= 1);
        assert!(s.avg_leaf_fill > 0.3 && s.avg_leaf_fill <= 1.0);
        assert!(s.height >= 2);
    }

    #[test]
    fn bulk_load_has_better_fill_than_inserts() {
        let entries: Vec<crate::Entry<usize>> = (0..1000)
            .map(|i| {
                let x = ((i * 37) % 100) as f64;
                let y = ((i * 61) % 100) as f64;
                crate::Entry::new(Rect::new(x, y, x + 1.5, y + 1.5), i)
            })
            .collect();
        let bulk = RTree::bulk_load(RTreeConfig::with_max(8), entries);
        bulk.check_invariants();
        let inc = build(1000);
        assert!(bulk.stats().avg_leaf_fill >= inc.stats().avg_leaf_fill);
    }
}
