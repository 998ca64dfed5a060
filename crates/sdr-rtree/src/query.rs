//! Search operations: window, point and k-nearest-neighbour queries
//! over a local [`RTree`].
//!
//! Traversals run over the arena's coordinate slabs: each visited node
//! filters its children with the batch predicate kernels of
//! [`sdr_geom::kernels`] (eight MBRs per branchless evaluation, driven
//! by [`crate::node::Slabs`]) and only the indices surviving the lane
//! masks are resolved to child ids or leaf entries. All transient state
//! (node stack, hit buffer, kNN heaps) lives in a per-tree [`Scratch`]
//! so steady-state queries allocate nothing beyond the result vector.

use crate::entry::Entry;
use crate::node::{Kind, NodeId};
use crate::tree::RTree;
use sdr_geom::{Point, Rect};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Reusable traversal state, kept on the tree behind a `RefCell`.
#[derive(Clone, Debug, Default)]
pub(crate) struct Scratch {
    /// DFS stack of pending nodes.
    stack: Vec<NodeId>,
    /// Secondary stack for the covered-subtree report-all descent; kept
    /// separate from `stack` because both are live inside the window
    /// traversal loop.
    sub: Vec<NodeId>,
    /// Best-first kNN frontier.
    heap: BinaryHeap<KnnItem>,
    /// Max-heap of the k best entry distances pushed so far — the kNN
    /// pruning cutoff.
    kth: BinaryHeap<OrdF64>,
}

impl<T> RTree<T> {
    /// Returns every entry whose rectangle intersects `window`
    /// (border contact counts, matching the SD-Rtree forwarding rules).
    ///
    /// # Examples
    ///
    /// ```
    /// use sdr_geom::Rect;
    /// use sdr_rtree::{RTree, RTreeConfig};
    ///
    /// let mut tree = RTree::new(RTreeConfig::default());
    /// tree.insert(Rect::new(0.0, 0.0, 1.0, 1.0), 'a');
    /// tree.insert(Rect::new(5.0, 5.0, 6.0, 6.0), 'b');
    /// let hits = tree.search_window(&Rect::new(0.5, 0.5, 2.0, 2.0));
    /// assert_eq!(hits.len(), 1);
    /// assert_eq!(hits[0].item, 'a');
    /// ```
    pub fn search_window(&self, window: &Rect) -> Vec<&Entry<T>> {
        let mut res = Vec::new();
        self.visit_window(window, |e| res.push(e));
        res
    }

    /// Calls `visit` on every entry whose rectangle intersects `window`,
    /// in [`RTree::search_window`]'s order, without collecting them: a
    /// caller that maps each hit builds its own result in one pass.
    ///
    /// `visit` must not search this tree again (the traversal holds the
    /// tree's scratch state).
    pub fn visit_window<'a>(&'a self, window: &Rect, mut visit: impl FnMut(&'a Entry<T>)) {
        let mut scratch = self.scratch.borrow_mut();
        let Scratch { stack, sub, .. } = &mut *scratch;
        stack.clear();
        sub.clear();
        stack.push(self.root);
        while let Some(id) = stack.pop() {
            let node = self.arena.node(id);
            match &node.kind {
                Kind::Leaf(es) => {
                    node.slabs.each_intersecting(window, |i| visit(&es[i]));
                }
                Kind::Internal(cs) => {
                    // Report-all shortcut: a child fully inside the
                    // window contributes every entry below it, no
                    // further rectangle tests needed.
                    node.slabs.each_intersecting_covered(window, |i, covered| {
                        if covered {
                            self.visit_all(cs[i], &mut visit, sub);
                        } else {
                            stack.push(cs[i]);
                        }
                    });
                }
            }
        }
    }

    /// Returns every entry whose rectangle contains the point.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdr_geom::{Point, Rect};
    /// use sdr_rtree::{RTree, RTreeConfig};
    ///
    /// let mut tree = RTree::new(RTreeConfig::default());
    /// tree.insert(Rect::new(0.0, 0.0, 2.0, 2.0), "big");
    /// tree.insert(Rect::new(0.0, 0.0, 1.0, 1.0), "small");
    /// assert_eq!(tree.search_point(&Point::new(1.5, 1.5)).len(), 1);
    /// assert_eq!(tree.search_point(&Point::new(0.5, 0.5)).len(), 2);
    /// ```
    pub fn search_point(&self, p: &Point) -> Vec<&Entry<T>> {
        let mut res = Vec::new();
        self.visit_point(p, |e| res.push(e));
        res
    }

    /// Calls `visit` on every entry whose rectangle contains the point,
    /// in [`RTree::search_point`]'s order; the same contract as
    /// [`RTree::visit_window`].
    pub fn visit_point<'a>(&'a self, p: &Point, mut visit: impl FnMut(&'a Entry<T>)) {
        let mut scratch = self.scratch.borrow_mut();
        let stack = &mut scratch.stack;
        stack.clear();
        stack.push(self.root);
        while let Some(id) = stack.pop() {
            let node = self.arena.node(id);
            match &node.kind {
                Kind::Leaf(es) => {
                    node.slabs.each_containing_point(p, |i| visit(&es[i]));
                }
                Kind::Internal(cs) => {
                    node.slabs.each_containing_point(p, |i| stack.push(cs[i]));
                }
            }
        }
    }

    /// Visits every entry of the subtree rooted at `id` — the report-all
    /// descent for covered subtrees.
    ///
    /// Iterative preorder walk over an explicit stack: children are pushed
    /// in reverse so pop order matches the recursive left-to-right descent
    /// exactly, keeping result order bit-for-bit stable while avoiding the
    /// per-node call frames that dominated this path under profiling.
    fn visit_all<'a>(
        &'a self,
        id: NodeId,
        visit: &mut impl FnMut(&'a Entry<T>),
        stack: &mut Vec<NodeId>,
    ) {
        debug_assert!(stack.is_empty());
        stack.push(id);
        while let Some(id) = stack.pop() {
            match &self.arena.node(id).kind {
                Kind::Leaf(es) => es.iter().for_each(&mut *visit),
                Kind::Internal(cs) => {
                    // The tree is balanced, so siblings share a level:
                    // probing the first child classifies the whole list.
                    // Leaf children are drained inline, in order, instead
                    // of bouncing each one through the stack.
                    let leaf_level = cs
                        .first()
                        .is_some_and(|&c| matches!(self.arena.node(c).kind, Kind::Leaf(_)));
                    if leaf_level {
                        for &c in cs {
                            if let Kind::Leaf(es) = &self.arena.node(c).kind {
                                es.iter().for_each(&mut *visit);
                            }
                        }
                    } else {
                        stack.extend(cs.iter().rev());
                    }
                }
            }
        }
    }

    /// Best-first k-nearest-neighbour search (Hjaltason & Samet style):
    /// returns up to `k` entries ordered by increasing distance from `p`,
    /// together with that distance.
    ///
    /// The frontier is pruned against the k-th best entry distance seen
    /// so far: nodes and entries strictly farther than the cutoff can
    /// never reach the result set, so they are never pushed.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdr_geom::{Point, Rect};
    /// use sdr_rtree::{RTree, RTreeConfig};
    ///
    /// let mut tree = RTree::new(RTreeConfig::default());
    /// for i in 0..10 {
    ///     let x = f64::from(i) * 2.0;
    ///     tree.insert(Rect::new(x, 0.0, x + 1.0, 1.0), i);
    /// }
    /// let nn = tree.nearest(Point::new(4.5, 0.5), 3);
    /// assert_eq!(nn.len(), 3);
    /// assert_eq!(nn[0].0.item, 2); // [4, 5] contains the query point
    /// assert_eq!(nn[0].1, 0.0); // distance to the containing rect
    /// assert!(nn[1].1 <= nn[2].1); // ordered by increasing distance
    /// ```
    pub fn nearest(&self, p: Point, k: usize) -> Vec<(&Entry<T>, f64)> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        let mut scratch = self.scratch.borrow_mut();
        let Scratch { heap, kth, .. } = &mut *scratch;
        heap.clear();
        kth.clear();
        let mut counter = 0u64;
        heap.push(KnnItem {
            d2: 0.0,
            seq: 0,
            target: KnnTarget::Node(self.root),
        });
        let mut found: Vec<(NodeId, u32, f64)> = Vec::with_capacity(k);
        while let Some(KnnItem { d2, target, .. }) = heap.pop() {
            match target {
                KnnTarget::Node(id) => {
                    let node = self.arena.node(id);
                    let is_leaf = matches!(node.kind, Kind::Leaf(_));
                    node.slabs.each_min_dist2(&p, |i, d| {
                        // Prune: with k candidates at distance <= cutoff
                        // already in flight, anything strictly farther is
                        // dominated (ties keep the original order).
                        if kth.len() == k && kth.peek().is_some_and(|worst| d > worst.0) {
                            return;
                        }
                        counter += 1;
                        let target = if is_leaf {
                            kth.push(OrdF64(d));
                            if kth.len() > k {
                                kth.pop();
                            }
                            KnnTarget::Entry(id, i as u32)
                        } else {
                            let Kind::Internal(cs) = &node.kind else {
                                unreachable!()
                            };
                            KnnTarget::Node(cs[i])
                        };
                        heap.push(KnnItem {
                            d2: d,
                            seq: counter,
                            target,
                        });
                    });
                }
                KnnTarget::Entry(id, i) => {
                    found.push((id, i, d2.sqrt()));
                    if found.len() == k {
                        break;
                    }
                }
            }
        }
        let mut res = Vec::with_capacity(found.len());
        for &(id, i, d) in &found {
            let Kind::Leaf(es) = &self.arena.node(id).kind else {
                unreachable!("entries live in leaves")
            };
            res.push((&es[i as usize], d));
        }
        res
    }
}

/// What a kNN frontier item points at.
#[derive(Clone, Copy, Debug)]
enum KnnTarget {
    Node(NodeId),
    Entry(NodeId, u32),
}

/// One kNN frontier item: distance², a tie-break counter preserving push
/// order, and the target. Holds ids only, so the scratch heap carries no
/// lifetime.
#[derive(Clone, Copy, Debug)]
struct KnnItem {
    d2: f64,
    seq: u64,
    target: KnnTarget,
}

impl PartialEq for KnnItem {
    fn eq(&self, other: &Self) -> bool {
        self.d2 == other.d2 && self.seq == other.seq
    }
}
impl Eq for KnnItem {}
impl PartialOrd for KnnItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for KnnItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the smallest d2 first.
        other
            .d2
            .partial_cmp(&self.d2)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Totally-ordered f64 wrapper for the kNN cutoff max-heap.
#[derive(Clone, Copy, Debug, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;

    fn tree() -> RTree<usize> {
        let mut t = RTree::new(RTreeConfig::with_max(6));
        for i in 0..400usize {
            let x = (i % 20) as f64;
            let y = (i / 20) as f64;
            t.insert(Rect::new(x, y, x + 0.6, y + 0.6), i);
        }
        t
    }

    #[test]
    fn window_query_matches_scan() {
        let t = tree();
        let w = Rect::new(3.2, 4.1, 8.9, 6.3);
        let mut got: Vec<usize> = t.search_window(&w).iter().map(|e| e.item).collect();
        let mut want: Vec<usize> = t
            .iter()
            .filter(|e| e.rect.intersects(&w))
            .map(|e| e.item)
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn point_query_on_overlap_free_grid() {
        let t = tree();
        let hits = t.search_point(&Point::new(5.3, 7.3));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].item, 7 * 20 + 5);
    }

    #[test]
    fn point_query_outside_space() {
        let t = tree();
        assert!(t.search_point(&Point::new(-5.0, -5.0)).is_empty());
    }

    #[test]
    fn window_covering_all_returns_all() {
        let t = tree();
        assert_eq!(
            t.search_window(&Rect::new(-1.0, -1.0, 100.0, 100.0)).len(),
            400
        );
    }

    #[test]
    fn nearest_orders_by_distance() {
        let t = tree();
        let p = Point::new(10.0, 10.0);
        let nn = t.nearest(p, 10);
        assert_eq!(nn.len(), 10);
        for pair in nn.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        // The nearest entry should contain or touch the query point area.
        assert!(nn[0].1 <= 0.5);
    }

    #[test]
    fn nearest_matches_brute_force() {
        let t = tree();
        let p = Point::new(3.7, 12.2);
        let got: Vec<usize> = t.nearest(p, 5).iter().map(|(e, _)| e.item).collect();
        let mut all: Vec<(f64, usize)> = t.iter().map(|e| (e.rect.min_dist2(&p), e.item)).collect();
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let want: Vec<usize> = all.iter().take(5).map(|(_, i)| *i).collect();
        // Distances may tie; compare distance sequences instead of ids.
        let got_d: Vec<f64> = t.nearest(p, 5).iter().map(|(_, d)| *d).collect();
        let want_d: Vec<f64> = all.iter().take(5).map(|(d, _)| d.sqrt()).collect();
        for (g, w) in got_d.iter().zip(&want_d) {
            assert!((g - w).abs() < 1e-9);
        }
        assert_eq!(got.len(), want.len());
    }

    #[test]
    fn nearest_k_larger_than_len() {
        let mut t: RTree<u8> = RTree::new(RTreeConfig::default());
        t.insert(Rect::new(0.0, 0.0, 1.0, 1.0), 1);
        t.insert(Rect::new(5.0, 5.0, 6.0, 6.0), 2);
        let nn = t.nearest(Point::new(0.0, 0.0), 10);
        assert_eq!(nn.len(), 2);
        assert_eq!(nn[0].0.item, 1);
    }

    #[test]
    fn nearest_zero_k_and_empty_tree() {
        let t = tree();
        assert!(t.nearest(Point::new(0.0, 0.0), 0).is_empty());
        let empty: RTree<u8> = RTree::new(RTreeConfig::default());
        assert!(empty.nearest(Point::new(0.0, 0.0), 3).is_empty());
    }

    #[test]
    fn nearest_pruning_matches_unpruned_on_large_k() {
        // k close to len exercises the cutoff bookkeeping at both ends.
        let t = tree();
        let p = Point::new(2.2, 17.9);
        for k in [1, 3, 50, 399, 400, 500] {
            let nn = t.nearest(p, k);
            assert_eq!(nn.len(), k.min(400));
            let mut all: Vec<f64> = t.iter().map(|e| e.rect.min_dist2(&p).sqrt()).collect();
            all.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for (got, want) in nn.iter().map(|(_, d)| *d).zip(all.iter().take(k)) {
                assert!((got - want).abs() < 1e-9, "k={k}");
            }
        }
    }

    #[test]
    fn queries_reuse_scratch_without_interference() {
        // Interleave all query kinds on one tree: the shared scratch must
        // be fully reset between calls.
        let t = tree();
        let w = Rect::new(1.0, 1.0, 4.0, 4.0);
        let first = t.search_window(&w).len();
        for _ in 0..3 {
            assert_eq!(t.search_window(&w).len(), first);
            assert_eq!(t.search_point(&Point::new(5.3, 7.3)).len(), 1);
            assert_eq!(t.nearest(Point::new(10.0, 10.0), 7).len(), 7);
        }
    }
}
