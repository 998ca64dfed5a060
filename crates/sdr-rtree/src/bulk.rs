//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! Packs a full dataset into an R-tree with near-100 % leaf fill, used by
//! the benchmark harness to build centralized baselines quickly and by the
//! SD-Rtree server split to rebuild a data node's local tree after it
//! receives a batch of relocated objects.
//!
//! Each packed chunk becomes an arena node directly: the packer emits
//! `(Rect, NodeId)` pairs per level, so the finished tree is laid out in
//! the arena bottom-up with the leaves of one STR slice adjacent in
//! memory.

use crate::config::RTreeConfig;
use crate::entry::Entry;
use crate::node::{Arena, Kind, Node, NodeId, Slabs};
use crate::query::Scratch;
use crate::split::order_key;
use crate::tree::RTree;
use sdr_geom::Rect;
use std::cell::RefCell;

impl<T> RTree<T> {
    /// Builds a tree from `entries` using the STR packing algorithm
    /// (Leutenegger et al.): sort by x-center into vertical slices of
    /// roughly `sqrt(n / M)` columns, sort each slice by y-center, pack
    /// runs of `M` into leaves, then recurse on the leaf rectangles.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdr_geom::Rect;
    /// use sdr_rtree::{Entry, RTree, RTreeConfig};
    ///
    /// let entries: Vec<Entry<u32>> = (0..1000)
    ///     .map(|i| {
    ///         let x = f64::from(i % 100);
    ///         let y = f64::from(i / 100);
    ///         Entry::new(Rect::new(x, y, x + 0.5, y + 0.5), i)
    ///     })
    ///     .collect();
    /// let tree = RTree::bulk_load(RTreeConfig::default(), entries);
    /// assert_eq!(tree.len(), 1000);
    /// assert!(tree.stats().avg_leaf_fill > 0.8); // STR packs leaves nearly full
    /// ```
    pub fn bulk_load(config: RTreeConfig, entries: Vec<Entry<T>>) -> Self {
        config.validate();
        let len = entries.len();
        if len == 0 {
            return RTree::new(config);
        }
        let m = config.max_entries;
        let mut arena: Arena<T> = Arena::new();
        // Pack the leaf level.
        let leaves: Vec<(Rect, NodeId)> = str_pack(entries, m, |chunk| {
            let slabs = Slabs::from_rects(chunk.iter().map(|e| &e.rect));
            let rect = slabs.mbb().expect("non-empty chunk");
            let id = arena.alloc(Node {
                slabs,
                kind: Kind::Leaf(chunk),
            });
            (rect, id)
        });
        // Pack upper levels until a single root remains.
        let mut level = leaves;
        while level.len() > 1 {
            level = str_pack(level, m, |chunk| {
                let mut slabs = Slabs::with_capacity(chunk.len());
                let mut ids = Vec::with_capacity(chunk.len());
                for (r, id) in chunk {
                    slabs.push(&r);
                    ids.push(id);
                }
                let rect = slabs.mbb().expect("non-empty chunk");
                let id = arena.alloc(Node {
                    slabs,
                    kind: Kind::Internal(ids),
                });
                (rect, id)
            });
        }
        let root = match level.pop() {
            Some((_, id)) => id,
            None => arena.alloc(Node::new_leaf()),
        };
        RTree {
            arena,
            root,
            config,
            len,
            scratch: RefCell::new(Scratch::default()),
        }
    }
}

/// Center-x of a rectangle-bearing item, used as the primary sort key.
trait Centered {
    fn cx(&self) -> f64;
    fn cy(&self) -> f64;
}

impl<T> Centered for Entry<T> {
    fn cx(&self) -> f64 {
        (self.rect.xmin + self.rect.xmax) / 2.0
    }
    fn cy(&self) -> f64 {
        (self.rect.ymin + self.rect.ymax) / 2.0
    }
}

impl Centered for (Rect, NodeId) {
    fn cx(&self) -> f64 {
        (self.0.xmin + self.0.xmax) / 2.0
    }
    fn cy(&self) -> f64 {
        (self.0.ymin + self.0.ymax) / 2.0
    }
}

/// One STR level: consumes `items`, produces packed parents via `make`.
///
/// Slice and chunk sizes are *balanced* (they differ by at most one)
/// rather than cut at exactly `M` as in the original STR description;
/// this guarantees that every produced node satisfies the `m >= M * 40 %`
/// minimum-fill invariant (a plain greedy cut can leave a nearly empty
/// trailing node).
///
/// Both sorts are stable and compute each item's centre key once
/// ([`order_key`], so a NaN centre sorts last instead of breaking the
/// sort). The slices are sorted in place; the chunks are then moved out
/// in one front-to-back pass.
fn str_pack<I: Centered, O>(
    mut items: Vec<I>,
    m: usize,
    mut make: impl FnMut(Vec<I>) -> O,
) -> Vec<O> {
    let n = items.len();
    let n_pages = n.div_ceil(m);
    let n_slices = (n_pages as f64).sqrt().ceil() as usize;

    items.sort_by_cached_key(|it| order_key(it.cx()));
    let mut slices = Vec::with_capacity(n_slices.max(1));
    let mut start = 0;
    let mut slices_left = n_slices.max(1);
    while start < n {
        let take = (n - start).div_ceil(slices_left);
        slices_left = slices_left.saturating_sub(1);
        items[start..start + take].sort_by_cached_key(|it| order_key(it.cy()));
        slices.push(take);
        start += take;
    }
    let mut out = Vec::with_capacity(n_pages);
    let mut rest = items.into_iter();
    for mut left in slices {
        let mut chunks_left = left.div_ceil(m);
        while left > 0 {
            let take = left.div_ceil(chunks_left.max(1)).min(left);
            chunks_left = chunks_left.saturating_sub(1);
            out.push(make(rest.by_ref().take(take).collect()));
            left -= take;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_geom::Point;

    fn entries(n: usize) -> Vec<Entry<usize>> {
        (0..n)
            .map(|i| {
                let x = (i % 37) as f64 * 1.1;
                let y = (i / 37) as f64 * 0.9;
                Entry::new(Rect::new(x, y, x + 0.4, y + 0.4), i)
            })
            .collect()
    }

    #[test]
    fn bulk_load_preserves_everything() {
        let t = RTree::bulk_load(RTreeConfig::default(), entries(1000));
        assert_eq!(t.len(), 1000);
        assert_eq!(
            t.search_window(&Rect::new(-1.0, -1.0, 1e6, 1e6)).len(),
            1000
        );
    }

    #[test]
    fn bulk_load_empty_and_tiny() {
        let t0: RTree<usize> = RTree::bulk_load(RTreeConfig::default(), vec![]);
        assert!(t0.is_empty());
        let t1 = RTree::bulk_load(RTreeConfig::default(), entries(1));
        assert_eq!(t1.len(), 1);
        let t2 = RTree::bulk_load(RTreeConfig::default(), entries(33));
        assert_eq!(t2.len(), 33);
        assert_eq!(t2.search_window(&Rect::new(-1.0, -1.0, 1e6, 1e6)).len(), 33);
    }

    #[test]
    fn bulk_loaded_tree_answers_point_queries() {
        let t = RTree::bulk_load(RTreeConfig::with_max(16), entries(500));
        let hits = t.search_point(&Point::new(2.2 + 0.2, 0.2));
        assert!(hits.iter().any(|e| e.item == 2));
    }

    #[test]
    fn bulk_load_has_high_fill_and_low_height() {
        let t = RTree::bulk_load(RTreeConfig::with_max(10), entries(1000));
        // 1000 entries, M=10: 100 leaves, 10 internals, 1 root => height 2.
        assert!(t.height() <= 3);
        let inserted = {
            let mut t2: RTree<usize> = RTree::new(RTreeConfig::with_max(10));
            for e in entries(1000) {
                t2.insert(e.rect, e.item);
            }
            t2.height()
        };
        assert!(t.height() <= inserted);
    }

    #[test]
    fn bulk_load_then_mutate() {
        let mut t = RTree::bulk_load(RTreeConfig::default(), entries(200));
        t.insert(Rect::new(500.0, 500.0, 501.0, 501.0), 9999);
        assert_eq!(t.len(), 201);
        assert!(t.remove(&Rect::new(500.0, 500.0, 501.0, 501.0), &9999));
        assert_eq!(t.len(), 200);
    }

    #[test]
    fn bulk_load_passes_invariants() {
        for n in [1usize, 2, 33, 500, 1000] {
            let t = RTree::bulk_load(RTreeConfig::default(), entries(n));
            t.check_invariants();
        }
    }
}
