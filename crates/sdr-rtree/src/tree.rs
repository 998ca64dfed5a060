use crate::config::RTreeConfig;
use crate::entry::Entry;
use crate::node::{Arena, Kind, Node, NodeId, Slabs};
use crate::query::Scratch;
use crate::split::{gather, gather_slabs, guttman_split, SplitScratch};
use sdr_geom::Rect;
use std::cell::RefCell;

/// A classical in-memory R-tree over payloads of type `T`.
///
/// See the [crate docs](crate) for role and examples. The tree owns its
/// entries; structural parameters come from an [`RTreeConfig`] fixed at
/// construction.
///
/// Internally the nodes live in an index-based arena (`node::Arena`) and
/// every node stores its children's bounding boxes as four parallel
/// coordinate arrays (`node::Slabs`), so the hot query loops scan
/// contiguous memory instead of chasing one heap pointer per rectangle.
///
/// # Examples
///
/// ```
/// use sdr_geom::{Point, Rect};
/// use sdr_rtree::{RTree, RTreeConfig};
///
/// let mut tree: RTree<u32> = RTree::new(RTreeConfig::default());
/// for i in 0..100u32 {
///     let x = f64::from(i);
///     tree.insert(Rect::new(x, 0.0, x + 0.5, 1.0), i);
/// }
///
/// let in_window = tree.search_window(&Rect::new(10.0, 0.0, 12.0, 1.0));
/// assert_eq!(in_window.len(), 3); // objects 10, 11 and 12
///
/// let (nearest, d2) = tree.nearest(Point::new(42.1, 0.5), 1)[0];
/// assert_eq!(nearest.item, 42);
/// assert_eq!(d2, 0.0); // the query point lies inside object 42
/// ```
#[derive(Clone, Debug)]
pub struct RTree<T> {
    pub(crate) arena: Arena<T>,
    pub(crate) root: NodeId,
    pub(crate) config: RTreeConfig,
    pub(crate) len: usize,
    /// Reusable traversal state (stack, hit buffer, kNN heaps) so
    /// steady-state queries allocate nothing. `RefCell` because queries
    /// take `&self`; the tree is `Send` but not `Sync`, which the
    /// workspace never needs (each server owns its tree).
    pub(crate) scratch: RefCell<Scratch>,
}

impl<T> RTree<T> {
    /// Creates an empty tree.
    ///
    /// # Panics
    ///
    /// Panics if the configuration violates `1 <= m <= M/2`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdr_rtree::{RTree, RTreeConfig};
    ///
    /// let tree: RTree<String> = RTree::new(RTreeConfig::with_max(16));
    /// assert!(tree.is_empty());
    /// ```
    pub fn new(config: RTreeConfig) -> Self {
        config.validate();
        let mut arena = Arena::new();
        let root = arena.alloc(Node::new_leaf());
        RTree {
            arena,
            root,
            config,
            len: 0,
            scratch: RefCell::new(Scratch::default()),
        }
    }

    /// Number of stored entries.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdr_geom::Rect;
    /// use sdr_rtree::{RTree, RTreeConfig};
    ///
    /// let mut tree = RTree::new(RTreeConfig::default());
    /// tree.insert(Rect::new(0.0, 0.0, 1.0, 1.0), 'a');
    /// assert_eq!(tree.len(), 1);
    /// ```
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdr_rtree::{RTree, RTreeConfig};
    ///
    /// let tree: RTree<u64> = RTree::new(RTreeConfig::default());
    /// assert!(tree.is_empty());
    /// ```
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configuration the tree was built with.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdr_rtree::{RTree, RTreeConfig};
    ///
    /// let tree: RTree<u64> = RTree::new(RTreeConfig::default());
    /// assert_eq!(tree.config().max_entries, 32);
    /// ```
    #[inline]
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Minimal bounding box of all stored entries — the *directory
    /// rectangle* of the server holding this tree, in SD-Rtree terms.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdr_geom::Rect;
    /// use sdr_rtree::{RTree, RTreeConfig};
    ///
    /// let mut tree = RTree::new(RTreeConfig::default());
    /// assert_eq!(tree.bbox(), None);
    /// tree.insert(Rect::new(0.0, 0.0, 1.0, 1.0), 1);
    /// tree.insert(Rect::new(3.0, 2.0, 4.0, 5.0), 2);
    /// assert_eq!(tree.bbox(), Some(Rect::new(0.0, 0.0, 4.0, 5.0)));
    /// ```
    pub fn bbox(&self) -> Option<Rect> {
        self.arena.node(self.root).mbb()
    }

    /// Height of the tree (a single leaf has height 0).
    ///
    /// # Examples
    ///
    /// ```
    /// use sdr_geom::Rect;
    /// use sdr_rtree::{RTree, RTreeConfig};
    ///
    /// let mut tree = RTree::new(RTreeConfig::default());
    /// assert_eq!(tree.height(), 0);
    /// for i in 0..100 {
    ///     tree.insert(Rect::new(f64::from(i), 0.0, f64::from(i) + 1.0, 1.0), i);
    /// }
    /// assert!(tree.height() >= 1); // the root must have split by now
    /// ```
    pub fn height(&self) -> usize {
        self.arena.height(self.root)
    }

    /// Inserts an object with the given bounding box.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdr_geom::{Point, Rect};
    /// use sdr_rtree::{RTree, RTreeConfig};
    ///
    /// let mut tree = RTree::new(RTreeConfig::default());
    /// tree.insert(Rect::new(2.0, 2.0, 3.0, 3.0), "box");
    /// assert_eq!(tree.search_point(&Point::new(2.5, 2.5))[0].item, "box");
    /// ```
    pub fn insert(&mut self, rect: Rect, item: T) {
        self.len += 1;
        self.insert_entry(Entry::new(rect, item));
    }

    /// Inserts one entry, growing the tree by a level when the root splits.
    fn insert_entry(&mut self, entry: Entry<T>) {
        let rect = entry.rect;
        if let Overflow::Split(ra, left, rb, right) =
            insert_rec(&mut self.arena, self.root, rect, entry, &self.config)
        {
            // Root split: the old root's slot was reused as the left
            // half; a fresh node becomes the new root.
            let mut slabs = Slabs::with_capacity(2);
            slabs.push(&ra);
            slabs.push(&rb);
            self.root = self.arena.alloc(Node {
                slabs,
                kind: Kind::Internal(vec![left, right]),
            });
        }
    }

    /// Removes one entry matching both `rect` and `item`. Returns `true`
    /// if an entry was removed.
    ///
    /// Follows Guttman's CondenseTree: leaves that underflow are
    /// dissolved and their remaining entries re-inserted. Orphaned
    /// internal subtrees are dissolved down to their leaf entries before
    /// re-insertion; this is marginally more work than re-inserting whole
    /// subtrees but keeps the tree invariants trivially intact, and
    /// deletions are rare in the SD-Rtree workloads (paper §3.3:
    /// "deletions ... are rare in practice").
    ///
    /// # Examples
    ///
    /// ```
    /// use sdr_geom::Rect;
    /// use sdr_rtree::{RTree, RTreeConfig};
    ///
    /// let mut tree = RTree::new(RTreeConfig::default());
    /// let r = Rect::new(0.0, 0.0, 1.0, 1.0);
    /// tree.insert(r, 7);
    /// assert!(tree.remove(&r, &7));
    /// assert!(!tree.remove(&r, &7)); // already gone
    /// assert!(tree.is_empty());
    /// ```
    pub fn remove(&mut self, rect: &Rect, item: &T) -> bool
    where
        T: PartialEq,
    {
        let mut orphans: Vec<Entry<T>> = Vec::new();
        let removed = remove_rec(
            &mut self.arena,
            self.root,
            rect,
            item,
            &self.config,
            &mut orphans,
        );
        if !removed {
            debug_assert!(orphans.is_empty());
            return false;
        }
        self.len -= 1;
        // Shrink the root while it is an internal node with one child.
        loop {
            let root = self.root;
            match &self.arena.node(root).kind {
                Kind::Internal(cs) if cs.len() == 1 => {
                    let child = cs[0];
                    self.arena.dealloc(root);
                    self.root = child;
                }
                Kind::Internal(cs) if cs.is_empty() => {
                    *self.arena.node_mut(root) = Node::new_leaf();
                    break;
                }
                _ => break,
            }
        }
        // Reinsert orphaned entries (they are already counted in len).
        for e in orphans {
            self.insert_entry(e);
        }
        true
    }

    /// Drains every entry out of the tree, leaving it empty.
    ///
    /// Used by the SD-Rtree server split (§2.2): the overloaded server
    /// takes all its objects out, splits them in two halves, keeps one and
    /// ships the other to the new server.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdr_geom::Rect;
    /// use sdr_rtree::{RTree, RTreeConfig};
    ///
    /// let mut tree = RTree::new(RTreeConfig::default());
    /// tree.insert(Rect::new(0.0, 0.0, 1.0, 1.0), 'a');
    /// tree.insert(Rect::new(2.0, 0.0, 3.0, 1.0), 'b');
    /// let drained = tree.drain_all();
    /// assert_eq!(drained.len(), 2);
    /// assert!(tree.is_empty());
    /// ```
    pub fn drain_all(&mut self) -> Vec<Entry<T>> {
        let mut out = Vec::with_capacity(self.len);
        let root = self.root;
        collect_entries(&mut self.arena, root, &mut out);
        // Start from a fresh arena so the drained tree releases the old
        // node storage instead of keeping every slot on the free list.
        self.arena = Arena::new();
        self.root = self.arena.alloc(Node::new_leaf());
        self.len = 0;
        out
    }

    /// Iterates over all entries (arbitrary order).
    ///
    /// # Examples
    ///
    /// ```
    /// use sdr_geom::Rect;
    /// use sdr_rtree::{RTree, RTreeConfig};
    ///
    /// let mut tree = RTree::new(RTreeConfig::default());
    /// tree.insert(Rect::new(0.0, 0.0, 1.0, 1.0), 10u32);
    /// tree.insert(Rect::new(2.0, 0.0, 3.0, 1.0), 20u32);
    /// let total: u32 = tree.iter().map(|e| e.item).sum();
    /// assert_eq!(total, 30);
    /// ```
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            arena: &self.arena,
            stack: vec![self.root],
            leaf: [].iter(),
        }
    }
}

/// Iterator over every entry of an [`RTree`], in arbitrary order.
///
/// # Examples
///
/// ```
/// use sdr_geom::Rect;
/// use sdr_rtree::{RTree, RTreeConfig};
///
/// let mut tree = RTree::new(RTreeConfig::default());
/// tree.insert(Rect::new(0.0, 0.0, 1.0, 1.0), ());
/// assert_eq!(tree.iter().count(), 1);
/// ```
pub struct Iter<'a, T> {
    arena: &'a Arena<T>,
    stack: Vec<NodeId>,
    leaf: std::slice::Iter<'a, Entry<T>>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a Entry<T>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(e) = self.leaf.next() {
                return Some(e);
            }
            match &self.arena.node(self.stack.pop()?).kind {
                Kind::Leaf(es) => self.leaf = es.iter(),
                Kind::Internal(cs) => self.stack.extend_from_slice(cs),
            }
        }
    }
}

/// Moves every entry under `id` into `out`, deallocating the subtree.
fn collect_entries<T>(arena: &mut Arena<T>, id: NodeId, out: &mut Vec<Entry<T>>) {
    match arena.dealloc(id).kind {
        Kind::Leaf(mut es) => out.append(&mut es),
        Kind::Internal(cs) => {
            for c in cs {
                collect_entries(arena, c, out);
            }
        }
    }
}

/// Outcome of a recursive insert at one node.
enum Overflow {
    /// Fitted without structural change.
    None,
    /// The node split. Its own slot was reused as the left half; the
    /// right half is freshly allocated. The caller replaces its child
    /// slot with the two (rect, id) pairs.
    Split(Rect, NodeId, Rect, NodeId),
}

/// Splits the overflowing node `id` in place: its slot keeps the left
/// group, the right group moves to a fresh node. Besides the four halves
/// (slabs and payload of each), the split allocates one set of buffers.
fn split_node<T>(arena: &mut Arena<T>, id: NodeId, config: &RTreeConfig) -> Overflow {
    let node = arena.node_mut(id);
    let scratch = &mut SplitScratch::with_capacity(node.fanout());
    guttman_split(&node.slabs, config.min_entries, scratch);
    let (sa, sb) = gather_slabs(&node.slabs, scratch);
    let ra = sa.mbb().expect("non-empty split half");
    let rb = sb.mbb().expect("non-empty split half");
    node.slabs = sa;
    let right = match &mut node.kind {
        Kind::Leaf(entries) => {
            let (a, b) = gather(std::mem::take(entries), scratch);
            *entries = a;
            Node {
                slabs: sb,
                kind: Kind::Leaf(b),
            }
        }
        Kind::Internal(children) => {
            let (a, b) = gather(std::mem::take(children), scratch);
            *children = a;
            Node {
                slabs: sb,
                kind: Kind::Internal(b),
            }
        }
    };
    let right_id = arena.alloc(right);
    Overflow::Split(ra, id, rb, right_id)
}

/// Recursive insert.
fn insert_rec<T>(
    arena: &mut Arena<T>,
    id: NodeId,
    rect: Rect,
    entry: Entry<T>,
    config: &RTreeConfig,
) -> Overflow {
    let node = arena.node_mut(id);
    match &mut node.kind {
        Kind::Leaf(_) => {
            node.push_entry(entry);
            if node.fanout() > config.max_entries {
                split_node(arena, id, config)
            } else {
                Overflow::None
            }
        }
        Kind::Internal(children) => {
            let idx = node.slabs.choose_subtree(&rect);
            let child = children[idx];
            match insert_rec(arena, child, rect, entry, config) {
                Overflow::None => {
                    arena.node_mut(id).slabs.enlarge(idx, &rect);
                    Overflow::None
                }
                Overflow::Split(ra, left, rb, right) => {
                    let node = arena.node_mut(id);
                    let Kind::Internal(children) = &mut node.kind else {
                        unreachable!()
                    };
                    children.swap_remove(idx);
                    children.push(left);
                    children.push(right);
                    node.slabs.swap_remove(idx);
                    node.slabs.push(&ra);
                    node.slabs.push(&rb);
                    if node.fanout() > config.max_entries {
                        split_node(arena, id, config)
                    } else {
                        Overflow::None
                    }
                }
            }
        }
    }
}

/// Recursive remove + condense. Returns whether the entry was found.
/// Underflowing children are dissolved into `orphans`.
fn remove_rec<T: PartialEq>(
    arena: &mut Arena<T>,
    id: NodeId,
    rect: &Rect,
    item: &T,
    config: &RTreeConfig,
    orphans: &mut Vec<Entry<T>>,
) -> bool {
    let node = arena.node_mut(id);
    match &mut node.kind {
        Kind::Leaf(entries) => {
            if let Some(pos) = node.slabs.position_eq(rect, |i| entries[i].item == *item) {
                entries.swap_remove(pos);
                node.slabs.swap_remove(pos);
                true
            } else {
                false
            }
        }
        Kind::Internal(_) => {
            let mut found_at: Option<(usize, NodeId)> = None;
            for i in 0..arena.node(id).fanout() {
                let (covers, child) = {
                    let node = arena.node(id);
                    let Kind::Internal(children) = &node.kind else {
                        unreachable!()
                    };
                    (node.slabs.contains(i, rect), children[i])
                };
                if covers && remove_rec(arena, child, rect, item, config, orphans) {
                    found_at = Some((i, child));
                    break;
                }
            }
            let Some((i, child)) = found_at else {
                return false;
            };
            if arena.node(child).fanout() < config.min_entries {
                // Dissolve the underflowing child.
                let node = arena.node_mut(id);
                let Kind::Internal(children) = &mut node.kind else {
                    unreachable!()
                };
                children.swap_remove(i);
                node.slabs.swap_remove(i);
                collect_entries(arena, child, orphans);
            } else if let Some(mbb) = arena.node(child).mbb() {
                arena.node_mut(id).slabs.set(i, &mbb);
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_geom::Point;

    fn grid_tree(n: usize) -> RTree<usize> {
        let mut t = RTree::new(RTreeConfig::with_max(8));
        for i in 0..n {
            let x = (i % 50) as f64;
            let y = (i / 50) as f64;
            t.insert(Rect::new(x, y, x + 0.5, y + 0.5), i);
        }
        t
    }

    #[test]
    fn insert_and_count() {
        let t = grid_tree(500);
        assert_eq!(t.len(), 500);
        assert!(t.height() >= 2, "tree too shallow");
    }

    #[test]
    fn bbox_covers_everything() {
        let t = grid_tree(200);
        let bb = t.bbox().unwrap();
        assert!(bb.contains(&Rect::new(0.0, 0.0, 49.5, 3.5)));
    }

    #[test]
    fn point_search_finds_inserted() {
        let t = grid_tree(500);
        for i in [0usize, 49, 250, 499] {
            let x = (i % 50) as f64;
            let y = (i / 50) as f64;
            let hits = t.search_point(&Point::new(x + 0.25, y + 0.25));
            assert!(hits.iter().any(|e| e.item == i), "missing {i}");
        }
    }

    #[test]
    fn remove_existing_entry() {
        let mut t = grid_tree(300);
        let rect = Rect::new(7.0, 2.0, 7.5, 2.5); // i = 107
        assert!(t.remove(&rect, &107));
        assert_eq!(t.len(), 299);
        assert!(t
            .search_point(&Point::new(7.25, 2.25))
            .iter()
            .all(|e| e.item != 107));
        // Everything else is still there.
        assert!(t
            .search_point(&Point::new(6.25, 2.25))
            .iter()
            .any(|e| e.item == 106));
    }

    #[test]
    fn remove_missing_entry_is_noop() {
        let mut t = grid_tree(100);
        assert!(!t.remove(&Rect::new(1000.0, 1000.0, 1001.0, 1001.0), &42));
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn remove_everything_empties_tree() {
        let mut t = grid_tree(200);
        for i in 0..200usize {
            let x = (i % 50) as f64;
            let y = (i / 50) as f64;
            assert!(
                t.remove(&Rect::new(x, y, x + 0.5, y + 0.5), &i),
                "failed to remove {i}"
            );
        }
        assert!(t.is_empty());
        assert_eq!(t.bbox(), None);
        // The tree remains usable.
        t.insert(Rect::new(0.0, 0.0, 1.0, 1.0), 7);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn drain_all_returns_everything() {
        let mut t = grid_tree(150);
        let entries = t.drain_all();
        assert_eq!(entries.len(), 150);
        assert!(t.is_empty());
        let ids: std::collections::BTreeSet<usize> = entries.iter().map(|e| e.item).collect();
        assert_eq!(ids.len(), 150);
    }

    #[test]
    fn duplicate_rects_with_distinct_items() {
        let mut t: RTree<u32> = RTree::new(RTreeConfig::with_max(4));
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        for i in 0..20 {
            t.insert(r, i);
        }
        assert_eq!(t.len(), 20);
        assert_eq!(t.search_window(&r).len(), 20);
        assert!(t.remove(&r, &13));
        assert_eq!(t.search_window(&r).len(), 19);
    }

    #[test]
    fn arena_recycles_slots_under_churn() {
        let mut t: RTree<usize> = RTree::new(RTreeConfig::with_max(4));
        for round in 0..5usize {
            for i in 0..200usize {
                let x = ((i * 31 + round) % 40) as f64;
                let y = ((i * 17) % 40) as f64;
                t.insert(Rect::new(x, y, x + 0.5, y + 0.5), i);
            }
            for i in 0..200usize {
                let x = ((i * 31 + round) % 40) as f64;
                let y = ((i * 17) % 40) as f64;
                assert!(t.remove(&Rect::new(x, y, x + 0.5, y + 0.5), &i));
            }
        }
        assert!(t.is_empty());
        let (slots, free) = t.arena.accounting();
        // Everything but the root leaf must be back on the free list.
        assert_eq!(slots - free, 1, "leaked arena slots");
    }
}
