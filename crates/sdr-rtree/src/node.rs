//! Arena-backed node storage with structure-of-arrays MBR slabs.
//!
//! Nodes live in a `Vec`-backed [`Arena`] addressed by `u32` [`NodeId`]s
//! instead of `Box`-per-node heap pointers, and every node keeps its
//! children's bounding boxes as four parallel `f64` coordinate arrays
//! ([`Slabs`]). The hot per-fanout scans — intersection (with the
//! covered-subtree test), point-containment, kNN distance — run as batch
//! kernels ([`sdr_geom::kernels`]) over [`LANES`]-wide chunks of the
//! slabs: one branchless straight-line evaluation per eight child MBRs,
//! then a `trailing_zeros` walk over the surviving bits in ascending
//! order, so a mask-driven scan visits exactly the slots a scalar loop
//! would and in the same order. The sub-[`LANES`] tail of a node runs
//! the same predicate as a scalar loop. Both halves of that shape were
//! measured against their simpler alternatives (scalar short-circuit
//! loops throughout; a sentinel-padded tail chunk; sentinel-padded
//! slabs) and kept — DESIGN.md decision 11 has the table.

use crate::entry::Entry;
use sdr_geom::kernels::{self, LANES};
use sdr_geom::{Coord, Point, Rect};

/// Index of a node inside the tree's [`Arena`].
pub(crate) type NodeId = u32;

/// Borrows a [`LANES`]-wide chunk of one coordinate slab as the fixed-size
/// array the batch kernels take. Callers guarantee `base + LANES <= s.len()`.
#[inline]
fn lanes(s: &[f64], base: usize) -> &[Coord; LANES] {
    s[base..base + LANES]
        .try_into()
        .expect("chunk is LANES long")
}

/// Four parallel coordinate sections holding one MBR per child slot,
/// packed into a single backing buffer.
///
/// The buffer holds four `cap`-float sections — `xmin | ymin | xmax |
/// ymax` — of which the first `len` slots of each are live. One
/// allocation instead of four keeps the struct at 32 bytes, so a whole
/// [`Node`] (slabs + payload) fits one cache line: traversals touch a
/// single line per node instead of chasing four slab headers.
///
/// Invariant: `buf.len() == 4 * cap` and `len <= cap`. For a leaf, slot
/// `i` mirrors `entries[i].rect`; for an internal node, slot `i` is the
/// MBB of the subtree rooted at `children[i]`.
#[derive(Clone, Debug, Default)]
pub(crate) struct Slabs {
    buf: Vec<f64>,
    len: u32,
    cap: u32,
}

impl Slabs {
    pub(crate) fn with_capacity(n: usize) -> Self {
        let mut s = Slabs::default();
        if n > 0 {
            s.regrow(n);
        }
        s
    }

    /// Builds slabs mirroring an iterator of rectangles.
    pub(crate) fn from_rects<'a, I: IntoIterator<Item = &'a Rect>>(rects: I) -> Self {
        let it = rects.into_iter();
        let mut s = Slabs::with_capacity(it.size_hint().0);
        for r in it {
            s.push(r);
        }
        s
    }

    /// Reallocates the backing buffer so each section holds at least
    /// `min_cap` slots, preserving live values (amortized doubling).
    fn regrow(&mut self, min_cap: usize) {
        let new_cap = min_cap.max(self.cap as usize * 2).max(4);
        let mut buf = vec![0.0; 4 * new_cap];
        let (len, cap) = (self.len as usize, self.cap as usize);
        for k in 0..4 {
            buf[k * new_cap..k * new_cap + len].copy_from_slice(&self.buf[k * cap..k * cap + len]);
        }
        self.buf = buf;
        self.cap = u32::try_from(new_cap).expect("slab capacity fits u32");
    }

    /// The four live coordinate sections, in `xmin, ymin, xmax, ymax`
    /// order, each `len` long.
    #[inline]
    pub(crate) fn sections(&self) -> (&[f64], &[f64], &[f64], &[f64]) {
        let (n, c) = (self.len as usize, self.cap as usize);
        let (xmin, rest) = self.buf.split_at(c);
        let (ymin, rest) = rest.split_at(c);
        let (xmax, ymax) = rest.split_at(c);
        (&xmin[..n], &ymin[..n], &xmax[..n], &ymax[..n])
    }

    /// Index of slot `i` inside section `k` (0 = xmin .. 3 = ymax).
    #[inline]
    fn at(&self, k: usize, i: usize) -> usize {
        debug_assert!(i < self.len as usize);
        k * self.cap as usize + i
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties every section, keeping the buffer.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }

    #[inline]
    pub(crate) fn push(&mut self, r: &Rect) {
        if self.len == self.cap {
            self.regrow(self.len as usize + 1);
        }
        let (i, c) = (self.len as usize, self.cap as usize);
        self.buf[i] = r.xmin;
        self.buf[c + i] = r.ymin;
        self.buf[2 * c + i] = r.xmax;
        self.buf[3 * c + i] = r.ymax;
        self.len += 1;
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize, r: &Rect) {
        let (x0, y0, x1, y1) = (self.at(0, i), self.at(1, i), self.at(2, i), self.at(3, i));
        self.buf[x0] = r.xmin;
        self.buf[y0] = r.ymin;
        self.buf[x1] = r.xmax;
        self.buf[y1] = r.ymax;
    }

    #[inline]
    pub(crate) fn rect(&self, i: usize) -> Rect {
        Rect {
            xmin: self.buf[self.at(0, i)],
            ymin: self.buf[self.at(1, i)],
            xmax: self.buf[self.at(2, i)],
            ymax: self.buf[self.at(3, i)],
        }
    }

    /// Removes slot `i` by moving the last slot into it (matching
    /// `Vec::swap_remove` semantics on every section).
    #[inline]
    pub(crate) fn swap_remove(&mut self, i: usize) {
        let last = self.len as usize - 1;
        for k in 0..4 {
            let (src, dst) = (self.at(k, last), self.at(k, i));
            self.buf[dst] = self.buf[src];
        }
        self.len -= 1;
    }

    /// Grows slot `i` in place so it covers `r`.
    #[inline]
    pub(crate) fn enlarge(&mut self, i: usize, r: &Rect) {
        let (x0, y0, x1, y1) = (self.at(0, i), self.at(1, i), self.at(2, i), self.at(3, i));
        self.buf[x0] = self.buf[x0].min(r.xmin);
        self.buf[y0] = self.buf[y0].min(r.ymin);
        self.buf[x1] = self.buf[x1].max(r.xmax);
        self.buf[y1] = self.buf[y1].max(r.ymax);
    }

    /// MBB of every slot, or `None` when empty.
    pub(crate) fn mbb(&self) -> Option<Rect> {
        if self.is_empty() {
            return None;
        }
        let (xs0, ys0, xs1, ys1) = self.sections();
        let (mut xmin, mut ymin) = (f64::INFINITY, f64::INFINITY);
        let (mut xmax, mut ymax) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for i in 0..self.len as usize {
            xmin = xmin.min(xs0[i]);
            ymin = ymin.min(ys0[i]);
            xmax = xmax.max(xs1[i]);
            ymax = ymax.max(ys1[i]);
        }
        Some(Rect {
            xmin,
            ymin,
            xmax,
            ymax,
        })
    }

    /// Whether slot `i` fully contains `r` (border contact counts).
    #[inline]
    pub(crate) fn contains(&self, i: usize, r: &Rect) -> bool {
        self.buf[self.at(0, i)] <= r.xmin
            && self.buf[self.at(1, i)] <= r.ymin
            && self.buf[self.at(2, i)] >= r.xmax
            && self.buf[self.at(3, i)] >= r.ymax
    }

    /// First slot whose coordinates equal `r` exactly and whose index is
    /// accepted by `pred` — the deletion probe.
    pub(crate) fn position_eq(
        &self,
        r: &Rect,
        mut pred: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        let (xs0, ys0, xs1, ys1) = self.sections();
        (0..self.len as usize).find(|&i| {
            xs0[i] == r.xmin && ys0[i] == r.ymin && xs1[i] == r.xmax && ys1[i] == r.ymax && pred(i)
        })
    }

    /// Calls `f(i)` for every slot intersecting `w` (border contact
    /// counts). The core window-query kernel: one batch intersection mask
    /// per [`LANES`] slots, then an ascending set-bit walk, with the
    /// consumer inlined into the scan. The sub-[`LANES`] tail runs the
    /// identical scalar predicate, so nodes smaller than one chunk pay no
    /// batching overhead at all.
    #[inline]
    pub(crate) fn each_intersecting(&self, w: &Rect, mut f: impl FnMut(usize)) {
        let n = self.len();
        let (xmin, ymin, xmax, ymax) = self.sections();
        let full = n - n % LANES;
        let mut base = 0;
        while base < full {
            let mut m = kernels::intersects_batch(
                lanes(xmin, base),
                lanes(ymin, base),
                lanes(xmax, base),
                lanes(ymax, base),
                w,
            );
            while m != 0 {
                f(base + m.trailing_zeros() as usize);
                m &= m - 1;
            }
            base += LANES;
        }
        for i in full..n {
            let hit = (xmin[i] <= w.xmax)
                & (w.xmin <= xmax[i])
                & (ymin[i] <= w.ymax)
                & (w.ymin <= ymax[i]);
            if hit {
                f(i);
            }
        }
    }

    /// Calls `f(i, covered)` for every slot intersecting `w`, where
    /// `covered` reports whether the slot lies entirely inside `w`
    /// (border contact counts) — the report-all shortcut of the window
    /// traversal, computed as a second batch mask over the same chunk
    /// only when the intersection mask is non-empty.
    #[inline]
    pub(crate) fn each_intersecting_covered(&self, w: &Rect, mut f: impl FnMut(usize, bool)) {
        let n = self.len();
        let (xmin, ymin, xmax, ymax) = self.sections();
        let full = n - n % LANES;
        let mut base = 0;
        while base < full {
            let (lx, ly) = (lanes(xmin, base), lanes(ymin, base));
            let (hx, hy) = (lanes(xmax, base), lanes(ymax, base));
            let mut m = kernels::intersects_batch(lx, ly, hx, hy, w);
            if m != 0 {
                let cov = kernels::covered_by_batch(lx, ly, hx, hy, w);
                while m != 0 {
                    let bit = m.trailing_zeros();
                    f(base + bit as usize, (cov >> bit) & 1 == 1);
                    m &= m - 1;
                }
            }
            base += LANES;
        }
        for i in full..n {
            let hit = (xmin[i] <= w.xmax)
                & (w.xmin <= xmax[i])
                & (ymin[i] <= w.ymax)
                & (w.ymin <= ymax[i]);
            if hit {
                let covered = (w.xmin <= xmin[i])
                    & (w.ymin <= ymin[i])
                    & (xmax[i] <= w.xmax)
                    & (ymax[i] <= w.ymax);
                f(i, covered);
            }
        }
    }

    /// Calls `f(i)` for every slot containing point `p`.
    #[inline]
    pub(crate) fn each_containing_point(&self, p: &Point, mut f: impl FnMut(usize)) {
        let n = self.len();
        let (xmin, ymin, xmax, ymax) = self.sections();
        let full = n - n % LANES;
        let mut base = 0;
        while base < full {
            let mut m = kernels::contains_point_batch(
                lanes(xmin, base),
                lanes(ymin, base),
                lanes(xmax, base),
                lanes(ymax, base),
                p,
            );
            while m != 0 {
                f(base + m.trailing_zeros() as usize);
                m &= m - 1;
            }
            base += LANES;
        }
        for i in full..n {
            let hit = (xmin[i] <= p.x) & (p.x <= xmax[i]) & (ymin[i] <= p.y) & (p.y <= ymax[i]);
            if hit {
                f(i);
            }
        }
    }

    /// Calls `f(i, d2)` for every slot in ascending order with its squared
    /// distance to `p` (zero inside) — the kNN child-expansion step,
    /// batched [`LANES`] distances at a time with a scalar tail.
    #[inline]
    pub(crate) fn each_min_dist2(&self, p: &Point, mut f: impl FnMut(usize, f64)) {
        let n = self.len();
        let (xmin, ymin, xmax, ymax) = self.sections();
        let full = n - n % LANES;
        let mut base = 0;
        while base < full {
            let d = kernels::min_dist_sq_batch(
                lanes(xmin, base),
                lanes(ymin, base),
                lanes(xmax, base),
                lanes(ymax, base),
                p,
            );
            for (j, dj) in d.iter().enumerate() {
                f(base + j, *dj);
            }
            base += LANES;
        }
        for i in full..n {
            let dx = (xmin[i] - p.x).max(p.x - xmax[i]).max(0.0);
            let dy = (ymin[i] - p.y).max(p.y - ymax[i]).max(0.0);
            f(i, dx * dx + dy * dy);
        }
    }

    /// Guttman's CHOOSESUBTREE over the slots: least enlargement to cover
    /// `r`, ties by smallest area, then lowest index.
    pub(crate) fn choose_subtree(&self, r: &Rect) -> usize {
        let n = self.len();
        let (xmin, ymin, xmax, ymax) = self.sections();
        let mut best = 0usize;
        let mut best_enl = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for i in 0..n {
            let area = (xmax[i] - xmin[i]) * (ymax[i] - ymin[i]);
            let uw = xmax[i].max(r.xmax) - xmin[i].min(r.xmin);
            let uh = ymax[i].max(r.ymax) - ymin[i].min(r.ymin);
            let enl = uw * uh - area;
            if enl < best_enl || (enl == best_enl && area < best_area) {
                best = i;
                best_enl = enl;
                best_area = area;
            }
        }
        best
    }
}

/// Per-node payload: leaf entries, or child node ids parallel to the
/// node's [`Slabs`].
#[derive(Clone, Debug)]
pub(crate) enum Kind<T> {
    Leaf(Vec<Entry<T>>),
    Internal(Vec<NodeId>),
}

/// One R-tree node: the SoA child MBRs plus the parallel payload.
///
/// [`Slabs`] (32 bytes) plus [`Kind`] (32 bytes) total exactly 64; the
/// alignment pins each arena slot to its own cache line so a traversal
/// touches one line per node visited.
#[derive(Clone, Debug)]
#[repr(align(64))]
pub(crate) struct Node<T> {
    pub slabs: Slabs,
    pub kind: Kind<T>,
}

impl<T> Node<T> {
    pub(crate) fn new_leaf() -> Self {
        Node {
            slabs: Slabs::default(),
            kind: Kind::Leaf(Vec::new()),
        }
    }

    /// Number of entries/children directly in this node.
    #[inline]
    pub(crate) fn fanout(&self) -> usize {
        self.slabs.len()
    }

    /// Recomputed minimal bounding box of this node's contents.
    #[inline]
    pub(crate) fn mbb(&self) -> Option<Rect> {
        self.slabs.mbb()
    }

    /// Appends an entry, keeping slabs and payload parallel.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a leaf.
    pub(crate) fn push_entry(&mut self, e: Entry<T>) {
        let Kind::Leaf(entries) = &mut self.kind else {
            unreachable!("push_entry on internal node");
        };
        self.slabs.push(&e.rect);
        entries.push(e);
    }
}

/// The node store: a `Vec` of nodes with a free list, addressed by
/// [`NodeId`]. Freed slots are recycled so long-lived trees under mixed
/// insert/delete workloads don't grow without bound.
#[derive(Clone, Debug)]
pub(crate) struct Arena<T> {
    nodes: Vec<Node<T>>,
    free: Vec<NodeId>,
}

impl<T> Arena<T> {
    pub(crate) fn new() -> Self {
        Arena {
            nodes: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores a node, recycling a freed slot when available.
    pub(crate) fn alloc(&mut self, node: Node<T>) -> NodeId {
        match self.free.pop() {
            Some(id) => {
                self.nodes[id as usize] = node;
                id
            }
            None => {
                let id = u32::try_from(self.nodes.len()).expect("more than u32::MAX nodes");
                self.nodes.push(node);
                id
            }
        }
    }

    /// Takes a node out of the arena, leaving an empty leaf in its slot
    /// and marking the id reusable.
    pub(crate) fn dealloc(&mut self, id: NodeId) -> Node<T> {
        let node = std::mem::replace(&mut self.nodes[id as usize], Node::new_leaf());
        self.free.push(id);
        node
    }

    #[inline]
    pub(crate) fn node(&self, id: NodeId) -> &Node<T> {
        &self.nodes[id as usize]
    }

    #[inline]
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node<T> {
        &mut self.nodes[id as usize]
    }

    /// Height of the subtree rooted at `id`: leaves have height 0.
    /// Used only by tests and stats (O(depth)).
    pub(crate) fn height(&self, id: NodeId) -> usize {
        match &self.node(id).kind {
            Kind::Leaf(_) => 0,
            Kind::Internal(children) => 1 + children.first().map_or(0, |&c| self.height(c)),
        }
    }

    /// Slot and free-list sizes, for the arena accounting invariant.
    pub(crate) fn accounting(&self) -> (usize, usize) {
        (self.nodes.len(), self.free.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole point of the single-buffer slab layout: one node, one
    /// cache line. A payload type can't widen the node because both
    /// [`Kind`] variants store their contents behind a `Vec`.
    #[test]
    fn node_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Slabs>(), 32);
        assert_eq!(std::mem::size_of::<Node<u64>>(), 64);
        assert_eq!(std::mem::size_of::<Node<[f64; 16]>>(), 64);
        assert_eq!(std::mem::align_of::<Node<u64>>(), 64);
    }

    #[test]
    fn slabs_grow_and_swap_remove_preserve_sections() {
        let mut s = Slabs::with_capacity(2);
        for i in 0..13 {
            let v = i as f64;
            s.push(&Rect::new(v, v + 0.5, v + 1.0, v + 1.5));
        }
        assert_eq!(s.len(), 13);
        for i in 0..13 {
            let v = i as f64;
            assert_eq!(s.rect(i), Rect::new(v, v + 0.5, v + 1.0, v + 1.5));
        }
        s.swap_remove(3);
        assert_eq!(s.len(), 12);
        assert_eq!(s.rect(3), Rect::new(12.0, 12.5, 13.0, 13.5));
        let (xmin, ymin, xmax, ymax) = s.sections();
        assert_eq!(xmin.len(), 12);
        assert_eq!((ymin[3], xmax[3], ymax[3]), (12.5, 13.0, 13.5));
    }
}
