//! Node split algorithms, one per tree level (DESIGN.md decision 16):
//! Guttman's quadratic split for the nodes of the local [`crate::RTree`],
//! and the R\*-tree axis sweep for a whole SD-Rtree data node when a
//! server overflows (paper §2.2: "the data stored on S is divided in two
//! approximately equal subsets using a split algorithm similar to that of
//! the classical Rtree"; §7 names the R\*-type split).
//!
//! Both run on the structure-of-arrays coordinate slabs ([`Slabs`]) and
//! return *index groups*: which slots of the overflowing node go left and
//! which go right, in assignment order. The caller distributes the
//! payload (leaf entries, child ids, or the data node's objects) by those
//! indices. Each kernel is a run of straight passes over contiguous
//! columns — pair wastes one row at a time, enlargements one group at a
//! time, radix passes over normalised sort keys — into buffers reused
//! across passes. Every decision, tie-breaks included, equals the plain
//! loops they replaced, so tree shapes do not move
//! (`tests/split_equivalence.rs` keeps those loops as its oracle). Sort
//! keys go through [`order_key`], a total order, so a NaN coordinate
//! cannot break a sort.

use crate::entry::Entry;
use crate::node::Slabs;
use sdr_geom::Rect;

/// Divides a set of entries into two balanced groups with the R\* axis
/// sweep — the SD-Rtree server split (paper §2.2: an overloaded server's
/// data "is divided in two approximately equal subsets using a split
/// algorithm similar to that of the classical Rtree"). Each group holds
/// at least `min_entries` entries, capped at half the set. It costs
/// O(n): four stable radix sorts (a fifth only when the winning key has
/// ties) and linear sweeps.
///
/// # Panics
///
/// Panics if `entries.len() < 2`.
///
/// # Examples
///
/// ```
/// use sdr_geom::Rect;
/// use sdr_rtree::{partition, Entry};
///
/// // Two tight clusters, far apart: any sane split separates them.
/// let entries: Vec<Entry<u32>> = (0..8)
///     .map(|i| {
///         let x = if i < 4 { f64::from(i) } else { 100.0 + f64::from(i) };
///         Entry::new(Rect::new(x, 0.0, x + 1.0, 1.0), i)
///     })
///     .collect();
/// let (left, right) = partition(entries, 3);
/// assert_eq!(left.len() + right.len(), 8);
/// assert_eq!(left.len(), 4);
/// ```
pub fn partition<T>(
    mut entries: Vec<Entry<T>>,
    min_entries: usize,
) -> (Vec<Entry<T>>, Vec<Entry<T>>) {
    assert!(
        entries.len() >= 2,
        "cannot partition fewer than two entries"
    );
    let slabs = Slabs::from_rects(entries.iter().map(|e| &e.rect));
    let (mut order, k) = rstar_split(&slabs, min_entries);
    permute(&mut entries, &mut order);
    let right = entries.split_off(k);
    (entries, right)
}

/// Divides a set of entries with Guttman's quadratic split, the split
/// every node of the local [`crate::RTree`] uses when it overflows. The
/// two seeds head the two groups, which keep their assignment order;
/// each group holds at least `min_entries` entries when the set allows.
///
/// # Panics
///
/// Panics if `entries.len() < 2`.
///
/// # Examples
///
/// ```
/// use sdr_geom::Rect;
/// use sdr_rtree::{quadratic_split, Entry};
///
/// let entries: Vec<Entry<u32>> = (0..8)
///     .map(|i| {
///         let x = if i < 4 { f64::from(i) } else { 100.0 + f64::from(i) };
///         Entry::new(Rect::new(x, 0.0, x + 1.0, 1.0), i)
///     })
///     .collect();
/// let (a, b) = quadratic_split(entries, 3);
/// assert_eq!((a.len(), b.len()), (4, 4));
/// assert!(a.iter().all(|e| (e.item < 4) == (a[0].item < 4)));
/// ```
pub fn quadratic_split<T>(
    entries: Vec<Entry<T>>,
    min_entries: usize,
) -> (Vec<Entry<T>>, Vec<Entry<T>>) {
    assert!(entries.len() >= 2, "cannot split fewer than two entries");
    let slabs = Slabs::from_rects(entries.iter().map(|e| &e.rect));
    let mut scratch = SplitScratch::with_capacity(entries.len());
    guttman_split(&slabs, min_entries, &mut scratch);
    gather(entries, &mut scratch)
}

/// Maps a coordinate to a `u64` whose unsigned order is a total order on
/// `f64` that agrees with `f64::partial_cmp` wherever that is defined:
/// −0.0 folds onto +0.0 and every NaN sorts last, after +∞. A stable sort
/// by this key orders NaN-free input exactly as a stable sort by
/// `partial_cmp` does.
#[inline]
pub(crate) fn order_key(v: f64) -> u64 {
    if v.is_nan() {
        return u64::MAX;
    }
    // `-0.0 + 0.0` is `+0.0`; every other value is unchanged.
    let bits = (v + 0.0).to_bits();
    // Negative values flip every bit, the others set the sign bit.
    let mask = ((bits as i64 >> 63) as u64) | (1 << 63);
    bits ^ mask
}

/// The quadratic split's result and buffers, one set per split: each is
/// allocated once at the node's size.
#[derive(Debug)]
pub(crate) struct SplitScratch {
    /// The groups of the last split, in assignment order.
    ga: Vec<u32>,
    gb: Vec<u32>,
    /// Unassigned slots, in the order the classic `swap_remove` loop
    /// leaves them, and their coordinates (`xmin, ymin, xmax, ymax`) in
    /// that order; doubles as the permutation of [`gather`].
    rem: Vec<u32>,
    cols: [Vec<f64>; 4],
    /// Each unassigned slot's enlargement of group a and of group b.
    ea: Vec<f64>,
    eb: Vec<f64>,
    /// Every slot's area, then one row of pair wastes.
    area: Vec<f64>,
    row: Vec<f64>,
}

impl SplitScratch {
    /// Buffers for splitting a node of `n` slots.
    pub(crate) fn with_capacity(n: usize) -> Self {
        let f = || Vec::with_capacity(n);
        SplitScratch {
            ga: Vec::with_capacity(n),
            gb: Vec::with_capacity(n),
            rem: Vec::with_capacity(n),
            cols: [f(), f(), f(), f()],
            ea: f(),
            eb: f(),
            area: f(),
            row: f(),
        }
    }

    /// The two index groups of the last [`guttman_split`].
    #[cfg(test)]
    pub(crate) fn groups(&self) -> (&[u32], &[u32]) {
        (&self.ga, &self.gb)
    }
}

/// Moves `payload` into the two groups of the last [`guttman_split`], in
/// group order, each half allocated at its exact length. Used for leaf
/// entries, internal child ids and [`quadratic_split`].
pub(crate) fn gather<P>(mut payload: Vec<P>, s: &mut SplitScratch) -> (Vec<P>, Vec<P>) {
    s.rem.clear();
    s.rem.extend_from_slice(&s.ga);
    s.rem.extend_from_slice(&s.gb);
    permute(&mut payload, &mut s.rem);
    let b: Vec<P> = payload.drain(s.ga.len()..).collect();
    #[expect(
        clippy::drain_collect,
        reason = "a fresh vector at the half's length; `mem::take` would keep the overflowing node's capacity in every left half"
    )]
    let a: Vec<P> = payload.drain(..).collect();
    (a, b)
}

/// Rearranges `items` in place so that position `p` holds what was at
/// slot `order[p]`, one swap per moved item along the permutation's
/// cycles. `order` is used up: it leaves as the identity.
fn permute<P>(items: &mut [P], order: &mut [u32]) {
    for start in 0..items.len() {
        let mut at = start;
        loop {
            let from = order[at] as usize;
            order[at] = at as u32;
            if from == start {
                break;
            }
            items.swap(at, from);
            at = from;
        }
    }
}

/// Builds the two slab halves for the index groups.
pub(crate) fn gather_slabs(slabs: &Slabs, s: &SplitScratch) -> (Slabs, Slabs) {
    let pick = |group: &[u32]| {
        let mut out = Slabs::with_capacity(group.len());
        for &i in group {
            out.push(&slabs.rect(i as usize));
        }
        out
    };
    (pick(&s.ga), pick(&s.gb))
}

/// `a.max(b)` as a plain compare-select, which vectorises without the
/// NaN fix-up of `f64::max`. The two differ only when `a` is NaN (this
/// returns it) or both are zeros of opposite sign, and no split decision
/// can see either. `a` is always a coordinate of the rectangle whose area
/// the caller subtracts (row `i` of the pair wastes, the group of an
/// enlargement), so a NaN there makes the result NaN both ways; and the
/// sign of a zero is lost in every comparison.
#[inline]
fn max_sel(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

/// `a.min(b)` as a plain compare-select; see [`max_sel`].
#[inline]
fn min_sel(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

/// Guttman's QuadraticPickSeeds: choose the pair that would waste the most
/// area if grouped together, the first such pair in `(i, j)` order. Each
/// row `i` is one pass writing the wastes of every pair `(i, j > i)` into
/// `row` from the slab columns and the precomputed areas, then one scan
/// for a new maximum.
fn quadratic_pick_seeds(slabs: &Slabs, area: &mut Vec<f64>, row: &mut Vec<f64>) -> (usize, usize) {
    let (xmin, ymin, xmax, ymax) = slabs.sections();
    area.clear();
    area.extend(
        xmin.iter()
            .zip(ymin)
            .zip(xmax.iter().zip(ymax))
            .map(|((&x0, &y0), (&x1, &y1))| (x1 - x0) * (y1 - y0)),
    );
    let mut worst = f64::NEG_INFINITY;
    let mut best = (0, 1);
    for i in 0..slabs.len() {
        let j0 = i + 1;
        let (ix0, iy0, ix1, iy1, ia) = (xmin[i], ymin[i], xmax[i], ymax[i], area[i]);
        row.clear();
        row.extend(
            xmin[j0..]
                .iter()
                .zip(&ymin[j0..])
                .zip(xmax[j0..].iter().zip(&ymax[j0..]))
                .zip(&area[j0..])
                .map(|(((&x0, &y0), (&x1, &y1)), &aj)| {
                    let uw = max_sel(ix1, x1) - min_sel(ix0, x0);
                    let uh = max_sel(iy1, y1) - min_sel(iy0, y0);
                    uw * uh - ia - aj
                }),
        );
        for (j, &waste) in row.iter().enumerate() {
            if waste > worst {
                worst = waste;
                best = (i, j0 + j);
            }
        }
    }
    best
}

/// Writes how much group MBB `g` would grow to cover each rectangle of
/// `cols` — `Rect::enlargement`, one straight pass over the columns.
fn enlargements(g: &Rect, cols: &[Vec<f64>; 4], out: &mut Vec<f64>) {
    let [x0, y0, x1, y1] = cols;
    let area = g.area();
    out.clear();
    out.extend(
        x0.iter()
            .zip(y0)
            .zip(x1.iter().zip(y1))
            .map(|((&a, &b), (&c, &d))| {
                (max_sel(g.xmax, c) - min_sel(g.xmin, a))
                    * (max_sel(g.ymax, d) - min_sel(g.ymin, b))
                    - area
            }),
    );
}

/// Guttman's quadratic split of an overflowing local-tree node (`len ==
/// M + 1` in tree usage, but any length ≥ 2 is accepted): quadratic seeds,
/// then PickNext until one group must take the rest to reach
/// `min_entries`. Both groups are non-empty, and the seeds head them; they
/// are left in `s` ([`SplitScratch::groups`]).
///
/// The unassigned slots keep the order of the classic `swap_remove` loop,
/// with their coordinates and their enlargements of both groups in
/// parallel columns; after each assignment only the group that grew is
/// re-scored. Assignment order and every tie-break are the classic ones.
pub(crate) fn guttman_split(slabs: &Slabs, min_entries: usize, s: &mut SplitScratch) {
    debug_assert!(slabs.len() >= 2, "cannot split fewer than two items");
    let m = min_entries;
    let (s1, s2) = quadratic_pick_seeds(slabs, &mut s.area, &mut s.row);
    let SplitScratch {
        ga,
        gb,
        rem,
        cols,
        ea,
        eb,
        ..
    } = s;
    rem.clear();
    rem.extend(0..slabs.len() as u32);
    // Remove the later index first so the earlier one stays valid.
    let (hi, lo) = if s1 > s2 { (s1, s2) } else { (s2, s1) };
    let seed_b = rem.swap_remove(hi);
    let seed_a = rem.swap_remove(lo);
    let (xmin, ymin, xmax, ymax) = slabs.sections();
    for (col, src) in cols.iter_mut().zip([xmin, ymin, xmax, ymax]) {
        col.clear();
        col.extend(rem.iter().map(|&i| src[i as usize]));
    }

    let mut ra = slabs.rect(seed_a as usize);
    let mut rb = slabs.rect(seed_b as usize);
    enlargements(&ra, cols, ea);
    enlargements(&rb, cols, eb);
    ga.clear();
    ga.push(seed_a);
    gb.clear();
    gb.push(seed_b);

    while !rem.is_empty() {
        // If one group must absorb everything left to reach `m`, do so.
        if ga.len() + rem.len() == m {
            ga.append(rem);
            break;
        }
        if gb.len() + rem.len() == m {
            gb.append(rem);
            break;
        }
        // PickNext: the slot with the maximal preference difference.
        let mut best = 0;
        let mut best_diff = f64::NEG_INFINITY;
        for (i, (&da, &db)) in ea.iter().zip(eb.iter()).enumerate() {
            let diff = (da - db).abs();
            if diff > best_diff {
                best_diff = diff;
                best = i;
            }
        }
        let slot = rem.swap_remove(best);
        for col in cols.iter_mut() {
            col.swap_remove(best);
        }
        let da = ea.swap_remove(best);
        let db = eb.swap_remove(best);
        // Resolve ties by smaller area, then smaller group.
        let to_a = match da.partial_cmp(&db) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Greater) => false,
            _ => match ra.area().partial_cmp(&rb.area()) {
                Some(std::cmp::Ordering::Less) => true,
                Some(std::cmp::Ordering::Greater) => false,
                _ => ga.len() <= gb.len(),
            },
        };
        let r = slabs.rect(slot as usize);
        if to_a {
            ra.enlarge(&r);
            ga.push(slot);
            enlargements(&ra, cols, ea);
        } else {
            rb.enlarge(&r);
            gb.push(slot);
            enlargements(&rb, cols, eb);
        }
    }
}

/// A stable LSD radix sort of slot indices by [`order_key`], one byte per
/// pass; a byte every key shares costs no pass. Chained calls refine one
/// order the way chained stable comparison sorts do: equal keys keep the
/// order the previous call left them in.
struct Radix {
    order: Vec<u32>,
    keys: Vec<u64>,
    spare_order: Vec<u32>,
    spare_keys: Vec<u64>,
}

impl Radix {
    /// Starts from the identity order of `n ≥ 1` slots.
    fn identity(n: usize) -> Self {
        Radix {
            order: (0..n as u32).collect(),
            keys: vec![0; n],
            spare_order: vec![0; n],
            spare_keys: vec![0; n],
        }
    }

    /// Stably reorders `self.order` by `order_key(col[slot])`. Returns
    /// whether two slots have equal keys.
    fn sort_by(&mut self, col: &[f64]) -> bool {
        let n = self.order.len();
        for (key, &slot) in self.keys.iter_mut().zip(&self.order) {
            *key = order_key(col[slot as usize]);
        }
        let mut hist = [[0u32; 256]; 8];
        for &k in &self.keys {
            for (b, h) in hist.iter_mut().enumerate() {
                h[(k >> (8 * b)) as usize & 0xff] += 1;
            }
        }
        for (b, h) in hist.iter_mut().enumerate() {
            let shift = 8 * b;
            if h[(self.keys[0] >> shift) as usize & 0xff] as usize == n {
                continue;
            }
            let mut sum = 0;
            for c in h.iter_mut() {
                let count = *c;
                *c = sum;
                sum += count;
            }
            for (&k, &slot) in self.keys.iter().zip(&self.order) {
                let digit = (k >> shift) as usize & 0xff;
                let at = h[digit] as usize;
                h[digit] += 1;
                self.spare_keys[at] = k;
                self.spare_order[at] = slot;
            }
            std::mem::swap(&mut self.keys, &mut self.spare_keys);
            std::mem::swap(&mut self.order, &mut self.spare_order);
        }
        self.keys.windows(2).any(|w| w[0] == w[1])
    }
}

/// One distribution of the R\* sweep: the first `k` slots of a sorted
/// order go left.
#[derive(Clone, Copy)]
struct Candidate {
    k: usize,
    overlap: f64,
    area: f64,
}

/// Scores every cut `k` in `m..=n - m` of one sorted order: returns the
/// sum of both halves' margins over all cuts, and the cut with minimal
/// overlap, ties broken by total area, then by the earlier cut. The left
/// MBB grows in the forward loop; the right ones come from one backward
/// pass into `suffix`, stored from the last slot down.
fn sweep(slabs: &Slabs, order: &[u32], m: usize, suffix: &mut Slabs) -> (f64, Candidate) {
    let total = order.len();
    let rect = |p: usize| slabs.rect(order[p] as usize);
    suffix.clear();
    let mut acc = rect(total - 1);
    suffix.push(&acc);
    for p in (m..total - 1).rev() {
        acc.enlarge(&rect(p));
        suffix.push(&acc);
    }
    let mut left = rect(0);
    for p in 1..m {
        left.enlarge(&rect(p));
    }
    let mut margin_sum = 0.0;
    let mut best: Option<Candidate> = None;
    for k in m..=(total - m) {
        if k > m {
            left.enlarge(&rect(k - 1));
        }
        let right = suffix.rect(total - 1 - k);
        margin_sum += left.margin() + right.margin();
        let cand = Candidate {
            k,
            overlap: left.overlap_area(&right),
            area: left.area() + right.area(),
        };
        let better = match &best {
            None => true,
            Some(b) => {
                cand.overlap < b.overlap || (cand.overlap == b.overlap && cand.area < b.area)
            }
        };
        if better {
            best = Some(cand);
        }
    }
    (
        margin_sum,
        best.expect("m <= n / 2 leaves at least one cut"),
    )
}

/// The R\*-tree split: choose axis by minimal margin sum over all valid
/// distributions (sorting by both the lower and upper rectangle bounds),
/// then the distribution with minimal overlap area, ties broken by total
/// area. Returns the winning order and its cut: `order[..k]` goes left.
///
/// The four passes (x by lower bound, x by upper, then y) refine one
/// order with stable radix sorts, so equal keys keep their order from the
/// previous pass. The winning pass's order is reread from it when its
/// keys are all distinct (no other order sorts them then) and otherwise
/// sorted once more from the last pass's order.
fn rstar_split(slabs: &Slabs, min_entries: usize) -> (Vec<u32>, usize) {
    struct Best {
        pass: usize,
        margin: f64,
        cand: Candidate,
        ties: bool,
    }

    let total = slabs.len();
    let m = min_entries.min(total / 2).max(1);
    let (xmin, ymin, xmax, ymax) = slabs.sections();
    let passes = [xmin, xmax, ymin, ymax];
    let mut radix = Radix::identity(total);
    let mut suffix = Slabs::with_capacity(total);
    let mut kept: Vec<u32> = Vec::new();
    let mut best: Option<Best> = None;
    for (pass, col) in passes.into_iter().enumerate() {
        let ties = radix.sort_by(col);
        let (margin, cand) = sweep(slabs, &radix.order, m, &mut suffix);
        // Minimal margin, first pass on ties; a NaN margin loses to any
        // other (the same total order as the sort keys).
        if best
            .as_ref()
            .is_none_or(|b| order_key(margin) < order_key(b.margin))
        {
            if !ties && pass + 1 < passes.len() {
                kept.clone_from(&radix.order);
            }
            best = Some(Best {
                pass,
                margin,
                cand,
                ties,
            });
        }
    }
    let best = best.expect("four passes ran");
    let order = if best.pass + 1 == passes.len() {
        radix.order
    } else if best.ties {
        radix.sort_by(passes[best.pass]);
        radix.order
    } else {
        kept
    };
    (order, best.cand.k)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Split = fn(&Slabs, usize) -> (Vec<u32>, Vec<u32>);

    fn quadratic(slabs: &Slabs, min_entries: usize) -> (Vec<u32>, Vec<u32>) {
        let mut s = SplitScratch::with_capacity(slabs.len());
        guttman_split(slabs, min_entries, &mut s);
        let (ga, gb) = s.groups();
        (ga.to_vec(), gb.to_vec())
    }

    fn rstar(slabs: &Slabs, min_entries: usize) -> (Vec<u32>, Vec<u32>) {
        let (mut order, k) = rstar_split(slabs, min_entries);
        let right = order.split_off(k);
        (order, right)
    }

    /// The two splits, each by name: the local tree's and the data node's.
    const SPLITS: [(&str, Split); 2] = [("quadratic", quadratic), ("rstar", rstar)];

    fn rects(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64;
                let y = (i / 10) as f64;
                Rect::new(x, y, x + 0.8, y + 0.8)
            })
            .collect()
    }

    /// Splits raw rectangles through the slab pipeline, returning the
    /// grouped rectangles like the old item-moving `split` did.
    fn split_rects(items: Vec<Rect>, split: Split, min_entries: usize) -> (Vec<Rect>, Vec<Rect>) {
        let slabs = Slabs::from_rects(items.iter());
        let (ga, gb) = split(&slabs, min_entries);
        let pick = |g: &[u32]| g.iter().map(|&i| items[i as usize]).collect();
        (pick(&ga), pick(&gb))
    }

    #[test]
    fn both_splits_respect_min_fill() {
        for (name, split) in SPLITS {
            for n in [4, 7, 9, 33, 100] {
                let m = (n - 1) / 3;
                let (a, b) = split_rects(rects(n), split, m);
                assert_eq!(a.len() + b.len(), n);
                assert!(
                    a.len() >= m && b.len() >= m,
                    "{name}: groups {}/{} below m={m}",
                    a.len(),
                    b.len()
                );
            }
        }
    }

    #[test]
    fn split_of_two_items() {
        for (_, split) in SPLITS {
            let (a, b) = split_rects(rects(2), split, 1);
            assert_eq!(a.len(), 1);
            assert_eq!(b.len(), 1);
        }
    }

    #[test]
    fn identical_rects_still_split() {
        for (name, split) in SPLITS {
            let items = vec![Rect::new(0.0, 0.0, 1.0, 1.0); 5];
            let (a, b) = split_rects(items, split, 2);
            assert_eq!(a.len() + b.len(), 5);
            assert!(a.len() >= 2 && b.len() >= 2, "{name}");
        }
    }

    #[test]
    fn separated_clusters_are_not_mixed() {
        // Two well-separated clusters of 5; both splits should cut
        // between them.
        let mut items: Vec<Rect> = (0..5)
            .map(|i| Rect::new(i as f64 * 0.1, 0.0, i as f64 * 0.1 + 0.05, 0.1))
            .collect();
        items.extend((0..5).map(|i| {
            Rect::new(
                100.0 + i as f64 * 0.1,
                0.0,
                100.0 + i as f64 * 0.1 + 0.05,
                0.1,
            )
        }));
        for (name, split) in SPLITS {
            let (a, b) = split_rects(items.clone(), split, 3);
            let ra = Rect::mbb(a.iter()).unwrap();
            let rb = Rect::mbb(b.iter()).unwrap();
            assert_eq!(ra.overlap_area(&rb), 0.0, "{name} mixed the clusters");
        }
    }

    #[test]
    fn rstar_minimizes_overlap_on_grid() {
        let entries: Vec<Entry<usize>> = rects(16)
            .into_iter()
            .enumerate()
            .map(|(i, r)| Entry::new(r, i))
            .collect();
        let (a, b) = partition(entries, 5);
        assert!(a.len() >= 5 && b.len() >= 5);
        let ra = Rect::mbb(a.iter().map(|e| &e.rect)).unwrap();
        let rb = Rect::mbb(b.iter().map(|e| &e.rect)).unwrap();
        // A grid always admits a clean axis cut with bounded overlap.
        assert!(ra.overlap_area(&rb) < ra.area().min(rb.area()));
    }

    #[test]
    fn quadratic_split_seeds_the_max_waste_pair_apart() {
        // A local-tree overflow: M + 1 = 33 entries, m = 12. The pair that
        // wastes the most area together (slots 9 and 30, the far corners
        // of this grid) must head the two groups.
        let items = rects(33);
        let waste = |i: usize, j: usize| {
            items[i].union(&items[j]).area() - items[i].area() - items[j].area()
        };
        let mut worst = (0, 1);
        for i in 0..items.len() {
            for j in (i + 1)..items.len() {
                if waste(i, j) > waste(worst.0, worst.1) {
                    worst = (i, j);
                }
            }
        }
        assert_eq!(worst, (9, 30));
        let (ga, gb) = quadratic(&Slabs::from_rects(items.iter()), 12);
        let mut seeds = [ga[0] as usize, gb[0] as usize];
        seeds.sort_unstable();
        assert_eq!(seeds, [9, 30]);
    }

    #[test]
    fn index_groups_are_a_disjoint_cover() {
        for (name, split) in SPLITS {
            let slabs = Slabs::from_rects(rects(33).iter());
            let (ga, gb) = split(&slabs, 12);
            let mut seen = [false; 33];
            for &i in ga.iter().chain(&gb) {
                assert!(!seen[i as usize], "{name}: slot {i} assigned twice");
                seen[i as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "{name}: slot unassigned");
        }
    }
}
