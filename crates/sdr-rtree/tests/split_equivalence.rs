//! Split equivalence suite.
//!
//! The split kernels — Guttman's quadratic split of a local-tree node
//! ([`quadratic_split`]), the R\* sweep of a whole data node
//! ([`partition`]) and STR packing ([`RTree::bulk_load`]) — are rewritten
//! as straight passes over coordinate columns and radix-sorted keys. They
//! must decide exactly what the plain loops decided: the same index
//! groups in the same assignment order, the same leaves with their
//! entries in the same order. The plain loops are kept below, unchanged
//! apart from a stand-in for the crate-private slab type, as the oracle.
//!
//! The generators aim at the tie-breaks: rectangles are drawn from a few
//! shared coordinates (±0.0 among them), repeated outright, or collapsed
//! to zero-area lines and points, at every local node size 2..=65, at the
//! local tree's overflow size 33 and at the data node's 1 501.

use sdr_det::prop::{freq, just, one_of, usize_in, Gen, Source};
use sdr_geom::Rect;
use sdr_rtree::{partition, quadratic_split, Entry, RTree, RTreeConfig};

// ------------------------------------------------------------ inputs --

/// A coordinate: mostly from a small shared set, so equal keys are
/// common, with both zeros and free values among them.
fn coord() -> Gen<f64> {
    let shared = [-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0]
        .into_iter()
        .map(just)
        .collect();
    freq(vec![
        (4, one_of(shared)),
        (
            3,
            Gen::from_fn(|src| (src.draw() >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0),
        ),
    ])
}

/// A rectangle: general, a zero-width or zero-height line, or a point.
fn rect() -> Gen<Rect> {
    let c = coord();
    Gen::from_fn(move |src| {
        let (x0, x1) = (c.generate(src), c.generate(src));
        let (y0, y1) = (c.generate(src), c.generate(src));
        let (xa, xb) = (x0.min(x1), x0.max(x1));
        let (ya, yb) = (y0.min(y1), y0.max(y1));
        match src.draw() % 6 {
            0 => Rect::new(xa, ya, xa, ya),
            1 => Rect::new(xa, ya, xa, yb),
            2 => Rect::new(xa, ya, xb, ya),
            _ => Rect::new(xa, ya, xb, yb),
        }
    })
}

/// Node sizes: every local size 2..=65, the local overflow size 33
/// often, and (when `large`) the data node's overflow size 1 501.
fn size(large: bool) -> Gen<usize> {
    let mut sizes = vec![(6, usize_in(2..66)), (2, just(33))];
    if large {
        sizes.push((1, just(1501)));
    }
    freq(sizes)
}

/// `n` rectangles of which a third, two thirds or all are copies of a
/// pool of one to six: the more copies, the more groups of equal area
/// that only the group-size tie-break can tell apart.
fn rect_set(n: Gen<usize>) -> Gen<Vec<Rect>> {
    let r = rect();
    Gen::from_fn(move |src| {
        let n = n.generate(src);
        let pool: Vec<Rect> = (0..1 + src.draw() % 6).map(|_| r.generate(src)).collect();
        let copies = 1 + src.draw() % 3;
        (0..n)
            .map(|_| {
                if src.draw() % 3 < copies {
                    pool[(src.draw() % pool.len() as u64) as usize]
                } else {
                    r.generate(src)
                }
            })
            .collect()
    })
}

fn entries(rects: &[Rect]) -> Vec<Entry<u32>> {
    rects
        .iter()
        .enumerate()
        .map(|(i, r)| Entry::new(*r, i as u32))
        .collect()
}

fn items(es: &[Entry<u32>]) -> Vec<u32> {
    es.iter().map(|e| e.item).collect()
}

// ------------------------------------------------------------ oracle --

/// The parent's split and STR code, verbatim except for this stand-in for
/// the crate-private `Slabs`.
mod oracle {
    use sdr_geom::Rect;
    use sdr_rtree::Entry;

    pub struct Slabs {
        xmin: Vec<f64>,
        ymin: Vec<f64>,
        xmax: Vec<f64>,
        ymax: Vec<f64>,
    }

    impl Slabs {
        pub fn from_rects<'a>(rects: impl IntoIterator<Item = &'a Rect>) -> Self {
            let mut s = Slabs {
                xmin: Vec::new(),
                ymin: Vec::new(),
                xmax: Vec::new(),
                ymax: Vec::new(),
            };
            for r in rects {
                s.xmin.push(r.xmin);
                s.ymin.push(r.ymin);
                s.xmax.push(r.xmax);
                s.ymax.push(r.ymax);
            }
            s
        }
        fn len(&self) -> usize {
            self.xmin.len()
        }
        fn sections(&self) -> (&[f64], &[f64], &[f64], &[f64]) {
            (&self.xmin, &self.ymin, &self.xmax, &self.ymax)
        }
        fn rect(&self, i: usize) -> Rect {
            Rect {
                xmin: self.xmin[i],
                ymin: self.ymin[i],
                xmax: self.xmax[i],
                ymax: self.ymax[i],
            }
        }
        /// `Slabs::mbb`, the rectangle STR gives a packed node.
        pub fn mbb(&self) -> Option<Rect> {
            if self.len() == 0 {
                return None;
            }
            let (xs0, ys0, xs1, ys1) = self.sections();
            let (mut xmin, mut ymin) = (f64::INFINITY, f64::INFINITY);
            let (mut xmax, mut ymax) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            for i in 0..self.len() {
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
    }

    fn quadratic_pick_seeds(slabs: &Slabs) -> (usize, usize) {
        let mut worst = f64::NEG_INFINITY;
        let mut best = (0, 1);
        let n = slabs.len();
        let (xmin, ymin, xmax, ymax) = slabs.sections();
        for i in 0..n {
            let area_i = (xmax[i] - xmin[i]) * (ymax[i] - ymin[i]);
            for j in (i + 1)..n {
                let area_j = (xmax[j] - xmin[j]) * (ymax[j] - ymin[j]);
                let uw = xmax[i].max(xmax[j]) - xmin[i].min(xmin[j]);
                let uh = ymax[i].max(ymax[j]) - ymin[i].min(ymin[j]);
                let waste = uw * uh - area_i - area_j;
                if waste > worst {
                    worst = waste;
                    best = (i, j);
                }
            }
        }
        best
    }

    pub fn guttman_split(slabs: &Slabs, min_entries: usize) -> (Vec<u32>, Vec<u32>) {
        debug_assert!(slabs.len() >= 2, "cannot split fewer than two items");
        let m = min_entries;
        let (s1, s2) = quadratic_pick_seeds(slabs);
        let mut rem: Vec<u32> = (0..slabs.len() as u32).collect();
        // Remove the later index first so the earlier one stays valid.
        let (hi, lo) = if s1 > s2 { (s1, s2) } else { (s2, s1) };
        let seed_b = rem.swap_remove(hi);
        let seed_a = rem.swap_remove(lo);

        let mut ra = slabs.rect(seed_a as usize);
        let mut rb = slabs.rect(seed_b as usize);
        let mut group_a = vec![seed_a];
        let mut group_b = vec![seed_b];

        while !rem.is_empty() {
            // If one group must absorb everything left to reach `m`, do so.
            if group_a.len() + rem.len() == m {
                group_a.append(&mut rem);
                break;
            }
            if group_b.len() + rem.len() == m {
                group_b.append(&mut rem);
                break;
            }
            // PickNext: the slot with the maximal preference difference.
            let mut best_idx = 0;
            let mut best_diff = f64::NEG_INFINITY;
            for (i, &slot) in rem.iter().enumerate() {
                let r = slabs.rect(slot as usize);
                let da = ra.enlargement(&r);
                let db = rb.enlargement(&r);
                let diff = (da - db).abs();
                if diff > best_diff {
                    best_diff = diff;
                    best_idx = i;
                }
            }
            let slot = rem.swap_remove(best_idx);
            let r = slabs.rect(slot as usize);
            let da = ra.enlargement(&r);
            let db = rb.enlargement(&r);
            // Resolve ties by smaller area, then smaller group.
            let to_a = match da.partial_cmp(&db) {
                Some(std::cmp::Ordering::Less) => true,
                Some(std::cmp::Ordering::Greater) => false,
                _ => match ra.area().partial_cmp(&rb.area()) {
                    Some(std::cmp::Ordering::Less) => true,
                    Some(std::cmp::Ordering::Greater) => false,
                    _ => group_a.len() <= group_b.len(),
                },
            };
            if to_a {
                ra.enlarge(&r);
                group_a.push(slot);
            } else {
                rb.enlarge(&r);
                group_b.push(slot);
            }
        }
        (group_a, group_b)
    }

    pub fn rstar_split(slabs: &Slabs, min_entries: usize) -> (Vec<u32>, Vec<u32>) {
        let total = slabs.len();
        let m = min_entries.min(total / 2).max(1);

        #[derive(Clone, Copy)]
        struct Candidate {
            k: usize,
            overlap: f64,
            area: f64,
        }

        let mut idx: Vec<u32> = (0..total as u32).collect();
        let mut prefix: Vec<Rect> = Vec::with_capacity(total);
        let mut suffix: Vec<Rect> = Vec::with_capacity(total);

        let mut best_axis: Option<(usize, bool)> = None;
        let mut best_margin = f64::INFINITY;
        let mut best_candidate: Option<Candidate> = None;

        for axis in 0..2usize {
            for by_upper in [false, true] {
                sort_ids(&mut idx, slabs, axis, by_upper);
                // Running MBBs of idx[..=i] and idx[i..].
                prefix.clear();
                let mut acc = slabs.rect(idx[0] as usize);
                prefix.push(acc);
                for &slot in &idx[1..] {
                    acc.enlarge(&slabs.rect(slot as usize));
                    prefix.push(acc);
                }
                suffix.clear();
                let mut acc = slabs.rect(idx[total - 1] as usize);
                suffix.push(acc);
                for &slot in idx[..total - 1].iter().rev() {
                    acc.enlarge(&slabs.rect(slot as usize));
                    suffix.push(acc);
                }
                suffix.reverse();

                let mut margin_sum = 0.0;
                let mut local_best: Option<Candidate> = None;
                for k in m..=(total - m) {
                    let left = prefix[k - 1];
                    let right = suffix[k];
                    margin_sum += left.margin() + right.margin();
                    let cand = Candidate {
                        k,
                        overlap: left.overlap_area(&right),
                        area: left.area() + right.area(),
                    };
                    let better = match &local_best {
                        None => true,
                        Some(b) => {
                            cand.overlap < b.overlap
                                || (cand.overlap == b.overlap && cand.area < b.area)
                        }
                    };
                    if better {
                        local_best = Some(cand);
                    }
                }
                if margin_sum < best_margin {
                    best_margin = margin_sum;
                    best_axis = Some((axis, by_upper));
                    best_candidate = local_best;
                }
            }
        }

        let (axis, by_upper) = best_axis.expect("at least one axis candidate");
        let cand = best_candidate.expect("at least one distribution");
        sort_ids(&mut idx, slabs, axis, by_upper);
        let right = idx.split_off(cand.k);
        (idx, right)
    }

    fn sort_ids(idx: &mut [u32], slabs: &Slabs, axis: usize, by_upper: bool) {
        let (xmin, ymin, xmax, ymax) = slabs.sections();
        let keys: &[f64] = match (axis, by_upper) {
            (0, false) => xmin,
            (0, true) => xmax,
            (1, false) => ymin,
            _ => ymax,
        };
        idx.sort_by(|&a, &b| {
            keys[a as usize]
                .partial_cmp(&keys[b as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }

    /// A node of the oracle's packed tree: a leaf's entry ids, or an
    /// internal node's children (indexes into the node list).
    pub enum Node {
        Leaf(Vec<u32>),
        Internal(Vec<usize>),
    }

    pub trait Centered {
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

    impl Centered for (Rect, usize) {
        fn cx(&self) -> f64 {
            (self.0.xmin + self.0.xmax) / 2.0
        }
        fn cy(&self) -> f64 {
            (self.0.ymin + self.0.ymax) / 2.0
        }
    }

    pub fn str_pack<I: Centered, O>(
        items: &mut Vec<I>,
        m: usize,
        mut make: impl FnMut(Vec<I>) -> O,
    ) -> Vec<O> {
        let n = items.len();
        let n_pages = n.div_ceil(m);
        let n_slices = (n_pages as f64).sqrt().ceil() as usize;

        items.sort_by(|a, b| {
            a.cx()
                .partial_cmp(&b.cx())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut out = Vec::with_capacity(n_pages);
        let mut rest = std::mem::take(items);
        let mut slices_left = n_slices.max(1);
        while !rest.is_empty() {
            let take = rest.len().div_ceil(slices_left).min(rest.len());
            slices_left = slices_left.saturating_sub(1);
            let mut slice: Vec<I> = rest.drain(..take).collect();
            slice.sort_by(|a, b| {
                a.cy()
                    .partial_cmp(&b.cy())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut chunks_left = slice.len().div_ceil(m);
            while !slice.is_empty() {
                let take = slice.len().div_ceil(chunks_left.max(1)).min(slice.len());
                chunks_left = chunks_left.saturating_sub(1);
                let chunk: Vec<I> = slice.drain(..take).collect();
                out.push(make(chunk));
            }
        }
        out
    }

    /// `RTree::bulk_load`'s packing loop over the oracle's node list:
    /// returns the nodes and the root's index.
    pub fn bulk_load(m: usize, mut entries: Vec<Entry<u32>>) -> (Vec<Node>, usize) {
        let mut nodes = Vec::new();
        let mut level: Vec<(Rect, usize)> = str_pack(&mut entries, m, |chunk| {
            let slabs = Slabs::from_rects(chunk.iter().map(|e| &e.rect));
            let rect = slabs.mbb().expect("non-empty chunk");
            nodes.push(Node::Leaf(chunk.iter().map(|e| e.item).collect()));
            (rect, nodes.len() - 1)
        });
        while level.len() > 1 {
            level = str_pack(&mut level, m, |chunk| {
                let slabs = Slabs::from_rects(chunk.iter().map(|(r, _)| r));
                let rect = slabs.mbb().expect("non-empty chunk");
                nodes.push(Node::Internal(chunk.iter().map(|&(_, id)| id).collect()));
                (rect, nodes.len() - 1)
            });
        }
        let root = level.pop().expect("non-empty input").1;
        (nodes, root)
    }
}

/// The oracle tree's entries, leaves left to right (`RTree::drain_all`'s
/// order), with its leaf and internal node counts.
fn oracle_layout(nodes: &[oracle::Node], root: usize) -> (Vec<u32>, usize, usize) {
    fn walk(nodes: &[oracle::Node], id: usize, out: &mut (Vec<u32>, usize, usize)) {
        match &nodes[id] {
            oracle::Node::Leaf(es) => {
                out.0.extend_from_slice(es);
                out.1 += 1;
            }
            oracle::Node::Internal(cs) => {
                out.2 += 1;
                for &c in cs {
                    walk(nodes, c, out);
                }
            }
        }
    }
    let mut out = (Vec::new(), 0, 0);
    walk(nodes, root, &mut out);
    out
}

fn check_quadratic(rects: &[Rect], min_entries: usize) {
    let slabs = oracle::Slabs::from_rects(rects);
    let (want_a, want_b) = oracle::guttman_split(&slabs, min_entries);
    let (a, b) = quadratic_split(entries(rects), min_entries);
    assert_eq!(items(&a), want_a, "group a");
    assert_eq!(items(&b), want_b, "group b");
}

sdr_det::prop! {
    /// Guttman's quadratic split: the same groups in the same order.
    fn quadratic_split_matches_the_plain_loops(
        rects in rect_set(size(false)),
        fill in usize_in(0..1000),
    ) {
        let min_entries = 1 + fill % (rects.len() / 2);
        check_quadratic(&rects, min_entries);
    }

    /// The R\* sweep: the same cut of the same order. `min_entries` runs
    /// past half the set, where the sweep clamps it.
    fn partition_matches_the_plain_loops(
        rects in rect_set(size(true)),
        fill in usize_in(0..2000),
    ) {
        let min_entries = fill % rects.len();
        let slabs = oracle::Slabs::from_rects(&rects);
        let (want_a, want_b) = oracle::rstar_split(&slabs, min_entries);
        let (a, b) = partition(entries(&rects), min_entries);
        assert_eq!(items(&a), want_a, "left half");
        assert_eq!(items(&b), want_b, "right half");
    }

    /// STR packing: the same leaves, holding the same entries in the same
    /// order, under the same internal nodes.
    fn bulk_load_matches_the_plain_loops(
        rects in rect_set(size(true)),
        max in one_of(vec![just(4), just(8), just(32)]),
    ) {
        let (nodes, root) = oracle::bulk_load(max, entries(&rects));
        let (want, leaves, internals) = oracle_layout(&nodes, root);
        let mut tree = RTree::bulk_load(RTreeConfig::with_max(max), entries(&rects));
        let stats = tree.stats();
        assert_eq!((stats.leaves, stats.internals), (leaves, internals), "node counts");
        assert_eq!(items(&tree.drain_all()), want, "entry order");
    }
}

/// The quadratic split at the data node's size, where the property above
/// does not go (it is quadratic, and the suite also runs unoptimised).
#[test]
fn quadratic_split_matches_the_plain_loops_at_1501() {
    let mut rng = sdr_det::Xoshiro256pp::seed_from_u64(0x5117);
    for min_entries in [1, 600] {
        let mut src = Source::random(&mut rng);
        let rects = rect_set(just(1501)).generate(&mut src);
        check_quadratic(&rects, min_entries);
    }
}

/// 1 501 small random rectangles, five of them with a NaN x: what a data
/// node holds when an application hands the cluster a malformed box.
fn with_nan_x() -> Vec<Entry<u32>> {
    let mut state = 1u64;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut es: Vec<Entry<u32>> = (0..1501u32)
        .map(|i| {
            let (x, y) = (unit(), unit());
            Entry::new(Rect::new(x, y, x + 0.001, y + 0.001), i)
        })
        .collect();
    for i in [3, 303, 603, 903, 1203] {
        es[i].rect.xmin = f64::NAN;
        es[i].rect.xmax = f64::NAN;
    }
    es
}

/// A NaN sort key used to break the sort's total order and panic inside
/// it; now NaN sorts last and the split keeps every entry.
#[test]
fn nan_coordinates_do_not_panic_a_partition() {
    let (a, b) = partition(with_nan_x(), 600);
    assert!(a.len() >= 600 && b.len() >= 600);
    let mut all = items(&a);
    all.extend(items(&b));
    all.sort_unstable();
    assert_eq!(all, (0..1501).collect::<Vec<u32>>());
}

/// The same for STR packing: every well-formed entry stays findable.
#[test]
fn nan_coordinates_do_not_panic_a_bulk_load() {
    let tree = RTree::bulk_load(RTreeConfig::default(), with_nan_x());
    assert_eq!(tree.len(), 1501);
    for e in with_nan_x().iter().filter(|e| !e.rect.xmin.is_nan()) {
        let hits = tree.search_point(&e.rect.center());
        assert!(hits.iter().any(|h| h.item == e.item), "lost {}", e.item);
    }
}
