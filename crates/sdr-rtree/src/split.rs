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
//! indices. Seed picking, PickNext, and the R\* margin sweep all read the
//! four coordinate arrays directly — no per-rectangle pointer chase, and
//! every tie-break matches the original item-moving implementation
//! exactly, so tree shapes are reproducible across the layout change.

use crate::entry::Entry;
use crate::node::Slabs;
use sdr_geom::Rect;

/// Divides a set of entries into two balanced groups with the R\* axis
/// sweep — the SD-Rtree server split (paper §2.2: an overloaded server's
/// data "is divided in two approximately equal subsets using a split
/// algorithm similar to that of the classical Rtree"). Each group holds
/// at least `min_entries` entries, capped at half the set. It costs
/// O(n log n): five sorts and linear sweeps.
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
pub fn partition<T>(entries: Vec<Entry<T>>, min_entries: usize) -> (Vec<Entry<T>>, Vec<Entry<T>>) {
    assert!(
        entries.len() >= 2,
        "cannot partition fewer than two entries"
    );
    let slabs = Slabs::from_rects(entries.iter().map(|e| &e.rect));
    let (ga, gb) = rstar_split(&slabs, min_entries);
    gather(entries, &ga, &gb)
}

/// Moves `payload` into two vectors following the index groups, in group
/// order. Used for leaf entries, internal child ids, and the public
/// [`partition`].
pub(crate) fn gather<P>(payload: Vec<P>, ga: &[u32], gb: &[u32]) -> (Vec<P>, Vec<P>) {
    let mut slots: Vec<Option<P>> = payload.into_iter().map(Some).collect();
    let take = |slots: &mut Vec<Option<P>>, group: &[u32]| {
        group
            .iter()
            .map(|&i| slots[i as usize].take().expect("index groups are disjoint"))
            .collect()
    };
    let a = take(&mut slots, ga);
    let b = take(&mut slots, gb);
    (a, b)
}

/// Builds the two slab halves for the index groups.
pub(crate) fn gather_slabs(slabs: &Slabs, ga: &[u32], gb: &[u32]) -> (Slabs, Slabs) {
    let pick = |group: &[u32]| {
        let mut s = Slabs::with_capacity(group.len());
        for &i in group {
            s.push(&slabs.rect(i as usize));
        }
        s
    };
    (pick(ga), pick(gb))
}

/// Guttman's QuadraticPickSeeds: choose the pair that would waste the most
/// area if grouped together. The O(n²) pairwise sweep runs entirely over
/// the coordinate slabs.
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

/// Guttman's quadratic split of an overflowing local-tree node (`len ==
/// M + 1` in tree usage, but any length ≥ 2 is accepted): quadratic seeds,
/// then PickNext until one group must take the rest to reach
/// `min_entries`. Both groups are non-empty, and the seeds head them.
/// Tracks a remaining-index vector mirroring the `swap_remove` sequence of
/// the original item-moving loop, so assignment order and every tie-break
/// are preserved bit-for-bit.
pub(crate) fn guttman_split(slabs: &Slabs, min_entries: usize) -> (Vec<u32>, Vec<u32>) {
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

/// The R\*-tree split: choose axis by minimal margin sum over all valid
/// distributions (sorting by both the lower and upper rectangle bounds),
/// then the distribution with minimal overlap area, ties broken by total
/// area.
///
/// The index permutation is sorted stably in place across the four
/// axis/bound passes — equal keys keep their order from the previous
/// pass, exactly as repeated stable sorts of the original item vector
/// did — and each pass evaluates every cut position from prefix/suffix
/// MBB sweeps over the slabs (O(n) per pass instead of the previous
/// O(n²) recompute-per-cut).
fn rstar_split(slabs: &Slabs, min_entries: usize) -> (Vec<u32>, Vec<u32>) {
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

#[cfg(test)]
mod tests {
    use super::*;

    type Split = fn(&Slabs, usize) -> (Vec<u32>, Vec<u32>);

    /// The two splits, each by name: the local tree's and the data node's.
    const SPLITS: [(&str, Split); 2] = [("quadratic", guttman_split), ("rstar", rstar_split)];

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
        gather(items, &ga, &gb)
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
        let (ga, gb) = guttman_split(&Slabs::from_rects(items.iter()), 12);
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
