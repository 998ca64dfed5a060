//! Node split algorithms: Guttman Linear, Guttman Quadratic, and the
//! R\*-tree topological split.
//!
//! All three run on the structure-of-arrays coordinate slabs
//! ([`Slabs`]) and return *index groups*: which slots of the overflowing
//! node go left and which go right, in assignment order. The caller
//! distributes the payload (leaf entries, child ids, or — in `sdr-core` —
//! a whole SD-Rtree data node's object set when a server overflows,
//! paper §2.2: "the data stored on S is divided in two approximately
//! equal subsets using a split algorithm similar to that of the classical
//! Rtree") by those indices. Seed picking, PickNext, and the R\* margin
//! sweep all read the four coordinate arrays directly — no per-rectangle
//! pointer chase, and every tie-break matches the original item-moving
//! implementation exactly, so tree shapes are reproducible across the
//! layout change.

use crate::config::{RTreeConfig, SplitPolicy};
use crate::entry::Entry;
use crate::node::Slabs;
use sdr_geom::Rect;

/// Divides a set of entries into two balanced groups using the configured
/// split policy — the primitive the SD-Rtree server split builds on
/// (paper §2.2: an overloaded server's data "is divided in two
/// approximately equal subsets using a split algorithm similar to that of
/// the classical Rtree"). `min_entries` of the config bounds the smaller
/// group where possible.
///
/// # Panics
///
/// Panics if `entries.len() < 2`.
///
/// # Examples
///
/// ```
/// use sdr_geom::Rect;
/// use sdr_rtree::{partition, Entry, RTreeConfig};
///
/// // Two tight clusters, far apart: any sane split separates them.
/// let entries: Vec<Entry<u32>> = (0..8)
///     .map(|i| {
///         let x = if i < 4 { f64::from(i) } else { 100.0 + f64::from(i) };
///         Entry::new(Rect::new(x, 0.0, x + 1.0, 1.0), i)
///     })
///     .collect();
/// let (left, right) = partition(entries, &RTreeConfig::default());
/// assert_eq!(left.len() + right.len(), 8);
/// assert_eq!(left.len(), 4);
/// ```
pub fn partition<T>(
    entries: Vec<Entry<T>>,
    config: &RTreeConfig,
) -> (Vec<Entry<T>>, Vec<Entry<T>>) {
    assert!(
        entries.len() >= 2,
        "cannot partition fewer than two entries"
    );
    let slabs = Slabs::from_rects(entries.iter().map(|e| &e.rect));
    let (ga, gb) = split_ids(&slabs, config);
    gather(entries, &ga, &gb)
}

/// Splits the slots of `slabs` (which overflowed: `len == M + 1` in tree
/// usage, but any length ≥ 2 is accepted) into two index groups according
/// to the configured policy. Both groups are non-empty and, when
/// possible, hold at least `config.min_entries` slots.
pub(crate) fn split_ids(slabs: &Slabs, config: &RTreeConfig) -> (Vec<u32>, Vec<u32>) {
    debug_assert!(slabs.len() >= 2, "cannot split fewer than two items");
    match config.split {
        SplitPolicy::Linear => guttman_split(slabs, config, linear_pick_seeds),
        SplitPolicy::Quadratic => guttman_split(slabs, config, quadratic_pick_seeds),
        SplitPolicy::RStar => rstar_split(slabs, config),
    }
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

/// Guttman's LinearPickSeeds: for each axis find the slot with the
/// highest low side and the slot with the lowest high side; normalize the
/// separation by the axis extent; pick the pair with the greatest
/// normalized separation.
fn linear_pick_seeds(slabs: &Slabs) -> (usize, usize) {
    let mut best_sep = f64::NEG_INFINITY;
    let mut best = (0, 1);
    for axis in 0..2 {
        let (lo, hi, side_lo, side_hi) = axis_extremes(slabs, axis);
        let extent = hi - lo;
        let sep = if extent > 0.0 {
            (side_lo.1 - side_hi.1) / extent
        } else {
            0.0
        };
        if sep > best_sep && side_lo.0 != side_hi.0 {
            best_sep = sep;
            best = (side_hi.0, side_lo.0);
        }
    }
    if best.0 == best.1 {
        // All rectangles identical along both axes: fall back to the first
        // two slots (any partition is equally good).
        best = (0, 1);
    }
    best
}

/// For `axis` (0 = x, 1 = y) returns:
/// (global min low side, global max high side,
///  (index, value) of the highest low side,
///  (index, value) of the lowest high side).
fn axis_extremes(slabs: &Slabs, axis: usize) -> (f64, f64, (usize, f64), (usize, f64)) {
    let (xmin, ymin, xmax, ymax) = slabs.sections();
    let (los, his) = if axis == 0 {
        (xmin, xmax)
    } else {
        (ymin, ymax)
    };
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut highest_low = (0usize, f64::NEG_INFINITY);
    let mut lowest_high = (0usize, f64::INFINITY);
    for i in 0..slabs.len() {
        let (l, h) = (los[i], his[i]);
        lo = lo.min(l);
        hi = hi.max(h);
        if l > highest_low.1 {
            highest_low = (i, l);
        }
        if h < lowest_high.1 {
            lowest_high = (i, h);
        }
    }
    (lo, hi, highest_low, lowest_high)
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

/// The shared Guttman distribution loop, parameterized by the seed
/// picker. Tracks a remaining-index vector mirroring the `swap_remove`
/// sequence of the original item-moving loop, so assignment order and
/// every tie-break are preserved bit-for-bit.
fn guttman_split(
    slabs: &Slabs,
    config: &RTreeConfig,
    pick_seeds: fn(&Slabs) -> (usize, usize),
) -> (Vec<u32>, Vec<u32>) {
    let m = config.min_entries;
    let (s1, s2) = pick_seeds(slabs);
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
fn rstar_split(slabs: &Slabs, config: &RTreeConfig) -> (Vec<u32>, Vec<u32>) {
    let total = slabs.len();
    let m = config.min_entries.min(total / 2).max(1);

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
    fn split_rects(items: Vec<Rect>, config: &RTreeConfig) -> (Vec<Rect>, Vec<Rect>) {
        let slabs = Slabs::from_rects(items.iter());
        let (ga, gb) = split_ids(&slabs, config);
        gather(items, &ga, &gb)
    }

    fn check_split(policy: SplitPolicy, n: usize) {
        let config = RTreeConfig {
            max_entries: n - 1,
            min_entries: (n - 1) / 3,
            split: policy,
        };
        let items = rects(n);
        let (a, b) = split_rects(items, &config);
        assert_eq!(a.len() + b.len(), n);
        assert!(!a.is_empty() && !b.is_empty());
        assert!(
            a.len() >= config.min_entries && b.len() >= config.min_entries,
            "{policy:?}: groups {}/{} below m={}",
            a.len(),
            b.len(),
            config.min_entries
        );
    }

    #[test]
    fn all_policies_respect_min_fill() {
        for policy in [
            SplitPolicy::Linear,
            SplitPolicy::Quadratic,
            SplitPolicy::RStar,
        ] {
            for n in [4, 7, 9, 33, 100] {
                check_split(policy, n);
            }
        }
    }

    #[test]
    fn split_of_two_items() {
        for policy in [
            SplitPolicy::Linear,
            SplitPolicy::Quadratic,
            SplitPolicy::RStar,
        ] {
            let config = RTreeConfig {
                max_entries: 2,
                min_entries: 1,
                split: policy,
            };
            let (a, b) = split_rects(rects(2), &config);
            assert_eq!(a.len(), 1);
            assert_eq!(b.len(), 1);
        }
    }

    #[test]
    fn identical_rects_still_split() {
        for policy in [
            SplitPolicy::Linear,
            SplitPolicy::Quadratic,
            SplitPolicy::RStar,
        ] {
            let config = RTreeConfig {
                max_entries: 4,
                min_entries: 2,
                split: policy,
            };
            let items = vec![Rect::new(0.0, 0.0, 1.0, 1.0); 5];
            let (a, b) = split_rects(items, &config);
            assert_eq!(a.len() + b.len(), 5);
            assert!(a.len() >= 2 && b.len() >= 2, "{policy:?}");
        }
    }

    #[test]
    fn separated_clusters_are_not_mixed() {
        // Two well-separated clusters of 5; every policy should cut
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
        for policy in [
            SplitPolicy::Linear,
            SplitPolicy::Quadratic,
            SplitPolicy::RStar,
        ] {
            let config = RTreeConfig {
                max_entries: 9,
                min_entries: 3,
                split: policy,
            };
            let (a, b) = split_rects(items.clone(), &config);
            let ra = Rect::mbb(a.iter()).unwrap();
            let rb = Rect::mbb(b.iter()).unwrap();
            assert_eq!(ra.overlap_area(&rb), 0.0, "{policy:?} mixed the clusters");
        }
    }

    #[test]
    fn rstar_minimizes_overlap_on_grid() {
        let config = RTreeConfig {
            max_entries: 15,
            min_entries: 5,
            split: SplitPolicy::RStar,
        };
        let (a, b) = split_rects(rects(16), &config);
        let ra = Rect::mbb(a.iter()).unwrap();
        let rb = Rect::mbb(b.iter()).unwrap();
        // A grid always admits a clean axis cut with bounded overlap.
        assert!(ra.overlap_area(&rb) < ra.area().min(rb.area()));
    }

    #[test]
    fn index_groups_are_a_disjoint_cover() {
        for policy in [
            SplitPolicy::Linear,
            SplitPolicy::Quadratic,
            SplitPolicy::RStar,
        ] {
            let config = RTreeConfig {
                max_entries: 32,
                min_entries: 12,
                split: policy,
            };
            let slabs = Slabs::from_rects(rects(33).iter());
            let (ga, gb) = split_ids(&slabs, &config);
            let mut seen = [false; 33];
            for &i in ga.iter().chain(&gb) {
                assert!(!seen[i as usize], "{policy:?}: slot {i} assigned twice");
                seen[i as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "{policy:?}: slot unassigned");
        }
    }
}
