//! Tail-lane regression: trees whose fanout is *not* a multiple of the
//! kernel lane width force every traversal through the scalar-tail arm
//! of the batched slab scans (and, at `M + 1 = LANES + k`, through a
//! full chunk plus a short tail). Each query kind is checked against a
//! brute-force scan over the raw entries.

use sdr_det::rng::{DetRng, Xoshiro256pp};
use sdr_geom::{Point, Rect};
use sdr_rtree::{RTree, RTreeConfig};

/// Deterministic rect soup: uniform centers in the unit square with
/// small extents, dense enough for plenty of overlaps.
fn rects(n: usize, seed: u64) -> Vec<Rect> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x = rng.gen_f64();
            let y = rng.gen_f64();
            let w = rng.gen_f64() * 0.05;
            let h = rng.gen_f64() * 0.05;
            Rect::new(x, y, x + w, y + h)
        })
        .collect()
}

/// Sorted payload ids of the brute-force matches for `pred`.
fn brute(rects: &[Rect], pred: impl Fn(&Rect) -> bool) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..rects.len()).filter(|&i| pred(&rects[i])).collect();
    ids.sort_unstable();
    ids
}

/// Sorted payload ids out of a tree query result.
fn ids(res: Vec<&sdr_rtree::Entry<usize>>) -> Vec<usize> {
    let mut ids: Vec<usize> = res.into_iter().map(|e| e.item).collect();
    ids.sort_unstable();
    ids
}

#[test]
fn odd_fanouts_agree_with_brute_force() {
    let window = Rect::new(0.3, 0.3, 0.62, 0.58);
    let probe = Point::new(0.41, 0.47);

    // 5 and 7 stay below one chunk; 9, 11 and 13 straddle a full chunk
    // plus a 1..6-slot tail at max occupancy (M + 1). Three datasets give
    // each fanout three tree shapes.
    for max_entries in [5, 7, 9, 11, 13] {
        for seed in [20070408, 1, 2] {
            let data = rects(600, seed);
            let mut tree: RTree<usize> = RTree::new(RTreeConfig::with_max(max_entries));
            for (i, r) in data.iter().enumerate() {
                tree.insert(*r, i);
            }
            tree.check_invariants();

            assert_eq!(
                ids(tree.search_window(&window)),
                brute(&data, |r| r.intersects(&window)),
                "window query, M={max_entries}, seed {seed}"
            );
            assert_eq!(
                ids(tree.search_point(&probe)),
                brute(&data, |r| r.contains_point(&probe)),
                "point query, M={max_entries}, seed {seed}"
            );

            // kNN: distances must match the brute-force k smallest, and
            // the reported list must be sorted.
            let k = 25;
            let nn = tree.nearest(probe, k);
            assert_eq!(nn.len(), k, "kNN size, M={max_entries}, seed {seed}");
            let mut d_all: Vec<f64> = data.iter().map(|r| r.min_dist2(&probe).sqrt()).collect();
            d_all.sort_unstable_by(f64::total_cmp);
            let got: Vec<f64> = nn.iter().map(|&(_, d)| d).collect();
            assert!(
                got.windows(2).all(|w| w[0] <= w[1]),
                "kNN result unsorted, M={max_entries}, seed {seed}"
            );
            assert_eq!(
                got,
                d_all[..k].to_vec(),
                "kNN distances, M={max_entries}, seed {seed}"
            );
        }
    }
}
