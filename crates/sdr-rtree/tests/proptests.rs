//! Property tests: the R-tree must agree with a brute-force scan under
//! arbitrary sequences of inserts and deletes, and its structural
//! invariants must hold throughout.

use sdr_det::prop::{f64_in, freq, rects_in, u32s, usize_in, vecs_of, Gen};
use sdr_geom::{Point, Rect};
use sdr_rtree::{Entry, RTree, RTreeConfig};

#[derive(Clone, Debug)]
enum Op {
    Insert(Rect, u32),
    /// Delete the entry inserted by the i-th insert (if still present).
    Delete(usize),
}

fn arb_rect() -> Gen<Rect> {
    rects_in(0.0..100.0, 0.0..100.0, 10.0, 10.0)
}

fn arb_ops() -> Gen<Vec<Op>> {
    vecs_of(
        freq(vec![
            (4, arb_rect().zip(u32s()).map(|(r, id)| Op::Insert(r, id))),
            (1, usize_in(0..200).map(Op::Delete)),
        ]),
        1..120,
    )
}

/// Replays `ops` against both the R-tree and a naive vector; returns both.
fn replay(ops: &[Op], max: usize) -> (RTree<u32>, Vec<(Rect, u32)>) {
    let mut tree = RTree::new(RTreeConfig::with_max(max));
    let mut naive: Vec<(Rect, u32)> = Vec::new();
    let mut inserted: Vec<(Rect, u32)> = Vec::new();
    for op in ops {
        match op {
            Op::Insert(r, id) => {
                tree.insert(*r, *id);
                naive.push((*r, *id));
                inserted.push((*r, *id));
            }
            Op::Delete(i) => {
                if let Some((r, id)) = inserted.get(*i).copied() {
                    let in_naive = naive.iter().position(|(nr, nid)| *nr == r && *nid == id);
                    let removed = tree.remove(&r, &id);
                    match in_naive {
                        Some(pos) => {
                            assert!(removed, "tree missed an entry the oracle has");
                            naive.swap_remove(pos);
                        }
                        None => assert!(!removed, "tree removed an entry the oracle lost"),
                    }
                }
            }
        }
    }
    (tree, naive)
}

sdr_det::prop! {
    fn window_queries_match_oracle(
        ops in arb_ops(),
        window in arb_rect(),
    ) {
        let (tree, naive) = replay(&ops, 6);
        tree.check_invariants();
        assert_eq!(tree.len(), naive.len());

        let mut got: Vec<u32> = tree.search_window(&window).iter().map(|e| e.item).collect();
        let mut want: Vec<u32> = naive
            .iter()
            .filter(|(r, _)| r.intersects(&window))
            .map(|(_, id)| *id)
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    fn point_queries_match_oracle(
        ops in arb_ops(),
        px in f64_in(0.0, 110.0),
        py in f64_in(0.0, 110.0),
    ) {
        let (tree, naive) = replay(&ops, 4);
        let p = Point::new(px, py);
        let mut got: Vec<u32> = tree.search_point(&p).iter().map(|e| e.item).collect();
        let mut want: Vec<u32> = naive
            .iter()
            .filter(|(r, _)| r.contains_point(&p))
            .map(|(_, id)| *id)
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    fn knn_distances_match_oracle(
        ops in arb_ops(),
        px in f64_in(0.0, 110.0),
        py in f64_in(0.0, 110.0),
        k in usize_in(1..10),
    ) {
        let (tree, naive) = replay(&ops, 8);
        let p = Point::new(px, py);
        let got: Vec<f64> = tree.nearest(p, k).iter().map(|(_, d)| *d).collect();
        let mut want: Vec<f64> = naive.iter().map(|(r, _)| r.min_dist(&p)).collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        want.truncate(k);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "got {g}, want {w}");
        }
    }

    fn bulk_load_matches_incremental(
        rects in vecs_of(arb_rect(), 1..200),
    ) {
        let entries: Vec<Entry<usize>> =
            rects.iter().enumerate().map(|(i, r)| Entry::new(*r, i)).collect();
        let bulk = RTree::bulk_load(RTreeConfig::with_max(8), entries);
        bulk.check_invariants();
        assert_eq!(bulk.len(), rects.len());

        let probe = Rect::new(20.0, 20.0, 60.0, 60.0);
        let mut got: Vec<usize> = bulk.search_window(&probe).iter().map(|e| e.item).collect();
        let mut want: Vec<usize> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(&probe))
            .map(|(i, _)| i)
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    fn bbox_is_exact(ops in arb_ops()) {
        let (tree, naive) = replay(&ops, 6);
        let want = Rect::mbb(naive.iter().map(|(r, _)| r));
        assert_eq!(tree.bbox(), want);
    }
}
