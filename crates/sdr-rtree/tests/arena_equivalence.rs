//! Arena/SoA equivalence suite.
//!
//! The index-based arena layout (`u32` node ids + parallel coordinate
//! slabs) must be observationally identical to a brute-force oracle under
//! arbitrary mixed workloads: every window, point, and kNN query
//! interleaved with inserts and deletes returns exactly the entries a
//! linear scan returns, and the structural invariants (stored child MBB
//! == recomputed MBB, fanout bounds, slab/payload parity, arena
//! accounting) hold after **every** mutation, not just at the end.

use sdr_det::prop::{f64_in, freq, rects_in, u32s, usize_in, vecs_of, Gen};
use sdr_geom::{Point, Rect};
use sdr_rtree::{RTree, RTreeConfig};

#[derive(Clone, Debug)]
enum Op {
    Insert(Rect, u32),
    /// Delete the entry produced by the i-th insert (if still present).
    Delete(usize),
    Window(Rect),
    PointQ(f64, f64),
    Knn(f64, f64, usize),
}

fn arb_rect() -> Gen<Rect> {
    rects_in(0.0..100.0, 0.0..100.0, 12.0, 12.0)
}

fn arb_ops() -> Gen<Vec<Op>> {
    let coord = || f64_in(-10.0, 110.0);
    vecs_of(
        freq(vec![
            (5, arb_rect().zip(u32s()).map(|(r, id)| Op::Insert(r, id))),
            (2, usize_in(0..150).map(Op::Delete)),
            (2, arb_rect().map(Op::Window)),
            (1, coord().zip(coord()).map(|(x, y)| Op::PointQ(x, y))),
            (
                1,
                coord()
                    .zip(coord())
                    .zip(usize_in(0..20))
                    .map(|((x, y), k)| Op::Knn(x, y, k)),
            ),
        ]),
        1..100,
    )
}

/// Key identifying one stored entry, with coordinates made totally
/// ordered through their bit patterns.
fn key(r: &Rect, id: u32) -> ([u64; 4], u32) {
    (
        [
            r.xmin.to_bits(),
            r.ymin.to_bits(),
            r.xmax.to_bits(),
            r.ymax.to_bits(),
        ],
        id,
    )
}

fn sorted_keys<'a, I: Iterator<Item = (&'a Rect, u32)>>(it: I) -> Vec<([u64; 4], u32)> {
    let mut v: Vec<_> = it.map(|(r, id)| key(r, id)).collect();
    v.sort_unstable();
    v
}

fn run_workload(ops: &[Op], config: RTreeConfig) {
    let mut tree: RTree<u32> = RTree::new(config);
    let mut oracle: Vec<(Rect, u32)> = Vec::new();
    let mut inserted: Vec<(Rect, u32)> = Vec::new();
    for op in ops {
        match op {
            Op::Insert(r, id) => {
                tree.insert(*r, *id);
                oracle.push((*r, *id));
                inserted.push((*r, *id));
                tree.check_invariants();
            }
            Op::Delete(i) => {
                if let Some((r, id)) = inserted.get(*i).copied() {
                    let in_oracle = oracle.iter().position(|(or, oid)| *or == r && *oid == id);
                    let removed = tree.remove(&r, &id);
                    match in_oracle {
                        Some(pos) => {
                            assert!(removed, "tree missed an entry the oracle has");
                            oracle.swap_remove(pos);
                        }
                        None => assert!(!removed, "tree removed an entry the oracle lost"),
                    }
                    tree.check_invariants();
                }
            }
            Op::Window(w) => {
                let got = sorted_keys(tree.search_window(w).iter().map(|e| (&e.rect, e.item)));
                let want = sorted_keys(
                    oracle
                        .iter()
                        .filter(|(r, _)| r.intersects(w))
                        .map(|(r, id)| (r, *id)),
                );
                assert_eq!(got, want, "window mismatch for {w:?}");
            }
            Op::PointQ(x, y) => {
                let p = Point::new(*x, *y);
                let got = sorted_keys(tree.search_point(&p).iter().map(|e| (&e.rect, e.item)));
                let want = sorted_keys(
                    oracle
                        .iter()
                        .filter(|(r, _)| r.contains_point(&p))
                        .map(|(r, id)| (r, *id)),
                );
                assert_eq!(got, want, "point mismatch at ({x}, {y})");
            }
            Op::Knn(x, y, k) => {
                let p = Point::new(*x, *y);
                let got = tree.nearest(p, *k);
                assert_eq!(got.len(), (*k).min(oracle.len()));
                // Reported distances must be the entries' own distances,
                // non-decreasing, and equal to the oracle's k smallest
                // (ties may resolve to different entries).
                for (e, d) in &got {
                    assert!((e.rect.min_dist2(&p).sqrt() - d).abs() < 1e-12);
                }
                for pair in got.windows(2) {
                    assert!(pair[0].1 <= pair[1].1, "kNN distances not sorted");
                }
                let mut all: Vec<f64> =
                    oracle.iter().map(|(r, _)| r.min_dist2(&p).sqrt()).collect();
                all.sort_by(|a, b| a.partial_cmp(b).unwrap());
                for ((_, d), want) in got.iter().zip(all.iter()) {
                    assert!((d - want).abs() < 1e-12, "kNN distance sequence diverged");
                }
            }
        }
    }
    // Final full sweep: the tree holds exactly the oracle's entries.
    assert_eq!(tree.len(), oracle.len());
    let got = sorted_keys(tree.iter().map(|e| (&e.rect, e.item)));
    let want = sorted_keys(oracle.iter().map(|(r, id)| (r, *id)));
    assert_eq!(got, want, "full contents diverged");
}

sdr_det::prop! {
    fn mixed_workload_matches_oracle(
        ops in arb_ops(),
        max in usize_in(4..17),
    ) {
        run_workload(&ops, RTreeConfig::with_max(max));
    }
}
