//! Kernel/scalar equivalence: every batch kernel in
//! [`sdr_geom::kernels`] must agree bit-for-bit with the scalar [`Rect`]
//! predicates on every lane — on random rectangles and on the
//! adversarial shapes where a vectorized rewrite would first diverge
//! (touching edges, zero-area degenerates, exact containment ties).
//!
//! The traversals in `sdr-rtree` rely on this equivalence for their
//! seed-pinned visit order, so a divergence here is a correctness bug,
//! not a precision nit: the comparisons are exact (`<=`/`>=` semantics,
//! border contact counts), never within-epsilon.

use sdr_det::prop::{f64_in, one_of, points_in, rects_in, vecs_of, Gen};
use sdr_geom::kernels::{
    contains_point_batch, covered_by_batch, intersects_batch, min_dist_sq_batch, LANES,
};
use sdr_geom::{Coord, Point, Rect};

/// A random NaN-free rectangle in the shared test domain.
fn arb_rect() -> Gen<Rect> {
    rects_in(-50.0..50.0, -50.0..50.0, 40.0, 40.0)
}

/// The query window the adversarial shapes are built against.
fn arb_window() -> Gen<Rect> {
    rects_in(-30.0..30.0, -30.0..30.0, 30.0, 30.0)
}

/// Rectangles engineered to sit on the decision boundaries of a window
/// `w`: edge-touchers (equal coordinates across the comparison), zero-area
/// points on and off the border, the window itself, and strict
/// containment ties sharing borders with `w`.
fn adversarial_rect(w: Rect) -> Gen<Rect> {
    one_of(vec![
        // Touching from the right/top: xmin == w.xmax resp. ymin == w.ymax.
        f64_in(0.0, 10.0).map(move |d| Rect::new(w.xmax, w.ymin, w.xmax + d, w.ymax)),
        f64_in(0.0, 10.0).map(move |d| Rect::new(w.xmin, w.ymax, w.xmax, w.ymax + d)),
        // Touching from the left/bottom.
        f64_in(0.0, 10.0).map(move |d| Rect::new(w.xmin - d, w.ymin, w.xmin, w.ymax)),
        f64_in(0.0, 10.0).map(move |d| Rect::new(w.xmin, w.ymin - d, w.xmax, w.ymin)),
        // Zero-area rect: the window's corner, center, or a free point.
        sdr_det::prop::just(Rect::new(w.xmin, w.ymin, w.xmin, w.ymin)),
        sdr_det::prop::just({
            let c = w.center();
            Rect::new(c.x, c.y, c.x, c.y)
        }),
        points_in(-60.0..60.0, -60.0..60.0).map(|p| Rect::new(p.x, p.y, p.x, p.y)),
        // Containment ties: the window itself, and covers sharing borders.
        sdr_det::prop::just(w),
        f64_in(0.0, 5.0).map(move |d| Rect::new(w.xmin - d, w.ymin, w.xmax, w.ymax)),
        f64_in(0.0, 5.0).map(move |d| Rect::new(w.xmin, w.ymin, w.xmax + d, w.ymax)),
        // And plain random rects mixed in.
        arb_rect(),
    ])
}

/// Transposes one chunk of rectangles into the kernels' SoA operands.
fn soa(
    rects: &[Rect],
) -> (
    [Coord; LANES],
    [Coord; LANES],
    [Coord; LANES],
    [Coord; LANES],
) {
    assert_eq!(rects.len(), LANES);
    let mut xmin = [0.0; LANES];
    let mut ymin = [0.0; LANES];
    let mut xmax = [0.0; LANES];
    let mut ymax = [0.0; LANES];
    for (i, r) in rects.iter().enumerate() {
        xmin[i] = r.xmin;
        ymin[i] = r.ymin;
        xmax[i] = r.xmax;
        ymax[i] = r.ymax;
    }
    (xmin, ymin, xmax, ymax)
}

/// One chunk of adversarial rects for a window drawn alongside it.
fn arb_chunk() -> Gen<(Rect, Vec<Rect>)> {
    arb_window().bind_chunk()
}

/// Helper on `Gen<Rect>`: pair the window with LANES adversarial rects.
trait BindChunk {
    fn bind_chunk(self) -> Gen<(Rect, Vec<Rect>)>;
}

impl BindChunk for Gen<Rect> {
    fn bind_chunk(self) -> Gen<(Rect, Vec<Rect>)> {
        Gen::from_fn(move |src| {
            let w = self.generate(src);
            let rects = vecs_of(adversarial_rect(w), LANES..LANES + 1).generate(src);
            (w, rects)
        })
    }
}

sdr_det::prop! {
    fn intersects_batch_matches_scalar(wr in arb_chunk()) {
        let (w, rects) = wr;
        let (xmin, ymin, xmax, ymax) = soa(&rects);
        let mask = intersects_batch(&xmin, &ymin, &xmax, &ymax, &w);
        for (i, r) in rects.iter().enumerate() {
            assert_eq!(
                (mask >> i) & 1 == 1,
                r.intersects(&w),
                "lane {i}: {r:?} vs window {w:?}"
            );
        }
    }

    fn covered_by_batch_matches_scalar(wr in arb_chunk()) {
        let (w, rects) = wr;
        let (xmin, ymin, xmax, ymax) = soa(&rects);
        let mask = covered_by_batch(&xmin, &ymin, &xmax, &ymax, &w);
        for (i, r) in rects.iter().enumerate() {
            assert_eq!(
                (mask >> i) & 1 == 1,
                w.contains(r),
                "lane {i}: {r:?} vs window {w:?}"
            );
        }
    }

    fn contains_point_batch_matches_scalar(
        wr in arb_chunk(),
        p in points_in(-60.0..60.0, -60.0..60.0)
    ) {
        let (w, rects) = wr;
        let (xmin, ymin, xmax, ymax) = soa(&rects);
        // Probe both a free point and the window corner (a guaranteed tie
        // against the corner-shaped adversarial rects).
        for q in [p, Point::new(w.xmin, w.ymin)] {
            let mask = contains_point_batch(&xmin, &ymin, &xmax, &ymax, &q);
            for (i, r) in rects.iter().enumerate() {
                assert_eq!(
                    (mask >> i) & 1 == 1,
                    r.contains_point(&q),
                    "lane {i}: {r:?} vs point {q:?}"
                );
            }
        }
    }

    fn min_dist_sq_batch_matches_scalar(
        wr in arb_chunk(),
        p in points_in(-60.0..60.0, -60.0..60.0)
    ) {
        let (_, rects) = wr;
        let (xmin, ymin, xmax, ymax) = soa(&rects);
        let d = min_dist_sq_batch(&xmin, &ymin, &xmax, &ymax, &p);
        for (i, r) in rects.iter().enumerate() {
            // Exact equality: both sides are the same clamp-and-square
            // arithmetic, so any drift means the kernel reordered it.
            assert_eq!(d[i], r.min_dist2(&p), "lane {i}: {r:?} vs point {p:?}");
        }
    }
}
