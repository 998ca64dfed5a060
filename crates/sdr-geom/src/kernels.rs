//! Fixed-width batch predicate kernels over parallel coordinate slabs.
//!
//! The SoA node layout of `sdr-rtree` (DESIGN.md decision 7) stores the
//! children MBRs of a node as four parallel `f64` coordinate arrays.
//! These kernels evaluate a spatial predicate against [`LANES`] slots of
//! such arrays at once, as straight-line branchless arithmetic that LLVM
//! autovectorizes into SIMD compares under the crate's
//! `#![forbid(unsafe_code)]` gate — the approach of "SIMD-ified R-tree
//! Query Processing and Optimization" (Rayhan & Aref, see PAPERS.md),
//! without explicit intrinsics (DESIGN.md decision 11).
//!
//! Predicate kernels return a [`LaneMask`]: bit `i` set means lane `i`
//! satisfies the predicate. Callers iterate set bits in ascending order,
//! so a mask-driven scan visits exactly the slots a scalar loop would,
//! in the same order. Every kernel computes the *identical* arithmetic
//! as its scalar [`Rect`] counterpart, so the masks (and the distances
//! of [`min_dist_sq_batch`]) are bit-for-bit equal to the scalar
//! predicates — pinned by the `kernel_equivalence` property suite.
//!
//! The four kernels here are exactly the ones a traversal calls
//! ([`intersects_batch`] and [`covered_by_batch`] from the window query,
//! [`contains_point_batch`] from the point query, [`min_dist_sq_batch`]
//! from kNN). Their speed is recorded by the `geom.*` and `rtree.*` rows
//! of the repo benchmark's traced run (`e2e -- --traced`), on slabs and
//! queries drawn from the workload rather than one fixed operand.

use crate::{Coord, Point, Rect};

/// Number of slots a batch kernel evaluates per call.
///
/// Eight `f64` lanes span two AVX2 vectors (or one AVX-512 vector), wide
/// enough to saturate the compare ports while keeping the tail-handling
/// buffer trivially stack-sized.
///
/// # Examples
///
/// ```
/// assert_eq!(sdr_geom::kernels::LANES, 8);
/// ```
pub const LANES: usize = 8;

/// Result of a predicate kernel: bit `i` set means lane `i` matched.
///
/// # Examples
///
/// ```
/// use sdr_geom::kernels::LaneMask;
///
/// let mask: LaneMask = 0b0000_0101; // lanes 0 and 2 matched
/// assert_eq!(mask.count_ones(), 2);
/// assert_eq!(mask.trailing_zeros(), 0); // first matching lane
/// ```
pub type LaneMask = u8;

/// Whether each lane's rectangle intersects `query` (border contact
/// counts) — the batch form of [`Rect::intersects`].
///
/// # Examples
///
/// ```
/// use sdr_geom::kernels::{intersects_batch, LANES};
/// use sdr_geom::Rect;
///
/// // Eight unit squares marching right: lane i covers [i, i+1] × [0, 1].
/// let xmin: [f64; LANES] = core::array::from_fn(|i| i as f64);
/// let ymin = [0.0; LANES];
/// let xmax: [f64; LANES] = core::array::from_fn(|i| i as f64 + 1.0);
/// let ymax = [1.0; LANES];
///
/// let query = Rect::new(2.5, 0.5, 4.5, 0.8);
/// let mask = intersects_batch(&xmin, &ymin, &xmax, &ymax, &query);
/// assert_eq!(mask, 0b0001_1100); // lanes 2, 3, 4
/// ```
#[inline]
pub fn intersects_batch(
    xmin: &[Coord; LANES],
    ymin: &[Coord; LANES],
    xmax: &[Coord; LANES],
    ymax: &[Coord; LANES],
    query: &Rect,
) -> LaneMask {
    let mut mask: LaneMask = 0;
    for i in 0..LANES {
        let hit = (xmin[i] <= query.xmax)
            & (query.xmin <= xmax[i])
            & (ymin[i] <= query.ymax)
            & (query.ymin <= ymax[i]);
        mask |= (hit as LaneMask) << i;
    }
    mask
}

/// Whether each lane's rectangle contains the point (border inclusive)
/// — the batch form of [`Rect::contains_point`].
///
/// # Examples
///
/// ```
/// use sdr_geom::kernels::{contains_point_batch, LANES};
/// use sdr_geom::Point;
///
/// let xmin: [f64; LANES] = core::array::from_fn(|i| i as f64);
/// let ymin = [0.0; LANES];
/// let xmax: [f64; LANES] = core::array::from_fn(|i| i as f64 + 1.5);
/// let ymax = [1.0; LANES];
///
/// // x = 3.25 lies in lanes 2 ([2, 3.5]) and 3 ([3, 4.5]).
/// let mask = contains_point_batch(&xmin, &ymin, &xmax, &ymax, &Point::new(3.25, 0.5));
/// assert_eq!(mask, 0b0000_1100);
/// ```
#[inline]
pub fn contains_point_batch(
    xmin: &[Coord; LANES],
    ymin: &[Coord; LANES],
    xmax: &[Coord; LANES],
    ymax: &[Coord; LANES],
    p: &Point,
) -> LaneMask {
    let mut mask: LaneMask = 0;
    for i in 0..LANES {
        let hit = (xmin[i] <= p.x) & (p.x <= xmax[i]) & (ymin[i] <= p.y) & (p.y <= ymax[i]);
        mask |= (hit as LaneMask) << i;
    }
    mask
}

/// Whether each lane's rectangle lies entirely inside `window` (border
/// contact counts) — the batch form of `window.contains(&rect)`
/// (see [`Rect::contains`]). This is the report-all shortcut test of
/// the window-query traversal: a covered child subtree needs no further
/// rectangle checks.
///
/// # Examples
///
/// ```
/// use sdr_geom::kernels::{covered_by_batch, LANES};
/// use sdr_geom::Rect;
///
/// let xmin: [f64; LANES] = core::array::from_fn(|i| i as f64);
/// let ymin = [0.0; LANES];
/// let xmax: [f64; LANES] = core::array::from_fn(|i| i as f64 + 1.0);
/// let ymax = [1.0; LANES];
///
/// // The window [2, 5] × [0, 1] fully covers lanes 2..=4 (borders count).
/// let window = Rect::new(2.0, 0.0, 5.0, 1.0);
/// let mask = covered_by_batch(&xmin, &ymin, &xmax, &ymax, &window);
/// assert_eq!(mask, 0b0001_1100);
/// ```
#[inline]
pub fn covered_by_batch(
    xmin: &[Coord; LANES],
    ymin: &[Coord; LANES],
    xmax: &[Coord; LANES],
    ymax: &[Coord; LANES],
    window: &Rect,
) -> LaneMask {
    let mut mask: LaneMask = 0;
    for i in 0..LANES {
        let covered = (window.xmin <= xmin[i])
            & (window.ymin <= ymin[i])
            & (xmax[i] <= window.xmax)
            & (ymax[i] <= window.ymax);
        mask |= (covered as LaneMask) << i;
    }
    mask
}

/// Squared minimal Euclidean distance from each lane's rectangle to the
/// point (zero inside) — the batch form of [`Rect::min_dist2`], feeding
/// the kNN frontier expansion.
///
/// # Examples
///
/// ```
/// use sdr_geom::kernels::{min_dist_sq_batch, LANES};
/// use sdr_geom::{Point, Rect};
///
/// let xmin: [f64; LANES] = core::array::from_fn(|i| i as f64 * 2.0);
/// let ymin = [0.0; LANES];
/// let xmax: [f64; LANES] = core::array::from_fn(|i| i as f64 * 2.0 + 1.0);
/// let ymax = [1.0; LANES];
///
/// let p = Point::new(0.5, 0.5);
/// let d = min_dist_sq_batch(&xmin, &ymin, &xmax, &ymax, &p);
/// assert_eq!(d[0], 0.0); // the point is inside lane 0
/// // Bit-identical to the scalar kernel on every lane:
/// for i in 0..LANES {
///     let r = Rect::new(xmin[i], ymin[i], xmax[i], ymax[i]);
///     assert_eq!(d[i], r.min_dist2(&p));
/// }
/// ```
#[inline]
pub fn min_dist_sq_batch(
    xmin: &[Coord; LANES],
    ymin: &[Coord; LANES],
    xmax: &[Coord; LANES],
    ymax: &[Coord; LANES],
    p: &Point,
) -> [Coord; LANES] {
    let mut d = [0.0; LANES];
    for i in 0..LANES {
        let dx = (xmin[i] - p.x).max(p.x - xmax[i]).max(0.0);
        let dy = (ymin[i] - p.y).max(p.y - ymax[i]).max(0.0);
        d[i] = dx * dx + dy * dy;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes() -> ([f64; LANES], [f64; LANES], [f64; LANES], [f64; LANES]) {
        let xmin: [f64; LANES] = core::array::from_fn(|i| i as f64);
        let ymin: [f64; LANES] = core::array::from_fn(|i| (i % 3) as f64);
        let xmax: [f64; LANES] = core::array::from_fn(|i| i as f64 + 1.0 + (i % 2) as f64);
        let ymax: [f64; LANES] = core::array::from_fn(|i| (i % 3) as f64 + 2.0);
        (xmin, ymin, xmax, ymax)
    }

    #[test]
    fn masks_match_scalar_predicates() {
        let (xmin, ymin, xmax, ymax) = lanes();
        let w = Rect::new(1.5, 0.5, 4.0, 2.5);
        let p = Point::new(2.5, 1.0);
        let mi = intersects_batch(&xmin, &ymin, &xmax, &ymax, &w);
        let mc = contains_point_batch(&xmin, &ymin, &xmax, &ymax, &p);
        let mv = covered_by_batch(&xmin, &ymin, &xmax, &ymax, &w);
        let d = min_dist_sq_batch(&xmin, &ymin, &xmax, &ymax, &p);
        for i in 0..LANES {
            let r = Rect::new(xmin[i], ymin[i], xmax[i], ymax[i]);
            assert_eq!((mi >> i) & 1 == 1, r.intersects(&w), "intersects lane {i}");
            assert_eq!(
                (mc >> i) & 1 == 1,
                r.contains_point(&p),
                "contains_point lane {i}"
            );
            assert_eq!((mv >> i) & 1 == 1, w.contains(&r), "covered_by lane {i}");
            assert_eq!(d[i], r.min_dist2(&p), "min_dist_sq lane {i}");
        }
    }

    #[test]
    fn all_and_none_masks() {
        let (xmin, ymin, xmax, ymax) = lanes();
        let everything = Rect::new(-10.0, -10.0, 20.0, 20.0);
        assert_eq!(
            intersects_batch(&xmin, &ymin, &xmax, &ymax, &everything),
            0xFF
        );
        assert_eq!(
            covered_by_batch(&xmin, &ymin, &xmax, &ymax, &everything),
            0xFF
        );
        let nothing = Rect::new(100.0, 100.0, 101.0, 101.0);
        assert_eq!(intersects_batch(&xmin, &ymin, &xmax, &ymax, &nothing), 0);
        assert_eq!(covered_by_batch(&xmin, &ymin, &xmax, &ymax, &nothing), 0);
    }

    #[test]
    fn touching_edges_count_as_intersecting() {
        let (xmin, ymin, xmax, ymax) = lanes();
        // Window whose right edge exactly touches lane 0's left edge.
        let w = Rect::new(-1.0, 0.0, 0.0, 2.0);
        let m = intersects_batch(&xmin, &ymin, &xmax, &ymax, &w);
        assert_eq!(m & 1, 1);
    }
}
