//! # sdr-geom — 2-D geometry kernel for the SD-Rtree
//!
//! This crate provides the minimal-bounding-box (mbb) algebra that every
//! layer of the SD-Rtree reproduction builds on: [`Point`]s, axis-aligned
//! [`Rect`]angles, and the operations an R-tree family structure needs —
//! area, margin, union, intersection, containment, enlargement cost and
//! point/rectangle distances.
//!
//! The paper (du Mouza, Litwin, Rigaux, ICDE 2007) indexes "large datasets
//! of spatial objects, each uniquely identified by an object id (oid) and
//! approximated by the minimal bounding box (mbb)". [`Rect`] is that mbb.
//!
//! Coordinates are `f64`. All operations are total: degenerate (zero-area)
//! rectangles are legal, as are point-rectangles, since real mbbs of point
//! data degenerate this way.
//!
//! ## Example
//!
//! ```
//! use sdr_geom::{Point, Rect};
//!
//! let a = Rect::new(0.0, 0.0, 2.0, 2.0);
//! let b = Rect::new(1.0, 1.0, 3.0, 3.0);
//! assert_eq!(a.union(&b), Rect::new(0.0, 0.0, 3.0, 3.0));
//! assert_eq!(a.intersection(&b), Some(Rect::new(1.0, 1.0, 2.0, 2.0)));
//! assert!(a.contains_point(&Point::new(0.5, 1.5)));
//! ```

pub mod kernels;
mod point;
mod rect;

pub use point::Point;
pub use rect::Rect;

/// Convenience alias used across the workspace for scalar coordinates.
///
/// # Examples
///
/// ```
/// let half: sdr_geom::Coord = 0.5;
/// assert_eq!(half * 2.0, 1.0);
/// ```
pub type Coord = f64;
