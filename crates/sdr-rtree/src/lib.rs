//! # sdr-rtree — local in-memory R-tree
//!
//! A from-scratch implementation of the classical R-tree (Guttman, SIGMOD
//! 1984) with Guttman's quadratic node split, plus STR bulk loading,
//! deletion with tree condensation, window/point search and best-first
//! k-nearest-neighbour search. [`partition`] divides a whole SD-Rtree data
//! node with the R\*-tree axis sweep instead: one split per tree level
//! (DESIGN.md decision 16). [`quadratic_split`] applies the local tree's
//! node split to any set of entries.
//!
//! In the SD-Rtree reproduction this crate plays two roles, both taken
//! from the paper:
//!
//! 1. **Data-node storage.** §5: *"The data node on each server is stored
//!    as a main memory R-tree"*. Every SD-Rtree server embeds an
//!    [`RTree`] as its local object repository.
//! 2. **Centralized baseline.** The SD-Rtree generalizes the R-tree; a
//!    single large [`RTree`] is the natural non-distributed comparator in
//!    the benchmark harness.
//!
//! ## Example
//!
//! ```
//! use sdr_geom::{Point, Rect};
//! use sdr_rtree::{RTree, RTreeConfig};
//!
//! let mut tree: RTree<u64> = RTree::new(RTreeConfig::default());
//! for i in 0..1000u64 {
//!     let x = (i % 100) as f64;
//!     let y = (i / 100) as f64;
//!     tree.insert(Rect::new(x, y, x + 0.5, y + 0.5), i);
//! }
//! assert_eq!(tree.len(), 1000);
//!
//! // Window search
//! let hits = tree.search_window(&Rect::new(0.0, 0.0, 3.0, 0.6));
//! assert_eq!(hits.len(), 4);
//!
//! // Point search
//! let at = tree.search_point(&Point::new(0.25, 0.25));
//! assert_eq!(at.len(), 1);
//!
//! // kNN
//! let nn = tree.nearest(Point::new(50.0, 5.0), 3);
//! assert_eq!(nn.len(), 3);
//! ```

mod bulk;
mod config;
mod entry;
mod node;
mod query;
mod split;
mod stats;
mod tree;

pub use config::RTreeConfig;
pub use entry::Entry;
pub use split::{partition, quadratic_split};
pub use stats::RTreeStats;
pub use tree::{Iter, RTree};
