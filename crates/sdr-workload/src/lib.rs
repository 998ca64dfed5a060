//! # sdr-workload — GSTD-like spatial workload generators
//!
//! The SD-Rtree paper (§5) evaluates the structure on "large datasets of
//! 2-dimensional rectangles" produced by the GSTD generator (Theodoridis
//! et al.), in two flavours: **uniform** and **skewed**. GSTD itself is a
//! spatiotemporal tool that is not redistributable; this crate reproduces
//! the two distributions the paper's experiments depend on, plus the point
//! and window query workloads of §5.2 (window extent drawn "randomly ...
//! up to 10 % of the space extent" per axis).
//!
//! All generators are deterministic given a seed, so every experiment in
//! the benchmark harness is reproducible run-to-run.
//!
//! ## Example
//!
//! ```
//! use sdr_workload::{DatasetSpec, Distribution, WindowSpec};
//!
//! // 10k small rectangles, uniform over the unit square.
//! let data = DatasetSpec::new(10_000, Distribution::Uniform).generate(42);
//! assert_eq!(data.len(), 10_000);
//!
//! // 100 window queries with ≤ 10% extent per axis (the paper's setting).
//! let windows = WindowSpec::paper_default().generate(100, 7);
//! assert!(windows.iter().all(|w| w.width() <= 0.1 + 1e-9));
//! ```

mod dataset;
mod distributions;
mod motion;
mod queries;

pub use dataset::{DatasetSpec, Distribution};
pub use distributions::Sampler;
pub use motion::{Motion, MotionSpec};
pub use queries::{PointSpec, WindowSpec};
