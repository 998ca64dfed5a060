//! # sd-rtree — a Scalable Distributed R-tree
//!
//! Umbrella crate for the from-scratch Rust reproduction of
//! *"SD-Rtree: A Scalable Distributed Rtree"* (du Mouza, Litwin, Rigaux,
//! ICDE 2007). It re-exports the workspace crates under stable names:
//!
//! * [`geom`] — 2-D rectangle/point algebra (the mbb kernel).
//! * [`rtree`] — the local in-memory R-tree each server stores its data
//!   node in (also the centralized baseline).
//! * [`core`] — the SD-Rtree itself: servers, the message protocol,
//!   client images, the three addressing variants, and the
//!   message-counting cluster simulator the experiments run on.
//! * [`workload`] — GSTD-like dataset and query generators.
//! * [`net`] — a TCP deployment of the same protocol.
//!
//! See the repository README for a tour, DESIGN.md for the architecture
//! and the experiment index, and `examples/` for runnable scenarios:
//!
//! ```bash
//! cargo run --release --example quickstart
//! cargo run --release --example fleet_tracking
//! cargo run --release --example poi_search
//! cargo run --release --example airspace_conflicts
//! cargo run --release --example tcp_cluster
//! ```

pub use sdr_core as core;
pub use sdr_geom as geom;
pub use sdr_net as net;
pub use sdr_rtree as rtree;
pub use sdr_workload as workload;

pub use sdr_core::{Client, ClientId, Cluster, Object, Oid, SdrConfig, ServerId, Variant};
pub use sdr_geom::{Point, Rect};
