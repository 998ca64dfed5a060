//! # sdr-core — the SD-Rtree: a Scalable Distributed Rtree
//!
//! A from-scratch Rust implementation of the SD-Rtree of du Mouza, Litwin
//! and Rigaux (ICDE 2007): a scalable distributed data structure (SDDS)
//! that generalizes the R-tree to a cluster of interconnected servers.
//!
//! The structure is a distributed balanced binary spatial tree. Each
//! server hosts a **data node** (a leaf storing objects in a local
//! R-tree) and — except the first server — a **routing node** (an
//! internal node caching links to its two children). Splits of
//! overloaded servers grow the tree; AVL-style rotations adapted to
//! rectangles keep it balanced (§2.4); **overlapping coverage** tables
//! let queries fan out near the leaves instead of hammering the root
//! (§2.3); clients address the structure through possibly-outdated
//! **images** that image adjustment messages (IAMs) repair lazily (§3).
//!
//! ## Crate layout
//!
//! * Protocol: [`msg`], handled by [`server::Server`] — the full
//!   message-driven state machine (insertion, split, balance, OC
//!   maintenance, queries, deletion, kNN) — which one server turn drives
//!   for both substrates.
//! * Client side: [`client::Client`] with the three addressing variants
//!   of the paper's evaluation (BASIC / IMCLIENT / IMSERVER) and the
//!   termination protocols (§4.3). Like the server it is transport-free:
//!   [`client::address`] builds an operation's first message,
//!   [`client::Fold`] consumes the replies, and the operations (plus
//!   [`knn`] and [`join`]) are written once on [`client::Over`] against
//!   the [`client::Transport`] trait.
//! * Substrate: [`cluster::Cluster`], a deterministic message-counting
//!   simulator equivalent to the authors' evaluation harness — one of the
//!   two `Transport`s; the TCP deployment in `sdr-net` is the other. Its
//!   delivery loop, [`Cluster::drain_with`], is the one both run: the TCP
//!   runner owns a `Cluster` and only supplies a [`cluster::Carrier`]
//!   that moves messages over sockets.
//!
//! ## Quickstart
//!
//! ```
//! use sdr_core::{Client, Cluster, Object, Oid, SdrConfig, Variant};
//! use sdr_geom::{Point, Rect};
//!
//! // A cluster whose servers split beyond 50 objects.
//! let mut cluster = Cluster::new(SdrConfig::with_capacity(50));
//! let mut client = Client::new(sdr_core::ClientId(0), Variant::ImClient, 42);
//!
//! // Insert a grid of rectangles; servers split and the tree grows.
//! let mut oid = 0u64;
//! for i in 0..20 {
//!     for j in 0..20 {
//!         let r = Rect::new(i as f64, j as f64, i as f64 + 0.5, j as f64 + 0.5);
//!         client.insert(&mut cluster, Object::new(Oid(oid), r));
//!         oid += 1;
//!     }
//! }
//! assert!(cluster.num_servers() > 1);
//!
//! // Point query: exactly the covering object.
//! let out = client.point_query(&mut cluster, Point::new(3.25, 7.25));
//! assert_eq!(out.results.len(), 1);
//!
//! // Window query.
//! let out = client.window_query(&mut cluster, Rect::new(0.0, 0.0, 3.0, 3.0));
//! assert_eq!(out.results.len(), 16);
//! ```

// Panic-safety and lossy casts (DESIGN.md decision 9): handlers must not
// panic on remote input nor truncate silently. New modules are covered by
// default; the four below that handle no message opt out, each with its
// reason.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation
)]

mod balance;
#[expect(
    clippy::expect_used,
    clippy::cast_possible_truncation,
    reason = "offline construction before any message flows; leaf counts fit the id space and a broken invariant is a local bug that should fail loudly"
)]
mod bulk;
pub mod client;
pub mod cluster;
#[expect(
    clippy::cast_possible_truncation,
    reason = "`min_objects` floors a fraction of `capacity`, which is a usize to begin with"
)]
pub mod config;
pub mod fault;
pub mod ids;
pub mod image;
#[expect(
    clippy::expect_used,
    clippy::panic,
    reason = "the test oracle: a violated invariant is meant to fail loudly"
)]
pub mod invariants;
pub mod join;
pub mod knn;
pub mod link;
pub mod msg;
pub mod node;
pub mod oc;
mod oc_maint;
mod query;
pub mod server;
#[expect(
    clippy::indexing_slicing,
    reason = "arrays sized to the enum whose index() addresses them, and a per-server vector grown to the id just before the write"
)]
pub mod stats;
mod variant;

pub use client::{
    address, Await, Client, DirectAccounting, Fold, Incomplete, InsertOutcome, OidGen, Over,
    QueryOutcome, Transport, Variant,
};
pub use cluster::{Carrier, Cluster};
pub use config::SdrConfig;
pub use fault::{FaultCounts, FaultKind, FaultPlan};
pub use ids::{ClientId, NodeKind, NodeRef, Oid, QueryId, ServerId};
pub use image::Image;
pub use join::JoinOutcome;
pub use knn::KnnOutcome;
pub use link::Link;
pub use msg::{Endpoint, ImageHolder, Message, Payload, QueryKind, ReplyProtocol};
pub use node::{DataNode, Object, RoutingNode, Side};
pub use oc::{OcEntry, OcTable};
pub use server::{Outbox, Refused, Server};
pub use stats::{MsgCategory, Stats};
