//! # sdr-net — TCP deployment of the SD-Rtree
//!
//! The paper targets "large spatial datasets over clusters of
//! interconnected servers" communicating "only through point-to-point
//! messages" (§1). `sdr-core` implements the full message protocol
//! behind a transport-agnostic state machine; this crate runs that state
//! machine over real sockets:
//!
//! * [`wire`] — a compact binary codec for every protocol message
//!   (length-prefixed frames; no serialization framework), described
//!   once as field tables over the first-party [`buf`] byte cursors.
//! * [`node`] — the servers and the one runner thread that serves them
//!   all: it owns a [`sdr_core::Cluster`] and runs the simulator's own
//!   delivery loop, [`sdr_core::Cluster::drain_with`], for each client
//!   post, through a [`sdr_core::Carrier`] that encodes what one server
//!   sends another and decodes it again in memory, and writes what a
//!   server sends a client on that client's link.
//! * [`cluster`] — a process-local deployment manager that binds the
//!   deployment's one listener, registers server 0 there, starts the
//!   runner, and on shutdown stops and joins it — or hands its cluster
//!   back.
//! * [`client`] — a TCP client component (the IMCLIENT variant): the
//!   socket [`sdr_core::Transport`] under `sdr-core`'s client core, which
//!   owns the image, addressing and the termination protocol of §4.3.
//!
//! A deployment binds one OS-assigned port, and every server is
//! registered there in the deployment's address directory — the role a
//! node manager plays in a production deployment — so its descriptors do
//! not grow with its servers. The frames clients send a server ride one
//! kept connection to that port, and those the runner sends a client one
//! kept connection to the client's own; each is shared by every thread
//! of the process that writes to it, and the runner routes a frame by
//! its `to`. Each connection gets one connect attempt, and a frame
//! whose connection fails is a counted loss at once; both ends read their
//! connections with one length-delimited reader. Nothing between a frame
//! being written and its receiver acting on it is a timer: the runner
//! waits on one queue clients post their frames to, clients on a
//! wake-up signal the runner raises, and an insert reads exactly the
//! acknowledgment frames it is owed (DESIGN.md decision 13). Concurrency
//! control is out of scope, as the paper itself lists it as open (§6):
//! one thread drains each client post to quiescence before it takes the
//! next, so the turns form one total order, and clients quiesce between
//! operations, matching the paper's own evaluation regime.
//!
//! ## Example
//!
//! ```no_run
//! use sdr_core::{Object, Oid, SdrConfig};
//! use sdr_geom::{Point, Rect};
//! use sdr_net::{NetClient, NetCluster};
//!
//! let cluster = NetCluster::launch(SdrConfig::with_capacity(100)).unwrap();
//! let mut client = NetClient::connect(&cluster).unwrap();
//! client.insert(Object::new(Oid(1), Rect::new(0.1, 0.1, 0.2, 0.2))).unwrap();
//! let hits = client.point_query(Point::new(0.15, 0.15)).unwrap();
//! assert_eq!(hits.len(), 1);
//! cluster.shutdown();
//! ```

// Panic-safety (DESIGN.md decision 9): every file here handles remote
// input or delivers frames, so a panic takes a node down on bad bytes.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod buf;
pub mod client;
pub mod cluster;
pub mod node;
pub mod wire;

pub use client::{NetClient, NetError};
pub use cluster::NetCluster;
pub use wire::{decode_message, encode_message, WireError};
