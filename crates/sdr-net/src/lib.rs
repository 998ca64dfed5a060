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
//!   all: it reads each announced frame off its server's connections,
//!   feeds it to the [`sdr_core::Server`], handles what the server sends
//!   itself in the same turn, and ships the rest of the outbox.
//! * [`cluster`] — a process-local deployment manager that binds
//!   server 0, starts the runner, and on shutdown stops and joins it.
//! * [`client`] — a TCP client component (the IMCLIENT variant): the
//!   socket [`sdr_core::Transport`] under `sdr-core`'s client core, which
//!   owns the image, addressing and the termination protocol of §4.3.
//!
//! Every server binds an OS-assigned port registered in the deployment's
//! address directory — the role a node manager plays in a production
//! deployment. The frames for an endpoint, server or client, ride one
//! kept connection, shared by every thread of the process that writes to
//! it. Each connection gets one connect attempt, and a frame whose
//! connection fails is a counted loss at once; both ends read their
//! connections with one length-delimited reader. Nothing between a frame
//! being written and its receiver acting on it is a timer: the runner
//! waits on one queue its writers announce frames on, clients on a
//! wake-up signal the sender raises, and an insert reads exactly the
//! acknowledgment frames it is owed (DESIGN.md decision 13). Concurrency
//! control is out of scope, as the paper itself lists it as open (§6):
//! one thread handles every message, so the turns form one total order,
//! and clients quiesce between operations, matching the paper's own
//! evaluation regime.
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
