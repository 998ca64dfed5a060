//! # sdr-det — the workspace's determinism kit
//!
//! This workspace builds **hermetically**: no dependency outside the
//! `sdr-*` crates, so `cargo build && cargo test` succeed with no
//! network access and every randomized workload replays bit-identically
//! from its seed. `sdr-det` is the crate that makes that possible; it
//! replaces `rand` and `proptest` with two small first-party modules,
//! and carries the JSON value type the `e2e` benchmark needs:
//!
//! * [`rng`] — [`SplitMix64`] seeding + [`Xoshiro256pp`] generation
//!   behind the minimal [`DetRng`] trait (`next_u64`, `gen_range`,
//!   `gen_f64`, `gen_bool`, `shuffle`), plus
//!   [`fork`](Xoshiro256pp::fork) for deriving independent substreams
//!   from one master seed.
//! * [`mod@prop`] — a property-testing harness: composable generators
//!   ([`prop::u64s`], [`prop::f64_in`], [`prop::rects_in`],
//!   [`prop::vecs_of`], ...), the [`prop!`](crate::prop!) declaration
//!   macro, and greedy choice-stream shrinking on failure.
//! * [`mod@json`] — the minimal JSON value type the `e2e` benchmark
//!   writes its records with and parses its children's output with.
//! * [`mod@hash`] — FNV-1a ([`fnv1a`], [`Fnv1a`]), the one digest behind
//!   every pinned hash in the workspace.
//!
//! ## Example
//!
//! ```
//! use sdr_det::{DetRng, Rng};
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let x = rng.gen_range(0.0..1.0);
//! assert!((0.0..1.0).contains(&x));
//!
//! // Independent substreams from one seed:
//! let mut extents = rng.fork(1);
//! let mut centers = rng.fork(2);
//! assert_ne!(extents.next_u64(), centers.next_u64());
//! ```

pub mod hash;
pub mod json;
pub mod prop;
pub mod rng;

pub use hash::{fnv1a, Fnv1a};
pub use rng::{bounded, DetRng, Rng, SampleRange, SplitMix64, Xoshiro256pp};
