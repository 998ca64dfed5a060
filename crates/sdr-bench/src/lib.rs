//! # sdr-bench — the SD-Rtree experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5) —
//! see DESIGN.md §3 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured records — plus a set of ablation experiments the
//! paper motivates but does not run (termination protocols, split
//! policies).
//!
//! The library part holds the shared machinery (tree builders,
//! checkpointed runs, table/CSV output); the `experiments` binary is the
//! entry point:
//!
//! ```text
//! cargo run --release -p sdr-bench --bin experiments -- all
//! cargo run --release -p sdr-bench --bin experiments -- fig8a table1
//! cargo run --release -p sdr-bench --bin experiments -- --quick all
//! ```
//!
//! `--quick` scales every workload down ~20× (used by the test suite;
//! shapes remain, absolute numbers shrink).

pub mod exp;
pub use exp::common::{ExpConfig, Report};
