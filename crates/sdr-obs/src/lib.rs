//! # sdr-obs — deterministic observability for the SD-Rtree workspace
//!
//! The paper's whole evaluation (§5) is measurement: messages per
//! operation, image-staleness and IAM-correction rates, load spread
//! across servers. The coarse per-category totals in
//! `sdr-core::stats` answer *how many*; this crate answers *which
//! hops, in what causal order, and why* — without breaking the
//! workspace determinism contract.
//!
//! Two halves, both first-party and allocation-only:
//!
//! * [`trace`] — a structured [`TraceLog`] of [`TraceEvent`]s. Time is
//!   the **logical delivery tick** of `Cluster::drain`; causality is a
//!   per-message id threaded through the simulator's envelopes, so
//!   every reply links to the request that spawned it. Rendering is
//!   byte-deterministic: two same-seed runs produce identical logs,
//!   including fault-injection events.
//! * [`metrics`] — a [`Metrics`] registry of counters, gauges, and
//!   count/sum/max [`Histogram`]s, keyed by sorted `String` names so
//!   the snapshot export is order-stable.
//!
//! ## Determinism contract
//!
//! Nothing in this crate reads a wall clock, the environment (outside
//! [`Obs::from_env`], which callers invoke only at construction
//! boundaries), thread ids, or any hash-order container. Event fields
//! are integers and names; renders are `format!`-stable. The contract
//! is pinned by the chaos suite: two same-seed runs with tracing on
//! must produce byte-identical logs.
//!
//! ## Cost when disabled
//!
//! [`Obs`] holds `Option<TraceLog>` / `Option<Metrics>`; disabled means
//! `None`, and every instrumentation site is an `if let Some(..)` that
//! skips even the key formatting. The hot path pays one branch.

pub mod metrics;
pub mod trace;

pub use metrics::{Histogram, Metrics};
pub use trace::{TraceEvent, TraceLog};

/// Gated observability bundle: an optional trace log and an optional
/// metrics registry. Constructed disabled, from the environment, or
/// programmatically (tests enable features without touching the
/// process environment, which would race under `cargo test`).
#[derive(Debug, Default)]
pub struct Obs {
    trace: Option<TraceLog>,
    metrics: Option<Metrics>,
}

impl Obs {
    /// Both features off; instrumentation sites reduce to one branch.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Reads `SDR_TRACE` / `SDR_METRICS`: set and non-empty and not
    /// `"0"` enables the feature. Call at construction boundaries only
    /// (cluster/deployment setup), never on a per-message path.
    pub fn from_env() -> Self {
        let on = |k: &str| std::env::var(k).is_ok_and(|v| !v.is_empty() && v != "0");
        let mut obs = Self::default();
        if on("SDR_TRACE") {
            obs.enable_trace();
        }
        if on("SDR_METRICS") {
            obs.enable_metrics();
        }
        obs
    }

    /// Enables trace collection (idempotent; keeps existing events).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(TraceLog::new());
        }
    }

    /// Enables metrics collection (idempotent; keeps existing values).
    pub fn enable_metrics(&mut self) {
        if self.metrics.is_none() {
            self.metrics = Some(Metrics::new());
        }
    }

    /// The trace log, if tracing is enabled.
    #[inline]
    pub fn trace(&self) -> Option<&TraceLog> {
        self.trace.as_ref()
    }

    /// Mutable trace log, if tracing is enabled. Instrumentation sites
    /// use `if let Some(t) = obs.trace_mut()` so the disabled path does
    /// no formatting work.
    #[inline]
    pub fn trace_mut(&mut self) -> Option<&mut TraceLog> {
        self.trace.as_mut()
    }

    /// The metrics registry, if metrics are enabled.
    #[inline]
    pub fn metrics(&self) -> Option<&Metrics> {
        self.metrics.as_ref()
    }

    /// Mutable metrics registry, if metrics are enabled.
    #[inline]
    pub fn metrics_mut(&mut self) -> Option<&mut Metrics> {
        self.metrics.as_mut()
    }

    /// Detaches the metrics registry (e.g. to move it behind a lock in
    /// the TCP deployment layer).
    pub fn take_metrics(&mut self) -> Option<Metrics> {
        self.metrics.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_has_neither_feature() {
        let obs = Obs::disabled();
        assert!(obs.trace().is_none());
        assert!(obs.metrics().is_none());
    }

    #[test]
    fn enable_is_idempotent_and_keeps_state() {
        let mut obs = Obs::disabled();
        obs.enable_metrics();
        obs.metrics_mut().unwrap().inc("x");
        obs.enable_metrics();
        assert_eq!(obs.metrics().unwrap().counter("x"), 1);

        obs.enable_trace();
        obs.trace_mut().unwrap().record(TraceEvent {
            tick: 1,
            id: 1,
            parent: 0,
            depth: 0,
            kind: "deliver",
            name: "Insert",
            category: "Insert",
            from: "C0".into(),
            to: "S0".into(),
        });
        obs.enable_trace();
        assert_eq!(obs.trace().unwrap().len(), 1);
    }
}
