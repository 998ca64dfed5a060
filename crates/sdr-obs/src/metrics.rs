//! Metrics registry: counters, gauges, and count/sum/max histograms.
//!
//! Keys are `String` names in a `BTreeMap`, so the snapshot export
//! walks them in sorted order and is byte-deterministic for a fixed
//! run. Name convention is `area/detail` (e.g. `"msg/Query"`,
//! `"hops/Query"`, `"frame/write"`); the slash groups related rows.

use std::collections::BTreeMap;

/// Count, sum and maximum of a stream of observations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest observed value (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observed value (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Sorted-name registry of counters, gauges, and histograms.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    /// `(current value, high-water mark)` per gauge.
    gauges: BTreeMap<String, (i64, i64)>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds 1 to the named counter.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to the named counter.
    pub fn add(&mut self, name: &str, n: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += n;
        } else {
            self.counters.insert(name.to_owned(), n);
        }
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge, keeping its high-water mark.
    pub fn set_gauge(&mut self, name: &str, v: i64) {
        if let Some((g, hw)) = self.gauges.get_mut(name) {
            *g = v;
            *hw = (*hw).max(v);
        } else {
            self.gauges.insert(name.to_owned(), (v, v));
        }
    }

    /// Records one observation into the named histogram.
    pub fn observe(&mut self, name: &str, v: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(v);
        } else {
            let mut h = Histogram::default();
            h.observe(v);
            self.histograms.insert(name.to_owned(), h);
        }
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Flat numeric export: every counter
    /// as-is, every gauge (`name` and `name/max`), and for each
    /// histogram its `count`, `mean`, and `max`. Sorted by name.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        for (k, &v) in &self.counters {
            out.push((k.clone(), v as f64));
        }
        for (k, &(v, hw)) in &self.gauges {
            out.push((k.clone(), v as f64));
            out.push((format!("{k}/max"), hw as f64));
        }
        for (k, h) in &self.histograms {
            out.push((format!("{k}/count"), h.count() as f64));
            out.push((format!("{k}/mean"), h.mean()));
            out.push((format!("{k}/max"), h.max() as f64));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_zero() {
        let mut m = Metrics::new();
        assert_eq!(m.counter("a"), 0);
        m.inc("a");
        m.add("a", 4);
        assert_eq!(m.counter("a"), 5);
    }

    #[test]
    fn gauges_track_high_water() {
        let mut m = Metrics::new();
        m.set_gauge("depth", 3);
        m.set_gauge("depth", 7);
        m.set_gauge("depth", 2);
        assert_eq!(
            m.snapshot(),
            vec![("depth".to_owned(), 2.0), ("depth/max".to_owned(), 7.0)]
        );
    }

    #[test]
    fn histogram_count_mean_max() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 5, 600] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), 607.0 / 5.0);
        assert_eq!(h.max(), 600);
        assert_eq!(Histogram::default().mean(), 0.0);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let mut m = Metrics::new();
        m.inc("b");
        m.set_gauge("a", 2);
        m.observe("c", 4);
        let snap = m.snapshot();
        let names: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["a", "a/max", "b", "c/count", "c/max", "c/mean"]);
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }
}
