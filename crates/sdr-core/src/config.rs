//! Structure-wide configuration.

use sdr_rtree::RTreeConfig;

/// Configuration of an SD-Rtree deployment.
#[derive(Clone, Copy, Debug)]
pub struct SdrConfig {
    /// Maximum number of objects a server's data node may hold before it
    /// splits. The paper's experiments use 3,000 (§5); tests use small
    /// values to force deep trees cheaply.
    pub capacity: usize,
}

/// Fill fraction of `capacity` below which a deletion triggers node
/// elimination (§3.3 "too few objects").
const MIN_FILL: f64 = 0.2;

/// Each server's local R-tree repository: `RTreeConfig::default()`
/// (`M = 32`, `m = 12`), spelled out because `Default::default` is not
/// `const`. Its 33-entry node splits are Guttman's quadratic split; the
/// distributed split of the whole data node is the R\* sweep of
/// [`sdr_rtree::partition`] (DESIGN.md decision 16).
pub(crate) const LOCAL_RTREE: RTreeConfig = RTreeConfig {
    max_entries: 32,
    min_entries: 12,
};

impl Default for SdrConfig {
    /// The paper's capacity of 3,000 (§5) and elimination below 20 %
    /// fill (§3.3).
    fn default() -> Self {
        SdrConfig { capacity: 3_000 }
    }
}

impl SdrConfig {
    /// A configuration with the given data-node capacity. Useful in tests,
    /// where small capacities force deep distributed trees from small
    /// datasets.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 2, "capacity must allow a meaningful split");
        SdrConfig { capacity }
    }

    /// The minimum object count below which elimination triggers.
    pub fn min_objects(&self) -> usize {
        (self.capacity as f64 * MIN_FILL).floor() as usize
    }

    /// Validates parameters.
    pub fn validate(&self) {
        assert!(self.capacity >= 2, "capacity must be >= 2");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SdrConfig::default();
        assert_eq!(c.capacity, 3_000);
        assert_eq!(c.min_objects(), 600);
        c.validate();
        assert_eq!(LOCAL_RTREE, RTreeConfig::default());
    }

    #[test]
    fn with_capacity_overrides() {
        let c = SdrConfig::with_capacity(10);
        assert_eq!(c.capacity, 10);
        assert_eq!(c.min_objects(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_tiny_capacity() {
        SdrConfig::with_capacity(1);
    }
}
