/// Structural parameters of an [`crate::RTree`]. An overflowing node
/// always splits with Guttman's quadratic algorithm (DESIGN.md decision
/// 16); the configuration only sizes the nodes.
///
/// # Examples
///
/// ```
/// use sdr_rtree::RTreeConfig;
///
/// let config = RTreeConfig::with_max(16);
/// assert_eq!(config.max_entries, 16);
/// config.validate(); // would panic if m/M were inconsistent
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RTreeConfig {
    /// Maximum number of entries per node (`M`). Must be ≥ 2.
    pub max_entries: usize,
    /// Minimum number of entries per non-root node (`m`).
    /// Must satisfy `1 <= m <= M / 2`.
    pub min_entries: usize,
}

impl Default for RTreeConfig {
    /// `M = 32`, `m = 12` (≈ 40 % of `M`, the R\*-tree recommendation).
    fn default() -> Self {
        RTreeConfig {
            max_entries: 32,
            min_entries: 12,
        }
    }
}

impl RTreeConfig {
    /// Creates a configuration with `m = max(1, 40 % of M)`.
    ///
    /// # Panics
    ///
    /// Panics if `max_entries < 2`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdr_rtree::RTreeConfig;
    ///
    /// let config = RTreeConfig::with_max(10);
    /// assert_eq!(config.min_entries, 4);
    /// ```
    pub fn with_max(max_entries: usize) -> Self {
        assert!(
            max_entries >= 2,
            "an R-tree node must hold at least 2 entries"
        );
        let min_entries = ((max_entries * 2) / 5).max(1);
        RTreeConfig {
            max_entries,
            min_entries,
        }
    }

    /// Validates the `m <= M/2` relationship required by the split
    /// algorithms (both halves of a split must reach `m`).
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated constraint.
    ///
    /// # Examples
    ///
    /// ```should_panic
    /// use sdr_rtree::RTreeConfig;
    ///
    /// let bad = RTreeConfig {
    ///     max_entries: 4,
    ///     min_entries: 3, // > M/2
    /// };
    /// bad.validate(); // panics
    /// ```
    pub fn validate(&self) {
        assert!(self.max_entries >= 2, "max_entries must be >= 2");
        assert!(
            self.min_entries >= 1 && self.min_entries <= self.max_entries / 2,
            "min_entries must satisfy 1 <= m <= M/2 (got m={}, M={})",
            self.min_entries,
            self.max_entries
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        RTreeConfig::default().validate();
    }

    #[test]
    fn with_max_computes_min() {
        let c = RTreeConfig::with_max(10);
        assert_eq!(c.min_entries, 4);
        c.validate();
        let c2 = RTreeConfig::with_max(2);
        assert_eq!(c2.min_entries, 1);
        c2.validate();
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn with_max_rejects_tiny() {
        RTreeConfig::with_max(1);
    }

    #[test]
    #[should_panic(expected = "min_entries")]
    fn validate_rejects_large_min() {
        RTreeConfig {
            max_entries: 4,
            min_entries: 3,
        }
        .validate();
    }
}
