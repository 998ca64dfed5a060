//! The canonical list of bench names, kept next to the suites that
//! produce them so the `benchjson` validator can reject `BENCH_*.json`
//! records whose keys no longer match a live bench. Renaming or
//! deleting a bench without updating this list (and regenerating the
//! JSON baselines) fails CI loudly instead of leaving stale numbers
//! that look current.
//!
//! Maintained by hand on purpose: the diff of this file *is* the
//! benchmark-surface change log reviewers see.

/// Every bench name currently registered by the `sdr-bench` bench
/// binaries, grouped by suite (the prefix before the first `/`).
pub const KNOWN_BENCHES: &[&str] = &[
    // benches/cluster_insert.rs + benches/cluster_query.rs
    "cluster/insert_10k_Basic",
    "cluster/insert_10k_ImClient",
    "cluster/insert_10k_ImServer",
    "cluster/point_query_Basic",
    "cluster/point_query_ImClient",
    "cluster/point_query_ImServer",
    "cluster/window_query_Basic",
    "cluster/window_query_ImClient",
    "cluster/window_query_ImServer",
    // benches/spatial_join.rs
    "join/bruteforce_4k",
    "join/distributed_4k",
    // benches/split_policies.rs
    "split/partition_3k_Linear",
    "split/partition_3k_Quadratic",
    "split/partition_3k_RStar",
];

/// Whether `name` is a bench the current suites produce.
pub fn is_known_bench(name: &str) -> bool {
    KNOWN_BENCHES.contains(&name)
}

/// Every scalar metric the bench binaries record via
/// [`sdr_det::bench::Bench::record_metric`], grouped by suite like
/// [`KNOWN_BENCHES`]. Metrics land under the `"metrics"` key of the
/// suite's `BENCH_*.json` and are validated against this list by
/// `benchjson`.
pub const KNOWN_METRICS: &[&str] = &[
    // benches/cluster_query.rs — message-cost breakdown per variant
    // (paper §5: same-server messages are free; these count the rest).
    "cluster/iam_per_100_queries_Basic",
    "cluster/iam_per_100_queries_ImClient",
    "cluster/iam_per_100_queries_ImServer",
    "cluster/insert_msgs_per_op_Basic",
    "cluster/insert_msgs_per_op_ImClient",
    "cluster/insert_msgs_per_op_ImServer",
    "cluster/query_hops_max_Basic",
    "cluster/query_hops_max_ImClient",
    "cluster/query_hops_max_ImServer",
    "cluster/query_hops_mean_Basic",
    "cluster/query_hops_mean_ImClient",
    "cluster/query_hops_mean_ImServer",
    "cluster/window_msgs_per_op_Basic",
    "cluster/window_msgs_per_op_ImClient",
    "cluster/window_msgs_per_op_ImServer",
];

/// Whether `name` is a metric the current suites record.
pub fn is_known_metric(name: &str) -> bool {
    KNOWN_METRICS.contains(&name)
}

/// The known suite prefixes (deduplicated, in registry order).
pub fn known_suites() -> Vec<&'static str> {
    let mut suites: Vec<&'static str> = KNOWN_BENCHES
        .iter()
        .filter_map(|n| n.split('/').next())
        .collect();
    suites.dedup();
    suites
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_within_suites_and_duplicate_free() {
        let mut sorted = KNOWN_BENCHES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), KNOWN_BENCHES.len(), "duplicate bench name");
    }

    #[test]
    fn every_name_has_a_suite_prefix() {
        for n in KNOWN_BENCHES.iter().chain(KNOWN_METRICS) {
            assert!(
                n.split('/').count() >= 2 && !n.starts_with('/'),
                "name {n:?} lacks a suite/ prefix"
            );
        }
    }

    #[test]
    fn metric_registry_is_sorted_and_duplicate_free() {
        let mut sorted = KNOWN_METRICS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, KNOWN_METRICS, "KNOWN_METRICS must be sorted");
    }

    #[test]
    fn metric_suites_are_known_bench_suites() {
        for m in KNOWN_METRICS {
            let suite = m.split('/').next().unwrap_or("");
            assert!(
                known_suites().contains(&suite),
                "metric {m:?} names a suite with no benches"
            );
        }
    }

    #[test]
    fn suites_cover_the_bench_binaries() {
        assert_eq!(known_suites(), ["cluster", "join", "split"]);
    }
}
