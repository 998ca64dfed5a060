//! The metric catalogue: what `--trace 0` and `--trace 1` print. A unit
//! test holds BENCHMARK.json to these lists.

/// How the values of a run's repetitions, rounds and processes become
/// the one value the run reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Across {
    /// A time or a rate: the fastest one (`stats::fastest` says why).
    Fastest,
    /// The paper's cost model: bit-identical everywhere, or a failure.
    Exact,
    /// A high-water mark: the highest.
    Largest,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub across: Across,
}

impl EndToEnd {
    /// The run's value from one value per repetition, round or process.
    pub fn merge(&self, values: &[Option<f64>]) -> Option<f64> {
        match self.across {
            Across::Fastest => crate::stats::fastest(values, self.better == "higher"),
            Across::Exact => *values.first()?,
            Across::Largest => crate::stats::fastest(values, true),
        }
    }
}

/// Every workload reports every one of these, so each is defined on all
/// four: latency is pooled over the operations a workload issues, and
/// the per-kind percentiles are `detail.` rows (see README.md). The
/// pooled p99 is a `detail.` row too: between two runs of one seed it
/// moved by 39 % on `sim_grow_uniform`, more than any bound allows.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        across: Across::Fastest,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        across: Across::Fastest,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        across: Across::Fastest,
    },
    EndToEnd {
        name: "msgs_per_op",
        unit: "count",
        better: "lower",
        bound: 0.10,
        across: Across::Exact,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
        across: Across::Largest,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
    }
}

/// Layer = crate. Shape figures (`core.servers`, `rtree.height`, …) have
/// no better direction; they are listed as `lower` and read as context.
pub const PER_LAYER: [PerLayer; 77] = [
    // harness: how far traced numbers may be trusted
    lower("bench.timer_overhead_ns", "ns"),
    lower("bench.trace_overhead_pct", "%"),
    // sdr-workload
    lower("workload.gen_ns_per_rect", "ns"),
    // sdr-geom: kernels with live traversal callers, 10k-rect slabs
    lower("geom.intersects_scalar_ns_per_rect", "ns"),
    lower("geom.intersects_batch_ns_per_rect", "ns"),
    lower("geom.contains_point_batch_ns_per_rect", "ns"),
    lower("geom.min_dist_sq_batch_ns_per_rect", "ns"),
    lower("geom.enlargement_ns_per_rect", "ns"),
    // sdr-rtree: the median-loaded data node's own tree
    lower("rtree.insert_ns", "ns"),
    lower("rtree.remove_ns", "ns"),
    lower("rtree.point_ns", "ns"),
    lower("rtree.window_ns", "ns"),
    lower("rtree.knn10_ns", "ns"),
    lower("rtree.window_hits_per_query", "count"),
    lower("rtree.height", "count"),
    higher("rtree.leaf_fill_pct", "%"),
    lower("rtree.bulk_load_ns_per_obj", "ns"),
    lower("rtree.share_pct_insert", "%"),
    lower("rtree.share_pct_point", "%"),
    lower("rtree.share_pct_window", "%"),
    lower("rtree.share_pct_knn", "%"),
    // sdr-core: structure
    lower("core.servers", "count"),
    lower("core.height", "count"),
    lower("core.load_skew", "ratio"),
    // sdr-core: cost by operation kind (probe tail on the final structure)
    lower("core.insert_msgs_per_op", "count"),
    lower("core.point_msgs_per_op", "count"),
    lower("core.window_msgs_per_op", "count"),
    lower("core.knn_msgs_per_op", "count"),
    lower("core.delete_msgs_per_op", "count"),
    lower("detail.insert_p50_us", "us"),
    lower("detail.point_p50_us", "us"),
    lower("detail.window_p50_us", "us"),
    lower("detail.knn_p50_us", "us"),
    lower("detail.delete_p50_us", "us"),
    // sdr-core: cost by message category over the workload repetition
    lower("core.msgs_Insert_per_kop", "count"),
    lower("core.msgs_Split_per_kop", "count"),
    lower("core.msgs_Adjust_per_kop", "count"),
    lower("core.msgs_Rotation_per_kop", "count"),
    lower("core.msgs_Oc_per_kop", "count"),
    lower("core.msgs_Query_per_kop", "count"),
    lower("core.msgs_Reply_per_kop", "count"),
    lower("core.msgs_Iam_per_kop", "count"),
    lower("core.msgs_Delete_per_kop", "count"),
    // sdr-core: waste
    lower("core.servers_touched_per_window", "count"),
    lower("core.redundant_visit_ratio", "ratio"),
    lower("core.window_msg_amplification_vs_basic", "ratio"),
    lower("core.iam_per_100_ops", "count"),
    lower("core.knn_rounds_mean", "count"),
    lower("core.query_hops_mean", "count"),
    lower("core.query_hops_max", "count"),
    // sdr-core: time
    lower("core.deliver_ns_per_msg", "ns"),
    lower("core.client_self_ns_per_op", "ns"),
    lower("core.image_choose_ns", "ns"),
    // sdr-net: codec over the messages the tap captured
    lower("net.encode_ns_per_msg", "ns"),
    lower("net.decode_ns_per_msg", "ns"),
    lower("net.bytes_per_msg", "B"),
    lower("net.encode_split_us", "us"),
    lower("net.decode_split_us", "us"),
    // sdr-net: a loopback deployment driven with this workload's data
    lower("net.frames_per_op", "count"),
    lower("net.bytes_per_op", "B"),
    lower("net.delivery_failures", "count"),
    lower("net.launch_ms", "ms"),
    lower("net.connect_us", "us"),
    lower("net.quiesce_idle_us", "us"),
    lower("net.threads", "count"),
    lower("net.transport_overhead_us_insert", "us"),
    lower("net.transport_overhead_us_point", "us"),
    lower("net.transport_overhead_us_window", "us"),
    lower("net.transport_share_pct", "%"),
    higher("net.reader_scaling", "ratio"),
    // sdr-obs: cost of the product's own observation when switched on
    lower("obs.metrics_overhead_pct", "%"),
    lower("obs.trace_overhead_pct", "%"),
    lower("obs.trace_events_per_op", "count"),
    // raw figures the shares above are derived from
    lower("rtree.data_node_visits_per_window", "count"),
    lower("net.tcp_op_mean_us", "us"),
    lower("net.twin_op_mean_us", "us"),
    // the pooled tail of the traced repetition (see `END_TO_END`)
    lower("detail.lat_p99_us", "us"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::Json;
    use crate::stats::valid_name;

    fn names(doc: &Json, key: &str) -> Vec<String> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json lacks {key}");
        };
        items
            .iter()
            .map(|i| {
                i.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn names_are_legal_and_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        all.extend(PER_LAYER.iter().map(|d| d.name));
        all.extend(crate::workloads::SPECS.iter().map(|s| s.name));
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
        assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let want: Vec<&str> = crate::workloads::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(names(&doc, "workloads"), want);
        let Some(Json::Arr(listed)) = doc.get("workloads") else {
            unreachable!()
        };
        for (item, spec) in listed.iter().zip(crate::workloads::SPECS.iter()) {
            assert_eq!(item.get("why").and_then(Json::as_str), Some(spec.why));
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
        let want: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names(&doc, "end_to_end"), want);
        let want: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names(&doc, "per_layer"), want);
        let Some(Json::Arr(e2e)) = doc.get("end_to_end") else {
            unreachable!()
        };
        for (item, def) in e2e.iter().zip(END_TO_END.iter()) {
            assert_eq!(item.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(item.get("better").and_then(Json::as_str), Some(def.better));
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(def.bound));
        }
        let Some(Json::Arr(layers)) = doc.get("per_layer") else {
            unreachable!()
        };
        for (item, def) in layers.iter().zip(PER_LAYER.iter()) {
            assert_eq!(item.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(item.get("better").and_then(Json::as_str), Some(def.better));
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS as f64)
        );
    }
}
