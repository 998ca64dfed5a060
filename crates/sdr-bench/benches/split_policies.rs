//! Server-split benchmark: partitioning a full data node (the paper's
//! capacity of 3,000 objects) under each split policy, and the quality
//! (overlap) of the resulting halves.

use sdr_bench::exp::common::{dataset, Dist};
use sdr_det::bench::{black_box, Bench};
use sdr_geom::Rect;
use sdr_rtree::{partition, Entry, RTreeConfig, SplitPolicy};

fn bench_splits(c: &mut Bench) {
    c.set_sample_size(10);
    let rects = dataset(3_001, Dist::Uniform, 13);
    for policy in [
        SplitPolicy::Linear,
        SplitPolicy::Quadratic,
        SplitPolicy::RStar,
    ] {
        let config = RTreeConfig {
            max_entries: rects.len().max(2),
            min_entries: (rects.len() * 2) / 5,
            split: policy,
        };
        c.bench_function(&format!("split/partition_3k_{policy:?}"), |b| {
            b.iter(|| {
                let entries: Vec<Entry<u64>> = rects
                    .iter()
                    .enumerate()
                    .map(|(i, r)| Entry::new(*r, i as u64))
                    .collect();
                let (a, bside) = partition(entries, &config);
                let ra = Rect::mbb(a.iter().map(|e| &e.rect)).unwrap();
                let rb = Rect::mbb(bside.iter().map(|e| &e.rect)).unwrap();
                black_box(ra.overlap_area(&rb))
            })
        });
    }
}

sdr_det::bench_main!(bench_splits);
