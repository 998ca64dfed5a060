//! Layer probes: direct, timed calls into public functions, on state
//! taken from the finished workload (a real data node's tree, real
//! rectangles, the messages the tap captured).

use crate::adapters::{
    decode_frame, geom_enlargement, geom_intersects_scalar, LocalTree, Obj, Point, Rect, Slabs,
    WireMsg,
};
use std::hint::black_box;
use std::time::Instant;

pub type Values = Vec<(&'static str, f64)>;

/// Nanoseconds per call of `f`: the median of five batches of `calls`.
pub fn time_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut batches = [0.0f64; 5];
    for b in batches.iter_mut() {
        let t0 = Instant::now();
        for i in 0..calls {
            f(i);
        }
        *b = t0.elapsed().as_nanos() as f64 / calls.max(1) as f64;
    }
    batches.sort_by(f64::total_cmp);
    batches[2]
}

/// Cost of one `Instant::now()` + `elapsed()` pair, which every timed
/// operation pays once.
pub fn timer_overhead_ns() -> f64 {
    time_ns(10_000, |_| {
        let t0 = Instant::now();
        black_box(t0.elapsed());
    })
}

/// `sdr-geom`: the kernels traversals call, per rectangle of a slab.
pub fn geom(rects: &[Rect], windows: &[Rect], points: &[Point]) -> Values {
    let slabs = Slabs::new(rects);
    let rects = &rects[..slabs.len()];
    let n = rects.len().max(1) as f64;
    let (nw, np) = (windows.len(), points.len());
    vec![
        (
            "geom.intersects_scalar_ns_per_rect",
            time_ns(nw, |i| {
                black_box(geom_intersects_scalar(rects, &windows[i]));
            }) / n,
        ),
        (
            "geom.intersects_batch_ns_per_rect",
            time_ns(nw, |i| {
                black_box(slabs.intersects_batch(&windows[i]));
            }) / n,
        ),
        (
            "geom.contains_point_batch_ns_per_rect",
            time_ns(np, |i| {
                black_box(slabs.contains_point_batch(&points[i]));
            }) / n,
        ),
        (
            "geom.min_dist_sq_batch_ns_per_rect",
            time_ns(np, |i| {
                black_box(slabs.min_dist_sq_batch(&points[i]));
            }) / n,
        ),
        (
            "geom.enlargement_ns_per_rect",
            time_ns(nw, |i| {
                black_box(geom_enlargement(rects, &windows[i]));
            }) / n,
        ),
    ]
}

const RTREE: [&str; 9] = [
    "rtree.insert_ns",
    "rtree.remove_ns",
    "rtree.point_ns",
    "rtree.window_ns",
    "rtree.knn10_ns",
    "rtree.window_hits_per_query",
    "rtree.height",
    "rtree.leaf_fill_pct",
    "rtree.bulk_load_ns_per_obj",
];

/// `sdr-rtree`: a data node's own tree. Queries sit where its objects
/// are (a data node only receives queries routed to its region); window
/// extents are the workload's.
pub fn rtree(tree: &LocalTree, window_shapes: &[Rect]) -> Values {
    let entries = tree.entries();
    let n = entries.len();
    if n == 0 {
        // Only a smoke run deletes everything it stored.
        return RTREE.map(|name| (name, 0.0)).to_vec();
    }
    let centres: Vec<Point> = entries.iter().take(256).map(|o| o.rect.center()).collect();
    let windows: Vec<Rect> = centres
        .iter()
        .zip(window_shapes.iter().cycle())
        .take(64)
        .map(|(c, w)| Rect::centered(*c, w.width(), w.height()))
        .collect();
    // New objects beside existing ones, under ids no stored object has.
    let extra: Vec<Obj> = entries
        .iter()
        .take((n / 4).clamp(1, 256))
        .map(|o| Obj {
            id: o.id | 1 << 62,
            rect: o.rect,
        })
        .collect();
    let mut grown = tree.clone();
    let t0 = Instant::now();
    for o in &extra {
        grown.insert(*o);
    }
    let insert_ns = t0.elapsed().as_nanos() as f64 / extra.len() as f64;
    let t0 = Instant::now();
    for o in &extra {
        black_box(grown.remove(*o));
    }
    let remove_ns = t0.elapsed().as_nanos() as f64 / extra.len() as f64;
    let t0 = Instant::now();
    black_box(tree.bulk_load_like(&entries).len());
    let bulk_ns = t0.elapsed().as_nanos() as f64 / n.max(1) as f64;

    let hits: usize = windows.iter().map(|w| tree.window(w)).sum();
    let point_ns = time_ns(centres.len(), |i| {
        black_box(tree.point(&centres[i]));
    });
    let window_ns = time_ns(windows.len(), |i| {
        black_box(tree.window(&windows[i]));
    });
    let knn_ns = time_ns(centres.len(), |i| {
        black_box(tree.knn(centres[i]));
    });
    let figures = [
        insert_ns,
        remove_ns,
        point_ns,
        window_ns,
        knn_ns,
        hits as f64 / windows.len().max(1) as f64,
        tree.height() as f64,
        100.0 * tree.leaf_fill(),
        bulk_ns,
    ];
    RTREE.into_iter().zip(figures).collect()
}

/// `sdr-net` codec over the real message mix, plus the largest split
/// payload the run produced.
pub fn codec(msgs: &[WireMsg], split: Option<&WireMsg>) -> Values {
    let frames: Vec<Vec<u8>> = msgs.iter().map(WireMsg::encode).collect();
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let n = msgs.len().max(1);
    let encode_ns = time_ns(msgs.len(), |i| {
        black_box(msgs[i].encode());
    });
    let decode_ns = time_ns(frames.len(), |i| {
        assert!(
            decode_frame(&frames[i]),
            "a frame this codec made must decode"
        );
    });
    let (mut encode_split_us, mut decode_split_us) = (0.0, 0.0);
    if let Some(split) = split {
        let frame = split.encode();
        encode_split_us = time_ns(20, |_| {
            black_box(split.encode());
        }) / 1e3;
        decode_split_us = time_ns(20, |_| {
            black_box(decode_frame(&frame));
        }) / 1e3;
    }
    vec![
        ("net.encode_ns_per_msg", encode_ns),
        ("net.decode_ns_per_msg", decode_ns),
        ("net.bytes_per_msg", bytes as f64 / n as f64),
        ("net.encode_split_us", encode_split_us),
        ("net.decode_split_us", decode_split_us),
    ]
}
