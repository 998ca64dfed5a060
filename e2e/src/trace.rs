//! The traced run (`--trace 1`): one repetition per workload with spans
//! recorded from the benchmark's own files, then layer probes on the
//! state it leaves. Nothing measured here feeds an end-to-end number.
//!
//! Spans: workload → phase → one span per client call → (simulator
//! only) one child span per delivered message, stamped by the
//! `Cluster::set_tap` hook. A message's span runs to the next tap or to
//! the end of the call, which is `Server::handle` plus dispatch seen from
//! outside. Counts by message category sit on the call spans.

use crate::adapters::{
    category_names, gen_points, gen_rects, gen_windows, now_ns, tap_len, tap_record,
    tap_take_captured, tap_take_events, Answer, Driver, Json, Obj, Op, Point, Rect, Routing, Sim,
    TapEvent, Tcp, TcpClient,
};
use crate::metrics::PER_LAYER;
use crate::oracle::{Oracle, Outcome};
use crate::probes::{self, Values};
use crate::run::{self, kind_of, State, KINDS};
use crate::stats::{self, num, obj, text};
use crate::workloads::{self, Phase, Plan, Spec, Substrate, DATASET_SEED};
use std::time::Instant;

/// Messages copied for the codec probe.
const CAPTURE: usize = 20_000;
/// Call spans written to the span file (all are analysed).
const SPANS_IN_FILE: usize = 2_000;

/// One client call.
struct OpSpan {
    kind: usize,
    start_ns: u64,
    end_ns: u64,
    /// Range of tap events delivered during the call.
    events: (usize, usize),
    knn_rounds: u32,
}

/// Calls, the deliveries beneath them, and what the calls returned.
#[derive(Default)]
struct Recording {
    spans: Vec<OpSpan>,
    outcomes: Vec<Outcome>,
    events: Vec<TapEvent>,
    /// `(name, first span, one past the last span, wall seconds)`.
    phases: Vec<(&'static str, usize, usize, f64)>,
}

/// The closed loop of `run::drive`, with a span around every call.
fn drive_traced<D: Driver>(d: &mut D, ops: impl Iterator<Item = Op>, rec: &mut Recording) {
    for op in ops {
        let first = tap_len();
        let start_ns = now_ns();
        let answer = d.apply(&op);
        let end_ns = now_ns();
        let knn_rounds = match &answer {
            Answer::Neighbors(_, rounds) => *rounds,
            _ => 0,
        };
        rec.spans.push(OpSpan {
            kind: kind_of(&op),
            start_ns,
            end_ns,
            events: (first, tap_len()),
            knn_rounds,
        });
        rec.outcomes.push(Outcome::of(answer));
    }
}

fn record_phase<D: Driver>(d: &mut D, phase: &Phase, rec: &mut Recording) {
    let first = rec.spans.len();
    let t0 = Instant::now();
    drive_traced(d, phase.ops.iter().copied(), rec);
    rec.phases.push((
        phase.name,
        first,
        rec.spans.len(),
        t0.elapsed().as_secs_f64(),
    ));
}

fn p50(samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or(0.0)
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in xs {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Deliveries by message category, in the order of `category_names`.
fn by_category(events: &[TapEvent]) -> [u64; 9] {
    let mut counts = [0u64; 9];
    for e in events {
        counts[e.category] += 1;
    }
    counts
}

impl Recording {
    fn of_kind(&self, kind: usize) -> impl Iterator<Item = &OpSpan> {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    fn events_of(&self, s: &OpSpan) -> &[TapEvent] {
        &self.events[s.events.0..s.events.1]
    }

    fn p50_us(&self, kind: usize) -> f64 {
        let us: Vec<f64> = self
            .of_kind(kind)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        p50(&us)
    }

    /// The 99th percentile over every call, all kinds pooled (0 when the
    /// recording is too short for it, as a smoke run's is).
    fn pooled_p99_us(&self) -> f64 {
        let us = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3);
        let (_, p99) = stats::p50_p99(&mut us.collect::<Vec<f64>>(), stats::SAMPLES_BEYOND);
        p99.unwrap_or(0.0)
    }

    fn msgs_per_op(&self, kind: usize) -> f64 {
        mean(self.of_kind(kind).map(|s| (s.events.1 - s.events.0) as f64))
    }

    /// Deliveries per call that make a data node consult its R-tree.
    fn data_visits_per_op(&self, kind: usize) -> f64 {
        mean(
            self.of_kind(kind)
                .map(|s| self.events_of(s).iter().filter(|e| e.data_node).count() as f64),
        )
    }

    fn ops_per_s(&self) -> f64 {
        let busy: u64 = self.spans.iter().map(|s| s.end_ns - s.start_ns).sum();
        self.spans.len() as f64 / (busy as f64 / 1e9)
    }

    /// Mean tap-to-tap gap: `Server::handle` + dispatch per message.
    fn deliver_ns_per_msg(&self) -> f64 {
        let mut total = 0u64;
        let mut n = 0u64;
        for s in &self.spans {
            if let Some(first) = self.events_of(s).first() {
                total += s.end_ns.saturating_sub(first.at_ns);
                n += (s.events.1 - s.events.0) as u64;
            }
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }

    /// Call span minus its message spans. Message spans tile the call
    /// from the first tap to its end, so what is left is the client's
    /// work before the first delivery: choosing from the image, building
    /// and posting the request.
    fn client_self_ns_per_op(&self) -> f64 {
        mean(self.spans.iter().map(|s| match self.events_of(s).first() {
            Some(first) => first.at_ns.saturating_sub(s.start_ns) as f64,
            None => (s.end_ns - s.start_ns) as f64,
        }))
    }

    /// `(servers touched per window, query deliveries ÷ distinct servers)`.
    fn window_fanout(&self) -> (f64, f64) {
        let query = category_names().iter().position(|c| *c == "Query");
        let (mut touched, mut deliveries, mut windows) = (0usize, 0usize, 0usize);
        for s in self.of_kind(3) {
            let mut servers: Vec<u32> = self
                .events_of(s)
                .iter()
                .filter(|e| Some(e.category) == query)
                .map(|e| e.to)
                .collect();
            deliveries += servers.len();
            servers.sort_unstable();
            servers.dedup();
            touched += servers.len();
            windows += 1;
        }
        (
            touched as f64 / windows.max(1) as f64,
            deliveries as f64 / touched.max(1) as f64,
        )
    }

    fn knn_rounds_mean(&self) -> f64 {
        mean(self.of_kind(4).map(|s| f64::from(s.knn_rounds)))
    }

    /// Replays the calls on `oracle`; how many answers were wrong.
    fn wrong(&self, ops: impl Iterator<Item = Op>, oracle: &mut Oracle) -> usize {
        ops.zip(&self.outcomes)
            .filter(|(op, got)| !oracle.check(op, got))
            .count()
    }

    fn span_json(&self, limit: usize) -> Vec<Json> {
        let names = category_names();
        let mut out = Vec::new();
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            let events = self.events_of(s);
            let counts = by_category(events);
            let by_category: Vec<(&str, Json)> = names
                .iter()
                .zip(&counts)
                .filter(|(_, n)| **n > 0)
                .map(|(c, n)| (*c, num(*n as f64)))
                .collect();
            let phase = self.phases.iter().position(|p| p.1 <= i && i < p.2);
            out.push(obj(vec![
                ("id", text(&format!("op{i}"))),
                ("parent", text(&format!("phase{}", phase.unwrap_or(0)))),
                ("name", text(KINDS[s.kind])),
                ("start_ns", num(s.start_ns as f64)),
                ("end_ns", num(s.end_ns as f64)),
                ("msgs", obj(by_category)),
            ]));
            for (j, e) in events.iter().enumerate() {
                let end = events.get(j + 1).map_or(s.end_ns, |next| next.at_ns);
                out.push(obj(vec![
                    ("id", text(&format!("op{i}.m{j}"))),
                    ("parent", text(&format!("op{i}"))),
                    ("name", text(e.name)),
                    ("to_server", num(f64::from(e.to))),
                    ("start_ns", num(e.at_ns as f64)),
                    ("end_ns", num(end as f64)),
                ]));
            }
        }
        out
    }
}

// ------------------------------------------------------------ the tail --

/// A fixed set of calls of every kind, run on the structure the workload
/// leaves behind, so that cost by operation kind is defined on every
/// workload — also on one that issues inserts only.
struct Tail {
    inserts: Vec<Obj>,
    points: Vec<Point>,
    windows: Vec<Rect>,
    knn: Vec<Point>,
}

impl Tail {
    fn new(spec: &Spec, plan: &Plan, seed: u64, smoke: bool) -> Tail {
        let n = if smoke { 20 } else { 200 };
        // Off the IMCLIENT path one kNN costs milliseconds.
        let n_knn = match spec.substrate {
            Substrate::Sim(Routing::ImClient) | Substrate::Tcp => n,
            Substrate::Sim(_) => n / 5,
        };
        let next_id = plan.stored().map(|o| o.id).max().map_or(0, |id| id + 1);
        // The workload's own query shapes where it has them.
        let point = |op: &Op| match op {
            Op::Point(p) => Some(*p),
            _ => None,
        };
        let window = |op: &Op| match op {
            Op::Window(w) => Some(*w),
            _ => None,
        };
        let mut points: Vec<Point> = plan.ops().filter_map(point).take(n).collect();
        if points.is_empty() {
            points = gen_points(n, seed ^ 0x7a12);
        }
        let mut windows: Vec<Rect> = plan.ops().filter_map(window).take(n).collect();
        if windows.is_empty() {
            windows = gen_windows(n, seed ^ 0x7a13);
        }
        Tail {
            inserts: gen_rects(spec.dist, n, seed ^ 0x7a11)
                .into_iter()
                .zip(next_id..)
                .map(|(rect, id)| Obj { id, rect })
                .collect(),
            points,
            windows,
            knn: gen_points(n_knn, seed ^ 0x7a14),
        }
    }

    fn queries(&self) -> impl Iterator<Item = Op> + '_ {
        (self.points.iter().map(|p| Op::Point(*p)))
            .chain(self.windows.iter().map(|w| Op::Window(*w)))
            .chain(self.knn.iter().map(|p| Op::Knn(*p)))
    }

    /// Inserts, queries, then deletes of what was inserted: the
    /// structure ends (almost) as it began.
    fn ops(&self) -> impl Iterator<Item = Op> + '_ {
        (self.inserts.iter().map(|o| Op::Insert(*o)))
            .chain(self.queries())
            .chain(self.inserts.iter().map(|o| Op::Delete(*o)))
    }
}

// ----------------------------------------------------------- TCP probe --

/// The plan the loopback deployment is driven with. The TCP workload
/// uses its own; a simulator workload gets a small one cut from its
/// data: 150 inserts into capacity-30 servers, 230 queries, 50 deletes.
fn tcp_plan(spec: &Spec, plan: Plan, tail: &Tail) -> (usize, Plan) {
    if spec.substrate == Substrate::Tcp {
        return (spec.capacity, plan);
    }
    let stored: Vec<Obj> = plan
        .stored()
        .take(150)
        .zip(0..)
        .map(|(o, id)| Obj { id, rect: o.rect })
        .collect();
    let n = stored.len();
    let read: Vec<Op> = (stored.iter().take(100).map(|o| Op::Point(o.rect.center())))
        .chain(tail.windows.iter().take(100).map(|w| Op::Window(*w)))
        .chain(tail.knn.iter().take(30).map(|p| Op::Knn(*p)))
        .collect();
    let phases = vec![
        Phase {
            name: "write",
            threads: 1,
            ops: stored.iter().map(|o| Op::Insert(*o)).collect(),
        },
        Phase {
            name: "read",
            threads: 2,
            ops: read,
        },
        Phase {
            name: "delete",
            threads: 1,
            ops: stored.iter().take(n / 3).map(|o| Op::Delete(*o)).collect(),
        },
    ];
    let plan = Plan {
        preload: Vec::new(),
        warm: Vec::new(),
        phases,
    };
    (30, plan)
}

struct TcpProbe {
    values: Values,
    rec: Recording,
    attempted: u64,
    failed: u64,
}

fn phase<'a>(plan: &'a Plan, name: &str) -> &'a Phase {
    plan.phases
        .iter()
        .find(|p| p.name == name)
        .expect("a TCP plan has write, read and delete phases")
}

/// Launches a deployment, drives `plan` through it with spans around
/// every call (one reader, then two), and replays the identical calls on
/// a simulator twin to split each latency into protocol and transport.
fn tcp_probe(capacity: usize, plan: &Plan) -> Result<TcpProbe, String> {
    let (write, read, delete) = (
        phase(plan, "write"),
        phase(plan, "read"),
        phase(plan, "delete"),
    );
    let t0 = Instant::now();
    let net = Tcp::launch(capacity)?;
    let launch_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut connect_us = Vec::new();
    let mut clients: Vec<TcpClient> = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        clients.push(net.client()?);
        connect_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    let mut readers = clients.split_off(1);
    let writer = &mut clients[0];

    let mut rec = Recording::default();
    record_phase(writer, write, &mut rec);
    let quiesce_us: Vec<f64> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            writer.quiesce();
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    // One reader, then the same queries split over two.
    record_phase(&mut readers[0], read, &mut rec);
    let one_reader_s = rec.phases.last().map_or(0.0, |p| p.3);
    let t0 = Instant::now();
    let mut halves: Vec<Recording> = std::thread::scope(|s| {
        let handles: Vec<_> = readers
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                s.spawn(move || {
                    let mut rec = Recording::default();
                    drive_traced(
                        client,
                        read.ops.iter().copied().skip(t).step_by(2),
                        &mut rec,
                    );
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a reader thread panicked"))
            .collect()
    });
    let two_readers_s = t0.elapsed().as_secs_f64();
    let threads = crate::proc_status("Threads:").unwrap_or(0.0);
    record_phase(writer, delete, &mut rec);

    // Correctness, with the same oracle as the untraced run.
    let mut oracle = Oracle::new();
    let serial = plan.ops().copied();
    let mut failed = rec.wrong(serial, &mut oracle) as u64;
    let mut attempted = rec.spans.len() as u64;
    let mut static_oracle = Oracle::new();
    for op in &write.ops {
        static_oracle.check(op, &Outcome::Done);
    }
    for (t, half) in halves.iter_mut().enumerate() {
        let ops = read.ops.iter().copied().skip(t).step_by(2);
        failed += half.wrong(ops, &mut static_oracle) as u64;
        attempted += half.spans.len() as u64;
    }
    attempted += 1;
    let stored = match writer.apply(&Op::Window(Rect::new(0.0, 0.0, 1.0, 1.0))) {
        Answer::Hits(h) => Some(crate::oracle::digest_hits(&h)),
        _ => None,
    };
    if stored != Some(oracle.all()) {
        failed += 1;
    }

    let ops = (rec.spans.len() + read.ops.len()) as f64;
    let frames = net.metric("frame/write").unwrap_or(0.0);
    let bytes = net.metric("frame/bytes_out").unwrap_or(0.0);
    let delivery_failures = net.delivery_failures() as f64;
    net.shutdown();

    // The twin: same calls, same capacity, IMCLIENT as NetClient is.
    let mut twin = Sim::new(capacity, Routing::ImClient, DATASET_SEED);
    let mut twin_rec = Recording::default();
    for p in [write, read, delete] {
        record_phase(&mut twin, p, &mut twin_rec);
    }
    let overhead = |kind: usize| rec.p50_us(kind) - twin_rec.p50_us(kind);
    let mean_us = |r: &Recording| 1e6 / r.ops_per_s();
    let (tcp_mean, twin_mean) = (mean_us(&rec), mean_us(&twin_rec));
    let values = vec![
        ("net.frames_per_op", frames / ops),
        ("net.bytes_per_op", bytes / ops),
        ("net.delivery_failures", delivery_failures),
        ("net.launch_ms", launch_ms),
        ("net.connect_us", p50(&connect_us)),
        ("net.quiesce_idle_us", p50(&quiesce_us)),
        ("net.threads", threads),
        ("net.transport_overhead_us_insert", overhead(0)),
        ("net.transport_overhead_us_point", overhead(2)),
        ("net.transport_overhead_us_window", overhead(3)),
        ("net.tcp_op_mean_us", tcp_mean),
        ("net.twin_op_mean_us", twin_mean),
        (
            "net.transport_share_pct",
            100.0 * (tcp_mean - twin_mean) / tcp_mean,
        ),
        ("net.reader_scaling", one_reader_s / two_readers_s),
    ];
    Ok(TcpProbe {
        values,
        rec,
        attempted,
        failed,
    })
}

// ---------------------------------------------------------- the run ----

/// Operations per second of `ops` on `sim`, the median of five passes.
fn query_rate(sim: &mut Sim, ops: &[Op]) -> f64 {
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for op in ops {
                std::hint::black_box(sim.apply(op));
            }
            ops.len() as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    p50(&rates)
}

pub fn run_traced(
    spec: &Spec,
    seed: u64,
    smoke: bool,
    out: &std::path::Path,
) -> Result<crate::Outcome, String> {
    let started = Instant::now();
    let plan = workloads::plan(spec, seed);
    let tail = Tail::new(spec, &plan, seed, smoke);
    // The simulator side of a TCP workload is its IMCLIENT twin.
    let sim_spec = match spec.substrate {
        Substrate::Sim(_) => *spec,
        Substrate::Tcp => Spec {
            substrate: Substrate::Sim(Routing::ImClient),
            ..*spec
        },
    };
    let Substrate::Sim(routing) = sim_spec.substrate else {
        unreachable!("set just above");
    };
    let mut values: Values = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // An untraced repetition first: the reference for tracing overhead,
    // and the warm-up.
    let mut reference = run::setup(&sim_spec, &plan, false)?;
    run::prepare_rep(&sim_spec, &plan, &mut reference);
    let untraced = run::measure(&mut reference, &plan);
    let untraced_rate = {
        let busy_us: f64 = untraced.timed.iter().flatten().map(|t| t.us).sum();
        untraced.ops() as f64 / (busy_us / 1e6)
    };
    run::teardown(reference);

    // The traced repetition, on fresh state with the tap installed.
    let mut state = run::setup(&sim_spec, &plan, true)?;
    run::prepare_rep(&sim_spec, &plan, &mut state);
    let State::Sim(sim) = &mut state else {
        unreachable!("sim_spec is a simulator spec");
    };
    let mut rec = Recording::default();
    tap_record(true, CAPTURE);
    for phase in &plan.phases {
        record_phase(sim.as_mut(), phase, &mut rec);
    }
    tap_record(false, 0);
    rec.events = tap_take_events();
    let (captured, split) = tap_take_captured();
    let mut oracle = run::oracle_for(&plan);
    let serial = plan.ops().copied();
    failed += rec.wrong(serial, &mut oracle) as u64;
    attempted += rec.spans.len() as u64;

    values.push(("bench.timer_overhead_ns", probes::timer_overhead_ns()));
    values.push((
        "bench.trace_overhead_pct",
        100.0 * (untraced_rate / rec.ops_per_s() - 1.0),
    ));
    let kops = rec.spans.len() as f64 / 1e3;
    // One catalogue entry per message category, found by its name.
    for (category, count) in category_names().iter().zip(by_category(&rec.events)) {
        let name = format!("core.msgs_{category}_per_kop");
        if let Some(def) = PER_LAYER.iter().find(|d| d.name == name) {
            values.push((def.name, count as f64 / kops));
        }
    }
    values.push(("core.deliver_ns_per_msg", rec.deliver_ns_per_msg()));
    values.push(("core.client_self_ns_per_op", rec.client_self_ns_per_op()));
    let shape = sim.shape();
    values.push(("core.servers", shape.servers as f64));
    values.push(("core.height", f64::from(shape.height)));
    values.push(("core.load_skew", shape.load_skew));

    // The tail: every kind of call on the structure as the workload
    // left it, with the client as the workload left it.
    let mut tail_rec = Recording::default();
    tap_record(true, 0);
    drive_traced(sim.as_mut(), tail.ops(), &mut tail_rec);
    tap_record(false, 0);
    tail_rec.events = tap_take_events();
    failed += tail_rec.wrong(tail.ops(), &mut oracle) as u64;
    attempted += tail_rec.spans.len() as u64 + 1;
    if run::stored(&mut state) != Ok(oracle.all()) {
        failed += 1;
    }
    let State::Sim(sim) = &mut state else {
        unreachable!("sim_spec is a simulator spec");
    };
    for (kind, msgs, lat) in [
        (0, "core.insert_msgs_per_op", "detail.insert_p50_us"),
        (2, "core.point_msgs_per_op", "detail.point_p50_us"),
        (3, "core.window_msgs_per_op", "detail.window_p50_us"),
        (4, "core.knn_msgs_per_op", "detail.knn_p50_us"),
        (1, "core.delete_msgs_per_op", "detail.delete_p50_us"),
    ] {
        values.push((msgs, tail_rec.msgs_per_op(kind)));
        values.push((lat, tail_rec.p50_us(kind)));
    }
    let (touched, redundant) = tail_rec.window_fanout();
    values.push(("core.servers_touched_per_window", touched));
    values.push(("core.redundant_visit_ratio", redundant));
    values.push(("core.knn_rounds_mean", tail_rec.knn_rounds_mean()));
    let image_rects: Vec<Rect> = tail.windows.iter().chain(&tail.windows).copied().collect();
    values.push((
        "core.image_choose_ns",
        probes::time_ns(image_rects.len(), |i| {
            std::hint::black_box(sim.image_choose(&image_rects[i]));
        }),
    ));

    // sdr-obs switched on, over the tail's queries (they change nothing).
    let queries: Vec<Op> = tail.queries().collect();
    let off = query_rate(sim, &queries);
    sim.obs_metrics_on();
    let iam_before = sim.msgs_by_category();
    let with_metrics = query_rate(sim, &queries);
    let iam_server = {
        let iam = category_names()
            .iter()
            .position(|c| *c == "Iam")
            .unwrap_or(0);
        sim.msgs_by_category()[iam] - iam_before[iam]
    };
    let iams = (sim.obs_client_iams() + iam_server) as f64;
    let (hops_mean, hops_max) = sim.obs_query_hops().unwrap_or((0.0, 0));
    sim.obs_trace_on();
    let with_trace = query_rate(sim, &queries);
    let events = sim.obs_trace_events() as f64;
    sim.obs_off();
    let passes = 5.0 * queries.len() as f64;
    values.push((
        "obs.metrics_overhead_pct",
        100.0 * (off / with_metrics - 1.0),
    ));
    values.push(("obs.trace_overhead_pct", 100.0 * (off / with_trace - 1.0)));
    values.push(("obs.trace_events_per_op", events / passes));
    values.push(("core.iam_per_100_ops", 100.0 * iams / passes));
    values.push(("core.query_hops_mean", hops_mean));
    values.push(("core.query_hops_max", hops_max as f64));

    // The same windows through a BASIC client: what the image costs or
    // saves in messages on this structure.
    let window_msgs = tail_rec.msgs_per_op(3);
    sim.fresh_client(Routing::Basic, DATASET_SEED);
    let before = sim.msgs_total();
    for w in &tail.windows {
        sim.apply(&Op::Window(*w));
    }
    let basic_msgs = (sim.msgs_total() - before) as f64 / tail.windows.len().max(1) as f64;
    values.push((
        "core.window_msg_amplification_vs_basic",
        window_msgs / basic_msgs.max(f64::MIN_POSITIVE),
    ));
    sim.fresh_client(routing, DATASET_SEED);

    // Layer probes on what the run left behind.
    let rects = gen_rects(spec.dist, 10_000, seed ^ 0x9e0);
    let t0 = Instant::now();
    std::hint::black_box(gen_rects(spec.dist, 20_000, seed ^ 0x9e1));
    values.push((
        "workload.gen_ns_per_rect",
        t0.elapsed().as_nanos() as f64 / 20_000.0,
    ));
    values.extend(probes::geom(&rects, &tail.windows, &tail.points));
    let costs = probes::rtree(&sim.median_tree(), &tail.windows);
    // Share of a call's latency spent inside local R-trees: data-node
    // visits per call × the probe's cost per visit ÷ the call's p50.
    for (kind, name, probe) in [
        (0, "rtree.share_pct_insert", "rtree.insert_ns"),
        (2, "rtree.share_pct_point", "rtree.point_ns"),
        (3, "rtree.share_pct_window", "rtree.window_ns"),
        (4, "rtree.share_pct_knn", "rtree.knn10_ns"),
    ] {
        let ns = costs.iter().find(|(n, _)| *n == probe).map_or(0.0, |c| c.1);
        let call_ns = tail_rec.p50_us(kind) * 1e3;
        let share = tail_rec.data_visits_per_op(kind) * ns / call_ns.max(f64::MIN_POSITIVE);
        values.push((name, 100.0 * share));
    }
    values.extend(costs);
    values.push((
        "rtree.data_node_visits_per_window",
        tail_rec.data_visits_per_op(3),
    ));
    values.extend(probes::codec(&captured, split.as_ref()));
    run::teardown(state);

    // The loopback deployment.
    let (capacity, net_plan) = tcp_plan(spec, plan, &tail);
    let probe = tcp_probe(capacity, &net_plan)?;
    values.extend(probe.values.iter().copied());
    // The workload's own calls: over sockets for the TCP workload.
    let own = if spec.substrate == Substrate::Tcp {
        &probe.rec
    } else {
        &rec
    };
    values.push(("detail.lat_p99_us", own.pooled_p99_us()));
    attempted += probe.attempted;
    failed += probe.failed;

    // Spans go to disk once everything has run.
    let mut spans = vec![obj(vec![
        ("id", text("workload")),
        ("name", text(spec.name)),
        (
            "start_ns",
            num(rec.spans.first().map_or(0, |s| s.start_ns) as f64),
        ),
        (
            "end_ns",
            num(rec.spans.last().map_or(0, |s| s.end_ns) as f64),
        ),
    ])];
    for (i, (name, first, last, _)) in rec.phases.iter().enumerate() {
        spans.push(obj(vec![
            ("id", text(&format!("phase{i}"))),
            ("parent", text("workload")),
            ("name", text(name)),
            (
                "start_ns",
                num(rec.spans.get(*first).map_or(0, |s| s.start_ns) as f64),
            ),
            (
                "end_ns",
                num(last
                    .checked_sub(1)
                    .and_then(|l| rec.spans.get(l))
                    .map_or(0, |s| s.end_ns) as f64),
            ),
        ]));
    }
    spans.extend(rec.span_json(SPANS_IN_FILE));
    let file = obj(vec![
        ("workload", text(spec.name)),
        ("seed", num(seed as f64)),
        (
            "substrate",
            text("simulator (the IMCLIENT twin for a TCP workload)"),
        ),
        ("calls_recorded", num(rec.spans.len() as f64)),
        (
            "calls_in_file",
            num(rec.spans.len().min(SPANS_IN_FILE) as f64),
        ),
        ("spans", Json::Arr(spans)),
        ("tcp_spans", Json::Arr(probe.rec.span_json(SPANS_IN_FILE))),
    ]);
    let path = out.join(format!("trace-{}.json", spec.name));
    std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(&path, stats::to_line(&file)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let mut metrics = Vec::new();
    for def in PER_LAYER.iter() {
        let value = values.iter().find(|(n, _)| *n == def.name).map(|(_, v)| *v);
        match value {
            Some(v) if v.is_finite() => metrics.push((def.name.to_string(), v, def.unit)),
            other => {
                return Err(format!(
                    "{}: no value for {} ({other:?})",
                    spec.name, def.name
                ))
            }
        }
    }
    Ok(crate::Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail: obj(vec![
            ("workload", text(spec.name)),
            ("why", text(spec.why)),
            ("repetitions", num(1.0)),
            ("wall_s", num(started.elapsed().as_secs_f64())),
            ("span_file", text(&path.display().to_string())),
            (
                "samples_per_repetition",
                Json::Obj(
                    KINDS
                        .iter()
                        .enumerate()
                        .map(|(k, name)| (name.to_string(), num(rec.of_kind(k).count() as f64)))
                        .collect(),
                ),
            ),
        ]),
    })
}
