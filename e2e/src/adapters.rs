//! The only file of the benchmark that names product items.
//!
//! Everything the harness does to the system under test goes through the
//! thin wrappers below: the simulator driver ([`Sim`]), the TCP driver
//! ([`Tcp`], [`TcpClient`]), the workload generators, and the primitives
//! the layer probes time ([`LocalTree`], the `geom_*` kernels, the
//! codec). A product API refactor is a change to this file alone. Only
//! public functions are used; nothing here times anything, with one
//! exception: the message tap stamps each delivery, because the product
//! calls it, not the harness.

use sdr_core::msg::{Message, Payload};
use sdr_core::{Client, ClientId, Cluster, MsgCategory, NodeKind, Object, Oid, SdrConfig, Variant};
use sdr_geom::kernels::{self, LANES};
use sdr_net::{NetClient, NetCluster};
use sdr_rtree::{Entry, RTree};
use sdr_workload::{DatasetSpec, Distribution, MotionSpec, PointSpec, WindowSpec};
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

pub use sdr_det::json::Json;
pub use sdr_det::{DetRng, Rng};
pub use sdr_geom::{Point, Rect};

/// Neighbours asked of every kNN operation.
pub const KNN_K: usize = 10;

/// A stored object as the harness sees it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Obj {
    pub id: u64,
    pub rect: Rect,
}

impl Obj {
    fn product(self) -> Object {
        Object::new(Oid(self.id), self.rect)
    }
}

/// One client-visible operation.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Insert(Obj),
    Delete(Obj),
    Point(Point),
    Window(Rect),
    Knn(Point),
    /// Delete + re-insert of one moving object (§3.3 of the paper).
    Move {
        from: Obj,
        to: Obj,
    },
}

/// The objects a point or window query returned, still in product form
/// so the timed call pays no conversion.
pub struct Hits(Vec<Object>);

impl Hits {
    pub fn iter(&self) -> impl Iterator<Item = Obj> + '_ {
        self.0.iter().map(|o| Obj {
            id: o.oid.0,
            rect: o.mbb,
        })
    }
}

/// What an operation returned.
pub enum Answer {
    /// Insert dispatched (inserts are unacknowledged unless repaired).
    Done,
    /// Delete or move: whether some server removed the object.
    Removed(bool),
    Hits(Hits),
    /// `(id, distance)` nearest first, and the verification rounds the
    /// client ran (0 where the client does not say).
    Neighbors(Vec<(u64, f64)>, u32),
    /// The client reported an error or a timeout.
    Failed(String),
}

/// Anything that executes operations one at a time.
pub trait Driver {
    fn apply(&mut self, op: &Op) -> Answer;
}

// ------------------------------------------------------------ workload --

/// Spatial distribution of a dataset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Dist {
    Uniform,
    Skewed,
}

impl Dist {
    fn product(self) -> Distribution {
        match self {
            Dist::Uniform => Distribution::Uniform,
            Dist::Skewed => Distribution::default_skewed(),
        }
    }
}

pub fn gen_rects(dist: Dist, n: usize, seed: u64) -> Vec<Rect> {
    DatasetSpec::new(n, dist.product()).generate(seed)
}

pub fn gen_points(n: usize, seed: u64) -> Vec<Point> {
    PointSpec::uniform().generate(n, seed)
}

pub fn gen_windows(n: usize, seed: u64) -> Vec<Rect> {
    WindowSpec::paper_default().generate(n, seed)
}

/// A fleet of `fleet` moving objects: their initial boxes and `n` moves
/// `(object index, old box, new box)` in the order they happen.
pub fn gen_moves(fleet: usize, n: usize, seed: u64) -> (Vec<Rect>, Vec<(usize, Rect, Rect)>) {
    let mut motion = MotionSpec::new(fleet, 0.01).start(seed);
    let initial = motion.rects();
    let mut moves = Vec::with_capacity(n);
    while moves.len() < n {
        moves.extend(motion.tick());
    }
    moves.truncate(n);
    (initial, moves)
}

// ----------------------------------------------------------- simulator --

/// Client addressing variant (§5 of the paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Routing {
    Basic,
    ImClient,
    ImServer,
}

impl Routing {
    fn product(self) -> Variant {
        match self {
            Routing::Basic => Variant::Basic,
            Routing::ImClient => Variant::ImClient,
            Routing::ImServer => Variant::ImServer,
        }
    }
}

/// Names of the message categories, in the order of [`Sim::msgs_by_category`].
pub fn category_names() -> [&'static str; 9] {
    MsgCategory::ALL.map(MsgCategory::name)
}

/// Shape of the distributed tree.
pub struct Shape {
    pub servers: usize,
    pub height: u32,
    /// Largest data node ÷ mean data node, in objects.
    pub load_skew: f64,
}

/// The in-process simulator with one sequential client.
pub struct Sim {
    cluster: Cluster,
    client: Client,
}

impl Sim {
    pub fn new(capacity: usize, routing: Routing, seed: u64) -> Sim {
        let mut cluster = Cluster::new(SdrConfig::with_capacity(capacity));
        // `Cluster::new` reads SDR_TRACE / SDR_METRICS; the benchmark
        // decides itself when observation is on.
        *cluster.obs_mut() = sdr_obs::Obs::disabled();
        Sim {
            cluster,
            client: Client::new(ClientId(0), routing.product(), seed),
        }
    }

    /// Replaces the client by a fresh one (empty image).
    pub fn fresh_client(&mut self, routing: Routing, seed: u64) {
        self.client = Client::new(ClientId(0), routing.product(), seed);
    }

    /// Server-addressed messages so far: the paper's cost model.
    pub fn msgs_total(&self) -> u64 {
        self.cluster.stats.total()
    }

    pub fn msgs_by_category(&self) -> Vec<u64> {
        MsgCategory::ALL
            .iter()
            .map(|c| self.cluster.stats.category(*c))
            .collect()
    }

    pub fn all_objects(&self) -> Vec<Obj> {
        self.cluster
            .all_objects()
            .into_iter()
            .map(|o| Obj {
                id: o.oid.0,
                rect: o.mbb,
            })
            .collect()
    }

    /// Panics with a description when a structural invariant is broken.
    pub fn check_invariants(&mut self) {
        self.cluster.check_invariants();
    }

    pub fn shape(&self) -> Shape {
        let loads: Vec<usize> = self.data_loads().into_iter().map(|(_, n)| n).collect();
        let mean = loads.iter().sum::<usize>() as f64 / loads.len().max(1) as f64;
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        Shape {
            servers: loads.len(),
            height: self.cluster.height(),
            load_skew: if mean > 0.0 { max / mean } else { 0.0 },
        }
    }

    fn data_loads(&self) -> Vec<(usize, usize)> {
        self.cluster
            .servers()
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.data.as_ref().map(|d| (i, d.len())))
            .collect()
    }

    /// A copy of the local R-tree of the median-loaded data node.
    pub fn median_tree(&self) -> LocalTree {
        let mut loads = self.data_loads();
        loads.sort_by_key(|&(i, n)| (n, i));
        let (idx, _) = loads[loads.len() / 2];
        let data = self.cluster.servers()[idx].data.as_ref();
        LocalTree(data.expect("filtered on data nodes").tree.clone())
    }

    /// One CHOOSEFROMIMAGE call on the client's image; whether a link
    /// was found.
    pub fn image_choose(&self, r: &Rect) -> bool {
        self.client.image.choose(r).is_some()
    }

    // Observation built into the product (sdr-obs).

    pub fn obs_off(&mut self) {
        *self.cluster.obs_mut() = sdr_obs::Obs::disabled();
    }

    pub fn obs_metrics_on(&mut self) {
        self.obs_off();
        self.cluster.obs_mut().enable_metrics();
    }

    pub fn obs_trace_on(&mut self) {
        self.obs_off();
        self.cluster.obs_mut().enable_trace();
    }

    pub fn obs_trace_events(&self) -> usize {
        self.cluster.obs().trace().map_or(0, |t| t.len())
    }

    /// `(mean, max)` causal depth of query-category deliveries, from the
    /// product's metrics registry.
    pub fn obs_query_hops(&self) -> Option<(f64, u64)> {
        let h = self.cluster.obs().metrics()?.histogram("hops/Query")?;
        Some((h.mean(), h.max()))
    }

    /// Image adjustments absorbed by the client (metrics registry).
    pub fn obs_client_iams(&self) -> u64 {
        self.cluster
            .obs()
            .metrics()
            .map_or(0, |m| m.counter("client/iam"))
    }

    /// Installs the message tap. It cannot be removed again, so only
    /// simulators built for a traced run get one; [`tap_record`]
    /// switches recording on and off.
    pub fn install_tap(&mut self) {
        self.cluster.set_tap(tap);
    }
}

impl Driver for Sim {
    fn apply(&mut self, op: &Op) -> Answer {
        let (cl, c) = (&mut self.cluster, &mut self.client);
        match *op {
            Op::Insert(o) => {
                c.insert(cl, o.product());
                Answer::Done
            }
            Op::Delete(o) => Answer::Removed(c.delete(cl, o.product()).0),
            Op::Point(p) => Answer::Hits(Hits(c.point_query(cl, p).results)),
            Op::Window(w) => Answer::Hits(Hits(c.window_query(cl, w).results)),
            Op::Knn(p) => {
                let out = c.knn(cl, p, KNN_K);
                let list = out.neighbors.into_iter().map(|(o, d)| (o.0, d)).collect();
                Answer::Neighbors(list, out.rounds)
            }
            Op::Move { from, to } => {
                let removed = c.delete(cl, from.product()).0;
                c.insert(cl, to.product());
                Answer::Removed(removed)
            }
        }
    }
}

// ----------------------------------------------------------------- tap --

/// One server-addressed delivery seen by the tap.
#[derive(Clone, Copy, Debug)]
pub struct TapEvent {
    /// Nanoseconds since [`now_ns`]'s epoch.
    pub at_ns: u64,
    /// Payload variant name.
    pub name: &'static str,
    /// Index into [`category_names`].
    pub category: usize,
    /// Destination server.
    pub to: u32,
    /// Whether the message makes its receiver consult its local R-tree.
    pub data_node: bool,
}

#[derive(Default)]
struct TapBuf {
    recording: bool,
    events: Vec<TapEvent>,
    /// Copies of the first messages seen while recording.
    captured: Vec<Message>,
    capture_cap: usize,
    /// The split payload with the most objects seen so far.
    largest_split: Option<(usize, Message)>,
}

thread_local! {
    static TAP: RefCell<TapBuf> = RefCell::new(TapBuf::default());
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn tap(msg: &Message) {
    TAP.with(|t| {
        let mut t = t.borrow_mut();
        if let Payload::SplitCreate { objects, .. } = &msg.payload {
            if t.largest_split
                .as_ref()
                .is_none_or(|(n, _)| objects.len() > *n)
            {
                t.largest_split = Some((objects.len(), msg.clone()));
            }
        }
        if !t.recording {
            return;
        }
        let data_node = match &msg.payload {
            Payload::Query(q) => q.target.kind == NodeKind::Data,
            Payload::Delete { target, .. } => target.kind == NodeKind::Data,
            Payload::InsertAtLeaf { .. } | Payload::StoreAtLeaf { .. } => true,
            Payload::KnnLocal { .. } => true,
            _ => false,
        };
        let category = msg.payload.category();
        let to = match msg.to {
            sdr_core::Endpoint::Server(s) => s.0,
            sdr_core::Endpoint::Client(c) => c.0,
        };
        if t.captured.len() < t.capture_cap {
            t.captured.push(msg.clone());
        }
        t.events.push(TapEvent {
            at_ns: now_ns(),
            name: msg.payload.name(),
            category: MsgCategory::ALL
                .iter()
                .position(|c| *c == category)
                .unwrap_or(0),
            to,
            data_node,
        });
    });
}

/// Switches tap recording on (keeping copies of the first `capture`
/// messages) or off.
pub fn tap_record(on: bool, capture: usize) {
    TAP.with(|t| {
        let mut t = t.borrow_mut();
        t.recording = on;
        t.capture_cap = capture;
    });
}

/// Events recorded so far.
pub fn tap_len() -> usize {
    TAP.with(|t| t.borrow().events.len())
}

/// Takes the recorded events.
pub fn tap_take_events() -> Vec<TapEvent> {
    TAP.with(|t| std::mem::take(&mut t.borrow_mut().events))
}

/// A message in wire-ready form, opaque to the harness.
pub struct WireMsg(Message);

/// Takes the captured messages and the largest split payload seen.
pub fn tap_take_captured() -> (Vec<WireMsg>, Option<WireMsg>) {
    TAP.with(|t| {
        let mut t = t.borrow_mut();
        let msgs = std::mem::take(&mut t.captured);
        let split = t.largest_split.take().map(|(_, m)| WireMsg(m));
        (msgs.into_iter().map(WireMsg).collect(), split)
    })
}

impl WireMsg {
    /// The frame `sdr-net` would put on the wire.
    pub fn encode(&self) -> Vec<u8> {
        sdr_net::encode_message(&self.0)
    }
}

/// Decodes a frame made by [`WireMsg::encode`]; whether it decoded.
pub fn decode_frame(frame: &[u8]) -> bool {
    // The framing layer strips the 4-byte length prefix.
    let body = frame.get(4..).unwrap_or(&[]);
    sdr_net::decode_message(&mut sdr_net::buf::ReadBuf::new(body)).is_ok()
}

// ----------------------------------------------------------------- TCP --

/// A loopback TCP deployment.
pub struct Tcp {
    cluster: NetCluster,
}

impl Tcp {
    pub fn launch(capacity: usize) -> Result<Tcp, String> {
        NetCluster::launch(SdrConfig::with_capacity(capacity))
            .map(|cluster| Tcp { cluster })
            .map_err(|e| format!("launch: {e}"))
    }

    pub fn client(&self) -> Result<TcpClient, String> {
        NetClient::connect(&self.cluster)
            .map(TcpClient)
            .map_err(|e| format!("connect: {e}"))
    }

    pub fn delivery_failures(&self) -> u64 {
        self.cluster.delivery_failures()
    }

    /// One counter of the deployment's metrics registry, which exists
    /// only when `SDR_METRICS` was set at launch.
    pub fn metric(&self, key: &str) -> Option<f64> {
        let snap = self.cluster.metrics_snapshot()?;
        snap.into_iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn shutdown(self) {
        self.cluster.shutdown();
    }
}

/// One sequential TCP client (the IMCLIENT variant over sockets).
pub struct TcpClient(NetClient);

impl TcpClient {
    /// Blocks until nothing is in flight; whether that succeeded.
    pub fn quiesce(&self) -> bool {
        self.0.quiesce().is_ok()
    }
}

impl Driver for TcpClient {
    fn apply(&mut self, op: &Op) -> Answer {
        let c = &mut self.0;
        let failed = |e: sdr_net::NetError| Answer::Failed(e.to_string());
        match *op {
            Op::Insert(o) => c.insert(o.product()).map_or_else(failed, |()| Answer::Done),
            Op::Delete(o) => c.delete(o.product()).map_or_else(failed, Answer::Removed),
            Op::Point(p) => c
                .point_query(p)
                .map_or_else(failed, |r| Answer::Hits(Hits(r))),
            Op::Window(w) => c
                .window_query(w)
                .map_or_else(failed, |r| Answer::Hits(Hits(r))),
            Op::Knn(p) => c.knn(p, KNN_K).map_or_else(failed, |r| {
                Answer::Neighbors(r.into_iter().map(|(o, d)| (o.oid.0, d)).collect(), 0)
            }),
            Op::Move { from, to } => match c.delete(from.product()) {
                Ok(removed) => c
                    .insert(to.product())
                    .map_or_else(failed, |()| Answer::Removed(removed)),
                Err(e) => failed(e),
            },
        }
    }
}

// -------------------------------------------------------- layer probes --

/// A local R-tree taken from a data node (`sdr-rtree`).
#[derive(Clone)]
pub struct LocalTree(RTree<Oid>);

impl LocalTree {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn height(&self) -> usize {
        self.0.height()
    }

    pub fn leaf_fill(&self) -> f64 {
        self.0.stats().avg_leaf_fill
    }

    pub fn entries(&self) -> Vec<Obj> {
        self.0
            .iter()
            .map(|e| Obj {
                id: e.item.0,
                rect: e.rect,
            })
            .collect()
    }

    pub fn insert(&mut self, o: Obj) {
        self.0.insert(o.rect, Oid(o.id));
    }

    pub fn remove(&mut self, o: Obj) -> bool {
        self.0.remove(&o.rect, &Oid(o.id))
    }

    pub fn point(&self, p: &Point) -> usize {
        self.0.search_point(p).len()
    }

    pub fn window(&self, w: &Rect) -> usize {
        self.0.search_window(w).len()
    }

    pub fn knn(&self, p: Point) -> usize {
        self.0.nearest(p, KNN_K).len()
    }

    /// STR bulk load of `objs` under this tree's configuration.
    pub fn bulk_load_like(&self, objs: &[Obj]) -> LocalTree {
        let entries = objs.iter().map(|o| Entry::new(o.rect, Oid(o.id))).collect();
        LocalTree(RTree::bulk_load(*self.0.config(), entries))
    }
}

/// Rectangles as four parallel coordinate slabs, the layout the batch
/// kernels of `sdr-geom` consume; the length is a multiple of the lane
/// width.
pub struct Slabs {
    xmin: Vec<f64>,
    ymin: Vec<f64>,
    xmax: Vec<f64>,
    ymax: Vec<f64>,
}

impl Slabs {
    pub fn new(rects: &[Rect]) -> Slabs {
        let n = rects.len() / LANES * LANES;
        let col = |f: fn(&Rect) -> f64| rects[..n].iter().map(f).collect::<Vec<f64>>();
        Slabs {
            xmin: col(|r| r.xmin),
            ymin: col(|r| r.ymin),
            xmax: col(|r| r.xmax),
            ymax: col(|r| r.ymax),
        }
    }

    pub fn len(&self) -> usize {
        self.xmin.len()
    }

    fn lanes(&self) -> impl Iterator<Item = [&[f64; LANES]; 4]> + '_ {
        fn chunk(v: &[f64], i: usize) -> &[f64; LANES] {
            v[i..i + LANES]
                .try_into()
                .expect("length is a multiple of LANES")
        }
        (0..self.len()).step_by(LANES).map(move |i| {
            [
                chunk(&self.xmin, i),
                chunk(&self.ymin, i),
                chunk(&self.xmax, i),
                chunk(&self.ymax, i),
            ]
        })
    }

    pub fn intersects_batch(&self, q: &Rect) -> u32 {
        self.lanes()
            .map(|[a, b, c, d]| kernels::intersects_batch(a, b, c, d, q).count_ones())
            .sum()
    }

    pub fn contains_point_batch(&self, p: &Point) -> u32 {
        self.lanes()
            .map(|[a, b, c, d]| kernels::contains_point_batch(a, b, c, d, p).count_ones())
            .sum()
    }

    pub fn min_dist_sq_batch(&self, p: &Point) -> f64 {
        self.lanes()
            .map(|[a, b, c, d]| {
                kernels::min_dist_sq_batch(a, b, c, d, p)
                    .iter()
                    .sum::<f64>()
            })
            .sum()
    }
}

pub fn geom_intersects_scalar(rects: &[Rect], q: &Rect) -> u32 {
    rects.iter().map(|r| u32::from(r.intersects(q))).sum()
}

pub fn geom_enlargement(rects: &[Rect], q: &Rect) -> f64 {
    rects.iter().map(|r| r.enlargement(q)).sum()
}
