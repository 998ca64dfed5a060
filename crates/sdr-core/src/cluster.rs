//! The in-process cluster simulator.
//!
//! The paper's evaluation runs on "a distributed structure simulator
//! written in C" (§5) and reports message counts. [`Cluster`] is that
//! substrate: it owns the servers, delivers every point-to-point message
//! through a FIFO queue, provisions new servers on splits, and meters
//! everything according to the paper's cost model (see [`crate::stats`]).
//!
//! Delivery is synchronous and deterministic: messages are processed in
//! emission order, and the whole system quiesces between client
//! operations. This matches the paper's single-operation-at-a-time
//! experimental regime. The delivery loop, [`Cluster::drain_with`], is
//! the only one: it orders every message, draws the fault plan and takes
//! every server turn, and a [`Carrier`] only moves messages between the
//! endpoints. [`Cluster::drain`] passes one that hands messages through;
//! the `sdr-net` TCP deployment's runner owns a `Cluster` and passes one
//! that sends them over sockets. So the simulator's order, draws, counts
//! and trace are the deployment's (DESIGN.md decision 12).

use crate::config::SdrConfig;
use crate::fault::{FaultCounts, FaultExecutor, FaultKind, FaultPlan, Released, Verdict};
use crate::ids::{NodeRef, ServerId};
use crate::msg::{Endpoint, Message};
use crate::server::{turn, Outbox, Server};
use crate::stats::Stats;
use std::collections::VecDeque;

/// What moves the messages of [`Cluster::drain_with`] between endpoints:
/// the one seam between the delivery loop and a substrate. The loop
/// decides the order, the fault plan's draws and every server turn; a
/// carrier does three jobs and nothing else.
pub trait Carrier {
    /// Carries a message one server sends a different one, when the turn
    /// that sends it ends: what arrives, or `None` if the message was lost
    /// on the way — the carrier books that loss.
    fn carry(&mut self, msg: Message) -> Option<Message>;

    /// Takes over a client-bound message at its turn, to send now or later.
    fn deliver(&mut self, msg: Message);

    /// Books a message the fault plan lost (dropped, or corrupted at the
    /// receiver).
    fn lost(&mut self, msg: &Message);
}

/// The simulator's carrier: a message crosses unchanged, the client-bound
/// ones are collected for the caller, and a fault-plan loss is only
/// traced, by the loop.
impl Carrier for Vec<Message> {
    fn carry(&mut self, msg: Message) -> Option<Message> {
        Some(msg)
    }

    fn deliver(&mut self, msg: Message) {
        self.push(msg);
    }

    fn lost(&mut self, _: &Message) {}
}

/// A queued message plus its causal identity and whether it is still
/// eligible for fault injection. Messages the fault executor hands back
/// (duplicate copies, released held messages) are exempt from further
/// verdicts, so a plan with extreme rates still terminates.
///
/// `id` is assigned at emission from the cluster's monotone counter
/// (never 0); `parent` is the id of the message whose handling emitted
/// this one (0 for client posts and bootstrap traffic), and `depth` is
/// the hop count from that root. The trio is what lets the trace layer
/// link every reply to the request that spawned it — the `Message`
/// itself stays untouched, because it is wire-coupled (`sdr-net`
/// encodes it) and causal ids are simulator-local bookkeeping.
#[derive(Debug)]
struct Envelope {
    msg: Message,
    fresh: bool,
    id: u64,
    parent: u64,
    depth: u32,
}

impl Envelope {
    /// Records one trace event for this envelope at logical time
    /// `tick`, if tracing is on. The disabled path is a single branch.
    fn trace(&self, obs: &mut sdr_obs::Obs, tick: u64, kind: &'static str) {
        if let Some(t) = obs.trace_mut() {
            t.record(sdr_obs::TraceEvent {
                tick,
                id: self.id,
                parent: self.parent,
                depth: self.depth,
                kind,
                name: self.msg.payload.name(),
                category: self.msg.payload.category().name(),
                from: self.msg.from.to_string(),
                to: self.msg.to.to_string(),
            });
        }
    }
}

/// Counts one delivered message in the metrics, if they are on.
fn observe(obs: &mut sdr_obs::Obs, msg: &Message, depth: u32) {
    if let Some(m) = obs.metrics_mut() {
        m.inc(&format!("msg/{}", msg.payload.name()));
        m.observe(
            &format!("hops/{}", msg.payload.category().name()),
            u64::from(depth),
        );
    }
}

/// A simulated cluster of SD-Rtree servers.
///
/// Server ids are allocated monotonically and **never reused**: an
/// eliminated server keeps its slot as a tombstone shell. This is a
/// deliberate trade-off, not an oversight — tombstone-chain termination
/// (stale images forwarding through dissolved nodes) relies on ids never
/// resurrecting, and the paper's §3.3 notes deletions "are rare in
/// practice". A deployment with heavy sustained churn would need an
/// id-reclamation epoch on top of this (out of scope here, as for the
/// paper).
#[derive(Debug)]
pub struct Cluster {
    servers: Vec<Server>,
    queue: VecDeque<Envelope>,
    /// Deterministic fault injection ([`FaultExecutor::none`]: ideal
    /// lossless delivery). The executor holds delayed and reordered
    /// envelopes and the deferred lane, and decides what leaves them once
    /// the queue is empty (see `Outbox::deferred`).
    faults: FaultExecutor<Envelope>,
    /// Message counters (public: the benchmark harness reads them).
    pub stats: Stats,
    config: SdrConfig,
    root_cache: std::cell::Cell<ServerId>,
    /// Optional observer called for every delivered server-bound
    /// message — used by the harness to measure wire-encoded message
    /// sizes (validating §5's "at most a few hundreds of bytes" claim)
    /// without coupling this crate to the codec.
    tap: Option<fn(&Message)>,
    /// Causal-id allocator for [`Envelope`]s; starts at 1 so 0 can be
    /// the "no parent" sentinel.
    next_msg_id: u64,
    /// Logical clock: the number of delivery events so far. This — not
    /// a wall clock — is the timestamp on every trace event, which is
    /// what keeps same-seed runs byte-identical.
    tick: u64,
    /// Deterministic observability (trace + metrics), disabled unless
    /// `SDR_TRACE`/`SDR_METRICS` are set at construction or a test
    /// enables it programmatically. Observation never feeds back into
    /// behavior: nothing in this crate reads `obs` state.
    obs: sdr_obs::Obs,
}

impl Cluster {
    /// Creates a cluster with a single empty server, the state before
    /// the first insertion (Figure 1.A / Figure 2.A).
    pub fn new(config: SdrConfig) -> Self {
        config.validate();
        Cluster {
            servers: vec![Server::new(ServerId(0), config)],
            queue: VecDeque::new(),
            faults: FaultExecutor::none(),
            stats: Stats::new(),
            config,
            root_cache: std::cell::Cell::new(ServerId(0)),
            tap: None,
            next_msg_id: 1,
            tick: 0,
            obs: sdr_obs::Obs::from_env(),
        }
    }

    /// Installs a message observer (see the `tap` field).
    pub fn set_tap(&mut self, tap: fn(&Message)) {
        self.tap = Some(tap);
    }

    /// The observability bundle (trace log + metrics), read side.
    pub fn obs(&self) -> &sdr_obs::Obs {
        &self.obs
    }

    /// Mutable observability bundle — tests and harnesses use this to
    /// enable tracing/metrics programmatically (no env-var races under
    /// parallel `cargo test`) and to read back what was recorded.
    pub fn obs_mut(&mut self) -> &mut sdr_obs::Obs {
        &mut self.obs
    }

    /// Installs a deterministic fault plan: every subsequent delivery in
    /// [`Cluster::drain_with`] passes through a fault executor seeded with
    /// `seed`, which counts what it injects ([`Cluster::fault_counts`]).
    /// The run stays a pure function of the workload and `seed` —
    /// replaying both yields bit-identical fault counters and final
    /// structure.
    pub fn install_faults(&mut self, plan: &FaultPlan, seed: u64) {
        self.faults = FaultExecutor::new(plan, seed);
    }

    /// Removes the fault plan and its counters (delivery becomes ideal
    /// again). Between operations nothing is held or deferred, so
    /// nothing is lost.
    pub fn clear_faults(&mut self) {
        self.faults = FaultExecutor::none();
    }

    /// The faults injected since the plan was installed (all zero
    /// without one).
    pub fn fault_counts(&self) -> FaultCounts {
        self.faults.counts()
    }

    /// Number of servers (N): the tree has N data nodes and N−1 routing
    /// nodes.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Read access to one server.
    #[expect(
        clippy::indexing_slicing,
        reason = "ServerIds are allocated densely by this cluster and servers are never removed; an out-of-range id is a local logic bug that must fail loudly"
    )]
    pub fn server(&self, id: ServerId) -> &Server {
        &self.servers[id.0 as usize]
    }

    /// Read access to all servers.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Mutable access for in-process construction (bulk loading).
    #[expect(
        clippy::indexing_slicing,
        reason = "same dense-allocation contract as `server()`: a bad id is a construction bug, panic wanted"
    )]
    pub(crate) fn server_mut(&mut self, id: ServerId) -> &mut Server {
        &mut self.servers[id.0 as usize]
    }

    /// Registers a pre-built server (bulk loading).
    pub(crate) fn push_server(&mut self, server: Server) {
        debug_assert_eq!(server.id.0 as usize, self.servers.len());
        self.servers.push(server);
    }

    /// Total number of objects stored across all data nodes.
    pub fn total_objects(&self) -> usize {
        self.servers
            .iter()
            .filter_map(|s| s.data.as_ref())
            .map(|d| d.len())
            .sum()
    }

    /// Height of the distributed tree (0 for a single leaf).
    pub fn height(&self) -> u32 {
        let root = self.root_node();
        match root.kind {
            crate::ids::NodeKind::Data => 0,
            crate::ids::NodeKind::Routing => self
                .server(root.server)
                .routing
                .as_ref()
                .map(|r| r.height)
                .unwrap_or(0),
        }
    }

    /// Average data-node load factor (stored objects / capacity), the
    /// `load(%)` column of Table 1.
    pub fn avg_load(&self) -> f64 {
        let (count, total) = self
            .servers
            .iter()
            .filter_map(|s| s.data.as_ref())
            .fold((0usize, 0usize), |(count, total), d| {
                (count + 1, total + d.len())
            });
        if count == 0 {
            return 0.0;
        }
        total as f64 / (count as f64 * self.config.capacity as f64)
    }

    /// The root node of the distributed tree: the routing node without a
    /// parent, or — before the first split / after a total elimination —
    /// the parentless data node.
    #[expect(
        clippy::unreachable,
        reason = "structural invariant: server 0 exists from construction and some node is always parentless"
    )]
    pub fn root_node(&self) -> NodeRef {
        // Fast path: the cached server still hosts the routing root.
        #[expect(
            clippy::indexing_slicing,
            reason = "the cache only ever holds an id this cluster allocated, and servers are never removed"
        )]
        if let Some(node) = routing_root_on(&self.servers[self.root_cache.get().0 as usize]) {
            return node;
        }
        for s in &self.servers {
            if let Some(node) = routing_root_on(s) {
                self.root_cache.set(s.id);
                return node;
            }
        }
        // No routing node is the root: the tree is a single data node.
        for s in &self.servers {
            if let Some(d) = &s.data {
                if d.parent.is_none() {
                    return NodeRef::data(s.id);
                }
            }
        }
        unreachable!("a non-empty cluster always has a root node");
    }

    /// Enqueues a message originating at a client. Client posts are
    /// causal roots: their envelopes get `parent = 0`, `depth = 0`.
    pub fn post(&mut self, msg: Message) {
        let env = self.envelope(msg, 0, 0);
        self.queue.push_back(env);
    }

    /// Wraps a message in a fresh envelope with the next causal id.
    fn envelope(&mut self, msg: Message, parent: u64, depth: u32) -> Envelope {
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        Envelope {
            msg,
            fresh: true,
            id,
            parent,
            depth,
        }
    }

    /// Processes the queue to quiescence, returning every client-bound
    /// message encountered (the caller — a [`crate::client::Client`] —
    /// interprets acks, reports and IAMs): [`Cluster::drain_with`] with
    /// the simulator's carrier, which hands every message through.
    pub fn drain(&mut self) -> Vec<Message> {
        let mut to_clients = Vec::new();
        self.drain_with(&mut to_clients);
        to_clients
    }

    /// Processes the queue to quiescence, moving messages through
    /// `carrier`: the delivery loop of both substrates.
    ///
    /// Every fresh envelope is first offered to the fault executor
    /// (without a plan it delivers each once and draws nothing), and the
    /// loop acts on its verdict: a lost envelope is traced and booked with
    /// the carrier, a held one is handed to the executor, and a delivered
    /// one may bring a duplicate copy along. Each delivery is one event for
    /// the executor's held lane; what it releases re-enters the queue. When
    /// the queue is empty the executor releases a deferred envelope or,
    /// with none left, its held lane — the loop always returns with
    /// nothing held or deferred, and the simulator's quiescence guarantee
    /// survives chaos mode.
    pub fn drain_with(&mut self, carrier: &mut impl Carrier) {
        // One outbox serves every delivery of the drain.
        let mut out = Outbox::new(ServerId(0), 0);
        while let Some(mut env) = self.next_envelope() {
            let verdict = if env.fresh {
                self.faults.decide_delivery(env.msg.payload.category())
            } else {
                Verdict::Deliver(1)
            };
            match verdict {
                Verdict::Lost(kind) => {
                    env.trace(&mut self.obs, self.tick, kind.name());
                    carrier.lost(&env.msg);
                }
                Verdict::Held(kind, events) => {
                    env.trace(&mut self.obs, self.tick, kind.name());
                    env.fresh = false;
                    self.faults.hold(env, events);
                }
                Verdict::Deliver(copies) => {
                    for _ in 1..copies {
                        env.trace(&mut self.obs, self.tick, FaultKind::Duplicate.name());
                        // A copy gets its own id, parented to the
                        // original so the trace tree shows the fork.
                        let id = self.next_msg_id;
                        self.next_msg_id += 1;
                        self.queue.push_back(Envelope {
                            msg: env.msg.clone(),
                            fresh: false,
                            id,
                            parent: env.id,
                            depth: env.depth,
                        });
                    }
                    let released = self.faults.tick();
                    self.deliver(env, carrier, &mut out);
                    self.queue.extend(released);
                }
            }
        }
    }

    /// The next envelope to deliver: the main queue first, then what the
    /// fault executor releases once it is empty.
    fn next_envelope(&mut self) -> Option<Envelope> {
        if let Some(env) = self.queue.pop_front() {
            return Some(env);
        }
        let held = match self.faults.release_idle() {
            Released::Deferred(env) => return Some(env),
            Released::Held(held) => held,
        };
        for env in held {
            env.trace(&mut self.obs, self.tick, "flush");
            self.queue.push_back(env);
        }
        self.queue.pop_front()
    }

    /// Delivers one message to its endpoint: a client-bound one through
    /// the carrier, a server-bound one through the shared [`turn`]. Every
    /// delivery advances the logical clock; messages the handler emits
    /// become children of the delivered envelope (`parent = env.id`,
    /// `depth + 1`), and those bound for another server cross the carrier
    /// first.
    fn deliver(&mut self, env: Envelope, carrier: &mut impl Carrier, out: &mut Outbox) {
        self.tick += 1;
        let Endpoint::Server(sid) = env.msg.to else {
            self.stats.record_client_msg();
            env.trace(&mut self.obs, self.tick, "client");
            observe(&mut self.obs, &env.msg, env.depth);
            return carrier.deliver(env.msg);
        };
        // A message to an id no server has is refused by the turn; the
        // trace labels it.
        if sid.0 as usize >= self.servers.len() {
            env.trace(&mut self.obs, self.tick, "unknown");
        } else {
            env.trace(&mut self.obs, self.tick, "deliver");
            observe(&mut self.obs, &env.msg, env.depth);
        }
        let Envelope { msg, id, depth, .. } = env;
        turn(&mut self.servers, &mut self.stats, msg, out, self.tap);
        // What crosses to another server goes through the carrier; a
        // message a server sends itself or a client, or one to an id no
        // server has, stays as it is.
        let servers = self.servers.len();
        let mut carry = |msg: Message| match msg.to {
            Endpoint::Server(to) if msg.to != msg.from && (to.0 as usize) < servers => {
                carrier.carry(msg)
            }
            _ => Some(msg),
        };
        for child in out.msgs.drain(..).filter_map(&mut carry) {
            let e = self.envelope(child, id, depth + 1);
            self.queue.push_back(e);
        }
        for child in out.deferred.drain(..).filter_map(&mut carry) {
            let e = self.envelope(child, id, depth + 1);
            self.faults.defer(e);
        }
    }

    // ------------------------------------------------------ inspection --

    /// Runs every structural invariant check (Definition 1 plus the OC
    /// derivation oracle); panics with a description on violation.
    /// Test-oriented; cost O(N · depth).
    pub fn check_invariants(&mut self) {
        crate::invariants::check_cluster(self);
    }

    /// A deterministic 64-bit digest of the whole distributed structure:
    /// every server's routing node (children links, height, rectangle,
    /// parent, OC table) and data node (rectangle, parent, OC table, and
    /// all stored objects). Two clusters with identical structure hash
    /// identically on every platform — the equality check behind the
    /// chaos suite's bit-reproducibility assertions, cheap enough to
    /// compare runs without serializing them.
    pub fn structure_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.write(self.servers.len() as u64);
        for s in &self.servers {
            h.write(u64::from(s.id.0));
            match &s.routing {
                None => h.write(u64::MAX),
                Some(r) => {
                    h.write(u64::from(r.height));
                    h.rect(&r.dr);
                    h.link(&r.left);
                    h.link(&r.right);
                    h.write(r.parent.map_or(u64::MAX, |p| u64::from(p.0)));
                    h.oc(&r.oc);
                }
            }
            match &s.data {
                None => h.write(u64::MAX),
                Some(d) => {
                    match &d.dr {
                        None => h.write(u64::MAX),
                        Some(dr) => h.rect(dr),
                    }
                    h.write(d.parent.map_or(u64::MAX, |p| u64::from(p.0)));
                    h.oc(&d.oc);
                    // Sort by oid: the digest must not depend on the
                    // local R-tree's internal entry order.
                    let mut objs: Vec<_> = d.tree.iter().map(|e| (e.item, e.rect)).collect();
                    objs.sort_by_key(|(oid, _)| *oid);
                    h.write(objs.len() as u64);
                    for (oid, rect) in objs {
                        h.write(oid.0);
                        h.rect(&rect);
                    }
                }
            }
        }
        h.finish()
    }

    /// Brute-force scan of every stored object — the test oracle.
    pub fn all_objects(&self) -> Vec<crate::node::Object> {
        let mut out = Vec::new();
        for s in &self.servers {
            if let Some(d) = &s.data {
                out.extend(
                    d.tree
                        .iter()
                        .map(|e| crate::node::Object::new(e.item, e.rect)),
                );
            }
        }
        out
    }
}

/// [`sdr_det::Fnv1a`] over the structure's 64-bit words, little-endian —
/// platform-independent, no `DefaultHasher` whose algorithm std does not
/// pin across releases.
struct Fnv(sdr_det::Fnv1a);

impl Fnv {
    fn new() -> Self {
        Fnv(sdr_det::Fnv1a::new())
    }

    fn write(&mut self, v: u64) {
        self.0.write(&v.to_le_bytes());
    }

    fn rect(&mut self, r: &sdr_geom::Rect) {
        self.write(r.xmin.to_bits());
        self.write(r.ymin.to_bits());
        self.write(r.xmax.to_bits());
        self.write(r.ymax.to_bits());
    }

    fn link(&mut self, l: &crate::link::Link) {
        self.write(u64::from(l.node.server.0));
        self.write(match l.node.kind {
            crate::ids::NodeKind::Data => 0,
            crate::ids::NodeKind::Routing => 1,
        });
        self.rect(&l.dr);
        self.write(u64::from(l.height));
    }

    fn oc(&mut self, table: &crate::oc::OcTable) {
        let mut entries: Vec<_> = table.entries().to_vec();
        entries.sort_by_key(|e| e.ancestor.0);
        self.write(entries.len() as u64);
        for e in entries {
            self.write(u64::from(e.ancestor.0));
            self.link(&e.outer);
            self.rect(&e.rect);
        }
    }

    fn finish(&self) -> u64 {
        self.0.finish()
    }
}

fn routing_root_on(s: &Server) -> Option<NodeRef> {
    s.routing
        .as_ref()
        .filter(|r| r.is_root())
        .map(|_| NodeRef::routing(s.id))
}
