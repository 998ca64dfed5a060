//! The servers of a TCP deployment, and the one thread that serves them.
//!
//! Each server has its own OS-assigned port. Every endpoint — a server or
//! a client — gets its frames on one kept link, the writing end of a
//! connection to its listener that every thread of the process shares
//! (DESIGN.md decision 13). One runner thread per deployment owns every
//! [`Server`] with its listener and the connections it accepted. A writer
//! that puts a server-bound frame on a link announces it on one queue;
//! the runner takes the announcements in order, reads each frame the way
//! a client reads its own (`next_frame`), feeds the [`sdr_core::Message`]
//! to the server's state machine and ships the resulting outbox. What a
//! server sends itself (a routing node descending to its co-located data
//! node) is handled in the same turn, off a local queue. A link that
//! fails gets one connect: an endpoint missing from the directory, a
//! refused connect or a failed write is a counted delivery failure at
//! once. Both ends cut frames with one length-delimited decoder, `Frames`.
//!
//! When the state machine allocates a new server (a split), the turn
//! binds and registers the new server's listener before it sends to it,
//! so the `SplitCreate` can never be lost, and the runner adopts the new
//! server before it reads its first frame. This is the node-manager role
//! a production deployment would delegate to its orchestrator. No counted
//! frame waits on a clock: the runner wakes because another thread
//! announced a frame, a waiting client because `Deployment::notify` said
//! so (DESIGN.md 13).

use crate::buf::ReadBuf;
use crate::wire::{decode_message, encode_message};
use sdr_core::ids::ClientId;
use sdr_core::msg::{Endpoint, Message};
use sdr_core::{Allocator, FaultExecutor, Outbox, Released, SdrConfig, Server, ServerId, Verdict};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// What a waiting client blocks on instead of polling; process-local,
/// like `in_flight` and `delivery_failures` (DESIGN.md decision 13).
#[derive(Debug, Default)]
pub(crate) struct Events {
    /// Bumped whenever `in_flight` drains, a delivery failure is recorded
    /// or a client-bound frame has been written.
    pub seq: u64,
    /// Delivery failures booked to no one client: every client's next
    /// check sees them.
    pub lost: u64,
    /// Every connected client's account.
    pub clients: HashMap<ClientId, Account>,
}

/// What the deployment owes one client.
#[derive(Debug, Default)]
pub(crate) struct Account {
    /// Client-bound frames written but not yet read: the client-side twin
    /// of `in_flight`, and once that is zero exactly what the client has
    /// left to read. Raw unsolicited frames drive it negative, so readers
    /// test `> 0`.
    pub owed: i64,
    /// Frames addressed to this client that were lost, or that it read
    /// short: only this client's check sees them.
    pub lost: u64,
}

/// Server-bound frames written on their links and not yet taken by the
/// runner.
#[derive(Debug, Default)]
pub(crate) struct Announced {
    /// The destination of each frame, in the order the frames were
    /// written.
    queue: VecDeque<ServerId>,
    /// Per server, frames announced minus frames taken. A frame taken
    /// before its announcement was queued (an idle sweep can read it
    /// first) drives it to zero or below; raw frames no writer announced
    /// drive it negative.
    unread: HashMap<ServerId, i64>,
    /// Whether the runner waits for an announcement: only then does a
    /// writer signal it.
    waiting: bool,
}

impl Announced {
    fn announce(&mut self, to: ServerId) {
        self.queue.push_back(to);
        *self.unread.entry(to).or_default() += 1;
    }

    /// Books a frame the runner took from `at`'s connections, announced
    /// or not.
    fn taken(&mut self, at: ServerId) {
        *self.unread.entry(at).or_default() -= 1;
    }

    /// Books an announcement for `at` whose read found no frame: it is
    /// queued again while a frame is still owed there (written, but not
    /// readable yet), and dropped once a sweep has taken that frame.
    fn missed(&mut self, at: ServerId) {
        if self.unread.get(&at).is_some_and(|&n| n > 0) {
            self.queue.push_back(at);
        }
    }
}

/// Shared deployment state: the address directory, the server id
/// allocator, the runner's announcements and the accounts clients read.
#[derive(Debug)]
pub(crate) struct Deployment {
    /// Address directory: endpoint → OS-assigned port. Every listener
    /// binds port 0 and registers here *before* anything can address it.
    /// A production deployment would get this from its node manager;
    /// OS-assigned ports make parallel deployments and rapid restarts
    /// collision-free (no fixed ranges, no `TIME_WAIT` interference).
    pub registry: std::sync::RwLock<HashMap<Endpoint, u16>>,
    /// Next server id. The one field with an `Arc` of its own: every
    /// handling step's `Outbox` holds a clone (`Allocator::Shared`).
    pub next_server: Arc<AtomicU32>,
    pub config: SdrConfig,
    pub stop: AtomicBool,
    /// Server-bound messages sent but not yet fully handled. Clients
    /// wait for this to drop to zero between operations
    /// ([`crate::NetClient::quiesce`]), reproducing the simulator's
    /// sequential-operation semantics over real sockets — overlapping
    /// maintenance chains are exactly the concurrency problem the paper
    /// leaves open (§6).
    ///
    /// Every delivery path keeps the pairing exact: the sender
    /// increments when it commits to a server-bound frame, and the
    /// runner decrements once — after handling it, or on *any* failure
    /// to read/decode it (the failure path also bumps
    /// [`Deployment::delivery_failures`], so the loss is observable).
    /// Unsolicited frames (raw connections that never went through
    /// `send_message`) can push the count transiently below zero, which
    /// is why quiescence tests `> 0`, not `!= 0`.
    pub in_flight: std::sync::atomic::AtomicI64,
    /// Monotonic count of messages this deployment failed to deliver:
    /// frames whose one connection could not be opened or written,
    /// frames that arrived truncated/undecodable, and fault-injected
    /// losses. Each is also booked to the client it was addressed to, or
    /// else to every client ([`Events`]); a client's next check reports
    /// what was booked to it as [`crate::client::NetError::Undeliverable`]
    /// instead of a silent drop or a hang-until-timeout.
    pub delivery_failures: AtomicU64,
    /// Deterministic fault injection ([`FaultExecutor::none`] in normal
    /// deployments, which delivers everything once and draws nothing).
    /// One lock, so every verdict draws from a single seeded stream even
    /// with concurrent senders. The executor also holds the delayed and
    /// reordered messages and the deferred lane, which
    /// [`Deployment::release_idle`] empties once nothing is in flight.
    pub faults: Mutex<FaultExecutor<Message>>,
    /// Deployment-wide delivery metrics (`None` unless `SDR_METRICS` is
    /// set at launch): frames written and their bytes. Numeric *values*
    /// depend on thread timing — only the key set is deterministic — so
    /// these are for operator inspection, never for golden comparisons.
    pub metrics: Option<Mutex<sdr_obs::Metrics>>,
    /// The wake-up signal; see [`Events`].
    pub events: Mutex<Events>,
    pub wakeup: Condvar,
    /// What the runner takes next, and the signal it waits on when
    /// nothing is announced.
    pub announced: Mutex<Announced>,
    pub arrival: Condvar,
    /// The runner thread, until `shutdown` joins it.
    pub runner: Mutex<Option<JoinHandle<()>>>,
    /// The kept link to every server and every connected client.
    pub links: Mutex<HashMap<Endpoint, Arc<Link>>>,
}

/// The writing end of the one connection that carries an endpoint's
/// frames: `None` until the first frame, or after a write on it failed.
/// The lock keeps frames whole when several threads write to one
/// endpoint.
#[derive(Debug, Default)]
pub(crate) struct Link(Mutex<Option<TcpStream>>);

/// How long a frame may take to be written on a link: a receiver that
/// stops reading costs one counted failure, not a hung deployment.
const FRAME_TIMEOUT: Duration = Duration::from_secs(5);

/// The runner's first and longest wait for an announcement before it
/// sweeps every server's connections. Every counted frame is announced,
/// so they bound only how late a connection nobody announced (a raw peer)
/// is read: the wait doubles while sweeps find nothing, so an idle
/// deployment costs next to nothing.
const IDLE_FIRST: Duration = Duration::from_millis(1);
const IDLE_LAST: Duration = Duration::from_millis(128);

impl Link {
    /// Writes `frame` on the kept connection. A write that fails closes
    /// it, and one connect to `port` opens the connection that replaces
    /// it; whether either carried the frame.
    fn write(&self, port: u16, frame: &[u8]) -> bool {
        let mut stream = self.0.lock().unwrap_or_else(|e| e.into_inner());
        let kept = stream.take().filter(|mut s| s.write_all(frame).is_ok());
        *stream = kept.or_else(|| {
            let mut s = TcpStream::connect(("127.0.0.1", port)).ok()?;
            s.set_nodelay(true).ok()?;
            s.set_write_timeout(Some(FRAME_TIMEOUT)).ok()?;
            s.write_all(frame).ok()?;
            Some(s)
        });
        stream.is_some()
    }
}

/// What the runner does next.
enum Wake {
    Stop,
    /// Read the frame announced for this server.
    Announced(ServerId),
    /// Nothing was announced for a whole idle wait: sweep.
    Idle,
}

impl Deployment {
    /// Registers an endpoint's port in the directory.
    pub fn register(&self, endpoint: Endpoint, port: u16) {
        self.registry
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(endpoint, port);
    }

    /// Looks up an endpoint's port.
    pub fn lookup(&self, endpoint: Endpoint) -> Option<u16> {
        self.registry
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&endpoint)
            .copied()
    }

    /// Removes an endpoint from the directory (fault-injection hook:
    /// simulates a listener that died mid-run).
    pub fn deregister(&self, endpoint: Endpoint) {
        self.registry
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&endpoint);
    }

    /// Counts one failed delivery, books it to `client` (if it is still
    /// connected), or with `None` to every client, and wakes the clients
    /// waiting on it.
    pub fn record_delivery_failure(&self, client: Option<ClientId>) {
        self.delivery_failures.fetch_add(1, Ordering::SeqCst);
        let mut events = self.events();
        match client {
            Some(client) => {
                if let Some(account) = events.clients.get_mut(&client) {
                    account.lost += 1;
                }
            }
            None => events.lost += 1,
        }
        events.seq += 1;
        drop(events);
        self.wakeup.notify_all();
    }

    /// The delivery failures `client` has to see: those booked to every
    /// client and those booked to it.
    pub fn failures_for(&self, client: ClientId) -> u64 {
        let events = self.events();
        events.lost + events.clients.get(&client).map_or(0, |a| a.lost)
    }

    /// Pairs off one `in_flight` increment, waking `quiesce` when it was
    /// the last. Failures are recorded *before* this: who sees zero sees them.
    pub fn settle_in_flight(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) <= 1 {
            self.notify(None);
        }
    }

    pub fn events(&self) -> MutexGuard<'_, Events> {
        self.events.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn links(&self) -> MutexGuard<'_, HashMap<Endpoint, Arc<Link>>> {
        self.links.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn announced(&self) -> MutexGuard<'_, Announced> {
        self.announced.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Signals an event, booking a frame just written for `owed_to`.
    pub fn notify(&self, owed_to: Option<ClientId>) {
        let mut events = self.events();
        events.seq += 1;
        if let Some(account) = owed_to.and_then(|c| events.clients.get_mut(&c)) {
            account.owed += 1;
        }
        drop(events);
        self.wakeup.notify_all();
    }

    /// Blocks until an event later than `seen` is signalled or `slice`
    /// elapses; returns whether it was the slice that ended the wait.
    pub fn wait(&self, seen: u64, slice: Duration) -> bool {
        let waited = self
            .wakeup
            .wait_timeout_while(self.events(), slice, |e| e.seq == seen);
        waited.unwrap_or_else(|e| e.into_inner()).1.timed_out()
    }

    /// Queues a server-bound frame just written for the runner, waking
    /// it if it waits. The runner's own sends wake nothing.
    fn announce(&self, to: ServerId) {
        let mut announced = self.announced();
        announced.announce(to);
        if std::mem::take(&mut announced.waiting) {
            drop(announced);
            self.arrival.notify_one();
        }
    }

    /// The runner's next step: the stop flag first, then the oldest
    /// announcement, waiting up to `idle` for one.
    fn next_wake(&self, idle: Duration) -> Wake {
        let mut announced = self.announced();
        let mut timed_out = false;
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return Wake::Stop;
            }
            if let Some(to) = announced.queue.pop_front() {
                return Wake::Announced(to);
            }
            if timed_out {
                return Wake::Idle;
            }
            announced.waiting = true;
            let waited = self.arrival.wait_timeout(announced, idle);
            let (guard, result) = waited.unwrap_or_else(|e| e.into_inner());
            announced = guard;
            announced.waiting = false;
            timed_out = result.timed_out();
        }
    }

    /// Stops the runner — the stop flag, then a signal it cannot miss,
    /// since it reads the flag under the same lock it waits on — and
    /// joins it. A second call finds no runner and returns at once.
    pub fn stop_runner(&self) {
        self.stop.store(true, Ordering::SeqCst);
        drop(self.announced());
        self.arrival.notify_all();
        let runner = self.runner.lock().unwrap_or_else(|e| e.into_inner()).take();
        // A runner that panicked took the frame it was handling with it.
        if runner.is_some_and(|r| r.join().is_err()) {
            self.record_delivery_failure(None);
        }
    }

    /// Runs `f` against the metrics registry if one is installed. The
    /// lock is held only for the closure — callers must not nest this
    /// inside other deployment locks.
    pub fn with_metrics<R>(&self, f: impl FnOnce(&mut sdr_obs::Metrics) -> R) -> Option<R> {
        let metrics = self.metrics.as_ref()?;
        Some(f(&mut metrics.lock().unwrap_or_else(|e| e.into_inner())))
    }

    /// The fault executor, locked.
    pub fn faults(&self) -> MutexGuard<'_, FaultExecutor<Message>> {
        self.faults.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sends what the fault executor releases to an idle deployment (see
    /// [`FaultExecutor::release_idle`]): one deferred message, offered to
    /// the executor like any fresh send, or else the held lane. Returns
    /// how many messages left the executor. Waiting clients call this
    /// once nothing is in flight: then no server turn is left to send,
    /// so nothing else would pass the held lane an event, and whatever
    /// the last deferred message caused has settled — the simulator
    /// releases on an empty queue for the same reasons.
    pub fn release_idle(&self) -> usize {
        // Bound first: the guard must be gone before `send_message`
        // takes the lock again.
        let released = self.faults().release_idle();
        match released {
            Released::Deferred(msg) => {
                send_message(self, &msg);
                1
            }
            Released::Held(held) => self.transmit_released(&held),
        }
    }

    /// Transmits held messages the executor released. They are not
    /// offered to it again.
    fn transmit_released(&self, released: &[Message]) -> usize {
        for msg in released {
            transmit(self, msg);
        }
        released.len()
    }
}

/// One server the runner serves: its state machine, its listener, and
/// every connection it accepted with the bytes not yet cut.
pub(crate) struct Node {
    server: Server,
    listener: TcpListener,
    inbound: Vec<(TcpStream, Frames)>,
}

/// Binds a server's listener and registers its OS-assigned port, after
/// its link, so a sender that finds the port finds the link. Whatever is
/// sent to it waits in the listener's backlog until the runner adopts
/// the node.
pub(crate) fn bind_node(deployment: &Deployment, id: ServerId) -> std::io::Result<Node> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    listener.set_nonblocking(true)?;
    let port = listener.local_addr()?.port();
    let server = if id.0 == 0 {
        Server::new(id, deployment.config)
    } else {
        Server::bare(id, deployment.config)
    };
    let me = Endpoint::Server(id);
    deployment.links().insert(me, Arc::default());
    deployment.register(me, port);
    Ok(Node {
        server,
        listener,
        inbound: Vec::new(),
    })
}

/// Starts the deployment's one runner thread, serving `first`.
pub(crate) fn start_runner(deployment: &Arc<Deployment>, first: Node) -> std::io::Result<()> {
    let shared = deployment.clone();
    let runner = std::thread::Builder::new()
        .name("sdr-runner".into())
        .spawn(move || run(&shared, first))?;
    *deployment.runner.lock().unwrap_or_else(|e| e.into_inner()) = Some(runner);
    Ok(())
}

/// Backoff before retrying after a failed `accept`. Transient conditions
/// (`ECONNABORTED` from a handshake the peer gave up on, `EMFILE`/
/// `ENFILE` descriptor pressure, `EINTR`) clear themselves; the only
/// legitimate way for the runner to stop serving is the deployment's
/// stop flag. Exponential up to a bound so a persistent error cannot spin
/// a core, yet recovery is observed within `ACCEPT_BACKOFF_CAP`.
pub(crate) fn accept_backoff(consecutive_errors: u32) -> Duration {
    let ms = 1u64 << consecutive_errors.min(6);
    Duration::from_millis(ms.min(ACCEPT_BACKOFF_CAP.as_millis() as u64))
}

/// The longest the runner ever sleeps between accept retries.
pub(crate) const ACCEPT_BACKOFF_CAP: Duration = Duration::from_millis(50);

/// Serves every server of the deployment until the stop flag: takes the
/// announcements in order and handles the frame each one names, and
/// when nothing was announced for a whole idle wait, sweeps every
/// server's connections for frames nobody announced. One thread, so the
/// turns form one total order. A server a turn allocates is adopted
/// before the next frame is read.
fn run(deployment: &Arc<Deployment>, first: Node) {
    let mut nodes = HashMap::from([(first.server.id, first)]);
    let mut born = Vec::new();
    let (mut idle, mut consecutive_errors) = (IDLE_FIRST, 0u32);
    loop {
        match deployment.next_wake(idle) {
            Wake::Stop => return,
            Wake::Announced(to) => {
                let Some(node) = nodes.get_mut(&to) else {
                    continue;
                };
                match node.serve_next(deployment, &mut born) {
                    Ok(true) => (idle, consecutive_errors) = (IDLE_FIRST, 0),
                    Ok(false) => deployment.announced().missed(to),
                    // Transient accept errors (ECONNABORTED, EMFILE, EINTR,
                    // ...) must not end the runner; retry with bounded
                    // backoff and let only the stop flag end the loop.
                    Err(_) => {
                        deployment.announced().missed(to);
                        consecutive_errors = consecutive_errors.saturating_add(1);
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "backoff after a failed `accept`; a frame already on a connection never waits here"
                        )]
                        std::thread::sleep(accept_backoff(consecutive_errors));
                    }
                }
            }
            Wake::Idle => {
                let mut found = false;
                for node in nodes.values_mut() {
                    while let Ok(true) = node.serve_next(deployment, &mut born) {
                        found = true;
                    }
                }
                idle = if found {
                    IDLE_FIRST
                } else {
                    (idle * 2).min(IDLE_LAST)
                };
            }
        }
        nodes.extend(born.drain(..).map(|node: Node| (node.server.id, node)));
    }
}

impl Node {
    /// Reads the next frame this server's connections hold and acts on
    /// it; whether there was one. A frame that did not decode, or that
    /// the receive-side corrupt draw spoils, is lost: its sender already
    /// counted it in `in_flight`, so the account is settled and the loss
    /// made observable instead of leaking the count and hanging every
    /// later quiesce.
    fn serve_next(
        &mut self,
        deployment: &Arc<Deployment>,
        born: &mut Vec<Node>,
    ) -> std::io::Result<bool> {
        let Some(frame) = next_frame(&self.listener, &mut self.inbound, true)? else {
            return Ok(false);
        };
        deployment.announced().taken(self.server.id);
        match frame {
            Some(msg) if !deployment.faults().corrupt(msg.payload.category()) => {
                handle_message(deployment, &mut self.server, msg, born);
            }
            _ => read_failure(deployment),
        }
        Ok(true)
    }
}

/// Books a server-bound frame that arrived but could not be processed:
/// pairs off the sender's `in_flight` increment and counts the loss.
/// Only `transmit` writes to server links, so every frame there was
/// counted by a sender (unsolicited test frames drive the count
/// transiently negative, which quiescence tolerates by testing `> 0`).
fn read_failure(deployment: &Deployment) {
    deployment.record_delivery_failure(None);
    deployment.settle_in_flight();
}

/// Handles one frame, then every message the server sends itself on the
/// way, each a turn of its own. A self-addressed message meets the fault
/// executor like any send (its verdict, and the receive-side corrupt
/// draw a frame meets on arrival), but a delivered copy is queued here
/// instead of written to the server's own listener. The frame's
/// `in_flight` is settled once, after the queue drains, so no client
/// finds the deployment idle mid-chain.
fn handle_message(
    deployment: &Arc<Deployment>,
    server: &mut Server,
    msg: Message,
    born: &mut Vec<Node>,
) {
    let mut local = VecDeque::new();
    take_turn(deployment, server, msg, &mut local, born);
    while let Some(msg) = local.pop_front() {
        if deployment.faults().corrupt(msg.payload.category()) {
            deployment.record_delivery_failure(None);
        } else {
            take_turn(deployment, server, msg, &mut local, born);
        }
    }
    deployment.settle_in_flight();
}

/// One server turn: handles `msg`, then ships the outbox — queueing what
/// the server sends itself on `local`, and the servers it allocated on
/// `born`.
fn take_turn(
    deployment: &Arc<Deployment>,
    server: &mut Server,
    msg: Message,
    local: &mut VecDeque<Message>,
    born: &mut Vec<Node>,
) {
    let mut out =
        Outbox::with_allocator(server.id, Allocator::Shared(deployment.next_server.clone()));
    server.handle(msg.from, msg.payload, &mut out);
    // A refused message changed nothing: book it like a frame that could
    // not be read (the frame's `in_flight` settle is `handle_message`'s).
    for _ in &out.refused {
        deployment.record_delivery_failure(None);
    }
    // Bind listeners for freshly allocated servers *before* any message
    // can reach them.
    for new_id in &out.allocated {
        match bind_node(deployment, *new_id) {
            Ok(node) => born.push(node),
            Err(e) => eprintln!("sdr-net: failed to bind server {}: {e}", new_id.0),
        }
    }
    let me = Endpoint::Server(server.id);
    for m in out.msgs {
        if m.to == me {
            offer(deployment, &m, |copy| local.push_back(copy.clone()));
        } else {
            send_message(deployment, &m);
        }
    }
    // Deferred messages (orphan reinserts) wait in the executor until
    // nothing is in flight; handing them over before this turn settles
    // `in_flight` means no client finds the deployment idle without them.
    for m in out.deferred {
        deployment.faults().defer(m);
    }
}

/// Dispatches one message to its endpoint's socket (see [`offer`]).
pub(crate) fn send_message(deployment: &Deployment, msg: &Message) {
    offer(deployment, msg, |copy| transmit(deployment, copy));
}

/// Asks the fault executor for `msg`'s verdict and acts on it: `deliver`
/// takes each copy, a held message waits in the executor, a lost one is
/// counted. Every send that is not held passes one event to the
/// executor's held lane, and what that releases is transmitted after
/// this message.
fn offer(deployment: &Deployment, msg: &Message, mut deliver: impl FnMut(&Message)) {
    let mut faults = deployment.faults();
    let copies = match faults.decide(msg.payload.category()) {
        Verdict::Held(_, events) => return faults.hold(msg.clone(), events),
        Verdict::Lost(_) => 0,
        Verdict::Deliver(copies) => copies,
    };
    let released = faults.tick();
    drop(faults);
    // An injected loss is still a loss the deployment must own up to:
    // count it so the client's next check reports Undeliverable instead
    // of the operation silently half-happening.
    if copies == 0 {
        deployment.record_delivery_failure(client_of(msg.to));
    }
    for _ in 0..copies {
        deliver(msg);
    }
    deployment.transmit_released(&released);
}

/// Delivers one message on its endpoint's kept link, then wakes its
/// reader: the client it is for, or the runner with an announcement. A
/// message that cannot be delivered is counted — never silently dropped
/// — so a client reports it as an explicit
/// [`crate::client::NetError::Undeliverable`].
fn transmit(deployment: &Deployment, msg: &Message) {
    let is_server_bound = matches!(msg.to, Endpoint::Server(_));
    if is_server_bound {
        deployment.in_flight.fetch_add(1, Ordering::SeqCst);
    }
    let frame = encode_message(msg);
    deployment.with_metrics(|m| {
        m.inc("frame/write");
        m.add("frame/bytes_out", frame.len() as u64);
    });
    // The directory on every frame: an endpoint that left it (a client
    // that is gone, a server `deregister_server` removed) fails at once,
    // even while its link is open.
    let link = deployment
        .lookup(msg.to)
        .zip(deployment.links().get(&msg.to).cloned());
    if link.is_some_and(|(port, link)| link.write(port, &frame)) {
        match msg.to {
            Endpoint::Client(client) => deployment.notify(Some(client)),
            Endpoint::Server(server) => deployment.announce(server),
        }
        return;
    }
    deployment.record_delivery_failure(client_of(msg.to));
    if is_server_bound {
        // Keep the quiescence accounting truthful.
        deployment.settle_in_flight();
    }
}

/// The client a frame for `to` is booked to if it is lost: none for a
/// server, whose losses every client sees.
fn client_of(to: Endpoint) -> Option<ClientId> {
    match to {
        Endpoint::Client(client) => Some(client),
        Endpoint::Server(_) => None,
    }
}

/// The next frame any inbound connection holds, without blocking:
/// `Some(None)` for one that is lost (it does not decode, its prefix is
/// past the cap, or its connection closed mid-frame), `None` when no
/// whole frame has arrived. Connections are read in the order they were
/// accepted, each in its own byte order. Once they are drained, and only
/// if `accept` — the reader is owed a frame, or has waited a whole slice
/// for frames nobody announced — the listener's backlog is taken and
/// read too: an `accept` that finds nothing costs several times a read
/// that finds nothing. Listener and streams are non-blocking.
pub(crate) fn next_frame(
    listener: &TcpListener,
    inbound: &mut Vec<(TcpStream, Frames)>,
    accept: bool,
) -> std::io::Result<Option<Option<Message>>> {
    loop {
        let mut i = 0;
        while let Some((stream, frames)) = inbound.get_mut(i) {
            match frames.cut() {
                Cut::Frame(msg) => return Ok(Some(msg)),
                Cut::Oversize => {
                    inbound.remove(i);
                    return Ok(Some(None));
                }
                Cut::Partial => {}
            }
            match frames.fill(stream) {
                Ok(n) if n > 0 => continue,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => i += 1,
                // Closed or reset: a frame cut short there is lost.
                _ => {
                    let truncated = !frames.is_empty();
                    inbound.remove(i);
                    if truncated {
                        return Ok(Some(None));
                    }
                }
            }
        }
        // Everything accepted is drained; take the connections waiting in
        // the backlog, and read them if there were any.
        if !accept {
            return Ok(None);
        }
        let before = inbound.len();
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(true)?;
                    inbound.push((stream, Frames::default()));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if inbound.len() == before {
            return Ok(None);
        }
    }
}

/// The message a frame body holds, if it holds exactly one.
fn decode_body(body: &[u8]) -> Option<Message> {
    let mut body = ReadBuf::new(body);
    let msg = decode_message(&mut body).ok()?;
    (body.remaining() == 0).then_some(msg)
}

/// The largest frame body a reader accepts.
const MAX_FRAME: usize = 64 * 1024 * 1024;

/// What [`Frames::cut`] finds at the front of a stream's buffer.
#[derive(Debug)]
#[expect(
    clippy::large_enum_variant,
    reason = "returned and matched at once, never stored"
)]
pub(crate) enum Cut {
    /// A whole frame, taken off the buffer: its message, or `None` if
    /// the body does not hold exactly one.
    Frame(Option<Message>),
    /// No whole frame yet.
    Partial,
    /// A length prefix past [`MAX_FRAME`]: nothing after it can be
    /// trusted to start a frame.
    Oversize,
}

/// One inbound byte stream cut into length-prefixed frames: the bytes
/// received and not yet cut. It grows only with bytes that arrived,
/// never with what a prefix promises (a length prefix is four bytes
/// anyone can send). Nodes and clients read every connection through it.
#[derive(Debug, Default)]
pub(crate) struct Frames {
    buf: Vec<u8>,
}

impl Frames {
    /// Appends what one read of `src` returns; how many bytes that was
    /// (0: the stream ended).
    pub fn fill(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        let mut chunk = [0u8; 16 * 1024];
        let n = src.read(&mut chunk)?;
        self.buf
            .extend_from_slice(chunk.get(..n).unwrap_or_default());
        Ok(n)
    }

    /// Cuts the frame at the front of the buffer, if it is whole.
    pub fn cut(&mut self) -> Cut {
        let Some(prefix) = self.buf.first_chunk::<4>() else {
            return Cut::Partial;
        };
        let len = u32::from_be_bytes(*prefix) as usize;
        if len > MAX_FRAME {
            return Cut::Oversize;
        }
        let Some(body) = self.buf.get(4..4 + len) else {
            return Cut::Partial;
        };
        let msg = decode_body(body);
        self.buf.drain(..4 + len);
        Cut::Frame(msg)
    }

    /// Whether no bytes wait here, not even part of a frame.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_is_bounded_and_monotone() {
        let mut prev = Duration::ZERO;
        for n in 1..=64 {
            let d = accept_backoff(n);
            assert!(d >= prev, "backoff must not shrink");
            assert!(d <= ACCEPT_BACKOFF_CAP, "backoff must stay bounded");
            prev = d;
        }
    }

    #[test]
    fn accept_backoff_starts_small() {
        assert!(accept_backoff(1) <= Duration::from_millis(2));
    }

    /// An idle sweep can read a frame before its writer has queued the
    /// announcement; the announcement then finds nothing to read and must
    /// be dropped, not retried — retrying it spun the runner on a frame
    /// that was gone. A frame announced but not yet readable is retried.
    #[test]
    fn an_announcement_whose_frame_a_sweep_took_is_dropped() {
        let (early, late) = (ServerId(3), ServerId(4));
        let mut announced = Announced::default();
        announced.taken(early);
        announced.announce(early);
        assert_eq!(announced.queue.pop_front(), Some(early));
        announced.missed(early);
        assert!(announced.queue.is_empty(), "a taken frame was retried");

        announced.announce(late);
        assert_eq!(announced.queue.pop_front(), Some(late));
        announced.missed(late);
        assert_eq!(announced.queue.pop_front(), Some(late), "not retried");
        announced.taken(late);
        assert!(announced.queue.is_empty());
        // Both accounts are settled: the next frames are announced anew.
        assert_eq!(announced.unread.values().sum::<i64>(), 0);
    }

    #[test]
    fn a_huge_length_prefix_allocates_only_for_what_arrives() {
        // The reassembly buffer holds the seven bytes that came, and
        // waits for the rest.
        let mut stream = &[&(60u32 << 20).to_be_bytes()[..], &[1, 2, 3]].concat()[..];
        let mut frames = Frames::default();
        while frames.fill(&mut stream).unwrap() > 0 {}
        assert!(matches!(frames.cut(), Cut::Partial));
        assert!(frames.buf.capacity() < 1 << 20, "{}", frames.buf.capacity());
    }

    #[test]
    fn a_stream_is_cut_into_its_frames_in_order() {
        let msg = |oid| Message {
            from: Endpoint::Server(ServerId(1)),
            to: Endpoint::Server(ServerId(2)),
            payload: sdr_core::Payload::ShrinkChild {
                child: sdr_core::Link::to_data(
                    ServerId(oid),
                    sdr_geom::Rect::new(0.0, 0.0, 1.0, 1.0),
                ),
            },
        };
        let mut bytes = [encode_message(&msg(3)), encode_message(&msg(4))].concat();
        bytes.extend_from_slice(&[0, 0, 0, 9, 1]);
        // Fed one byte at a time, as a slow peer would.
        let mut frames = Frames::default();
        let mut got = Vec::new();
        for byte in bytes.chunks(1) {
            frames.fill(&mut &byte[..]).unwrap();
            while let Cut::Frame(m) = frames.cut() {
                got.push(m);
            }
        }
        assert_eq!(got, vec![Some(msg(3)), Some(msg(4))]);
        assert!(matches!(frames.cut(), Cut::Partial));
        assert!(!frames.is_empty(), "the truncated third frame waits");
        frames.buf = (MAX_FRAME as u32 + 1).to_be_bytes().to_vec();
        assert!(matches!(frames.cut(), Cut::Oversize));
    }
}
