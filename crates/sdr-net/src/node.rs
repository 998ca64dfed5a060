//! The servers of a TCP deployment, and the one thread that serves them.
//!
//! A deployment binds one listener, on an OS-assigned port, and every
//! server's directory entry is the one kept link to it; each client has a
//! listener and a kept link of its own. A link is the writing end of a
//! connection that every thread of the process shares (DESIGN.md decision
//! 13). One runner thread per deployment owns a [`Cluster`] — the
//! servers, the simulator's queue, fault executor, `Stats` and trace —
//! with the deployment's listener and the connections it accepted.
//!
//! A client writes its message on the deployment's link and queues a post
//! that says "read the next frame". The runner takes the posts in order,
//! and each is one run of the simulator's own delivery loop: it reads
//! the frame, posts it to its `Cluster`, which routes it by its `to`, and
//! drains it to quiescence with [`Cluster::drain_with`], through the runner's
//! [`Carrier`]. The loop orders every message, draws the fault plan and
//! takes every server turn; the carrier only moves messages. A message
//! one server sends another is encoded and its frame decoded again in
//! memory, since the runner serves both ends; a client-bound one is
//! written on the client's link at its turn. So one client's operations
//! meet the same order, draws, counts and trace on both substrates. A
//! link that fails gets one connect: an endpoint missing from the
//! directory, a refused connect or a failed write is a counted delivery
//! failure at once. The runner and the clients cut the frames of the
//! connections they accept with one length-delimited decoder, `Frames`.
//!
//! A server a split allocates is registered at the first frame carried
//! to it, before anything reads it. This is the
//! node-manager role a production deployment would delegate to its
//! orchestrator. No counted frame waits on a clock: the runner wakes
//! because a client queued a post, a waiting client because
//! `Deployment::notify` said so (DESIGN.md 13).

use crate::buf::ReadBuf;
use crate::wire::{decode_message, encode_message};
use sdr_core::ids::ClientId;
use sdr_core::msg::{Endpoint, Message};
use sdr_core::{Carrier, Cluster, FaultCounts, ServerId};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
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
    /// Client-bound frames written but not yet read: once `in_flight` is
    /// zero, exactly what the client has left to read. Raw unsolicited
    /// frames drive it negative, so readers test `> 0`.
    pub owed: i64,
    /// Frames addressed to this client that were lost, or that it read
    /// short: only this client's check sees them.
    pub lost: u64,
}

/// The runner's queue of client posts, and its account of the frames
/// they announce.
#[derive(Debug, Default)]
pub(crate) struct Queue {
    /// Posts not yet taken: each says "read the next frame".
    posts: u64,
    /// Posts queued minus frames taken. A frame taken before its post was
    /// queued (an idle sweep can read it first) drives it to zero or
    /// below; raw frames nobody posted drive it negative.
    unread: i64,
    /// Whether the runner waits for a post: only then does a client
    /// signal it.
    waiting: bool,
    /// Set once, to stop the runner: under the lock it waits on, so the
    /// signal that follows cannot be missed.
    stop: bool,
}

impl Queue {
    fn push(&mut self) {
        self.unread += 1;
        self.posts += 1;
    }

    /// Books a frame the runner took, posted or not.
    fn taken(&mut self) {
        self.unread -= 1;
    }

    /// Books a post whose read found no frame: while a frame is still
    /// owed (written, but not readable yet), the post is queued again;
    /// once a sweep has taken that frame, it is dropped.
    fn missed(&mut self) {
        self.posts += u64::from(self.unread > 0);
    }
}

/// What the runner publishes for clients after each post.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Published {
    pub servers: usize,
    /// `Stats::total`: server-addressed messages so far.
    pub messages: u64,
    /// The faults the fault plan injected.
    pub faults: FaultCounts,
}

impl Published {
    /// What `cluster` has to publish now.
    pub fn of(cluster: &Cluster) -> Published {
        Published {
            servers: cluster.num_servers(),
            messages: cluster.stats.total(),
            faults: cluster.fault_counts(),
        }
    }
}

/// Shared deployment state: the address directory, the runner's queue,
/// and what the runner publishes for clients.
#[derive(Debug)]
pub(crate) struct Deployment {
    /// Address directory: every endpoint's kept link, which knows the
    /// OS-assigned port of the listener it connects to. Every server's
    /// entry is the one link to the deployment's listener; each client
    /// has its own. Every listener binds port 0 and registers here
    /// *before* anything can address it. A production deployment would
    /// get this from its node manager; OS-assigned ports make parallel
    /// deployments and rapid restarts collision-free (no fixed ranges, no
    /// `TIME_WAIT` interference).
    pub links: Mutex<HashMap<Endpoint, Arc<Link>>>,
    /// Client posts not yet fully handled: each counts from the moment
    /// its client posts it — before its frame is written — until the
    /// runner has drained everything it set off to quiescence, held and
    /// deferred messages included. Clients wait for this to drop to zero
    /// between operations ([`crate::NetClient::quiesce`]), reproducing
    /// the simulator's sequential-operation semantics over real sockets —
    /// overlapping maintenance chains are exactly the concurrency problem
    /// the paper leaves open (§6).
    ///
    /// Every failure is recorded before its post is settled. Raw frames
    /// nobody posted are settled without an increment and push the count
    /// transiently below zero, which is why quiescence tests `> 0`, not
    /// `!= 0`.
    pub in_flight: AtomicI64,
    /// Monotonic count of messages this deployment failed to deliver:
    /// frames whose one connection could not be opened or written,
    /// frames that arrived truncated/undecodable, refused messages and
    /// fault-injected losses. Each is also booked to the client it was
    /// addressed to, or else to every client ([`Events`]); a client's
    /// next check reports what was booked to it as
    /// [`crate::client::NetError::Undeliverable`] instead of a silent
    /// drop or a hang-until-timeout.
    pub delivery_failures: AtomicU64,
    /// Whether a fault plan runs: only then can a duplicate copy follow
    /// a complete answer.
    pub fault_plan: bool,
    /// The server count, message total and fault counts, as the runner
    /// last published them: before it settles each post. Exact once the
    /// deployment is quiescent.
    pub published: Mutex<Published>,
    /// Deployment-wide delivery metrics (`None` unless `SDR_METRICS` is
    /// set at launch): frames encoded — written, or carried in memory —
    /// and their bytes. Numeric *values* depend on thread timing — only
    /// the key set is deterministic — so these are for operator
    /// inspection, never for golden comparisons.
    pub metrics: Option<Mutex<sdr_obs::Metrics>>,
    /// The wake-up signal; see [`Events`].
    pub events: Mutex<Events>,
    pub wakeup: Condvar,
    /// The runner's queue, and the signal it waits on when it is empty.
    pub queue: Mutex<Queue>,
    pub arrival: Condvar,
    /// The runner thread, until `stop_runner` joins it.
    pub runner: Mutex<Option<JoinHandle<Cluster>>>,
}

/// A listener's port, and the writing end of the one connection that
/// carries the frames of every endpoint registered with it: `None` until
/// the first frame, or after a write on it failed. The lock keeps frames
/// whole when several threads write on one link.
#[derive(Debug)]
pub(crate) struct Link {
    port: u16,
    stream: Mutex<Option<TcpStream>>,
}

/// How long a frame may take to be written on a link: a receiver that
/// stops reading costs one counted failure, not a hung deployment.
const FRAME_TIMEOUT: Duration = Duration::from_secs(5);

/// The runner's first and longest wait for a post before it sweeps the
/// listener's connections. Every counted frame is posted, so they bound
/// only how late a connection nobody posted on (a raw peer) is read: the
/// wait doubles while sweeps find nothing, so an idle deployment costs
/// next to nothing.
const IDLE_FIRST: Duration = Duration::from_millis(1);
const IDLE_LAST: Duration = Duration::from_millis(128);

impl Link {
    /// Writes `frame` on the kept connection. A write that fails closes
    /// it, and one connect to the port opens the connection that replaces
    /// it; whether either carried the frame.
    fn write(&self, frame: &[u8]) -> bool {
        let mut stream = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        let kept = stream.take().filter(|mut s| s.write_all(frame).is_ok());
        *stream = kept.or_else(|| {
            let mut s = TcpStream::connect(("127.0.0.1", self.port)).ok()?;
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
    /// Read and serve the next frame.
    Post,
    /// Nothing was posted for a whole idle wait: sweep.
    Idle,
}

impl Deployment {
    /// Registers an endpoint's port in the directory, with a link that
    /// opens at its first frame; returns that link.
    pub fn register(&self, endpoint: Endpoint, port: u16) -> Arc<Link> {
        let stream = Mutex::default();
        let link = Arc::new(Link { port, stream });
        self.links().insert(endpoint, link.clone());
        link
    }

    /// Looks up an endpoint's port.
    pub fn lookup(&self, endpoint: Endpoint) -> Option<u16> {
        self.links().get(&endpoint).map(|link| link.port)
    }

    /// Removes an endpoint and its link from the directory: a client that
    /// left, or a server that died mid-run (a fault-injection hook).
    pub fn deregister(&self, endpoint: Endpoint) {
        self.links().remove(&endpoint);
    }

    /// Counts one failed delivery, books it to `client` (if it is still
    /// connected), or with `None` to every client, and wakes the clients
    /// waiting on it.
    pub fn record_delivery_failure(&self, client: Option<ClientId>) {
        self.delivery_failures.fetch_add(1, Ordering::SeqCst);
        let mut events = self.events();
        match client {
            Some(client) => events.clients.get_mut(&client).map_or((), |a| a.lost += 1),
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

    /// Adds `n` to `in_flight`, waking `quiesce` when a settle (`n < 0`)
    /// drops it to zero. Failures are recorded *before* this: who sees
    /// zero sees them.
    fn add_in_flight(&self, n: i64) {
        if self.in_flight.fetch_add(n, Ordering::SeqCst) + n <= 0 && n < 0 {
            self.notify(None);
        }
    }

    pub fn events(&self) -> MutexGuard<'_, Events> {
        self.events.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn links(&self) -> MutexGuard<'_, HashMap<Endpoint, Arc<Link>>> {
        self.links.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// What the runner last published.
    pub fn published(&self) -> MutexGuard<'_, Published> {
        self.published.lock().unwrap_or_else(|e| e.into_inner())
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

    /// Writes a client's message as one frame on its server's link — the
    /// deployment's — and queues the post for the runner, waking it if it
    /// waits. The message meets the fault plan at its turn, like every
    /// other.
    pub fn post(&self, msg: &Message) {
        if !matches!(msg.to, Endpoint::Server(_)) {
            return;
        }
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        if !self.write(msg) {
            return self.add_in_flight(-1);
        }
        let mut queue = self.queue();
        queue.push();
        if std::mem::take(&mut queue.waiting) {
            drop(queue);
            self.arrival.notify_one();
        }
    }

    /// Encodes `msg` as one frame, and counts it in the metrics.
    fn frame(&self, msg: &Message) -> Vec<u8> {
        let frame = encode_message(msg);
        self.with_metrics(|m| {
            m.inc("frame/write");
            m.add("frame/bytes_out", frame.len() as u64);
        });
        frame
    }

    /// Writes `msg` as one frame on its endpoint's kept link; whether it
    /// went. A frame that cannot be written is counted — never silently
    /// dropped — and booked to the client it was for, or to every client.
    fn write(&self, msg: &Message) -> bool {
        let frame = self.frame(msg);
        // The directory on every frame: an endpoint that left it (a client
        // that is gone) fails at once.
        let link = self.links().get(&msg.to).cloned();
        let written = link.is_some_and(|link| link.write(&frame));
        if !written {
            self.record_delivery_failure(client_of(msg.to));
        }
        written
    }

    /// The runner's next step: the stop flag first, then the oldest
    /// post, waiting up to `idle` for one.
    fn next_wake(&self, idle: Duration) -> Wake {
        let mut queue = self.queue();
        let mut timed_out = false;
        loop {
            if queue.stop {
                return Wake::Stop;
            }
            if queue.posts > 0 {
                queue.posts -= 1;
                return Wake::Post;
            }
            if timed_out {
                return Wake::Idle;
            }
            queue.waiting = true;
            let waited = self.arrival.wait_timeout(queue, idle);
            let (guard, result) = waited.unwrap_or_else(|e| e.into_inner());
            queue = guard;
            queue.waiting = false;
            timed_out = result.timed_out();
        }
    }

    /// Stops the runner — the stop flag, then a signal it cannot miss —
    /// and joins it: the cluster it ran, or its panic. A second call finds
    /// no runner and returns `None` at once.
    pub fn stop_runner(&self) -> Option<std::thread::Result<Cluster>> {
        self.queue().stop = true;
        self.arrival.notify_all();
        let runner = self.runner.lock().unwrap_or_else(|e| e.into_inner()).take();
        runner.map(JoinHandle::join)
    }

    /// Runs `f` against the metrics registry if one is installed. The
    /// lock is held only for the closure — callers must not nest this
    /// inside other deployment locks.
    pub fn with_metrics<R>(&self, f: impl FnOnce(&mut sdr_obs::Metrics) -> R) -> Option<R> {
        let metrics = self.metrics.as_ref()?;
        Some(f(&mut metrics.lock().unwrap_or_else(|e| e.into_inner())))
    }
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
/// posts of its queue in order, each one run of `cluster`'s delivery
/// loop, and when nothing was posted for a whole idle wait, sweeps the
/// listener's connections for frames nobody posted. Server 0 is
/// registered on `link`, the kept link to `listener`. One thread, so the
/// turns form one total order. Returns the cluster.
pub(crate) fn run(
    deployment: &Deployment,
    listener: TcpListener,
    link: Arc<Link>,
    mut cluster: Cluster,
) -> Cluster {
    let mut runner = Runner {
        deployment,
        listener,
        inbound: Vec::new(),
        link,
        servers: 1,
    };
    let (mut idle, mut consecutive_errors) = (IDLE_FIRST, 0u32);
    loop {
        match deployment.next_wake(idle) {
            Wake::Stop => return cluster,
            Wake::Post => match runner.serve_next(&mut cluster) {
                Ok(true) => (idle, consecutive_errors) = (IDLE_FIRST, 0),
                Ok(false) => deployment.queue().missed(),
                // Transient accept errors (ECONNABORTED, EMFILE, EINTR,
                // ...) must not end the runner; retry with bounded
                // backoff and let only the stop flag end the loop.
                Err(_) => {
                    deployment.queue().missed();
                    consecutive_errors = consecutive_errors.saturating_add(1);
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "backoff after a failed `accept`; a frame already on a connection never waits here"
                    )]
                    std::thread::sleep(accept_backoff(consecutive_errors));
                }
            },
            Wake::Idle => {
                idle = (idle * 2).min(IDLE_LAST);
                while let Ok(true) = runner.serve_next(&mut cluster) {
                    idle = IDLE_FIRST;
                }
            }
        }
    }
}

/// The runner's carrier: the deployment's listener with the connections
/// it accepted, and the kept link to it that servers register with.
struct Runner<'a> {
    deployment: &'a Deployment,
    listener: TcpListener,
    inbound: Vec<(TcpStream, Frames)>,
    link: Arc<Link>,
    /// Servers registered so far: the next one a split allocates is
    /// `ServerId(servers)`.
    servers: u32,
}

impl Runner<'_> {
    /// Reads the next frame the listener's connections hold and serves
    /// it: posts it to `cluster`, which routes it by its `to`, drains that
    /// to quiescence through this carrier, books the refusals, publishes
    /// the server count, message total and fault counts and settles the
    /// post. Whether there was a frame. A frame that does not decode is
    /// lost: counted, and settled like any post instead of leaking its
    /// sender's `in_flight`.
    fn serve_next(&mut self, cluster: &mut Cluster) -> std::io::Result<bool> {
        let Some(frame) = next_frame(&self.listener, &mut self.inbound, true)? else {
            return Ok(false);
        };
        self.deployment.queue().taken();
        match frame {
            Some(msg) => {
                let refused = cluster.stats.refused();
                cluster.post(msg);
                cluster.drain_with(self);
                // A refused message changed nothing: book it like a frame
                // that could not be read.
                for _ in refused..cluster.stats.refused() {
                    self.deployment.record_delivery_failure(None);
                }
            }
            None => self.deployment.record_delivery_failure(None),
        }
        *self.deployment.published() = Published::of(cluster);
        self.deployment.add_in_flight(-1);
        Ok(true)
    }
}

impl Carrier for Runner<'_> {
    /// Encodes the message and decodes the frame again: the runner
    /// serves both ends, so the frame never needs a socket, yet the
    /// message crosses the codec as a client's does. The directory on
    /// every frame: a server `deregister_server` removed fails at once. A
    /// server a split allocated is registered at the first frame for it,
    /// its `SplitCreate`.
    fn carry(&mut self, msg: Message) -> Option<Message> {
        if msg.to == Endpoint::Server(ServerId(self.servers)) {
            self.servers += 1;
            self.deployment.links().insert(msg.to, self.link.clone());
        }
        let frame = self.deployment.frame(&msg);
        let known = self.deployment.lookup(msg.to).is_some();
        let carried = known.then(|| decode_body(frame.get(4..)?)).flatten();
        if carried.is_none() {
            self.deployment.record_delivery_failure(None);
        }
        carried
    }

    /// Writes the message on its client's kept link and books it as owed.
    fn deliver(&mut self, msg: Message) {
        if self.deployment.write(&msg) {
            self.deployment.notify(client_of(msg.to));
        }
    }

    fn lost(&mut self, msg: &Message) {
        self.deployment.record_delivery_failure(client_of(msg.to));
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
/// for frames nobody queued — the listener's backlog is taken and
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

    /// An idle sweep can read a frame before its writer has queued its
    /// post; the post then finds nothing to read and must be dropped, not
    /// retried — retrying it spun the runner on a frame that was gone. A
    /// post whose frame is written but not yet readable is retried.
    #[test]
    fn an_announcement_whose_frame_a_sweep_took_is_dropped() {
        let mut queue = Queue::default();
        queue.taken();
        queue.push();
        // The runner takes the post, and its read finds nothing.
        queue.posts -= 1;
        queue.missed();
        assert_eq!(queue.posts, 0, "a taken frame was retried");

        queue.push();
        queue.push();
        queue.posts -= 1;
        queue.missed();
        assert_eq!(queue.posts, 2, "a frame not yet readable was dropped");
        queue.taken();
        queue.taken();
        // The account is settled: the next frames are queued anew.
        assert_eq!(queue.unread, 0);
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
