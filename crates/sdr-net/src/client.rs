//! A TCP client component: the IMCLIENT variant of §3 over sockets.
//!
//! The protocol — CHOOSEFROMIMAGE addressing, IAM absorption, the direct
//! termination protocol of §4.3, kNN — is [`sdr_core::Client`], the same
//! code the simulator runs. This module is only its socket driver: a
//! reply listener, a post to the runner's queue, receive-until-deadline,
//! quiescence, and the mapping of delivery failures to [`NetError`]. A
//! client never touches the fault plan: its messages meet it at their
//! turn in the runner. Every wait is on the deployment's wake-up signal,
//! for a change in what this client is owed, in the failures it sees or,
//! to quiesce, in `in_flight`; the runner raises it. A client
//! sees the losses of frames addressed to it and the losses of frames
//! bound for servers, never another client's.
//!
//! The listener's connections are byte streams of length-prefixed
//! frames, each read until its peer closes it: the deployment's kept
//! link, which carries every frame the servers send this client, and any
//! other connection — one a test or a peer opened for a single frame
//! reads the same way, through the reader the runner uses,
//! `node::next_frame`. Sockets are non-blocking; a frame is handed on
//! once it is whole, and the backlog is taken only when a frame is owed
//! or a wait slice ran out.

use crate::node::{next_frame, Account, Deployment, Frames, Link, State};
use crate::NetCluster;
use sdr_core::ids::ClientId;
use sdr_core::msg::{Message, QueryKind};
use sdr_core::{Client, Fold, Image, Object, Transport, Variant};
use sdr_geom::{Point, Rect};
use std::cell::{Cell, RefCell};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors a network client can hit.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The termination protocol did not complete within the timeout.
    Timeout,
    /// The deployment failed to deliver at least one message during the
    /// operation (undeliverable frame, truncated/undecodable inbound
    /// frame, or injected fault). Unlike [`NetError::Timeout`] this is
    /// reported as soon as the failure is recorded — the operation's
    /// effects may be partial, but never silently so.
    Undeliverable,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Timeout => write!(f, "query did not complete in time"),
            NetError::Undeliverable => {
                write!(f, "the deployment failed to deliver a message")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Counter handing out distinct client ids within the process.
static NEXT_CLIENT: AtomicU32 = AtomicU32::new(0);

/// A TCP client of a [`NetCluster`].
#[derive(Debug)]
pub struct NetClient {
    core: Client,
    wire: Wire,
    /// How long to wait for the reply protocol to complete.
    pub timeout: Duration,
}

/// The client's end of the deployment.
#[derive(Debug)]
struct Wire {
    id: ClientId,
    listener: TcpListener,
    deployment: Arc<Deployment>,
    /// The delivery failures this client sees (`State::failures_for`)
    /// as of the last check, so each client reports an advance exactly
    /// once (in a `Cell`: checks happen inside `&self` receive/quiesce
    /// loops).
    failures_seen: Cell<u64>,
    /// Every connection accepted and not yet closed, with the bytes it
    /// delivered that are not yet a whole frame.
    inbound: RefCell<Vec<(TcpStream, Frames)>>,
}

/// The longest a blocked client goes without re-checking its deadline
/// and its listener's backlog (for frames nobody counted). Senders end
/// the wait early, so no operation's latency includes it.
const WAIT_SLICE: Duration = Duration::from_millis(1);

impl NetClient {
    /// Connects a fresh client (empty image; server 0 as contact).
    pub fn connect(cluster: &NetCluster) -> std::io::Result<NetClient> {
        let id = ClientId(NEXT_CLIENT.fetch_add(1, Ordering::SeqCst));
        let deployment = cluster.deployment.clone();
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        // The link itself opens at the first frame for this client.
        let link = Arc::new(Link::new(listener.local_addr()?.port()));
        let account = Account {
            link,
            owed: 0,
            lost: 0,
        };
        let mut state = deployment.state();
        state.clients.insert(id, account);
        let failures_seen = Cell::new(state.failures_for(id));
        drop(state);
        Ok(NetClient {
            core: Client::new(id, Variant::ImClient, 0),
            wire: Wire {
                id,
                listener,
                deployment,
                failures_seen,
                inbound: Default::default(),
            },
            timeout: Duration::from_secs(10),
        })
    }

    /// The client's image (inspectable for convergence experiments).
    pub fn image(&self) -> &Image {
        &self.core.image
    }

    /// The OS-assigned port of the client's reply listener. Exposed for
    /// fault tests that talk raw TCP to a client.
    pub fn reply_port(&self) -> std::io::Result<u16> {
        Ok(self.wire.listener.local_addr()?.port())
    }

    /// Frames written for this client that it has not read yet: zero
    /// after an insert, which reads its acknowledgment before it returns.
    pub fn owed_frames(&self) -> i64 {
        self.wire.owed()
    }

    /// Inserts an object. Returns once the structure has settled and the
    /// IAM of an out-of-range path, if there was one, is absorbed.
    pub fn insert(&mut self, obj: Object) -> Result<(), NetError> {
        let mut wire = self.wire.session(self.timeout);
        self.core.over(&mut wire).insert(obj).map(|_| ())
    }

    /// Blocks until no server-bound message is in flight anywhere in the
    /// deployment — including deferred messages (an elimination's orphan
    /// reinserts) and messages parked by delay injection, which the fault
    /// executor releases once everything else has settled. Fails fast with
    /// [`NetError::Undeliverable`] if the deployment recorded a delivery
    /// failure, instead of hanging out the full timeout: a lost message
    /// will never arrive, so there is nothing truthful to wait for.
    pub fn quiesce(&self) -> Result<(), NetError> {
        self.wire.session(self.timeout).quiesce()
    }

    /// Runs a point query and returns the matching objects.
    pub fn point_query(&mut self, p: Point) -> Result<Vec<Object>, NetError> {
        self.query(QueryKind::Point(p))
    }

    /// Runs a window query and returns the matching objects.
    pub fn window_query(&mut self, w: Rect) -> Result<Vec<Object>, NetError> {
        self.query(QueryKind::Window(w))
    }

    fn query(&mut self, query: QueryKind) -> Result<Vec<Object>, NetError> {
        let mut wire = self.wire.session(self.timeout);
        Ok(self.core.over(&mut wire).query(query)?.results)
    }

    /// Runs a distributed k-nearest-neighbour query (the §7 extension):
    /// up to `k` `(object, distance)` pairs, nearest first.
    pub fn knn(&mut self, p: Point, k: usize) -> Result<Vec<(Object, f64)>, NetError> {
        let mut wire = self.wire.session(self.timeout);
        Ok(self.core.over(&mut wire).knn(p, k)?.0)
    }

    /// Deletes an object; returns whether some server removed it.
    pub fn delete(&mut self, obj: Object) -> Result<bool, NetError> {
        let mut wire = self.wire.session(self.timeout);
        let (removed, _) = self.core.over(&mut wire).delete(obj)?;
        // Deletion may trigger eliminations and rotations; quiesce.
        wire.quiesce()?;
        Ok(removed)
    }
}

/// One operation's view of the wire: the transport [`sdr_core::Client`]
/// drives (a view, so the client's `core` stays free to drive it).
struct Session<'a> {
    wire: &'a Wire,
    timeout: Duration,
}

impl Wire {
    fn session(&self, timeout: Duration) -> Session<'_> {
        Session {
            wire: self,
            timeout,
        }
    }

    /// Fails fast if `state` holds new delivery failures this client
    /// sees since it last checked: the current operation may have lost a
    /// message, and waiting for a timeout would misattribute the cause.
    fn check_failures(&self, state: &State) -> Result<(), NetError> {
        let now = state.failures_for(self.id);
        if now != self.failures_seen.replace(now) {
            return Err(NetError::Undeliverable);
        }
        Ok(())
    }

    fn owed(&self) -> i64 {
        self.deployment.state().owed(self.id)
    }

    /// Waits for the next reply frame addressed to this client.
    fn recv(&self, deadline: Instant) -> Result<Message, NetError> {
        // Whether the last wait ran out its slice: then the backlog may
        // hold a connection nobody counted a frame on.
        let mut sliced = false;
        loop {
            // Before reading: a frame booked after it ends the wait below.
            let owed = self.owed();
            let accept = sliced || owed > 0;
            match next_frame(&self.listener, &mut self.inbound.borrow_mut(), accept) {
                Ok(Some(Some(msg))) => {
                    if let Some(account) = self.deployment.state().clients.get_mut(&self.id) {
                        account.owed -= 1;
                    }
                    return Ok(msg);
                }
                // A truncated, oversized or undecodable reply is a lost
                // reply, maybe this operation's: count it, and end the
                // operation as `Undeliverable` now (the check always fails
                // here) instead of as `Timeout` ten seconds on.
                Ok(Some(None)) => {
                    self.deployment.record_delivery_failure(Some(self.id));
                    self.check_failures(&self.deployment.state())?;
                }
                Ok(None) => {
                    let state = self.deployment.state();
                    self.check_failures(&state)?;
                    if Instant::now() > deadline {
                        return Err(NetError::Timeout);
                    }
                    let seen = self.failures_seen.get();
                    let idle =
                        |s: &mut State| s.owed(self.id) == owed && s.failures_for(self.id) == seen;
                    sliced = self.deployment.wait_while(state, WAIT_SLICE, idle).1;
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }
}

impl Drop for Wire {
    /// A client that is gone leaves the accounts, and its link with them.
    fn drop(&mut self) {
        self.deployment.state().clients.remove(&self.id);
    }
}

impl Session<'_> {
    fn quiesce(&self) -> Result<(), NetError> {
        self.quiesce_until(Instant::now() + self.timeout)
    }

    /// Waits until nothing is in flight, or this client has a failure to
    /// see. The runner drains its cluster to quiescence before it settles
    /// a post, so zero also means nothing is held or deferred.
    fn quiesce_until(&self, deadline: Instant) -> Result<(), NetError> {
        let wire = self.wire;
        let seen = wire.failures_seen.get();
        let busy = |s: &mut State| s.in_flight > 0 && s.failures_for(wire.id) == seen;
        let left = deadline.saturating_duration_since(Instant::now());
        let (state, _) = wire
            .deployment
            .wait_while(wire.deployment.state(), left, busy);
        wire.check_failures(&state)?;
        if state.in_flight > 0 {
            return Err(NetError::Timeout);
        }
        Ok(())
    }

    /// Feeds `fold` every frame this client is owed. Exact once nothing
    /// is in flight: the runner writes a client-bound frame before it
    /// settles the post that set it off.
    fn read_owed(&self, fold: &mut Fold<'_>, deadline: Instant) -> Result<(), NetError> {
        while self.wire.owed() > 0 {
            fold.feed(self.wire.recv(deadline)?);
        }
        Ok(())
    }

    /// Posts `msg` and feeds `fold` until the operation is done.
    fn run(&self, msg: &Message, fold: &mut Fold<'_>) -> Result<(), NetError> {
        self.wire.deployment.post(msg);
        // Without a fault plan, a fold that balances has all the operation
        // gets. Under one, a duplicate copy can arrive before or after the
        // rest, so the fold takes the whole drain, as the simulator's does.
        if !fold.settles() && !self.wire.deployment.fault_plan {
            // One report per hop, until the fold's sender accounting
            // balances (`sdr_core::client` explains why a bare fan-out
            // count is not loss-safe).
            let deadline = Instant::now() + self.timeout;
            while !fold.is_complete() {
                fold.feed(self.wire.recv(deadline)?);
            }
            return Ok(());
        }
        // Sequential-operation semantics: wait for the structure to
        // quiesce (splits, adjustments, OC maintenance) before the next
        // operation. Overlapping maintenance chains are the concurrency
        // problem the paper leaves open (§6), so the client — like the
        // paper's own evaluation — issues one operation at a time.
        let deadline = Instant::now() + self.timeout;
        self.quiesce_until(deadline)?;
        // What is owed now is every frame the drain wrote for this
        // client — for an insert, every ack there will be, though direct
        // inserts are never acknowledged (§3.2) — and exactly that is read.
        self.read_owed(fold, deadline)?;
        fold.finish().map_err(|_| NetError::Undeliverable)
    }
}

impl Transport for Session<'_> {
    type Error = NetError;

    /// What the runner last published: exact once the deployment is
    /// quiescent, as [`NetCluster::messages`] says.
    fn messages(&self) -> u64 {
        self.wire.deployment.state().published.messages
    }

    fn exchange(&mut self, msg: Message, fold: &mut Fold<'_>) -> Result<(), NetError> {
        let done = self.run(&msg, fold);
        if let Err(NetError::Undeliverable) = done {
            // The simulator's client folds everything its drain hands
            // back, lost messages or not; so does this one before it
            // reports the loss: once the runner has drained the operation
            // — whose further losses are this same report — every frame
            // still owed. One deadline for the whole wait: losses other
            // clients keep causing do not extend it.
            let deadline = Instant::now() + self.timeout;
            let waited = loop {
                match self.quiesce_until(deadline) {
                    Err(NetError::Undeliverable) if Instant::now() <= deadline => {}
                    Err(NetError::Undeliverable) => break Err(NetError::Timeout),
                    waited => break waited,
                }
            };
            waited?;
            self.read_owed(fold, deadline)?;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// A reply that arrives truncated used to be dropped without a trace,
    /// leaving the operation to wait out its whole timeout.
    #[test]
    fn truncated_reply_frame_is_undeliverable_not_timeout() {
        let cluster = NetCluster::launch(sdr_core::SdrConfig::with_capacity(10)).unwrap();
        let client = NetClient::connect(&cluster).unwrap();
        let port = client.reply_port().unwrap();
        let mut raw = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
        raw.write_all(&64u32.to_be_bytes()).unwrap();
        raw.write_all(&[1, 2, 3]).unwrap();
        drop(raw);
        let started = Instant::now();
        let got = client.wire.recv(started + client.timeout);
        assert!(matches!(got, Err(NetError::Undeliverable)), "got {got:?}");
        assert!(started.elapsed() < Duration::from_secs(2));
    }
}
