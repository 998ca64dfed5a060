//! The client component (§3.1): the application-side entry point that
//! addresses the distributed tree through its image.
//!
//! A [`Client`] runs one of the paper's three addressing variants (§5):
//!
//! * [`Variant::Basic`] — no image anywhere; every request goes to the
//!   server hosting the root node (the unscalable comparison baseline).
//! * [`Variant::ImClient`] — the main scheme: the client maintains an
//!   image corrected by IAMs.
//! * [`Variant::ImServer`] — the client ships each request to a randomly
//!   chosen contact server, which routes it with *its* image ("many
//!   light-memory clients (e.g., PDA) address queries to a cluster").
//!
//! The client is transport-free, like [`crate::server::Server`]: [`address`]
//! builds an operation's first message, a [`Fold`] consumes the replies,
//! and each operation is written once, on [`Over`], against [`Transport`].
//! The simulator ([`Cluster`]) and TCP (`sdr-net`) are the two drivers;
//! `Client::insert(&mut Cluster, ..)` etc. are thin loud-failure wrappers.

use crate::cluster::Cluster;
use crate::ids::{ClientId, NodeRef, Oid, QueryId, ServerId};
use crate::image::Image;
use crate::msg::{
    ClientOp, Endpoint, Found, ImageHolder, Insertion, Message, Payload, QueryKind, QueryMode,
    QueryMsg, ReplyProtocol, Traversal,
};
use crate::node::Object;
use sdr_det::{DetRng, Rng};
use sdr_geom::{Point, Rect};

/// Sender bookkeeping for the direct termination protocol (§4.3).
///
/// The paper's count-based accounting — each report carries its
/// fan-out, stop once `received = 1 + Σ spawned` — assumes lossless
/// delivery: if a report that spawned exactly one child is lost, the
/// deficit on `received` and on `expected` cancel and the client
/// accepts an incomplete answer *silently*. Tracking which servers owe
/// a report closes that hole: every onward hop names its target server,
/// the entry hop's report is explicitly marked, and completeness means
/// every named server reported exactly as often as it was named. Any
/// single loss, duplication, or forgery now leaves the two multisets
/// unequal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DirectAccounting {
    /// `(server, times named, times reported)`, sorted by server: a
    /// traversal names a handful, so one small `Vec` holds both multisets.
    servers: Vec<(ServerId, u32, u32)>,
    initial_reports: u32,
}

impl DirectAccounting {
    /// The entry of `server`, created at zero if it is new.
    #[expect(
        clippy::indexing_slicing,
        reason = "`at` is where `server` was found or has just been inserted"
    )]
    fn tally(&mut self, server: ServerId) -> &mut (ServerId, u32, u32) {
        let at = self.servers.partition_point(|e| e.0 < server);
        if self.servers.get(at).is_none_or(|e| e.0 != server) {
            self.servers.insert(at, (server, 0, 0));
        }
        &mut self.servers[at]
    }

    /// Seeds the entry hop when the client itself addressed it (join
    /// broadcasts start at the root, which the client knows; the entry
    /// report of a query or a delete instead marks itself by carrying
    /// `direct`).
    pub fn expect_entry(&mut self, server: ServerId) {
        self.initial_reports += 1;
        self.tally(server).1 += 1;
    }

    /// Records one report from `sender` naming `spawned` onward servers;
    /// `initial` marks the entry hop's report.
    pub fn report(&mut self, sender: ServerId, spawned: &[ServerId], initial: bool) {
        self.tally(sender).2 += 1;
        if initial {
            self.expect_entry(sender);
        }
        for s in spawned {
            self.tally(*s).1 += 1;
        }
    }

    /// Whether the reports seen so far form one complete traversal.
    pub fn is_complete(&self) -> bool {
        self.initial_reports == 1 && self.servers.iter().all(|&(_, named, seen)| named == seen)
    }
}

/// Why a [`Fold`] that owes a definite answer did not get one. The
/// simulator wrappers panic with it; a deadline-driven transport reports
/// its own error (timeout, undeliverable) before ever reaching it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Incomplete {
    /// Direct protocol: a report was lost, duplicated, or forged.
    Reports(DirectAccounting),
    /// Reverse-path protocol: the aggregate never arrived.
    NoAggregate,
}

impl std::fmt::Display for Incomplete {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Incomplete::Reports(a) => {
                let n = a.initial_reports;
                write!(f, "termination incomplete: {n} entry report(s)")?;
                for (s, named, seen) in a.servers.iter().filter(|e| e.1 != e.2) {
                    write!(f, "; {s} reported {seen}x, named {named}x")?;
                }
                Ok(())
            }
            Incomplete::NoAggregate => write!(f, "reverse-path protocol: no aggregate received"),
        }
    }
}

impl std::error::Error for Incomplete {}

/// The addressing variant a client runs (§5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Everything through the root server; no images.
    Basic,
    /// Image on the client, corrected by IAMs. The paper's main scheme.
    ImClient,
    /// Image on a random contact server per request.
    ImServer,
}

/// Outcome of a single insertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Whether the first contacted server stored the object (no
    /// out-of-range path) — the metric behind the "direct match" rates
    /// of §5.1.
    pub direct: bool,
    /// Server-addressed messages this insertion cost.
    pub messages: u64,
}

/// Outcome of a query.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Matching objects, de-duplicated by oid.
    pub results: Vec<Object>,
    /// Whether the initially addressed data node covered the query
    /// (Figure 13's "correct match").
    pub direct: bool,
    /// Server-addressed messages this query cost.
    pub messages: u64,
}

// ------------------------------------------------------------ addressing --

/// CHOOSEFROMIMAGE addressing (§3.1): the first message of `op` and the
/// image link it was addressed through, if any.
///
/// The only place an `initial` insert / query / delete message is built;
/// clients and IMSERVER contact servers both call it. Inserts and windows
/// use the general [`Image::choose`]; point queries and deletes target
/// leaves directly ("the client searches its image for a data node d
/// whose directory rectangle contains P", §4.1), as does the kNN
/// estimate (a `KnnLocal` to the chosen server). With no image (`None`:
/// BASIC) or an empty one, `fallback` is addressed: the root for BASIC,
/// else the holder's contact data node, which repairs by ascending.
#[inline(always)]
pub fn address(
    image: Option<&Image>,
    fallback: NodeRef,
    op: ClientOp,
    iam_to: ImageHolder,
    results_to: ClientId,
    protocol: ReplyProtocol,
) -> (ServerId, Payload, Option<NodeRef>) {
    let chosen = image
        .and_then(|image| match &op {
            ClientOp::Insert(obj) => image.choose(&obj.mbb),
            ClientOp::Window(w, _) => image.choose(w),
            ClientOp::Point(p, _) | ClientOp::Knn(p, ..) => {
                image.choose_data(&Rect::from_point(*p))
            }
            ClientOp::Delete(obj, _) => image.choose_data(&obj.mbb),
        })
        .map(|link| link.node);
    let target = chosen.unwrap_or(fallback);
    // The entry hop of a query or a delete: checked over the whole
    // rectangle, nothing visited, no links yet.
    let entry = |qid, region| Traversal {
        mode: QueryMode::Check,
        region,
        visited: vec![],
        qid,
        results_to,
        trace: vec![],
        initial: true,
    };
    let query = |query: QueryKind, qid| {
        Payload::Query(QueryMsg {
            target,
            hop: entry(qid, query.rect()),
            query,
            repaired: false,
            iam_carrier: false,
            iam_to,
            protocol,
            reply_via: None,
            parent_branch: 0,
        })
    };
    let payload = match op {
        ClientOp::Insert(obj) => Payload::insert_at(target.kind, Insertion::new(obj, iam_to), true),
        ClientOp::Point(p, qid) => query(QueryKind::Point(p), qid),
        ClientOp::Window(w, qid) => query(QueryKind::Window(w), qid),
        ClientOp::Knn(p, k, qid) => Payload::KnnLocal {
            p,
            k,
            qid,
            results_to,
        },
        ClientOp::Delete(obj, qid) => Payload::Delete {
            target,
            hop: entry(qid, obj.mbb),
            obj,
        },
    };
    (target.server, payload, chosen)
}

// ------------------------------------------------------------ reply fold --

/// What a [`Fold`] waits for before its operation is complete.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Await {
    /// Direct-protocol reports until the sender accounting balances.
    #[default]
    Reports,
    /// As `Reports`, but the client itself names the entry hop: the
    /// server it addresses (join broadcasts start at the root).
    Broadcast,
    /// The single aggregate of the reverse-path protocol.
    Aggregate,
    /// The local kNN estimate — a hint: losing it only costs rounds.
    Estimate,
    /// The acknowledgment of this object's insertion, sent only when it
    /// took an out-of-range path (§3.2), so it may never come.
    Ack(Oid),
    /// Nothing in particular (probabilistic protocol): the result is
    /// whatever arrived by the time the transport settled.
    Quiescence,
}

/// The per-operation reply fold: the termination protocols of §4.3 and
/// the IAM absorption of §3.2, independent of how messages travel.
///
/// A transport [`feed`](Fold::feed)s it every client-bound message it
/// sees. Replies with the operation's query id are merged and accounted,
/// their link traces absorbed into the image; an `InsertAck` is absorbed
/// whichever insert it answers, so a stray ack still corrects the image;
/// replies to older operations (late branches) drop.
#[derive(Debug, Default)]
pub struct Fold<'a> {
    qid: Option<QueryId>,
    wait: Await,
    /// `None` when the variant keeps no client-side image.
    image: Option<&'a mut Image>,
    acct: DirectAccounting,
    pub(crate) results: Vec<Object>,
    pub(crate) pairs: Vec<(Oid, Oid)>,
    pub(crate) removed: bool,
    direct: bool,
    acked: bool,
    aggregated: bool,
    pub(crate) estimate: Option<(crate::knn::Near, Option<Rect>)>,
    /// The image link the operation was addressed through, if any.
    via: Option<NodeRef>,
    /// IAMs absorbed (non-empty traces) and the links they carried.
    iams: u64,
    iam_links: u64,
}

impl Fold<'_> {
    /// Consumes one client-bound message.
    pub fn feed(&mut self, msg: Message) {
        let Endpoint::Server(sender) = msg.from else {
            return;
        };
        let trace = match msg.payload {
            Payload::Report {
                qid,
                found,
                spawned,
                trace,
                direct,
            } if Some(qid) == self.qid => {
                self.acct.report(sender, &spawned, direct.is_some());
                self.direct = direct.unwrap_or(self.direct);
                match found {
                    Found::Objects(results) => self.results.extend(results),
                    Found::Removed(removed) => self.removed |= removed,
                    Found::Pairs(pairs) => self.pairs.extend(pairs),
                }
                trace
            }
            Payload::QueryAggregate {
                qid,
                results,
                trace,
                ..
            } if Some(qid) == self.qid => {
                self.aggregated = true;
                self.results.extend(results);
                trace
            }
            Payload::KnnLocalReply { qid, items, dr } if Some(qid) == self.qid => {
                self.estimate = Some((items, dr));
                return;
            }
            Payload::InsertAck { oid, trace, .. } => {
                self.acked |= self.wait == Await::Ack(oid);
                trace
            }
            _ => return,
        };
        if let (Some(image), false) = (self.image.as_deref_mut(), trace.is_empty()) {
            image.absorb(&trace);
            self.iams += 1;
            self.iam_links += trace.len() as u64;
        }
    }

    /// Whether the awaited replies have all arrived — a deadline-driven
    /// transport stops receiving here.
    pub fn is_complete(&self) -> bool {
        match self.wait {
            Await::Reports | Await::Broadcast => self.acct.is_complete(),
            Await::Aggregate => self.aggregated,
            Await::Estimate => self.estimate.is_some(),
            Await::Ack(_) => self.acked,
            Await::Quiescence => false,
        }
    }

    /// Whether nothing obliges a reply (insert acks, the probabilistic
    /// protocol): completion is then the transport's own quiescence, not
    /// [`Fold::is_complete`].
    pub fn settles(&self) -> bool {
        matches!(self.wait, Await::Ack(_) | Await::Quiescence)
    }

    /// The verdict once the transport has nothing more to deliver: an
    /// owed answer that did not complete is [`Incomplete`], never a
    /// silently partial result.
    pub fn finish(&self) -> Result<(), Incomplete> {
        match self.wait {
            Await::Reports | Await::Broadcast if !self.acct.is_complete() => {
                Err(Incomplete::Reports(self.acct.clone()))
            }
            Await::Aggregate if !self.aggregated => Err(Incomplete::NoAggregate),
            _ => Ok(()),
        }
    }
}

/// De-duplicates by oid, preserving first-seen order. The OC forwarding
/// can reach a data node through two independent branches after splits
/// left stale outer links behind; the client-side merge makes the result
/// a set, as the paper's termination protocols imply.
///
/// Duplicates are the exception, so nothing is inserted per result: one
/// sort of the oids brings equal ones together, and `results` is touched
/// only if two neighbours are equal — then each oid that occurs more
/// than once keeps its first object.
fn dedup_by_oid(results: &mut Vec<Object>) {
    let mut oids: Vec<Oid> = results.iter().map(|o| o.oid).collect();
    oids.sort_unstable();
    let runs = oids.chunk_by(|a, b| a == b).filter(|run| run.len() > 1);
    let mut twice: Vec<_> = runs
        .filter_map(|run| Some((*run.first()?, false)))
        .collect();
    if !twice.is_empty() {
        results.retain(|o| {
            let at = twice.binary_search_by_key(&o.oid, |t| t.0).ok();
            let seen = at.and_then(|at| twice.get_mut(at));
            seen.is_none_or(|t| !std::mem::replace(&mut t.1, true))
        });
    }
}

// ------------------------------------------------------------- transport --

/// What carries a client's messages: the one seam between the protocol
/// above and a substrate below. Statically dispatched — the simulator's
/// insert path is sub-microsecond.
pub trait Transport {
    /// Why an exchange can fail.
    type Error;

    /// The root of the tree, for BASIC addressing and join broadcasts.
    /// Without this or the next hint (TCP) the client uses its contact.
    fn root(&self) -> Option<NodeRef> {
        None
    }

    /// How many servers there are, for the IMSERVER contact draw.
    fn num_servers(&self) -> usize {
        0
    }

    /// Server-addressed messages so far (the paper's cost metric), where
    /// the substrate meters them.
    fn messages(&self) -> u64 {
        0
    }

    /// The substrate's metrics registry, if it has one switched on.
    fn metrics(&mut self) -> Option<&mut sdr_obs::Metrics> {
        None
    }

    /// Sends `msg`, then feeds `fold` the client-bound messages that
    /// arrive until it is complete or the transport gives up.
    fn exchange(&mut self, msg: Message, fold: &mut Fold<'_>) -> Result<(), Self::Error>;
}

/// The simulator as a transport: post, drain to quiescence, fold
/// everything the drain handed back — so losses, duplicates and
/// forgeries all show in the final accounting.
impl Transport for Cluster {
    type Error = Incomplete;

    fn root(&self) -> Option<NodeRef> {
        Some(self.root_node())
    }

    fn num_servers(&self) -> usize {
        Cluster::num_servers(self)
    }

    fn messages(&self) -> u64 {
        self.stats.total()
    }

    fn metrics(&mut self) -> Option<&mut sdr_obs::Metrics> {
        self.obs_mut().metrics_mut()
    }

    #[inline(always)]
    fn exchange(&mut self, msg: Message, fold: &mut Fold<'_>) -> Result<(), Incomplete> {
        self.post(msg);
        for reply in self.drain() {
            fold.feed(reply);
        }
        fold.finish()
    }
}

/// The simulator client's loud failure mode: an incomplete answer panics,
/// and the chaos suite counts the caught panic as a *reported* failure.
#[expect(
    clippy::panic,
    reason = "deliberate: the simulator has no caller to hand a lost reply to, and silence would be a wrong answer"
)]
pub(crate) fn loud<R>(outcome: Result<R, Incomplete>) -> R {
    outcome.unwrap_or_else(|e| panic!("{e}"))
}

// ---------------------------------------------------------------- client --

/// A client component.
#[derive(Debug)]
pub struct Client {
    /// This client's id.
    pub id: ClientId,
    /// The client's image of the distributed tree (used by IMCLIENT).
    pub image: Image,
    /// The addressing variant.
    pub variant: Variant,
    /// Termination protocol for queries (§4.3); the paper's experiments
    /// use the direct protocol. An IMSERVER client's queries always run
    /// under [`ReplyProtocol::Direct`], whatever is set here: its contact
    /// server addresses them, and `Routed` carries no protocol.
    pub protocol: ReplyProtocol,
    /// The initial contact server ("Initially a client C knows only its
    /// contact server", §3.1).
    pub contact: ServerId,
    next_qid: u64,
    rng: Rng,
}

impl Client {
    /// Creates a client. `seed` drives the IMSERVER random contact
    /// choice, keeping runs reproducible.
    pub fn new(id: ClientId, variant: Variant, seed: u64) -> Self {
        Client {
            id,
            image: Image::new(),
            variant,
            protocol: ReplyProtocol::Direct,
            contact: ServerId(0),
            next_qid: 0,
            rng: Rng::seed_from_u64(seed),
        }
    }

    /// Binds the client to a transport for one or more operations.
    pub fn over<'a, T: Transport>(&'a mut self, t: &'a mut T) -> Over<'a, T> {
        Over { c: self, t }
    }

    /// Allocates a fresh query id: the client id in the high 32 bits, a
    /// per-client counter in the low 32 (wrapping — a collision would
    /// need 2³² *concurrently outstanding* operations).
    pub(crate) fn next_query_id(&mut self) -> QueryId {
        self.next_qid = (self.next_qid + 1) & 0xFFFF_FFFF;
        QueryId((u64::from(self.id.0) << 32) | self.next_qid)
    }

    /// Picks a uniformly random contact among `n` servers (the IMSERVER
    /// addressing step); `None` when there are none — drawing from an
    /// empty range would panic inside the RNG, and "no servers known yet"
    /// is a real state for a transport without a global view.
    fn contact_among(&mut self, n: usize) -> Option<ServerId> {
        // Server ids are u32, so n ≤ u32::MAX + 1; the saturation below
        // is unreachable in practice and exists only to avoid a lossy
        // cast on this message path.
        let n = u32::try_from(n).unwrap_or(u32::MAX);
        (n > 0).then(|| ServerId(self.rng.gen_range(0..n)))
    }

    /// Inserts an object, driving the cluster to quiescence.
    pub fn insert(&mut self, cluster: &mut Cluster, obj: Object) -> InsertOutcome {
        loud(self.over(cluster).insert(obj))
    }

    /// Runs a point query: all objects whose mbb contains `p` (§4.1).
    pub fn point_query(&mut self, cluster: &mut Cluster, p: Point) -> QueryOutcome {
        loud(self.over(cluster).query(QueryKind::Point(p)))
    }

    /// Runs a window query: all objects whose mbb intersects `w` (§4.2).
    pub fn window_query(&mut self, cluster: &mut Cluster, w: Rect) -> QueryOutcome {
        loud(self.over(cluster).query(QueryKind::Window(w)))
    }

    /// Deletes an object (oid + exact mbb). Returns whether some server
    /// removed it, plus the message cost.
    pub fn delete(&mut self, cluster: &mut Cluster, obj: Object) -> (bool, u64) {
        loud(self.over(cluster).delete(obj))
    }
}

/// A [`Client`] bound to the [`Transport`] it runs over: the one place
/// each operation is written. Obtained from [`Client::over`].
pub struct Over<'a, T: Transport> {
    pub(crate) c: &'a mut Client,
    pub(crate) t: &'a mut T,
}

impl<T: Transport> Over<'_, T> {
    /// Sends one message and folds its replies: every operation's step.
    #[inline(always)]
    pub(crate) fn exchange(
        &mut self,
        (to, payload, via): (ServerId, Payload, Option<NodeRef>),
        qid: Option<QueryId>,
        wait: Await,
    ) -> Result<Fold<'_>, T::Error> {
        let mut fold = Fold {
            qid,
            wait,
            via,
            image: (self.c.variant == Variant::ImClient).then_some(&mut self.c.image),
            ..Fold::default()
        };
        if wait == Await::Broadcast {
            fold.acct.expect_entry(to);
        }
        let msg = Message {
            from: Endpoint::Client(self.c.id),
            to: Endpoint::Server(to),
            payload,
        };
        let sent = self.t.exchange(msg, &mut fold);
        // IAMs count toward the §5.1 staleness metrics even when the
        // exchange itself failed.
        if let (Some(m), true) = (self.t.metrics(), fold.iams > 0) {
            m.add("client/iam", fold.iams);
            m.add("client/iam_links", fold.iam_links);
        }
        sent?;
        dedup_by_oid(&mut fold.results);
        Ok(fold)
    }

    /// Addresses `op` under the client's variant and exchanges it.
    #[inline(always)]
    pub(crate) fn operate(
        &mut self,
        op: ClientOp,
        qid: Option<QueryId>,
        wait: Await,
    ) -> Result<Fold<'_>, T::Error> {
        let c = &mut *self.c;
        let contact = NodeRef::data(c.contact);
        let first = match c.variant {
            Variant::Basic => {
                // The kNN estimate is a data node's; the root is not one.
                let entry = match op {
                    ClientOp::Knn(..) => contact,
                    _ => self.t.root().unwrap_or(contact),
                };
                address(None, entry, op, ImageHolder::Nobody, c.id, c.protocol)
            }
            Variant::ImClient => {
                let me = ImageHolder::Client(c.id);
                address(Some(&c.image), contact, op, me, c.id, c.protocol)
            }
            Variant::ImServer => {
                // Fallback is unreachable on the simulator (Cluster::new
                // always seeds server 0) but keeps this path panic-free.
                let contact = c.contact_among(self.t.num_servers()).unwrap_or(c.contact);
                let routed = Payload::Routed {
                    op,
                    results_to: c.id,
                };
                (contact, routed, None)
            }
        };
        self.exchange(first, qid, wait)
    }

    /// Closes an operation addressed `via` an image link: evicts a link
    /// that mis-addressed it and counts the outcome as `hit` or `stale`.
    ///
    /// Self-healing image: the link we chose was wrong (stale dr, or a
    /// dissolved node). Evict it — the IAM already delivered fresh links
    /// for the region, and without eviction a stale *small* covering
    /// rectangle would win CHOOSEFROMIMAGE's pass 1 forever, paying the
    /// repair detour on every future operation there.
    fn settle(&mut self, via: Option<NodeRef>, direct: bool, hit: &str, stale: &str) {
        let evicted = via.filter(|_| !direct);
        if let Some(node) = evicted {
            self.c.image.forget(node);
        }
        if let Some(m) = self.t.metrics() {
            if evicted.is_some() {
                m.inc("client/image_evict");
            }
            m.inc(if direct { hit } else { stale });
        }
    }

    /// Inserts an object. Over TCP this returns once the structure has
    /// settled: direct inserts are never acknowledged (§3.2).
    pub fn insert(&mut self, obj: Object) -> Result<InsertOutcome, T::Error> {
        let before = self.t.messages();
        let fold = self.operate(ClientOp::Insert(obj), None, Await::Ack(obj.oid))?;
        // An ack arrives iff the insertion took an out-of-range path.
        let (via, direct) = (fold.via, !fold.acked);
        self.settle(via, direct, "client/insert_direct", "client/insert_stale");
        Ok(InsertOutcome {
            direct,
            messages: self.t.messages() - before,
        })
    }

    /// Runs a point (§4.1) or window (§4.2) query.
    pub fn query(&mut self, query: QueryKind) -> Result<QueryOutcome, T::Error> {
        let before = self.t.messages();
        let qid = self.c.next_query_id();
        let op = match query {
            QueryKind::Point(p) => ClientOp::Point(p, qid),
            QueryKind::Window(w) => ClientOp::Window(w, qid),
        };
        // What to wait for follows the protocol the query runs under.
        let protocol = match self.c.variant {
            Variant::ImServer => ReplyProtocol::Direct,
            _ => self.c.protocol,
        };
        let wait = match protocol {
            ReplyProtocol::Direct => Await::Reports,
            ReplyProtocol::ReversePath => Await::Aggregate,
            ReplyProtocol::Probabilistic => Await::Quiescence,
        };
        let fold = self.operate(op, Some(qid), wait)?;
        // Only the direct protocol reports the direct flag; callers
        // relying on it use that protocol, as the paper's evaluation does.
        let (via, direct) = (fold.via, fold.direct || wait != Await::Reports);
        let results = fold.results;
        self.settle(via, direct, "client/query_direct", "client/query_stale");
        Ok(QueryOutcome {
            results,
            direct,
            messages: self.t.messages() - before,
        })
    }

    /// Deletes an object (oid + exact mbb). Returns whether some server
    /// removed it, plus the message cost.
    pub fn delete(&mut self, obj: Object) -> Result<(bool, u64), T::Error> {
        let before = self.t.messages();
        let qid = self.c.next_query_id();
        let fold = self.operate(ClientOp::Delete(obj, qid), Some(qid), Await::Reports)?;
        Ok((fold.removed, self.t.messages() - before))
    }
}

/// Allocates sequential oids for tests and examples.
#[derive(Clone, Debug, Default)]
pub struct OidGen(u64);

impl OidGen {
    /// A generator starting at 0.
    pub fn new() -> Self {
        OidGen(0)
    }

    /// The next oid.
    pub fn next_oid(&mut self) -> Oid {
        let oid = Oid(self.0);
        self.0 += 1;
        oid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contact_is_in_range_and_seeded_and_none_without_servers() {
        let mut a = Client::new(ClientId(0), Variant::ImServer, 7);
        let mut b = Client::new(ClientId(0), Variant::ImServer, 7);
        assert_eq!(a.contact_among(0), None, "no servers: no draw, no panic");
        for _ in 0..100 {
            let (sa, sb) = (a.contact_among(5), b.contact_among(5));
            assert!(sa.is_some_and(|s| s.0 < 5));
            assert_eq!(sa, sb, "same seed, same contact sequence");
        }
    }

    #[test]
    fn query_id_counter_wraps_without_bleeding_into_the_client_half() {
        let mut c = Client::new(ClientId(7), Variant::ImClient, 0);
        c.next_qid = 0xFFFF_FFFE;
        assert_eq!(c.next_query_id(), QueryId((7 << 32) | 0xFFFF_FFFF));
        assert_eq!(c.next_query_id(), QueryId(7 << 32), "low half wraps");
        assert_eq!(c.next_query_id(), QueryId((7 << 32) | 1));
    }
}
