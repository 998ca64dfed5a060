//! The client protocol core without sockets or fault plans: a scripted
//! transport hands the reply fold exactly the messages each case needs.
//!
//! This is the seam both real transports share, so what is pinned here
//! (sender accounting, qid matching, stray-ack folding, self-healing
//! eviction) holds for the simulator and for TCP alike.

use sdr_core::msg::{Found, Message};
use sdr_core::{
    Client, ClientId, Endpoint, Fold, Incomplete, Link, NodeRef, Object, Oid, Payload, QueryId,
    QueryKind, ServerId, Transport, Variant,
};
use sdr_geom::{Point, Rect};

/// A transport that answers every sent message with whatever `respond`
/// scripts for it, then asks the fold for its verdict — the simulator's
/// contract, minus the simulator.
struct Script<F> {
    respond: F,
    sent: Vec<Message>,
}

impl<F: FnMut(&Message) -> Vec<Message>> Transport for Script<F> {
    type Error = Incomplete;

    fn exchange(&mut self, msg: Message, fold: &mut Fold<'_>) -> Result<(), Incomplete> {
        let replies = (self.respond)(&msg);
        self.sent.push(msg);
        for reply in replies {
            fold.feed(reply);
        }
        fold.finish()
    }
}

fn script<F: FnMut(&Message) -> Vec<Message>>(respond: F) -> Script<F> {
    Script {
        respond,
        sent: Vec::new(),
    }
}

const ME: ClientId = ClientId(4);

fn client() -> Client {
    Client::new(ME, Variant::ImClient, 1)
}

fn from(server: u32, payload: Payload) -> Message {
    Message {
        from: Endpoint::Server(ServerId(server)),
        to: Endpoint::Client(ME),
        payload,
    }
}

/// The operation id carried by an initial message.
fn qid_of(msg: &Message) -> QueryId {
    match &msg.payload {
        Payload::Query(q) => q.hop.qid,
        Payload::Delete { hop, .. } => hop.qid,
        Payload::KnnLocal { qid, .. } | Payload::JoinStart { qid, .. } => *qid,
        other => panic!("no qid in {}", other.name()),
    }
}

const UNIT: Rect = Rect {
    xmin: 0.0,
    ymin: 0.0,
    xmax: 1.0,
    ymax: 1.0,
};

/// The three operations whose hops answer with a report, told apart by
/// what the report found.
#[derive(Clone, Copy, Debug)]
enum Op {
    Query,
    Delete,
    Join,
}

const OPS: [Op; 3] = [Op::Query, Op::Delete, Op::Join];

impl Op {
    /// What a hop of this operation finds where `oids` live: the objects,
    /// a removal if there are any, one pair per oid.
    fn found(self, oids: &[u64]) -> Found {
        match self {
            Op::Query => Found::Objects(oids.iter().map(|o| Object::new(Oid(*o), UNIT)).collect()),
            Op::Delete => Found::Removed(!oids.is_empty()),
            Op::Join => Found::Pairs(oids.iter().map(|o| (Oid(*o), Oid(o + 1))).collect()),
        }
    }

    /// The `direct` of the entry hop's report: set for a query or a
    /// delete; a join's entry is seeded by the client
    /// (`Await::Broadcast`), so none of its reports carries it.
    fn entry(self) -> Option<bool> {
        (!matches!(self, Op::Join)).then_some(true)
    }

    /// Server `server`'s report of `oids`, naming `spawned`.
    fn report(
        self,
        server: u32,
        qid: QueryId,
        oids: &[u64],
        spawned: &[u32],
        direct: Option<bool>,
    ) -> Message {
        let spawned = spawned.iter().map(|s| ServerId(*s)).collect();
        let found = self.found(oids);
        from(
            server,
            Payload::Report {
                qid,
                found,
                spawned,
                trace: vec![],
                direct,
            },
        )
    }

    /// Runs the operation against scripted replies: what it found.
    fn run(self, replies: impl FnMut(&Message) -> Vec<Message>) -> Result<Found, Incomplete> {
        let (mut c, mut t) = (client(), script(replies));
        let mut over = c.over(&mut t);
        Ok(match self {
            Op::Query => Found::Objects(over.query(QueryKind::Point(P))?.results),
            Op::Delete => Found::Removed(over.delete(Object::new(Oid(1), UNIT))?.0),
            Op::Join => Found::Pairs(over.spatial_join()?.pairs),
        })
    }
}

fn ack(server: u32, oid: u64, trace: Vec<Link>) -> Message {
    let oid = Oid(oid);
    from(server, Payload::InsertAck { oid, trace })
}

const P: Point = Point { x: 0.5, y: 0.5 };

fn point(
    client: &mut Client,
    replies: impl FnMut(&Message) -> Vec<Message>,
) -> Result<Vec<u64>, Incomplete> {
    let out = client
        .over(&mut script(replies))
        .query(QueryKind::Point(P))?;
    Ok(out.results.iter().map(|o| o.oid.0).collect())
}

#[test]
fn complete_traversal_merges_and_dedups_results() {
    let got = point(&mut client(), |m| {
        let q = qid_of(m);
        vec![
            Op::Query.report(0, q, &[1, 2], &[1, 2], Some(true)),
            Op::Query.report(1, q, &[2, 3], &[], None),
            Op::Query.report(2, q, &[], &[], None),
        ]
    });
    assert_eq!(got, Ok(vec![1, 2, 3]));
}

#[test]
fn lost_report_is_incomplete() {
    for op in OPS {
        let got = op.run(|m| vec![op.report(0, qid_of(m), &[1], &[1], op.entry())]);
        assert!(
            matches!(got, Err(Incomplete::Reports(_))),
            "{op:?}: got {got:?}"
        );
    }
}

#[test]
fn duplicated_report_is_incomplete() {
    for op in OPS {
        let got = op.run(|m| {
            let dup = op.report(0, qid_of(m), &[1], &[], op.entry());
            vec![dup.clone(), dup]
        });
        assert!(
            matches!(got, Err(Incomplete::Reports(_))),
            "{op:?}: got {got:?}"
        );
    }
}

#[test]
fn forged_report_from_an_unnamed_server_is_incomplete() {
    for op in OPS {
        let got = op.run(|m| {
            let q = qid_of(m);
            vec![
                op.report(0, q, &[1], &[], op.entry()),
                op.report(9, q, &[7], &[], None),
            ]
        });
        assert!(
            matches!(got, Err(Incomplete::Reports(_))),
            "{op:?}: got {got:?}"
        );
    }
}

#[test]
fn reply_with_a_foreign_qid_is_ignored() {
    // A late branch of an older operation: it must neither add to what
    // this one found (nothing: a delete's removal would show) nor
    // disturb its accounting.
    for op in OPS {
        let got = op.run(|m| {
            let q = qid_of(m);
            let stale = QueryId(q.0 + 100);
            vec![
                op.report(3, stale, &[99], &[5], op.entry()),
                op.report(0, q, &[], &[], op.entry()),
            ]
        });
        assert_eq!(got, Ok(op.found(&[])), "{op:?}");
    }
}

#[test]
fn reverse_path_without_an_aggregate_is_incomplete() {
    let mut c = client();
    c.protocol = sdr_core::ReplyProtocol::ReversePath;
    assert_eq!(point(&mut c, |_| vec![]), Err(Incomplete::NoAggregate));
}

/// A stray ack from an earlier insert can arrive during any later
/// operation; its IAM must still reach the image.
#[test]
fn stray_insert_ack_is_absorbed_by_query_delete_and_knn() {
    let far = Rect::new(5.0, 5.0, 6.0, 6.0);
    let stray = |server: u32| ack(7, 1000, vec![Link::to_data(ServerId(server), far)]);
    let obj = Object::new(Oid(1), Rect::new(0.4, 0.4, 0.6, 0.6));
    let mut c = client();

    point(&mut c, |m| {
        vec![
            stray(20),
            Op::Query.report(0, qid_of(m), &[], &[], Some(true)),
        ]
    })
    .unwrap();
    assert_eq!(c.image.len(), 1, "query folded the stray ack");

    let mut t = script(|m: &Message| {
        vec![
            stray(21),
            Op::Delete.report(0, qid_of(m), &[1], &[], Some(true)),
        ]
    });
    assert_eq!(c.over(&mut t).delete(obj).map(|(r, _)| r), Ok(true));
    assert_eq!(c.image.len(), 2, "delete folded the stray ack");

    let mut t = script(|m: &Message| match &m.payload {
        Payload::KnnLocal { qid, .. } => {
            let (qid, items, dr) = (*qid, vec![(obj, 0.0)], Some(obj.mbb));
            vec![
                stray(22),
                from(0, Payload::KnnLocalReply { qid, items, dr }),
            ]
        }
        _ => vec![Op::Query.report(0, qid_of(m), &[1], &[], Some(true))],
    });
    let (near, rounds) = c.over(&mut t).knn(P, 1).unwrap();
    assert_eq!((near.len(), near[0].0.oid, rounds), (1, Oid(1), 1));
    assert_eq!(c.image.len(), 3, "kNN folded the stray ack");
}

/// The self-healing image (DESIGN 4c), pinned at the shared seam so no
/// transport can lose it again: an operation that was mis-addressed
/// evicts the link it chose.
#[test]
fn non_direct_outcome_evicts_the_chosen_link() {
    let stale = NodeRef::data(ServerId(3));
    let covering = Link::to_data(ServerId(3), Rect::new(0.0, 0.0, 1.0, 1.0));
    let fresh = Link::to_data(ServerId(8), Rect::new(0.4, 0.4, 0.6, 0.6));
    let has = |c: &Client, node| c.image.links().any(|l| l.node == node);

    // Query: the entry report says "not a direct hit".
    let mut c = client();
    c.image.absorb_link(covering);
    let mut t = script(|m: &Message| {
        let mut r = Op::Query.report(3, qid_of(m), &[], &[], Some(false));
        if let Payload::Report { trace, .. } = &mut r.payload {
            trace.push(fresh);
        }
        vec![r]
    });
    let out = c.over(&mut t).query(QueryKind::Point(P)).unwrap();
    assert!(!out.direct);
    assert_eq!(
        t.sent[0].to,
        Endpoint::Server(ServerId(3)),
        "addressed via the link"
    );
    assert!(!has(&c, stale), "mis-addressing link must be evicted");
    assert!(has(&c, fresh.node), "the IAM's fresh link stays");

    // Insert: an ack means the insertion took an out-of-range path.
    let mut c = client();
    c.image.absorb_link(covering);
    let obj = Object::new(Oid(5), Rect::new(0.45, 0.45, 0.55, 0.55));
    let out = c
        .over(&mut script(|_: &Message| vec![ack(8, 5, vec![fresh])]))
        .insert(obj);
    assert_eq!(out.map(|o| o.direct), Ok(false));
    assert!(!has(&c, stale) && has(&c, fresh.node));

    // A direct hit keeps its link; an unacknowledged insert is direct.
    let mut c = client();
    c.image.absorb_link(covering);
    let out = c.over(&mut script(|_: &Message| vec![])).insert(obj);
    assert_eq!(out.map(|o| o.direct), Ok(true));
    assert!(has(&c, stale));
}

/// A server id off the wire must never size anything: a trace naming
/// servers beyond `ServerId::MAX` is folded without a panic and without
/// the image taking the links (with slots sized by id, `u32::MAX` would
/// otherwise be a request for hundreds of gigabytes).
#[test]
fn out_of_bound_server_in_a_trace_neither_panics_nor_grows_the_image() {
    let unit = Rect::new(0.0, 0.0, 1.0, 1.0);
    let mut c = client();
    let got = point(&mut c, |m| {
        let mut r = Op::Query.report(0, qid_of(m), &[1], &[], Some(true));
        if let Payload::Report { trace, .. } = &mut r.payload {
            trace.push(Link::to_data(ServerId(u32::MAX), unit));
            trace.push(Link::to_routing(ServerId(ServerId::MAX.0 + 1), unit, 3));
            trace.push(Link::to_data(ServerId(2), unit));
        }
        vec![r]
    });
    assert_eq!(got, Ok(vec![1]));
    let held: Vec<NodeRef> = c.image.links().map(|l| l.node).collect();
    assert_eq!(
        held,
        [NodeRef::data(ServerId(2))],
        "only the admissible link"
    );
    assert_eq!((c.image.len(), c.image.known_servers()), (1, 1));
    // Forgetting, or choosing next to, an inadmissible node is a no-op.
    c.image.forget(NodeRef::routing(ServerId(u32::MAX)));
    assert_eq!(c.image.choose(&unit).map(|l| l.node), held.first().copied());
    // In the sender accounting such an id is one more entry, no more.
    let got = point(&mut c, |m| {
        vec![Op::Query.report(0, qid_of(m), &[1], &[u32::MAX], Some(true))]
    });
    assert!(matches!(got, Err(Incomplete::Reports(_))), "got {got:?}");
}

/// What a failed termination prints: the entry-report count and only the
/// servers that are out of balance — the hop that went missing.
#[test]
fn incomplete_reports_name_only_the_unbalanced_servers() {
    let err = point(&mut client(), |m| {
        let q = qid_of(m);
        vec![
            Op::Query.report(0, q, &[1], &[1, 2, 2], Some(true)),
            Op::Query.report(1, q, &[2], &[], None),
            Op::Query.report(2, q, &[], &[], None),
        ]
    })
    .unwrap_err();
    assert_eq!(
        err.to_string(),
        "termination incomplete: 1 entry report(s); S2 reported 1x, named 2x"
    );
}

// ------------------------------------------------------- model-based --

mod model {
    use super::*;
    use sdr_core::DirectAccounting;
    use sdr_det::prop::{bools, one_of, u32_in, u64s, usize_in, vecs_of, Gen};
    use std::collections::{BTreeMap, BTreeSet};

    /// The inverse of the merge table's multiplier, Knuth's golden-ratio
    /// constant `0x9E37_79B9_7F4A_7C15`: `j · GOLDEN_INVERSE` hashes to
    /// `j`, whose top bits are zero for every table below 2⁵⁴ slots.
    const GOLDEN_INVERSE: u64 = 0xF1DE_83E1_9937_733D;

    /// Reports as `(server, oids)`, in three sizes:
    /// - oids from a small range, so the same server reporting an oid
    ///   twice, two servers holding one oid, empty and single-object
    ///   reports all turn up;
    /// - hundreds of oids per report, so the merge table is large;
    /// - oids that all hash to one slot of the table, so the merge spends
    ///   its probe budget and finishes by sorting.
    fn arb_reports() -> Gen<Vec<(u32, Vec<u64>)>> {
        let small = vecs_of(u64s().map(|o| o % 24), 0..12);
        let large = vecs_of(u64s().map(|o| o % 600), 0..400);
        let colliding = vecs_of(
            u64s().map(|o| (o % 300).wrapping_mul(GOLDEN_INVERSE)),
            0..200,
        );
        one_of(vec![
            vecs_of(u32_in(0..4).zip(small), 0..8),
            vecs_of(u32_in(0..4).zip(large), 0..4),
            vecs_of(u32_in(0..4).zip(colliding), 0..4),
        ])
    }

    /// The termination bookkeeping as it was: two multisets of servers,
    /// complete when they are equal and exactly one report was an entry.
    #[derive(Default)]
    struct TwoMultisets {
        expected: BTreeMap<ServerId, i64>,
        received: BTreeMap<ServerId, i64>,
        entries: u32,
    }

    impl TwoMultisets {
        fn expect_entry(&mut self, server: ServerId) {
            self.entries += 1;
            *self.expected.entry(server).or_insert(0) += 1;
        }

        fn report(&mut self, sender: ServerId, spawned: &[ServerId], initial: bool) {
            *self.received.entry(sender).or_insert(0) += 1;
            if initial {
                self.expect_entry(sender);
            }
            for s in spawned {
                *self.expected.entry(*s).or_insert(0) += 1;
            }
        }

        fn is_complete(&self) -> bool {
            self.entries == 1 && self.received == self.expected
        }
    }

    /// One report: sender, the servers it names, whether it is an entry.
    type Hop = (ServerId, Vec<ServerId>, bool);

    /// Whether `hops`, fed in this order, complete — asserting after every
    /// one that the accounting and the model agree.
    fn completes(hops: &[Hop]) -> bool {
        let (mut acct, mut model) = (DirectAccounting::default(), TwoMultisets::default());
        for (sender, spawned, initial) in hops {
            acct.report(*sender, spawned, *initial);
            model.report(*sender, spawned, *initial);
            assert_eq!(acct.is_complete(), model.is_complete(), "after {hops:?}");
        }
        acct.is_complete()
    }

    /// A traversal of `parents.len() + 1` hops on distinct servers: hop 0
    /// is the entry, hop `i + 1` was spawned by hop `parents[i] % (i + 1)`.
    fn traversal(parents: &[usize]) -> Vec<Hop> {
        let mut hops: Vec<Hop> = (0..=parents.len())
            .map(|i| (ServerId(i as u32), vec![], i == 0))
            .collect();
        for (i, p) in parents.iter().enumerate() {
            hops[p % (i + 1)].1.push(ServerId(i as u32 + 1));
        }
        hops
    }

    sdr_det::prop! {
        /// The merge keeps exactly what the ordered-set insert per result
        /// kept: every oid once, its first object, in first-seen order,
        /// whether the oid table finishes it or the sort does. Run under
        /// the probabilistic protocol, which accepts any set of reports.
        fn merge_matches_first_seen_set_semantics(reports in arb_reports()) {
            let mut c = client();
            c.protocol = sdr_core::ReplyProtocol::Probabilistic;
            let mut sent = Vec::new();
            let mut t = script(|m: &Message| {
                let mut n = 0.0;
                let replies = reports.iter().map(|(server, oids)| {
                    let mut r = Op::Query.report(*server, qid_of(m), oids, &[], None);
                    if let Payload::Report { found: Found::Objects(results), .. } = &mut r.payload {
                        // Tell the occurrences of one oid apart.
                        for o in results.iter_mut() {
                            n += 1.0;
                            o.mbb = Rect::new(n, 0.0, n + 1.0, 1.0);
                        }
                        sent.extend(results.iter().copied());
                    }
                    r
                });
                replies.collect()
            });
            let got = c.over(&mut t).query(QueryKind::Point(P)).unwrap().results;
            let mut seen = BTreeSet::new();
            sent.retain(|o| seen.insert(o.oid));
            assert_eq!(got, sent);
        }

        /// The one-`Vec` accounting against the two-multiset model under
        /// arbitrary report sequences: servers named and reporting many
        /// times, several or no entry reports, client-seeded entries.
        fn accounting_matches_the_two_multiset_model(
            seeded in vecs_of(u32_in(0..5), 0..2),
            hops in vecs_of(
                u32_in(0..5).zip(vecs_of(u32_in(0..5), 0..4)).zip(usize_in(0..6)),
                0..12,
            ),
        ) {
            let (mut acct, mut model) = (DirectAccounting::default(), TwoMultisets::default());
            for s in seeded {
                acct.expect_entry(ServerId(s));
                model.expect_entry(ServerId(s));
            }
            for ((sender, spawned), initial) in hops {
                let spawned: Vec<ServerId> = spawned.into_iter().map(ServerId).collect();
                acct.report(ServerId(sender), &spawned, initial == 0);
                model.report(ServerId(sender), &spawned, initial == 0);
                assert_eq!(acct.is_complete(), model.is_complete());
            }
        }

        /// A whole traversal completes in whatever order its reports land;
        /// with one report lost, one duplicated, or one forged (from a
        /// named or an unnamed server) it stays incomplete.
        fn any_single_loss_duplicate_or_forgery_stays_incomplete(
            parents in vecs_of(usize_in(0..64), 0..10),
            rotate in usize_in(0..64),
            victim in usize_in(0..64),
            named in bools(),
        ) {
            let mut hops = traversal(&parents);
            let n = hops.len();
            hops.rotate_left(rotate % n);
            assert!(completes(&hops));
            let mut lost = hops.clone();
            lost.remove(victim % n);
            assert!(!completes(&lost), "lost {victim}: {hops:?}");
            let mut dup = hops.clone();
            dup.push(hops[victim % n].clone());
            assert!(!completes(&dup), "duplicated {victim}: {hops:?}");
            let forger = if named { victim % n } else { n + victim };
            hops.push((ServerId(forger as u32), vec![], false));
            assert!(!completes(&hops), "forged by S{forger}: {hops:?}");
        }
    }
}
