//! Height adjustment and tree balancing (§2.4).
//!
//! After a split (or an elimination) the heights along the path to the
//! root are adjusted bottom-up. When the first unbalanced node is found,
//! the subtree matches a *rotation pattern* `a(b(e(f,g),d),c)`
//! (Proposition 1), and one of `f`, `g`, `d` is moved to become the
//! sibling of `c` — chosen to minimize the overlap of the reorganized
//! siblings' directory rectangles, with dead space as tie-break.
//!
//! The adjust path is one message: every level of it — a split, a height
//! adjustment, a rotation's link swap, a refresh, an elimination — is a
//! [`Payload::ChildChange`] whose [`ChildWhy`] carries the pattern links
//! its cause knows. The insertion path thus piggybacks the pattern onto
//! the chain of adjustments, so the unbalanced node can drive the
//! rotation without extra round trips ("all the information that
//! constitute a rotation pattern is available from the left and right
//! links on the bottom-up adjust path"). On the deletion path heights
//! *decrease*, the taller side is the one we know nothing about, and the
//! pattern is still gathered with a three-message exchange instead: two
//! `GatherRotation` hops (to `b`, then to `e`) and one `RotationInfo`.
//!
//! The handlers are methods of the routing node `Server::handle`
//! resolved for them. A rotation is chosen from its pattern before
//! anything changes; a pattern whose heights went stale in flight may
//! admit no balanced redistribution, and its message is refused.

use crate::ids::{NodeKind, NodeRef, ServerId};
use crate::link::Link;
use crate::msg::{ChildWhy, Pattern, Payload};
use crate::node::RoutingNode;
use crate::server::{Outbox, Refused};

impl RoutingNode {
    /// A child link changed (split, adjustment, rotation, refresh or
    /// elimination): replace the link, recompute, and either continue the
    /// bottom-up adjustment or rotate.
    pub(crate) fn on_child_change(
        &mut self,
        self_id: ServerId,
        old_child: NodeRef,
        new_link: Link,
        why: ChildWhy,
        out: &mut Outbox,
    ) -> Result<(), Refused> {
        let Some(side) = self.side_of(old_child) else {
            // The child moved away concurrently; in the synchronous
            // simulator this does not happen, but the TCP deployment can
            // deliver a late adjustment. It is safe to drop: the node
            // that moved the child re-sent fresh links.
            return Ok(());
        };
        let other = *self.child(side.other());
        // The pattern links the cause carries: the new child's children,
        // and those of its taller child.
        let (children, tall_grandchildren) = match why {
            ChildWhy::Split { children } => (Some(children), None),
            ChildWhy::Adjust {
                children,
                tall_grandchildren,
            } => (Some(children), tall_grandchildren),
            ChildWhy::Removed | ChildWhy::Refresh | ChildWhy::Replace => (None, None),
        };
        // The changed side grew too tall and the cause brought the whole
        // pattern: choose the rotation before anything changes.
        let rotation = match (children, tall_grandchildren) {
            (Some(b_children), Some(e_children)) if new_link.height > other.height + 1 => {
                let pattern = Pattern {
                    b: new_link,
                    b_children,
                    e_children,
                };
                let choice = pattern.redistribute(other).ok_or(Refused::Unbalanced)?;
                Some((pattern, choice))
            }
            _ => None,
        };
        let child_dr_changed = self.child(side).dr != new_link.dr;
        *self.child_mut(side) = new_link;
        let (dr_changed, h_changed) = self.recompute();

        if dr_changed {
            // Our own coverage entries shrink with us (a no-op when we
            // grew; growth of our entries is our parent's job and flows
            // back through its adjust handling of this change).
            let dr = self.dr;
            self.oc.intersect_all(&dr);
        }
        if child_dr_changed {
            // Deletions shrink the child, rotation repairs may grow it —
            // and the child can change *inside* our unchanged union, so
            // this must key off the child's rectangle, not ours. Tell
            // the sibling subtree its outer rectangle changed, and push
            // the changed child its re-derived table — on growth it
            // gains overlap with every ancestor's outer subtree, which
            // only we can compute (Figure 3.c's argument).
            out.send_server(
                other.node.server,
                Payload::UpdateOc {
                    target: other.node,
                    ancestor: self_id,
                    outer: new_link,
                    rect: new_link.dr,
                },
            );
            let child_table = self.oc.derive_child(self_id, &new_link.dr, &other);
            out.send_server(
                new_link.node.server,
                Payload::RefreshOc {
                    target: new_link.node,
                    table: child_table,
                },
            );
        }

        if let Some((pattern, choice)) = rotation {
            self.rotate(self_id, pattern, other, choice, out);
            return Ok(());
        }
        if new_link.height.abs_diff(other.height) > 1 {
            // Unbalanced without the whole pattern: gather it. When the
            // changed side is the taller one we may know b's children,
            // and ask b's taller child directly; when the *other* side is
            // taller (deletion shrank this one) we know nothing of it,
            // and ask it.
            let (to, b) = if new_link.height > other.height {
                match children {
                    Some(ch) => (taller_first(ch).0.node.server, Some((new_link, ch))),
                    None => (new_link.node.server, None),
                }
            } else {
                (other.node.server, None)
            };
            out.send_server(to, Payload::GatherRotation { origin: self_id, b });
            return Ok(());
        }

        if let Some(parent) = self.parent.filter(|_| dr_changed || h_changed) {
            // The pattern links a potential rotation one level up needs:
            // our children, plus — when our taller child is the one that
            // just changed — its children.
            let why = ChildWhy::Adjust {
                children: (self.left, self.right),
                tall_grandchildren: children.filter(|_| new_link.height >= other.height),
            };
            out.send_server(parent, Payload::from_child(self.link(self_id), why));
        }
        Ok(())
    }

    /// GatherRotation: without `b` the receiver is the pattern's `b` and
    /// forwards the request to its taller child `e` with its own links
    /// attached; with `b` the receiver is `e`, which completes the pattern
    /// and answers the unbalanced node.
    pub(crate) fn on_gather_rotation(
        &self,
        self_id: ServerId,
        origin: ServerId,
        b: Option<(Link, (Link, Link))>,
        out: &mut Outbox,
    ) {
        let own_children = (self.left, self.right);
        let pattern = match b {
            Some((b, b_children)) => Pattern {
                b,
                b_children,
                e_children: own_children,
            },
            None => {
                let b = self.link(self_id);
                let (e, _) = taller_first(own_children);
                if e.node.kind == NodeKind::Routing {
                    let b = Some((b, own_children));
                    out.send_server(e.node.server, Payload::GatherRotation { origin, b });
                    return;
                }
                // b has height 1: both children are data nodes with no
                // grandchildren; the pattern degenerates and the origin
                // can rotate with empty grandchildren information. This
                // only happens when the origin's other side has height
                // ≤ -1, i.e. never; answer anyway for robustness.
                Pattern {
                    b,
                    b_children: own_children,
                    e_children: (e, e),
                }
            }
        };
        out.send_server(origin, Payload::RotationInfo { pattern });
    }

    /// RotationInfo: the gathered pattern arrived; re-check the imbalance
    /// (it may have been resolved meanwhile) and rotate.
    pub(crate) fn on_rotation_info(
        &mut self,
        self_id: ServerId,
        pattern: Pattern,
        out: &mut Outbox,
    ) -> Result<(), Refused> {
        let Some(side) = self.side_of(pattern.b.node) else {
            return Ok(());
        };
        let current_b = *self.child(side);
        let other = *self.child(side.other());
        if current_b != pattern.b {
            // The snapshot went stale while in flight (concurrent
            // maintenance changed b): re-gather from the fresh state if
            // we are still unbalanced.
            if current_b.height.abs_diff(other.height) > 1 {
                let gather = Payload::GatherRotation {
                    origin: self_id,
                    b: None,
                };
                out.send_server(current_b.node.server, gather);
            }
            return Ok(());
        }
        if current_b.height.abs_diff(other.height) > 1 {
            let choice = pattern.redistribute(other).ok_or(Refused::Unbalanced)?;
            self.rotate(self_id, pattern, other, choice, out);
        }
        Ok(())
    }

    /// Performs the rotation of §2.4 at this unbalanced routing node `a`,
    /// hosted on `self_id`, whose other child is `c`: `s` moves up to
    /// become the sibling of `c`, and `s1`, `s2` stay below `e`, as
    /// [`Pattern::redistribute`] chose. Emits the structural messages of
    /// the paper (6 for `move(f)`/`move(g)`, 3 for `move(d)`) plus the
    /// overlapping-coverage refreshes.
    fn rotate(
        &mut self,
        self_id: ServerId,
        pattern: Pattern,
        c: Link,
        (s, (s1, s2)): (Link, (Link, Link)),
        out: &mut Outbox,
    ) {
        let b_server = pattern.b.node.server;
        let (e, d) = taller_first(pattern.b_children);

        // New geometry.
        let e_dr = s1.dr.union(&s2.dr);
        let e_h = s1.height.max(s2.height) + 1;
        let a_dr = s.dr.union(&c.dr);
        let a_h = s.height.max(c.height) + 1;
        let e_link_new = Link::to_routing(e.node.server, e_dr, e_h);
        let a_link_new = Link::to_routing(self_id, a_dr, a_h);
        let b_dr = e_dr.union(&a_dr);
        let b_h = e_h.max(a_h) + 1;
        let b_link_new = Link::to_routing(b_server, b_dr, b_h);

        let old_parent = self.parent;
        let mut b_oc = std::mem::take(&mut self.oc);
        // b takes a's tree position, inheriting its coverage; on the
        // deletion path the reorganized subtree may have shrunk, in
        // which case the inherited entries shrink with it.
        b_oc.intersect_all(&b_dr);
        let b_node = RoutingNode {
            height: b_h,
            dr: b_dr,
            left: e_link_new,
            right: a_link_new,
            parent: old_parent,
            oc: b_oc,
        };
        let e_oc_new = b_node.oc.derive_child(b_server, &e_dr, &a_link_new);
        let e_node = RoutingNode {
            height: e_h,
            dr: e_dr,
            left: s1,
            right: s2,
            parent: Some(b_server),
            oc: e_oc_new.clone(),
        };
        let a_oc_new = b_node.oc.derive_child(b_server, &a_dr, &e_link_new);

        // Self-adjust (the routing node a "which drives the rotation must
        // self-adjust its own representation").
        *self = RoutingNode {
            height: a_h,
            dr: a_dr,
            left: s,
            right: c,
            parent: Some(b_server),
            oc: a_oc_new,
        };

        let move_d = s.node == d.node;

        // 1. The former parent of a now points at b; heights and
        //    rectangles are unchanged so the adjustment path stops there.
        if let Some(p) = old_parent {
            out.send_server(
                p,
                Payload::ChildChange {
                    old_child: NodeRef::routing(self_id),
                    new_child: b_link_new,
                    why: ChildWhy::Replace,
                },
            );
        }
        // 2. b gets its new role.
        out.send_server(b_server, Payload::SetRouting { node: b_node });
        // 3-4. e and its (possibly new) children — structural messages
        //      skipped for move(d), where "the subtree rooted at e
        //      remains the same" and only its coverage needs refreshing.
        if move_d {
            out.send_server(
                e.node.server,
                Payload::RefreshOc {
                    target: e.node,
                    table: e_oc_new,
                },
            );
        } else {
            out.send_server(
                e.node.server,
                Payload::SetRouting {
                    node: e_node.clone(),
                },
            );
            for child in [s1, s2] {
                out.send_server(
                    child.node.server,
                    Payload::SetParent {
                        target: child.node,
                        parent: Some(e.node.server),
                    },
                );
            }
            // Coverage refresh for the pair now under e. The cascade in
            // `on_refresh_oc` re-derives each level, so the whole moved
            // subtree ends up consistent (the paper accepts that "if a
            // balancing occurs at the tree root, the whole tree may be
            // affected"; rotations are rare enough that we refresh
            // unconditionally rather than risk compounding staleness).
            for (child, sibling) in [(s1, s2), (s2, s1)] {
                let new = e_node.oc.derive_child(e.node.server, &child.dr, &sibling);
                out.send_server(
                    child.node.server,
                    Payload::RefreshOc {
                        target: child.node,
                        table: new,
                    },
                );
            }
        }
        // 5. The moved node s joins a.
        out.send_server(
            s.node.server,
            Payload::SetParent {
                target: s.node,
                parent: Some(self_id),
            },
        );
        // Coverage refresh for a's children (s and c).
        for (child, sibling) in [(s, c), (c, s)] {
            let new = self.oc.derive_child(self_id, &child.dr, &sibling);
            out.send_server(
                child.node.server,
                Payload::RefreshOc {
                    target: child.node,
                    table: new,
                },
            );
        }
    }
}

impl Pattern {
    /// Chooses the redistribution at `a`, whose other child is `c`: the
    /// one of `f`, `g`, `d` that becomes the sibling of `c`, and the pair
    /// left as the children of `e`, every reorganized node balanced.
    /// `None` when no choice is balanced, which fresh heights rule out
    /// (paper §3.4).
    fn redistribute(&self, c: Link) -> Option<(Link, (Link, Link))> {
        let (_, d) = taller_first(self.b_children);
        let (f, g) = self.e_children;
        let options: [(Link, (Link, Link)); 3] = [(f, (g, d)), (g, (f, d)), (d, (f, g))];
        let mut best: Option<(f64, f64, Link, (Link, Link))> = None;
        for (s, pair) in options {
            if pair.0.height.abs_diff(pair.1.height) > 1 || s.height.abs_diff(c.height) > 1 {
                continue;
            }
            let e_h = pair.0.height.max(pair.1.height) + 1;
            let a_h = s.height.max(c.height) + 1;
            if e_h.abs_diff(a_h) > 1 {
                continue;
            }
            let e_dr = pair.0.dr.union(&pair.1.dr);
            let a_dr = s.dr.union(&c.dr);
            // Primary criterion: minimal overlap of the reorganized
            // siblings; tie-break: minimal dead space (≍ total area,
            // since the four leaf rectangles are fixed).
            let overlap = e_dr.overlap_area(&a_dr);
            let dead = e_dr.area() + a_dr.area();
            if best
                .as_ref()
                .is_none_or(|(o, dsp, _, _)| overlap < *o || (overlap == *o && dead < *dsp))
            {
                best = Some((overlap, dead, s, pair));
            }
        }
        best.map(|(_, _, s, pair)| (s, pair))
    }
}

/// Two links, the taller first (ties: as given). Of `b`'s children that
/// is `e`, then `d`.
fn taller_first((x, y): (Link, Link)) -> (Link, Link) {
    if x.height >= y.height {
        (x, y)
    } else {
        (y, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SdrConfig;
    use crate::msg::Endpoint;
    use crate::server::Server;
    use sdr_geom::Rect;

    /// Delivers `payload` to `s` through the dispatch; returns what it sent.
    fn deliver(s: &mut Server, payload: Payload) -> Outbox {
        let mut out = Outbox::new(s.id, 100);
        s.handle(Endpoint::Server(ServerId(99)), payload, &mut out);
        out
    }

    fn child_change(old_child: NodeRef, new_child: Link, why: ChildWhy) -> Payload {
        Payload::ChildChange {
            old_child,
            new_child,
            why,
        }
    }

    fn data_link(server: u32, x0: f64, y0: f64, x1: f64, y1: f64) -> Link {
        Link::to_data(ServerId(server), Rect::new(x0, y0, x1, y1))
    }

    /// The unbalanced node `a` on server 10, with the rotation pattern
    /// a(b(e(f,g),d),c): b on server 11, e on server 12; f,g,d,c are
    /// data nodes on servers 1..=4. Rectangles are chosen so that
    /// `move(g)` is the overlap-minimizing choice: f and d are adjacent
    /// near the origin, g and c adjacent far away.
    fn pattern() -> (Server, Link, (Link, Link), (Link, Link), Link) {
        let f = data_link(1, 0.0, 0.0, 1.0, 1.0);
        let g = data_link(2, 10.0, 10.0, 11.0, 11.0);
        let d = data_link(3, 1.0, 0.0, 2.0, 1.0);
        let c = data_link(4, 11.0, 10.0, 12.0, 11.0);
        let e = Link::to_routing(ServerId(12), f.dr.union(&g.dr), 1);
        let b = Link::to_routing(ServerId(11), e.dr.union(&d.dr), 2);

        let mut a = Server::new(ServerId(10), SdrConfig::with_capacity(10));
        a.routing = Some(RoutingNode {
            height: 2, // stale: will be recomputed on child change
            dr: b.dr.union(&c.dr),
            left: Link::to_routing(ServerId(11), b.dr, 1), // stale height
            right: c,
            parent: None,
            oc: crate::oc::OcTable::new(),
        });
        (a, b, (e, d), (f, g), c)
    }

    #[test]
    fn insert_path_rotation_picks_minimal_overlap() {
        let (mut a, b, (e, d), (f, g), c) = pattern();
        // The adjust chain reports b's new height with the pattern links.
        let why = ChildWhy::Adjust {
            children: (e, d),
            tall_grandchildren: Some((f, g)),
        };
        let out = deliver(&mut a, child_change(b.node, b, why));

        // a self-adjusted: its children are now (g, c) — the move(g)
        // choice — under parent b.
        let r = a.routing.as_ref().unwrap();
        assert_eq!(r.parent, Some(ServerId(11)));
        assert_eq!(r.height, 1);
        let kids = [r.left.node, r.right.node];
        assert!(
            kids.contains(&g.node) && kids.contains(&c.node),
            "expected move(g), got {kids:?}"
        );

        // b was set as the new subtree root with children e' and a'.
        let b_set = out.msgs.iter().find_map(|m| match (&m.to, &m.payload) {
            (Endpoint::Server(s), Payload::SetRouting { node }) if *s == ServerId(11) => {
                Some(node.clone())
            }
            _ => None,
        });
        let b_node = b_set.expect("b must receive SetRouting");
        assert!(b_node.is_root());
        assert_eq!(b_node.height, 2);
        assert_eq!(
            b_node.dr,
            f.dr.union(&g.dr).union(&d.dr).union(&c.dr),
            "b covers all four leaves"
        );

        // e was set with children (f, d).
        let e_set = out.msgs.iter().find_map(|m| match (&m.to, &m.payload) {
            (Endpoint::Server(s), Payload::SetRouting { node }) if *s == ServerId(12) => {
                Some(node.clone())
            }
            _ => None,
        });
        let e_node = e_set.expect("e must receive SetRouting");
        let e_kids = [e_node.left.node, e_node.right.node];
        assert!(e_kids.contains(&f.node) && e_kids.contains(&d.node));
        assert_eq!(e_node.dr, f.dr.union(&d.dr));
        // The reorganized siblings do not overlap at all.
        assert_eq!(e_node.dr.overlap_area(&a.routing.as_ref().unwrap().dr), 0.0);

        // The moved node g learns its new parent a; d learns e.
        let parents: Vec<(NodeRef, Option<ServerId>)> = out
            .msgs
            .iter()
            .filter_map(|m| match &m.payload {
                Payload::SetParent { target, parent } => Some((*target, *parent)),
                _ => None,
            })
            .collect();
        assert!(parents.contains(&(g.node, Some(ServerId(10)))));
        assert!(parents.contains(&(d.node, Some(ServerId(12)))));
    }

    #[test]
    fn balanced_change_forwards_adjust_without_rotation() {
        let (mut a, b, (e, d), (f, g), _c) = pattern();
        // Give a a parent and a taller right child so no rotation fires.
        {
            let r = a.routing.as_mut().unwrap();
            r.parent = Some(ServerId(20));
            r.right = Link::to_routing(ServerId(5), r.right.dr, 1);
        }
        let why = ChildWhy::Adjust {
            children: (e, d),
            tall_grandchildren: Some((f, g)),
        };
        let out = deliver(&mut a, child_change(b.node, b, why));
        assert!(
            !out.msgs
                .iter()
                .any(|m| matches!(m.payload, Payload::SetRouting { .. })),
            "no rotation expected"
        );
        let adjust = out
            .msgs
            .iter()
            .find(|m| m.payload.name() == "AdjustHeight")
            .expect("height change must propagate");
        assert_eq!(adjust.to, Endpoint::Server(ServerId(20)));
        let Payload::ChildChange {
            old_child,
            new_child,
            why: ChildWhy::Adjust {
                tall_grandchildren, ..
            },
        } = &adjust.payload
        else {
            panic!("expected an adjust, got {:?}", adjust.payload);
        };
        assert_eq!(*old_child, NodeRef::routing(ServerId(10)));
        assert_eq!(new_child.height, 3);
        // b is the taller child, so its children ride along for a
        // potential rotation one level up.
        assert_eq!(*tall_grandchildren, Some((e, d)));
    }

    #[test]
    fn deletion_side_imbalance_gathers_the_pattern() {
        let (mut a, b, _ed, _fg, c) = pattern();
        {
            let r = a.routing.as_mut().unwrap();
            r.left = b; // fresh link, height 2
            r.recompute();
        }
        // The shallow side shrank: a removal-style change with no
        // pattern links. The taller side must be asked for them.
        let shrunk = data_link(4, 11.0, 10.0, 11.5, 10.5);
        let out = deliver(&mut a, child_change(c.node, shrunk, ChildWhy::Removed));
        let gather = out
            .msgs
            .iter()
            .find(|m| matches!(m.payload, Payload::GatherRotation { .. }))
            .expect("gather must start");
        assert_eq!(gather.to, Endpoint::Server(ServerId(11)));
        assert!(matches!(
            gather.payload,
            Payload::GatherRotation {
                origin: ServerId(10),
                b: None
            }
        ));
    }

    #[test]
    fn stale_rotation_info_regathers() {
        let (mut a, b, (e, d), (f, g), _c) = pattern();
        {
            let r = a.routing.as_mut().unwrap();
            r.left = b;
            r.recompute();
        }
        // RotationInfo whose b snapshot is stale (wrong height).
        let stale_b = Link::to_routing(ServerId(11), b.dr, 5);
        let pattern = Pattern {
            b: stale_b,
            b_children: (e, d),
            e_children: (f, g),
        };
        let out = deliver(&mut a, Payload::RotationInfo { pattern });
        assert!(
            out.msgs
                .iter()
                .any(|m| matches!(m.payload, Payload::GatherRotation { .. })),
            "stale info must trigger a re-gather"
        );
        assert!(
            a.routing.as_ref().unwrap().side_of(b.node).is_some(),
            "no rotation applied"
        );
    }

    #[test]
    fn gather_chain_assembles_pattern() {
        // b's server answers GatherRotation by forwarding to its taller
        // child with its links attached; e answers with the completed
        // pattern.
        let (_a, b, (e, d), (f, g), _c) = pattern();
        let mut b_server = Server::new(ServerId(11), SdrConfig::with_capacity(10));
        b_server.routing = Some(RoutingNode {
            height: 2,
            dr: b.dr,
            left: e,
            right: d,
            parent: Some(ServerId(10)),
            oc: crate::oc::OcTable::new(),
        });
        let gather = Payload::GatherRotation {
            origin: ServerId(10),
            b: None,
        };
        let inner = deliver(&mut b_server, gather)
            .msgs
            .pop()
            .expect("forwarded to e");
        assert_eq!(inner.to, Endpoint::Server(ServerId(12)));
        let Payload::GatherRotation { origin, b } = inner.payload else {
            panic!("expected GatherRotation, got {:?}", inner.payload);
        };
        let b_fresh = b_server.routing.as_ref().unwrap().link(ServerId(11));
        assert_eq!((origin, b), (ServerId(10), Some((b_fresh, (e, d)))));

        let mut e_server = Server::new(ServerId(12), SdrConfig::with_capacity(10));
        e_server.routing = Some(RoutingNode {
            height: 1,
            dr: e.dr,
            left: f,
            right: g,
            parent: Some(ServerId(11)),
            oc: crate::oc::OcTable::new(),
        });
        let gather = Payload::GatherRotation { origin, b };
        let info = deliver(&mut e_server, gather)
            .msgs
            .pop()
            .expect("answered origin");
        assert_eq!(info.to, Endpoint::Server(ServerId(10)));
        assert!(matches!(
            info.payload,
            Payload::RotationInfo { pattern } if pattern.e_children == (f, g)
        ));
    }
}
