//! Height adjustment and tree balancing (§2.4).
//!
//! After a split (or an elimination) the heights along the path to the
//! root are adjusted bottom-up. When the first unbalanced node is found,
//! the subtree matches a *rotation pattern* `a(b(e(f,g),d),c)`
//! (Proposition 1), and one of `f`, `g`, `d` is moved to become the
//! sibling of `c` — chosen to minimize the overlap of the reorganized
//! siblings' directory rectangles, with dead space as tie-break.
//!
//! The insertion path piggybacks the pattern's links onto the chain of
//! adjustment messages, so the unbalanced node can drive the rotation
//! without extra round trips ("all the information that constitute a
//! rotation pattern is available from the left and right links on the
//! bottom-up adjust path"). On the deletion path heights *decrease*, the
//! taller side is the one we know nothing about, and the pattern is
//! gathered with a three-message exchange instead.

use crate::ids::{NodeKind, NodeRef, ServerId};
use crate::link::Link;
use crate::msg::{Pattern, Payload};
use crate::node::{RoutingNode, Side};

use crate::server::{Outbox, Server};

impl Server {
    /// A child link changed (split, adjustment, or elimination):
    /// replace the link, recompute, and either continue the bottom-up
    /// adjustment or rotate.
    pub(crate) fn on_child_change(
        &mut self,
        old_child: NodeRef,
        new_link: Link,
        children: Option<(Link, Link)>,
        tall_grandchildren: Option<(Link, Link)>,
        out: &mut Outbox,
    ) {
        let self_id = self.id;
        let Some(r) = self.routing.as_mut() else {
            return;
        };
        let Some(side) = r.side_of(old_child) else {
            // The child moved away concurrently; in the synchronous
            // simulator this does not happen, but the TCP deployment can
            // deliver a late adjustment. It is safe to drop: the node
            // that moved the child re-sent fresh links.
            return;
        };
        let child_dr_changed = r.child(side).dr != new_link.dr;
        *r.child_mut(side) = new_link;
        let (dr_changed, h_changed) = r.recompute();
        let other = *r.child(side.other());

        if dr_changed {
            // Our own coverage entries shrink with us (a no-op when we
            // grew; growth of our entries is our parent's job and flows
            // back through its AdjustHeight handling of this change).
            let dr = r.dr;
            r.oc.intersect_all(&dr);
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
            let child_table = r.oc.derive_child(self_id, &new_link.dr, &other);
            out.send_server(
                new_link.node.server,
                Payload::RefreshOc {
                    target: new_link.node,
                    table: child_table,
                },
            );
        }

        if new_link.height.abs_diff(other.height) > 1 {
            // Unbalanced: rotate. The taller side determines whether we
            // already hold the pattern links.
            if new_link.height > other.height {
                if let (Some(b_children), Some(e_children)) = (children, tall_grandchildren) {
                    let pattern = Pattern {
                        b: new_link,
                        b_children,
                        e_children,
                    };
                    r.rotate(self_id, side, pattern, out);
                    return;
                }
                if let Some(ch) = children {
                    // We know b's children but not the grandchildren: ask
                    // b's taller child directly.
                    let e = taller_of(ch);
                    out.send_server(
                        e.node.server,
                        Payload::GatherRotationInner {
                            origin: self_id,
                            b_link: new_link,
                            b_children: ch,
                        },
                    );
                    return;
                }
                out.send_server(
                    new_link.node.server,
                    Payload::GatherRotation { origin: self_id },
                );
                return;
            }
            // The *other* side is taller (deletion shrank this one):
            // gather the pattern from it.
            out.send_server(
                other.node.server,
                Payload::GatherRotation { origin: self_id },
            );
            return;
        }

        if let Some(parent) = r.parent.filter(|_| dr_changed || h_changed) {
            // The pattern links a potential rotation one level up needs:
            // our children, plus — when our taller child is the one that
            // just changed — its children.
            let tall_gc = if new_link.height >= other.height {
                children
            } else {
                None
            };
            let me = r.link(self_id);
            let my_children = (r.left, r.right);
            out.send_server(
                parent,
                Payload::AdjustHeight {
                    child: me,
                    children: my_children,
                    tall_grandchildren: tall_gc,
                },
            );
        }
    }

    /// GatherRotation: the receiver is `b` of a rotation pattern; forward
    /// the request to its taller child with our links attached.
    pub(crate) fn on_gather_rotation(&mut self, origin: ServerId, out: &mut Outbox) {
        let Some(r) = self.routing.as_ref() else {
            return;
        };
        let b_link = r.link(self.id);
        let b_children = (r.left, r.right);
        let e = taller_of(b_children);
        if e.node.kind == NodeKind::Data {
            // b has height 1: both children are data nodes with no
            // grandchildren; the pattern degenerates and the origin can
            // rotate with empty grandchildren information. This only
            // happens when the origin's other side has height ≤ -1,
            // i.e. never; answer anyway for robustness.
            let pattern = Pattern {
                b: b_link,
                b_children,
                e_children: (e, e),
            };
            out.send_server(origin, Payload::RotationInfo { pattern });
            return;
        }
        out.send_server(
            e.node.server,
            Payload::GatherRotationInner {
                origin,
                b_link,
                b_children,
            },
        );
    }

    /// GatherRotationInner: the receiver is `e`; complete the pattern and
    /// answer the unbalanced node.
    pub(crate) fn on_gather_rotation_inner(
        &mut self,
        origin: ServerId,
        b_link: Link,
        b_children: (Link, Link),
        out: &mut Outbox,
    ) {
        let Some(r) = self.routing.as_ref() else {
            return;
        };
        let pattern = Pattern {
            b: b_link,
            b_children,
            e_children: (r.left, r.right),
        };
        out.send_server(origin, Payload::RotationInfo { pattern });
    }

    /// RotationInfo: the gathered pattern arrived; re-check the imbalance
    /// (it may have been resolved meanwhile) and rotate.
    pub(crate) fn on_rotation_info(&mut self, pattern: Pattern, out: &mut Outbox) {
        let self_id = self.id;
        let Some(r) = self.routing.as_mut() else {
            return;
        };
        let Some(side) = r.side_of(pattern.b.node) else {
            return;
        };
        let current_b = *r.child(side);
        let other = *r.child(side.other());
        if current_b != pattern.b {
            // The snapshot went stale while in flight (concurrent
            // maintenance changed b): re-gather from the fresh state if
            // we are still unbalanced.
            if current_b.height.abs_diff(other.height) > 1 {
                out.send_server(
                    current_b.node.server,
                    Payload::GatherRotation { origin: self_id },
                );
            }
            return;
        }
        if current_b.height.abs_diff(other.height) <= 1 {
            return; // resolved meanwhile
        }
        r.rotate(self_id, side, pattern, out);
    }

    /// SetRouting: overwrite the routing node (rotation target).
    pub(crate) fn on_set_routing(&mut self, node: RoutingNode) {
        self.routing = Some(node);
    }

    /// SetParent: update one node's parent pointer, then report the
    /// node's current state back so the new parent heals any staleness
    /// in the rotation driver's snapshot.
    pub(crate) fn on_set_parent(&mut self, target: NodeRef, parent: ServerId, out: &mut Outbox) {
        let fresh = match target.kind {
            NodeKind::Data => self.data.as_mut().map(|d| {
                d.parent = Some(parent);
                d.link(self.id)
            }),
            NodeKind::Routing => self.routing.as_mut().map(|r| {
                r.parent = Some(parent);
                r.link(self.id)
            }),
        };
        if let Some(link) = fresh {
            out.send_server(parent, Payload::RefreshChild { child: link });
        }
    }
}

impl RoutingNode {
    /// Performs the rotation of §2.4 at this unbalanced routing node `a`,
    /// hosted on `self_id`, whose child on `b_side` is the pattern's `b`.
    /// Emits the structural messages of the paper (6 for
    /// `move(f)`/`move(g)`, 3 for `move(d)`) plus the overlapping-coverage
    /// refreshes.
    fn rotate(&mut self, self_id: ServerId, b_side: Side, pattern: Pattern, out: &mut Outbox) {
        let Pattern {
            b: b_link,
            b_children,
            e_children,
        } = pattern;
        let c = *self.child(b_side.other());
        let b_server = b_link.node.server;

        // Identify e (taller child of b) and d; f and g are e's children.
        let (e, d) = if b_children.0.height >= b_children.1.height {
            (b_children.0, b_children.1)
        } else {
            (b_children.1, b_children.0)
        };
        let (f, g) = e_children;

        // Candidate moves: s becomes the sibling of c, the remaining pair
        // the children of e. Validity: every reorganized node balanced.
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
        #[expect(
            clippy::expect_used,
            reason = "AVL rotation invariant over the pattern heights a peer sent (adjust chain or RotationInfo): while they are fresh, at least one of the three redistributions is balanced (paper §3.4)"
        )]
        let (_, _, s, (s1, s2)) =
            best.expect("a rotation pattern always admits a balanced redistribution");

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
                Payload::ReplaceChild {
                    old_child: NodeRef::routing(self_id),
                    new_child: b_link_new,
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
                        parent: e.node.server,
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
                parent: self_id,
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

/// The taller of two links (ties: the first).
fn taller_of(pair: (Link, Link)) -> Link {
    if pair.0.height >= pair.1.height {
        pair.0
    } else {
        pair.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SdrConfig;
    use crate::msg::Endpoint;
    use sdr_geom::Rect;

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
        let mut out = Outbox::new(ServerId(10), 100);
        // The adjust chain reports b's new height with the pattern links.
        a.on_child_change(b.node, b, Some((e, d)), Some((f, g)), &mut out);

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
        let parents: Vec<(NodeRef, ServerId)> = out
            .msgs
            .iter()
            .filter_map(|m| match &m.payload {
                Payload::SetParent { target, parent } => Some((*target, *parent)),
                _ => None,
            })
            .collect();
        assert!(parents.contains(&(g.node, ServerId(10))));
        assert!(parents.contains(&(d.node, ServerId(12))));
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
        let mut out = Outbox::new(ServerId(10), 100);
        a.on_child_change(b.node, b, Some((e, d)), Some((f, g)), &mut out);
        assert!(
            !out.msgs
                .iter()
                .any(|m| matches!(m.payload, Payload::SetRouting { .. })),
            "no rotation expected"
        );
        let adjust = out
            .msgs
            .iter()
            .find(|m| matches!(m.payload, Payload::AdjustHeight { .. }))
            .expect("height change must propagate");
        assert_eq!(adjust.to, Endpoint::Server(ServerId(20)));
        if let Payload::AdjustHeight {
            child,
            tall_grandchildren,
            ..
        } = &adjust.payload
        {
            assert_eq!(child.height, 3);
            // b is the taller child, so its children ride along for a
            // potential rotation one level up.
            assert_eq!(*tall_grandchildren, Some((e, d)));
        }
    }

    #[test]
    fn deletion_side_imbalance_gathers_the_pattern() {
        let (mut a, b, _ed, _fg, c) = pattern();
        {
            let r = a.routing.as_mut().unwrap();
            r.left = b; // fresh link, height 2
            r.recompute();
        }
        // The shallow side shrank: a ChildRemoved-style change with no
        // pattern links. The taller side must be asked for them.
        let shrunk = data_link(4, 11.0, 10.0, 11.5, 10.5);
        let mut out = Outbox::new(ServerId(10), 100);
        a.on_child_change(c.node, shrunk, None, None, &mut out);
        let gather = out
            .msgs
            .iter()
            .find(|m| matches!(m.payload, Payload::GatherRotation { .. }))
            .expect("gather must start");
        assert_eq!(gather.to, Endpoint::Server(ServerId(11)));
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
        let mut out = Outbox::new(ServerId(10), 100);
        let pattern = Pattern {
            b: stale_b,
            b_children: (e, d),
            e_children: (f, g),
        };
        a.on_rotation_info(pattern, &mut out);
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
        let mut out = Outbox::new(ServerId(11), 100);
        b_server.on_gather_rotation(ServerId(10), &mut out);
        let inner = out.msgs.pop().expect("forwarded to e");
        assert_eq!(inner.to, Endpoint::Server(ServerId(12)));

        let mut e_server = Server::new(ServerId(12), SdrConfig::with_capacity(10));
        e_server.routing = Some(RoutingNode {
            height: 1,
            dr: e.dr,
            left: f,
            right: g,
            parent: Some(ServerId(11)),
            oc: crate::oc::OcTable::new(),
        });
        let mut out2 = Outbox::new(ServerId(12), 100);
        if let Payload::GatherRotationInner {
            origin,
            b_link,
            b_children,
        } = inner.payload
        {
            e_server.on_gather_rotation_inner(origin, b_link, b_children, &mut out2);
        } else {
            panic!("expected GatherRotationInner");
        }
        let info = out2.msgs.pop().expect("answered origin");
        assert_eq!(info.to, Endpoint::Server(ServerId(10)));
        assert!(matches!(
            info.payload,
            Payload::RotationInfo { pattern } if pattern.e_children == (f, g)
        ));
    }
}
