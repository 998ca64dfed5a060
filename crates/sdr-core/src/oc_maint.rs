//! Overlapping-coverage maintenance handlers (§2.3) plus the
//! deletion-side structure maintenance (§3.3): rectangle tightening and
//! node elimination.

use crate::ids::{NodeKind, NodeRef, ServerId};
use crate::link::Link;
use crate::msg::{ImageHolder, Insertion, Payload};
use crate::node::Object;
use crate::server::{Outbox, Server};
use sdr_geom::Rect;

impl Server {
    /// The paper's UPDATEOC procedure: an ancestor's outer subtree was
    /// enlarged; update the entry and diffuse into overlapping children.
    ///
    /// `rect` is the outer node's directory rectangle, progressively
    /// intersected with each node's dr along the diffusion. The diffusion
    /// prunes both on empty intersection (Definition 3: empty entries are
    /// not represented) and on unchanged entries ("we trigger a
    /// maintenance operation only when this overlapping changes").
    pub(crate) fn on_update_oc(
        &mut self,
        target: NodeRef,
        ancestor: ServerId,
        outer: Link,
        rect: Rect,
        out: &mut Outbox,
    ) {
        match target.kind {
            NodeKind::Data => {
                let Some(d) = self.data.as_mut() else { return };
                let int = d.dr.and_then(|dr| dr.intersection(&rect));
                d.oc.set(ancestor, outer, int);
            }
            NodeKind::Routing => {
                let Some(r) = self.routing.as_mut() else {
                    return;
                };
                let int = r.dr.intersection(&rect);
                let unchanged = match (&int, r.oc.get(ancestor)) {
                    (Some(new), Some(existing)) => existing.rect == *new,
                    (None, None) => true,
                    _ => false,
                };
                r.oc.set(ancestor, outer, int);
                if unchanged {
                    return;
                }
                // Diffuse to both subtrees. Children whose own entry is
                // already up to date stop the recursion; children whose
                // intersection emptied must still be told so the entry
                // is *removed* (over-retained entries cause needless
                // query forwarding).
                for child in [r.left, r.right] {
                    out.send_server(
                        child.node.server,
                        Payload::UpdateOc {
                            target: child.node,
                            ancestor,
                            outer,
                            rect,
                        },
                    );
                }
            }
        }
    }

    /// Full-table refresh after rotations: store the recomputed table
    /// and, if the coverage changed, derive and forward the children's
    /// tables (their current tables are exactly the derivation from our
    /// *old* table, so a parent whose coverage is unchanged can prune the
    /// whole subtree).
    pub(crate) fn on_refresh_oc(
        &mut self,
        target: NodeRef,
        table: crate::oc::OcTable,
        out: &mut Outbox,
    ) {
        match target.kind {
            NodeKind::Data => {
                if let Some(d) = self.data.as_mut() {
                    d.oc = table;
                }
            }
            NodeKind::Routing => {
                let self_id = self.id;
                let Some(r) = self.routing.as_mut() else {
                    return;
                };
                r.oc = table;
                // Cascade unconditionally. An "unchanged table => children
                // consistent" prune sounds safe (derivation is a pure
                // function of this table and the child links), but it
                // assumes the children were last derived from *our*
                // current state — deletion-path interleavings (a rotation
                // moving a subtree while an UpdateOc diffusion is midway)
                // break that assumption and strand stale entries below
                // the prune point. Refreshes fire only on rotations and
                // repairs, so the full dissemination is the cost the
                // paper already accepts ("the whole tree may be
                // affected", §2.4).
                for (child, sibling) in [(r.left, r.right), (r.right, r.left)] {
                    let derived_new = r.oc.derive_child(self_id, &child.dr, &sibling);
                    out.send_server(
                        child.node.server,
                        Payload::RefreshOc {
                            target: child.node,
                            table: derived_new,
                        },
                    );
                }
            }
        }
    }

    /// A child's rectangle shrank after deletions (§3.3 "may adjust
    /// covering rectangles on the path to the root"). Heights are
    /// unaffected; shrinks propagate while the union keeps shrinking.
    pub(crate) fn on_shrink_child(&mut self, child: Link, out: &mut Outbox) {
        let self_id = self.id;
        let Some(r) = self.routing.as_mut() else {
            return;
        };
        let Some(side) = r.side_of(child.node) else {
            return;
        };
        // A shrink never changes heights, so a height mismatch means the
        // stored link was refreshed (split/rotation) while this message
        // was in flight: the stored link is fresher — don't revert it.
        // The sibling's coverage refresh below still runs, from whichever
        // link is current.
        if r.child(side).height == child.height {
            *r.child_mut(side) = child;
        }
        let (dr_changed, h_changed) = r.recompute();
        debug_assert!(!h_changed, "shrinking a rectangle cannot change heights");
        if dr_changed {
            // Our own coverage entries shrink with us.
            let dr = r.dr;
            r.oc.intersect_all(&dr);
        }
        // The overlap with the sibling may have shrunk; refresh it so
        // queries stop over-forwarding.
        let sibling = *r.child(side.other());
        let shrunk = *r.child(side);
        out.send_server(
            sibling.node.server,
            Payload::UpdateOc {
                target: sibling.node,
                ancestor: self_id,
                outer: shrunk,
                rect: shrunk.dr,
            },
        );
        if dr_changed {
            if let Some(p) = r.parent {
                let me = r.link(self_id);
                out.send_server(p, Payload::ShrinkChild { child: me });
            }
        }
    }

    /// Node elimination (§3.3): the parent of an underflowed (now
    /// dissolved) data node removes itself from the tree. The surviving
    /// sibling takes the parent's place under the grandparent, heights
    /// are re-adjusted (possibly rotating), and the orphaned objects are
    /// re-inserted through the sibling subtree.
    pub(crate) fn on_eliminate(&mut self, child: NodeRef, objects: Vec<Object>, out: &mut Outbox) {
        let self_id = self.id;
        let Some(r) = self.routing.take() else {
            // Our routing node is already gone (a crossing elimination in
            // a concurrent deployment). The orphans must not be lost:
            // re-inject them as fresh inserts through whatever live
            // structure we can still reach.
            self.reroute_orphans(objects, out);
            return;
        };
        let Some(side) = r.side_of(child) else {
            // Not our child (stale message): restore, but still re-route
            // the orphans rather than dropping them.
            self.routing = Some(r);
            self.reroute_orphans(objects, out);
            return;
        };
        let sibling = *r.child(side.other());
        self.routing_tombstone = Some(sibling.node);

        // The sibling takes our tree position.
        match r.parent {
            Some(gp) => {
                out.send_server(
                    sibling.node.server,
                    Payload::SetParent {
                        target: sibling.node,
                        parent: gp,
                    },
                );
                out.send_server(
                    gp,
                    Payload::ChildRemoved {
                        old_child: NodeRef::routing(self_id),
                        new_child: sibling,
                    },
                );
            }
            None => {
                // We were the root: the sibling becomes the new root.
                // A data-node sibling keeps `parent: None`, which marks
                // it as the accepting root leaf.
                out.send_server(
                    sibling.node.server,
                    Payload::ClearParent {
                        target: sibling.node,
                    },
                );
            }
        }
        // The sibling's coverage no longer includes us: drop the entry.
        out.send_server(
            sibling.node.server,
            Payload::DropOcAncestor {
                target: sibling.node,
                ancestor: self_id,
            },
        );

        // Re-inject the orphaned objects through the sibling subtree —
        // on the deferred lane, so the structural repair (adjustment,
        // rotation gathering) completes before any reinsert can split a
        // node and invalidate the rotation's snapshot.
        for obj in objects {
            let ins = Insertion::new(obj, ImageHolder::Nobody);
            let payload = Payload::insert_at(sibling.node.kind, ins, false);
            out.send_server_deferred(sibling.node.server, payload);
        }
    }

    /// Last-resort orphan routing when an `Eliminate` hits a stale
    /// guard: each object re-enters as a normal insert through the
    /// tombstone chain (or our own nodes), where the regular
    /// out-of-range machinery takes over.
    fn reroute_orphans(&mut self, objects: Vec<Object>, out: &mut Outbox) {
        for obj in objects {
            let target = self
                .routing_tombstone
                .or(self.data_tombstone)
                .or_else(|| self.routing.as_ref().map(|_| NodeRef::routing(self.id)))
                .or_else(|| self.data.as_ref().map(|_| NodeRef::data(self.id)));
            let Some(t) = target else {
                debug_assert!(false, "orphaned object with no route anywhere");
                continue;
            };
            let ins = Insertion::new(obj, ImageHolder::Nobody);
            let payload = Payload::insert_at(t.kind, ins, false);
            out.send_server_deferred(t.server, payload);
        }
    }

    /// ClearParent: the target node becomes the tree root.
    pub(crate) fn on_clear_parent(&mut self, target: NodeRef) {
        match target.kind {
            NodeKind::Data => {
                if let Some(d) = self.data.as_mut() {
                    d.parent = None;
                }
            }
            NodeKind::Routing => {
                if let Some(r) = self.routing.as_mut() {
                    r.parent = None;
                }
            }
        }
    }

    /// DropOcAncestor: recursively remove the entries keyed by a
    /// dissolved ancestor.
    pub(crate) fn on_drop_oc_ancestor(
        &mut self,
        target: NodeRef,
        ancestor: ServerId,
        out: &mut Outbox,
    ) {
        match target.kind {
            NodeKind::Data => {
                if let Some(d) = self.data.as_mut() {
                    d.oc.remove(ancestor);
                }
            }
            NodeKind::Routing => {
                let Some(r) = self.routing.as_mut() else {
                    return;
                };
                r.oc.remove(ancestor);
                // Recurse unconditionally: an intermediate node may have
                // already pruned its entry while deeper nodes retain
                // theirs (eliminations are rare; the broadcast is cheap).
                for child in [r.left, r.right] {
                    out.send_server(
                        child.node.server,
                        Payload::DropOcAncestor {
                            target: child.node,
                            ancestor,
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SdrConfig;
    use crate::msg::Endpoint;
    use crate::oc::OcEntry;
    use crate::server::Outbox;

    fn routing_server(id: u32, left: Link, right: Link) -> Server {
        let mut s = Server::new(ServerId(id), SdrConfig::with_capacity(10));
        s.routing = Some(crate::node::RoutingNode {
            height: left.height.max(right.height) + 1,
            dr: left.dr.union(&right.dr),
            left,
            right,
            parent: Some(ServerId(99)),
            oc: crate::oc::OcTable::new(),
        });
        s
    }

    fn dlink(id: u32, x0: f64, y0: f64, x1: f64, y1: f64) -> Link {
        Link::to_data(ServerId(id), Rect::new(x0, y0, x1, y1))
    }

    #[test]
    fn update_oc_sets_entry_and_diffuses_on_change() {
        let left = dlink(1, 0.0, 0.0, 2.0, 2.0);
        let right = dlink(2, 1.0, 0.0, 3.0, 2.0);
        let mut s = routing_server(5, left, right);
        let outer = dlink(7, 1.5, 0.0, 4.0, 2.0);
        let mut out = Outbox::new(ServerId(5), 100);
        s.on_update_oc(
            NodeRef::routing(ServerId(5)),
            ServerId(9),
            outer,
            outer.dr,
            &mut out,
        );
        // Entry stored: own dr [0,3]x[0,2] ∩ outer [1.5,4]x[0,2].
        let r = s.routing.as_ref().unwrap();
        assert_eq!(
            r.oc.get(ServerId(9)).unwrap().rect,
            Rect::new(1.5, 0.0, 3.0, 2.0)
        );
        // Diffused to both children.
        let targets: Vec<Endpoint> = out.msgs.iter().map(|m| m.to).collect();
        assert!(targets.contains(&Endpoint::Server(ServerId(1))));
        assert!(targets.contains(&Endpoint::Server(ServerId(2))));

        // A second identical update is pruned (no diffusion).
        let mut out2 = Outbox::new(ServerId(5), 100);
        s.on_update_oc(
            NodeRef::routing(ServerId(5)),
            ServerId(9),
            outer,
            outer.dr,
            &mut out2,
        );
        assert!(out2.msgs.is_empty(), "unchanged entry must not diffuse");
    }

    #[test]
    fn update_oc_empty_intersection_removes_entry() {
        let left = dlink(1, 0.0, 0.0, 1.0, 1.0);
        let right = dlink(2, 1.0, 0.0, 2.0, 1.0);
        let mut s = routing_server(5, left, right);
        let outer_near = dlink(7, 1.5, 0.5, 3.0, 1.0);
        let mut out = Outbox::new(ServerId(5), 100);
        s.on_update_oc(
            NodeRef::routing(ServerId(5)),
            ServerId(9),
            outer_near,
            outer_near.dr,
            &mut out,
        );
        assert!(s.routing.as_ref().unwrap().oc.get(ServerId(9)).is_some());
        // The outer shrank away entirely: the entry must be dropped and
        // the removal diffused.
        let outer_far = dlink(7, 10.0, 10.0, 11.0, 11.0);
        let mut out2 = Outbox::new(ServerId(5), 100);
        s.on_update_oc(
            NodeRef::routing(ServerId(5)),
            ServerId(9),
            outer_far,
            outer_far.dr,
            &mut out2,
        );
        assert!(s.routing.as_ref().unwrap().oc.get(ServerId(9)).is_none());
        assert_eq!(out2.msgs.len(), 2, "removal must reach both children");
    }

    #[test]
    fn refresh_oc_always_cascades() {
        let left = dlink(1, 0.0, 0.0, 2.0, 2.0);
        let right = dlink(2, 1.0, 0.0, 3.0, 2.0);
        let mut s = routing_server(5, left, right);
        let entry = OcEntry {
            ancestor: ServerId(9),
            outer: dlink(7, 1.5, 0.0, 4.0, 2.0),
            rect: Rect::new(1.5, 0.0, 3.0, 2.0),
        };
        s.routing.as_mut().unwrap().oc = crate::oc::OcTable::from_entries(vec![entry]);
        // Cascades unconditionally, even when coverage is unchanged: a
        // same-coverage prune assumes the children were derived from the
        // current table, which deletion-path interleavings violate (see
        // `on_refresh_oc`).
        let mut out = Outbox::new(ServerId(5), 100);
        let fresher = OcEntry {
            outer: dlink(8, 1.5, 0.0, 4.0, 2.0),
            ..entry
        };
        s.on_refresh_oc(
            NodeRef::routing(ServerId(5)),
            crate::oc::OcTable::from_entries(vec![fresher]),
            &mut out,
        );
        assert_eq!(out.msgs.len(), 2, "refresh reaches both children");
        assert!(out
            .msgs
            .iter()
            .all(|m| matches!(m.payload, Payload::RefreshOc { .. })));
        // The fresher outer link was stored.
        assert_eq!(
            s.routing
                .as_ref()
                .unwrap()
                .oc
                .get(ServerId(9))
                .unwrap()
                .outer
                .node
                .server,
            ServerId(8)
        );
    }

    #[test]
    fn shrink_child_updates_link_and_notifies() {
        // The left child contributes the union's upper y edge, so its
        // shrink also shrinks the parent's dr (forcing propagation).
        let left = dlink(1, 0.0, 0.0, 2.0, 2.0);
        let right = dlink(2, 1.0, 0.0, 3.0, 1.5);
        let mut s = routing_server(5, left, right);
        let shrunk = dlink(1, 0.0, 0.0, 1.2, 1.2);
        let mut out = Outbox::new(ServerId(5), 100);
        s.on_shrink_child(shrunk, &mut out);
        let r = s.routing.as_ref().unwrap();
        assert_eq!(r.left.dr, shrunk.dr);
        assert_eq!(r.dr, shrunk.dr.union(&right.dr));
        // The sibling learns the shrunken outer rectangle; the parent
        // learns our shrunken dr.
        assert!(out.msgs.iter().any(|m| matches!(
            &m.payload,
            Payload::UpdateOc { target, .. } if *target == right.node
        )));
        assert!(out
            .msgs
            .iter()
            .any(|m| matches!(&m.payload, Payload::ShrinkChild { .. })
                && m.to == Endpoint::Server(ServerId(99))));
    }

    #[test]
    fn drop_oc_ancestor_recurses_unconditionally() {
        let left = dlink(1, 0.0, 0.0, 2.0, 2.0);
        let right = dlink(2, 1.0, 0.0, 3.0, 2.0);
        let mut s = routing_server(5, left, right);
        // Even without a local entry for the ancestor, children are told.
        let mut out = Outbox::new(ServerId(5), 100);
        s.on_drop_oc_ancestor(NodeRef::routing(ServerId(5)), ServerId(42), &mut out);
        assert_eq!(out.msgs.len(), 2);
        assert!(out.msgs.iter().all(|m| matches!(
            m.payload,
            Payload::DropOcAncestor {
                ancestor: ServerId(42),
                ..
            }
        )));
    }
}
