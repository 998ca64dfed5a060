//! Overlapping-coverage maintenance handlers (§2.3) plus the
//! deletion-side structure maintenance (§3.3): rectangle tightening and
//! node elimination.
//!
//! Each handler is a method of the node its message acts on, which
//! `Server::handle` resolved: the parent-pointer and coverage handlers
//! take either kind as one [`NodeMut`] (a data node is a node without
//! children), the shrink a routing node. Elimination receives the
//! routing node it dissolves; when that node is gone or the child is not
//! its own, the dispatch re-routes the orphans instead.

use crate::ids::{NodeRef, ServerId};
use crate::link::Link;
use crate::msg::{ChildWhy, ImageHolder, Insertion, Payload};
use crate::node::{NodeMut, Object, RoutingNode};
use crate::oc::OcTable;
use crate::server::{Outbox, Server};
use sdr_geom::Rect;

impl NodeMut<'_> {
    /// SetParent: update the node's parent pointer — `None` makes it the
    /// tree root — then report the node's current state to a new parent,
    /// so it heals any staleness in the rotation driver's snapshot.
    pub(crate) fn on_set_parent(
        &mut self,
        self_id: ServerId,
        parent: Option<ServerId>,
        out: &mut Outbox,
    ) {
        *self.parent() = parent;
        if let Some(parent) = parent {
            let link = self.link(self_id);
            out.send_server(parent, Payload::from_child(link, ChildWhy::Refresh));
        }
    }

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
        ancestor: ServerId,
        outer: Link,
        rect: Rect,
        out: &mut Outbox,
    ) {
        let int = self.dr().and_then(|dr| dr.intersection(&rect));
        let children = self.children();
        let oc = self.oc();
        let unchanged = match (&int, oc.get(ancestor)) {
            (Some(new), Some(existing)) => existing.rect == *new,
            (None, None) => true,
            _ => false,
        };
        oc.set(ancestor, outer, int);
        // Diffuse to both subtrees. Children whose own entry is already
        // up to date stop the recursion; children whose intersection
        // emptied must still be told so the entry is *removed*
        // (over-retained entries cause needless query forwarding).
        for child in children.filter(|_| !unchanged).into_iter().flatten() {
            let update = Payload::UpdateOc {
                target: child.node,
                ancestor,
                outer,
                rect,
            };
            out.send_server(child.node.server, update);
        }
    }

    /// Full-table refresh after rotations: store the recomputed table
    /// and derive and forward the children's tables.
    pub(crate) fn on_refresh_oc(&mut self, self_id: ServerId, table: OcTable, out: &mut Outbox) {
        let children = self.children();
        let oc = self.oc();
        *oc = table;
        // Cascade unconditionally. An "unchanged table => children
        // consistent" prune sounds safe (derivation is a pure function of
        // this table and the child links), but it assumes the children
        // were last derived from *our* current state — deletion-path
        // interleavings (a rotation moving a subtree while an UpdateOc
        // diffusion is midway) break that assumption and strand stale
        // entries below the prune point. Refreshes fire only on rotations
        // and repairs, so the full dissemination is the cost the paper
        // already accepts ("the whole tree may be affected", §2.4).
        let Some([left, right]) = children else {
            return;
        };
        for (child, sibling) in [(left, right), (right, left)] {
            let table = oc.derive_child(self_id, &child.dr, &sibling);
            out.send_server(
                child.node.server,
                Payload::RefreshOc {
                    target: child.node,
                    table,
                },
            );
        }
    }

    /// DropOcAncestor: recursively remove the entries keyed by a
    /// dissolved ancestor.
    pub(crate) fn on_drop_oc_ancestor(&mut self, ancestor: ServerId, out: &mut Outbox) {
        self.oc().remove(ancestor);
        // Recurse unconditionally: an intermediate node may have already
        // pruned its entry while deeper nodes retain theirs (eliminations
        // are rare; the broadcast is cheap).
        for child in self.children().into_iter().flatten() {
            let target = child.node;
            out.send_server(target.server, Payload::DropOcAncestor { target, ancestor });
        }
    }
}

impl RoutingNode {
    /// A child's rectangle shrank after deletions (§3.3 "may adjust
    /// covering rectangles on the path to the root"). Heights are
    /// unaffected; shrinks propagate while the union keeps shrinking.
    pub(crate) fn on_shrink_child(&mut self, self_id: ServerId, child: Link, out: &mut Outbox) {
        let Some(side) = self.side_of(child.node) else {
            return;
        };
        // A shrink never changes heights, so a height mismatch means the
        // stored link was refreshed (split/rotation) while this message
        // was in flight: the stored link is fresher — don't revert it.
        // The sibling's coverage refresh below still runs, from whichever
        // link is current.
        if self.child(side).height == child.height {
            *self.child_mut(side) = child;
        }
        let (dr_changed, h_changed) = self.recompute();
        debug_assert!(!h_changed, "shrinking a rectangle cannot change heights");
        if dr_changed {
            // Our own coverage entries shrink with us.
            let dr = self.dr;
            self.oc.intersect_all(&dr);
        }
        // The overlap with the sibling may have shrunk; refresh it so
        // queries stop over-forwarding.
        let sibling = *self.child(side.other());
        let shrunk = *self.child(side);
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
            if let Some(p) = self.parent {
                let me = self.link(self_id);
                out.send_server(p, Payload::ShrinkChild { child: me });
            }
        }
    }
}

impl Server {
    /// Node elimination (§3.3): `r`, this server's routing node and the
    /// parent of the underflowed (now dissolved) data node `child`,
    /// removes itself from the tree. The surviving sibling takes the
    /// parent's place under the grandparent, heights are re-adjusted
    /// (possibly rotating), and the orphaned objects are re-inserted
    /// through the sibling subtree.
    pub(crate) fn on_eliminate(
        &mut self,
        r: RoutingNode,
        child: NodeRef,
        objects: Vec<Object>,
        out: &mut Outbox,
    ) {
        let self_id = self.id;
        let sibling = if r.left.node == child {
            r.right
        } else {
            r.left
        };
        self.routing_tombstone = Some(sibling.node);

        // The sibling takes our tree position. When we were the root it
        // becomes the new root: a data-node sibling keeps `parent: None`,
        // which marks it as the accepting root leaf.
        out.send_server(
            sibling.node.server,
            Payload::SetParent {
                target: sibling.node,
                parent: r.parent,
            },
        );
        if let Some(gp) = r.parent {
            out.send_server(
                gp,
                Payload::ChildChange {
                    old_child: NodeRef::routing(self_id),
                    new_child: sibling,
                    why: ChildWhy::Removed,
                },
            );
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
        // on the deferred lane, released one at a time once nothing is in
        // flight, so the structural repair (adjustment, rotation
        // gathering) and each earlier reinsert complete before the next
        // reinsert can split a node or enlarge a link the repair rewrites.
        for obj in objects {
            let ins = Insertion::new(obj, ImageHolder::Nobody);
            let payload = Payload::insert_at(sibling.node.kind, ins, false);
            out.send_server_deferred(sibling.node.server, payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SdrConfig;
    use crate::msg::Endpoint;
    use crate::oc::OcEntry;

    /// Delivers `payload` to `s` through the dispatch; returns what it sent.
    fn deliver(s: &mut Server, payload: Payload) -> Outbox {
        let mut out = Outbox::new(s.id, 100);
        s.handle(Endpoint::Server(ServerId(99)), payload, &mut out);
        out
    }

    /// An UPDATEOC for server 5's routing node, from ancestor 9.
    fn update_oc(outer: Link) -> Payload {
        Payload::UpdateOc {
            target: NodeRef::routing(ServerId(5)),
            ancestor: ServerId(9),
            outer,
            rect: outer.dr,
        }
    }

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
        let out = deliver(&mut s, update_oc(outer));
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
        let out2 = deliver(&mut s, update_oc(outer));
        assert!(out2.msgs.is_empty(), "unchanged entry must not diffuse");
    }

    #[test]
    fn update_oc_empty_intersection_removes_entry() {
        let left = dlink(1, 0.0, 0.0, 1.0, 1.0);
        let right = dlink(2, 1.0, 0.0, 2.0, 1.0);
        let mut s = routing_server(5, left, right);
        let outer_near = dlink(7, 1.5, 0.5, 3.0, 1.0);
        deliver(&mut s, update_oc(outer_near));
        assert!(s.routing.as_ref().unwrap().oc.get(ServerId(9)).is_some());
        // The outer shrank away entirely: the entry must be dropped and
        // the removal diffused.
        let outer_far = dlink(7, 10.0, 10.0, 11.0, 11.0);
        let out2 = deliver(&mut s, update_oc(outer_far));
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
        let fresher = OcEntry {
            outer: dlink(8, 1.5, 0.0, 4.0, 2.0),
            ..entry
        };
        let refresh = Payload::RefreshOc {
            target: NodeRef::routing(ServerId(5)),
            table: crate::oc::OcTable::from_entries(vec![fresher]),
        };
        let out = deliver(&mut s, refresh);
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
        let out = deliver(&mut s, Payload::ShrinkChild { child: shrunk });
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
        let drop = Payload::DropOcAncestor {
            target: NodeRef::routing(ServerId(5)),
            ancestor: ServerId(42),
        };
        let out = deliver(&mut s, drop);
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
