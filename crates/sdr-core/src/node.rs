//! The two node types of the distributed tree (§2.1) and the indexed
//! object type.

use crate::ids::{NodeRef, Oid, ServerId};
use crate::link::Link;
use crate::oc::OcTable;
use sdr_geom::Rect;
use sdr_rtree::RTree;

/// An indexed spatial object: an oid plus its minimal bounding box.
/// "We aim at indexing large datasets of spatial objects, each uniquely
/// identified by an object id (oid) and approximated by the minimal
/// bounding box (mbb)" (§1). Object bodies live in the application.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Object {
    /// Unique object identifier.
    pub oid: Oid,
    /// Minimal bounding box.
    pub mbb: Rect,
}

impl Object {
    /// Creates an object.
    pub fn new(oid: Oid, mbb: Rect) -> Self {
        Object { oid, mbb }
    }
}

/// Which side of a routing node a child sits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The left child.
    Left,
    /// The right child.
    Right,
}

impl Side {
    /// The other side.
    pub fn other(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// A routing (internal) node.
///
/// "The routing node provides an exact local description of the tree. In
/// particular the directory rectangle is always the geometric union of
/// `left.dr` and `right.dr`, and the height is
/// `Max(left.height, right.height) + 1`." (§2.1)
#[derive(Clone, Debug, PartialEq)]
pub struct RoutingNode {
    /// Height of the subtree rooted here (≥ 1; its children include at
    /// least data nodes of height 0).
    pub height: u32,
    /// Directory rectangle: union of the children's rectangles.
    pub dr: Rect,
    /// Link to the left child.
    pub left: Link,
    /// Link to the right child.
    pub right: Link,
    /// Server hosting the parent routing node; `None` for the root.
    pub parent: Option<ServerId>,
    /// Overlapping coverage with the outer subtrees of the ancestors.
    pub oc: OcTable,
}

impl RoutingNode {
    /// The child link on `side`.
    pub fn child(&self, side: Side) -> &Link {
        match side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        }
    }

    /// Mutable child link on `side`.
    pub fn child_mut(&mut self, side: Side) -> &mut Link {
        match side {
            Side::Left => &mut self.left,
            Side::Right => &mut self.right,
        }
    }

    /// Which side `node` is on, if it is a child of this routing node.
    pub fn side_of(&self, node: NodeRef) -> Option<Side> {
        if self.left.node == node {
            Some(Side::Left)
        } else if self.right.node == node {
            Some(Side::Right)
        } else {
            None
        }
    }

    /// Recomputes `dr` and `height` from the (already updated) child
    /// links. Returns `(dr_changed, height_changed)`.
    pub fn recompute(&mut self) -> (bool, bool) {
        let dr = self.left.dr.union(&self.right.dr);
        let height = self.left.height.max(self.right.height) + 1;
        let changed = (dr != self.dr, height != self.height);
        self.dr = dr;
        self.height = height;
        changed
    }

    /// Classical R-tree CHOOSESUBTREE over the two children: the side
    /// whose rectangle needs the least enlargement to cover `rect`; ties
    /// by smaller area, then left.
    pub fn choose_subtree(&self, rect: &Rect) -> Side {
        let el = self.left.dr.enlargement(rect);
        let er = self.right.dr.enlargement(rect);
        if el < er {
            Side::Left
        } else if er < el {
            Side::Right
        } else if self.left.dr.area() <= self.right.dr.area() {
            Side::Left
        } else {
            Side::Right
        }
    }

    /// A link describing this routing node, hosted on `server`.
    pub fn link(&self, server: ServerId) -> Link {
        Link::to_routing(server, self.dr, self.height)
    }

    /// Whether this routing node is the tree root.
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }
}

/// A data (leaf) node: the server's local object repository.
///
/// §5: "The data node on each server is stored as a main memory R-tree".
/// The directory rectangle is maintained explicitly: it is assigned by
/// splits and grows with covered inserts; it may be larger than the exact
/// mbb of the current contents (it only shrinks on deletion tightening).
#[derive(Clone, Debug)]
pub struct DataNode {
    /// Local repository.
    pub tree: RTree<Oid>,
    /// Directory rectangle; `None` while the node has never held data.
    pub dr: Option<Rect>,
    /// Server hosting the parent routing node; `None` when this data node
    /// is the whole tree (a fresh single-server structure).
    pub parent: Option<ServerId>,
    /// Overlapping coverage with the outer subtrees of the ancestors.
    pub oc: OcTable,
}

impl DataNode {
    /// Creates an empty data node backed by a local R-tree with the given
    /// configuration.
    pub fn new(rtree_config: sdr_rtree::RTreeConfig) -> Self {
        DataNode {
            tree: RTree::new(rtree_config),
            dr: None,
            parent: None,
            oc: OcTable::new(),
        }
    }

    /// Whether the node's directory rectangle covers `rect`.
    pub fn covers(&self, rect: &Rect) -> bool {
        self.dr.as_ref().is_some_and(|dr| dr.contains(rect))
    }

    /// Stores an object locally, enlarging the directory rectangle.
    pub fn store(&mut self, obj: Object) {
        self.dr = Some(match self.dr {
            Some(dr) => dr.union(&obj.mbb),
            None => obj.mbb,
        });
        self.tree.insert(obj.mbb, obj.oid);
    }

    /// Number of locally stored objects.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// A link describing this data node, hosted on `server`.
    ///
    /// An empty data node (only possible on a single-server tree) is
    /// described with a degenerate rectangle at the origin.
    pub fn link(&self, server: ServerId) -> Link {
        Link::to_data(server, self.dr.unwrap_or(Rect::new(0.0, 0.0, 0.0, 0.0)))
    }
}

/// One node of a server, resolved by `Server::handle` for a payload that
/// addresses either kind: what the parent-pointer and coverage handlers
/// read and write, so each handles both kinds in one body.
pub(crate) enum NodeMut<'a> {
    /// A routing node.
    Routing(&'a mut RoutingNode),
    /// A data node.
    Data(&'a mut DataNode),
}

impl NodeMut<'_> {
    /// The node's overlapping-coverage table.
    pub(crate) fn oc(&mut self) -> &mut OcTable {
        match self {
            NodeMut::Routing(r) => &mut r.oc,
            NodeMut::Data(d) => &mut d.oc,
        }
    }

    /// The node's parent pointer.
    pub(crate) fn parent(&mut self) -> &mut Option<ServerId> {
        match self {
            NodeMut::Routing(r) => &mut r.parent,
            NodeMut::Data(d) => &mut d.parent,
        }
    }

    /// The node's directory rectangle.
    pub(crate) fn dr(&self) -> Option<Rect> {
        match self {
            NodeMut::Routing(r) => Some(r.dr),
            NodeMut::Data(d) => d.dr,
        }
    }

    /// The node's two child links; a data node has none.
    pub(crate) fn children(&self) -> Option<[Link; 2]> {
        match self {
            NodeMut::Routing(r) => Some([r.left, r.right]),
            NodeMut::Data(_) => None,
        }
    }

    /// A link describing the node, hosted on `server`.
    pub(crate) fn link(&self, server: ServerId) -> Link {
        match self {
            NodeMut::Routing(r) => r.link(server),
            NodeMut::Data(d) => d.link(server),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeKind;
    use sdr_rtree::RTreeConfig;

    fn rn() -> RoutingNode {
        RoutingNode {
            height: 1,
            dr: Rect::new(0.0, 0.0, 4.0, 2.0),
            left: Link::to_data(ServerId(0), Rect::new(0.0, 0.0, 2.0, 2.0)),
            right: Link::to_data(ServerId(1), Rect::new(2.0, 0.0, 4.0, 2.0)),
            parent: None,
            oc: OcTable::new(),
        }
    }

    #[test]
    fn side_lookup_and_sibling() {
        let n = rn();
        assert_eq!(n.side_of(NodeRef::data(ServerId(0))), Some(Side::Left));
        assert_eq!(n.side_of(NodeRef::data(ServerId(1))), Some(Side::Right));
        assert_eq!(n.side_of(NodeRef::routing(ServerId(0))), None);
        assert_eq!(Side::Left.other(), Side::Right);
    }

    #[test]
    fn recompute_updates_dr_and_height() {
        let mut n = rn();
        n.right = Link::to_routing(ServerId(2), Rect::new(2.0, 0.0, 6.0, 3.0), 2);
        let (dr_changed, h_changed) = n.recompute();
        assert!(dr_changed && h_changed);
        assert_eq!(n.dr, Rect::new(0.0, 0.0, 6.0, 3.0));
        assert_eq!(n.height, 3);
        let (d2, h2) = n.recompute();
        assert!(!d2 && !h2);
    }

    #[test]
    fn choose_subtree_prefers_containment() {
        let n = rn();
        assert_eq!(n.choose_subtree(&Rect::new(0.5, 0.5, 1.0, 1.0)), Side::Left);
        assert_eq!(
            n.choose_subtree(&Rect::new(3.0, 0.5, 3.5, 1.0)),
            Side::Right
        );
        // A rect needing equal enlargement: both contain it (on the
        // boundary); ties go left because equal areas.
        assert_eq!(n.choose_subtree(&Rect::new(2.0, 1.0, 2.0, 1.0)), Side::Left);
    }

    #[test]
    fn data_node_store_grows_dr() {
        let mut d = DataNode::new(RTreeConfig::default());
        assert!(d.dr.is_none());
        assert!(!d.covers(&Rect::new(0.0, 0.0, 1.0, 1.0)));
        d.store(Object::new(Oid(1), Rect::new(0.0, 0.0, 1.0, 1.0)));
        d.store(Object::new(Oid(2), Rect::new(2.0, 2.0, 3.0, 3.0)));
        assert_eq!(d.dr, Some(Rect::new(0.0, 0.0, 3.0, 3.0)));
        assert!(d.covers(&Rect::new(1.0, 1.0, 2.0, 2.0)));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn links_describe_nodes() {
        let n = rn();
        let l = n.link(ServerId(9));
        assert_eq!(l.node.kind, NodeKind::Routing);
        assert_eq!(l.height, 1);
        let d = DataNode::new(RTreeConfig::default());
        assert_eq!(d.link(ServerId(3)).node, NodeRef::data(ServerId(3)));
    }
}
