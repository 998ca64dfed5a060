//! The image: a client's (or contact server's) possibly outdated view of
//! the distributed tree (§3.1).
//!
//! "An image is a collection of links. ... Using the image, the
//! user/application estimates the address of the target server which is
//! the most likely to store the object." Images are corrected
//! incrementally by IAMs; they are never authoritative.
//!
//! Server ids are dense small integers, so the links sit in a `Vec` of
//! slots indexed by node rather than in an ordered map: every operation
//! absorbs a dozen links that are already there and scans the whole
//! image once to choose (DESIGN.md decision 15).

use crate::ids::{NodeKind, NodeRef, ServerId};
use crate::link::Link;
use sdr_geom::Rect;

/// A collection of links indexed by the node they describe. Newly
/// received links replace older ones for the same node (IAMs carry
/// fresher information by construction).
///
/// The link of node `n` lives in slot `2·n.server + n.kind`, which *is*
/// [`NodeRef`] order: [`Image::links`] iterates as the ordered map this
/// replaced did. The slots grow to the largest server id absorbed and no
/// further ([`ServerId::MAX`] caps it: a forged id sizes nothing), by
/// exactly what is needed — a server-side image is one of hundreds.
/// Determinism needs no more than that: [`Image::choose`]'s tie-break is
/// fully specified, so the pick depends on the links held, not on the
/// order they came in.
#[derive(Clone, Debug, Default)]
pub struct Image {
    slots: Vec<Option<Link>>,
}

/// The slot of `node`; `None` beyond the protocol's id bound.
fn slot(node: NodeRef) -> Option<usize> {
    let kind = usize::from(node.kind == NodeKind::Routing);
    (node.server <= ServerId::MAX).then(|| 2 * node.server.0 as usize + kind)
}

/// `dr.contains(mbb)` without the short-circuit: over an image's
/// unrelated rectangles `&&` mispredicts on most links, and the scan
/// takes twice as long (measured; DESIGN.md decision 15).
#[inline]
fn covers(dr: &Rect, mbb: &Rect) -> bool {
    (dr.xmin <= mbb.xmin) & (dr.ymin <= mbb.ymin) & (dr.xmax >= mbb.xmax) & (dr.ymax >= mbb.ymax)
}

/// Keeps `link` in `best` if its `key` is strictly smaller.
#[inline]
fn keep_min<K: PartialOrd>(best: &mut Option<(K, Link)>, key: K, link: &Link) {
    if best.as_ref().is_none_or(|(k, _)| key < *k) {
        *best = Some((key, *link));
    }
}

impl Image {
    /// The empty image ("Initially the image of C is empty", §3.2).
    pub fn new() -> Self {
        Image::default()
    }

    /// Records one link, replacing any previous link for the same node.
    /// A link naming a server beyond [`ServerId::MAX`] is ignored.
    pub fn absorb_link(&mut self, link: Link) {
        let Some(at) = slot(link.node) else { return };
        if at >= self.slots.len() {
            self.slots.reserve_exact(at + 1 - self.slots.len());
            self.slots.resize(at + 1, None);
        }
        if let Some(s) = self.slots.get_mut(at) {
            *s = Some(link);
        }
    }

    /// Records every link of an IAM.
    pub fn absorb(&mut self, trace: &[Link]) {
        for l in trace {
            self.absorb_link(*l);
        }
    }

    /// Number of links held.
    pub fn len(&self) -> usize {
        self.links().count()
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.links().next().is_none()
    }

    /// Number of distinct servers known to this image — the convergence
    /// metric of Figure 11.
    pub fn known_servers(&self) -> usize {
        let servers = self.slots.chunks(2);
        servers.filter(|s| s.iter().any(Option::is_some)).count()
    }

    /// Iterates over the stored links, in [`NodeRef`] order.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.slots.iter().flatten()
    }

    /// Drops a link that proved stale (e.g. the referenced node no longer
    /// exists after an elimination).
    pub fn forget(&mut self, node: NodeRef) {
        if let Some(s) = slot(node).and_then(|at| self.slots.get_mut(at)) {
            *s = None;
        }
    }

    /// CHOOSEFROMIMAGE (§3.1): estimates the best node to address for an
    /// object or query rectangle `mbb`.
    ///
    /// 1. Among **data links** whose dr contains `mbb`: the one with the
    ///    smallest dr (the most accurate candidate — coverage shrinks at
    ///    each split, so a smaller covering rectangle is likely fresher).
    /// 2. Otherwise among **routing links** whose dr contains `mbb`: the
    ///    one with minimal height (smallest subtree), then smallest dr.
    /// 3. Otherwise the **data link** closest to `mbb` — measured, per
    ///    the discussion in §5.1, as the smallest necessary enlargement.
    ///
    /// Every pass breaks ties with a fully specified ordering: equal
    /// primary keys fall through to smaller dr area, then to the
    /// smaller [`NodeRef`]. The pick is thus a pure function of the
    /// image's *contents*, never of how it was built — absorbing the
    /// same links in any order yields the same choice, which the
    /// deterministic replay contract (and the golden trace) relies on.
    ///
    /// Passes 1 and 2 share one scan of the slots; pass 3 runs only when
    /// both found nothing, so the common case computes no enlargement.
    ///
    /// Returns `None` on an empty image (the caller falls back to its
    /// contact server).
    pub fn choose(&self, mbb: &Rect) -> Option<Link> {
        let (mut data, mut routing) = (None, None);
        for l in self.links().filter(|l| covers(&l.dr, mbb)) {
            if l.is_data() {
                keep_min(&mut data, (l.dr.area(), l.node), l);
            } else {
                keep_min(&mut routing, (l.height, l.dr.area(), l.node), l);
            }
        }
        let covering = data.map(|(_, l)| l).or(routing.map(|(_, l)| l));
        covering.or_else(|| self.closest_data(mbb))
    }

    /// Like [`Image::choose`] but only ever returns data links — used for
    /// point queries, which the paper targets directly at leaves (§4.1).
    /// Uses the same fully specified tie-break ordering as `choose`.
    pub fn choose_data(&self, mbb: &Rect) -> Option<Link> {
        let mut covering = None;
        for l in self.links().filter(|l| l.is_data() && covers(&l.dr, mbb)) {
            keep_min(&mut covering, (l.dr.area(), l.node), l);
        }
        covering.map(|(_, l)| l).or_else(|| self.closest_data(mbb))
    }

    /// Pass 3: the data link minimal in (enlargement, area, node) — the
    /// explicit area/NodeRef tie-break keeps equal-enlargement picks
    /// independent of the image's history.
    fn closest_data(&self, mbb: &Rect) -> Option<Link> {
        let mut best = None;
        for l in self.links().filter(|l| l.is_data()) {
            keep_min(&mut best, (l.dr.enlargement(mbb), l.dr.area(), l.node), l);
        }
        best.map(|(_, l)| l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ServerId;

    fn data(server: u32, dr: Rect) -> Link {
        Link::to_data(ServerId(server), dr)
    }

    fn routing(server: u32, dr: Rect, h: u32) -> Link {
        Link::to_routing(ServerId(server), dr, h)
    }

    #[test]
    fn absorb_replaces_by_node() {
        let mut img = Image::new();
        img.absorb_link(data(1, Rect::new(0.0, 0.0, 1.0, 1.0)));
        img.absorb_link(data(1, Rect::new(0.0, 0.0, 2.0, 2.0)));
        assert_eq!(img.len(), 1);
        assert_eq!(
            img.links().next().unwrap().dr,
            Rect::new(0.0, 0.0, 2.0, 2.0)
        );
    }

    #[test]
    fn known_servers_counts_distinct() {
        let mut img = Image::new();
        img.absorb_link(data(1, Rect::new(0.0, 0.0, 1.0, 1.0)));
        img.absorb_link(routing(1, Rect::new(0.0, 0.0, 2.0, 2.0), 1));
        img.absorb_link(data(2, Rect::new(1.0, 1.0, 2.0, 2.0)));
        assert_eq!(img.known_servers(), 2);
    }

    #[test]
    fn choose_prefers_smallest_covering_data_link() {
        let mut img = Image::new();
        img.absorb_link(data(1, Rect::new(0.0, 0.0, 10.0, 10.0)));
        img.absorb_link(data(2, Rect::new(0.0, 0.0, 2.0, 2.0)));
        img.absorb_link(routing(3, Rect::new(0.0, 0.0, 1.0, 1.0), 1));
        let target = Rect::new(0.5, 0.5, 1.0, 1.0);
        assert_eq!(
            img.choose(&target).unwrap().node,
            NodeRef::data(ServerId(2))
        );
    }

    #[test]
    fn choose_falls_back_to_routing_links() {
        let mut img = Image::new();
        img.absorb_link(data(1, Rect::new(5.0, 5.0, 6.0, 6.0)));
        img.absorb_link(routing(2, Rect::new(0.0, 0.0, 4.0, 4.0), 2));
        img.absorb_link(routing(3, Rect::new(0.0, 0.0, 3.0, 3.0), 1));
        let target = Rect::new(1.0, 1.0, 2.0, 2.0);
        // Both routing links cover; the lower one wins.
        assert_eq!(
            img.choose(&target).unwrap().node,
            NodeRef::routing(ServerId(3))
        );
    }

    #[test]
    fn choose_falls_back_to_closest_data_link() {
        let mut img = Image::new();
        img.absorb_link(data(1, Rect::new(0.0, 0.0, 1.0, 1.0)));
        img.absorb_link(data(2, Rect::new(10.0, 10.0, 11.0, 11.0)));
        let target = Rect::new(11.5, 11.5, 12.0, 12.0);
        assert_eq!(
            img.choose(&target).unwrap().node,
            NodeRef::data(ServerId(2))
        );
    }

    #[test]
    fn choose_empty_image_is_none() {
        assert_eq!(Image::new().choose(&Rect::new(0.0, 0.0, 1.0, 1.0)), None);
    }

    #[test]
    fn choose_data_never_returns_routing() {
        let mut img = Image::new();
        img.absorb_link(routing(1, Rect::new(0.0, 0.0, 10.0, 10.0), 3));
        assert!(img.choose_data(&Rect::new(1.0, 1.0, 2.0, 2.0)).is_none());
        img.absorb_link(data(2, Rect::new(5.0, 5.0, 6.0, 6.0)));
        assert_eq!(
            img.choose_data(&Rect::new(1.0, 1.0, 2.0, 2.0))
                .unwrap()
                .node,
            NodeRef::data(ServerId(2))
        );
    }

    #[test]
    fn forget_removes_links() {
        let mut img = Image::new();
        img.absorb_link(data(1, Rect::new(0.0, 0.0, 1.0, 1.0)));
        img.forget(NodeRef::data(ServerId(1)));
        assert!(img.is_empty());
    }

    #[test]
    fn pass3_equal_enlargement_ties_break_on_area_then_node() {
        // Two data links equidistant from the target (same enlargement)
        // but different areas: the smaller area must win, in either
        // absorption order.
        let target = Rect::new(4.0, 0.0, 5.0, 1.0);
        let a = data(1, Rect::new(0.0, 0.0, 3.0, 1.0)); // union 5×1, area 3 → enl 2
        let b = data(2, Rect::new(6.0, 0.0, 7.0, 1.0)); // union 3×1, area 1 → enl 2
        for order in [[a, b], [b, a]] {
            let mut img = Image::new();
            for l in order {
                img.absorb_link(l);
            }
            assert_eq!(
                img.choose(&target).unwrap().node,
                NodeRef::data(ServerId(2)),
                "equal enlargement: smaller area wins regardless of order"
            );
        }
    }

    #[test]
    fn pass3_equal_enlargement_and_area_ties_break_on_node() {
        // Identical rectangles on different servers: the smaller
        // NodeRef wins, in either absorption order.
        let target = Rect::new(4.0, 0.0, 5.0, 1.0);
        let dr = Rect::new(0.0, 0.0, 1.0, 1.0);
        let a = data(3, dr);
        let b = data(7, dr);
        for order in [[a, b], [b, a]] {
            let mut img = Image::new();
            for l in order {
                img.absorb_link(l);
            }
            assert_eq!(
                img.choose(&target).unwrap().node,
                NodeRef::data(ServerId(3)),
                "full tie: smaller NodeRef wins regardless of order"
            );
        }
    }

    #[test]
    fn choose_data_ties_break_like_choose() {
        let target = Rect::new(4.0, 0.0, 5.0, 1.0);
        let dr = Rect::new(0.0, 0.0, 1.0, 1.0);
        for order in [[data(3, dr), data(7, dr)], [data(7, dr), data(3, dr)]] {
            let mut img = Image::new();
            for l in order {
                img.absorb_link(l);
            }
            assert_eq!(
                img.choose_data(&target).unwrap().node,
                NodeRef::data(ServerId(3))
            );
        }
    }
}
