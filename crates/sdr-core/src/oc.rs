//! Overlapping coverage (OC) tables — Definition 3 of the paper.
//!
//! Every node `N` stores, for each ancestor `A` whose *outer* subtree
//! (the child of `A` that is not on `N`'s root path) overlaps `N`'s
//! directory rectangle, the entry `(A, link(outer_A), N.dr ∩ outer_A.dr)`.
//! Empty intersections are not represented.
//!
//! The table is the key to root-load avoidance: a query that lands on the
//! right data node learns from the OC exactly which other subtrees may
//! hold matches, without ever touching the upper tree levels.
//!
//! The fundamental derivation (used for maintenance *and* as the test
//! oracle — see DESIGN.md §2.2) is [`OcTable::derive_child`]: a child's
//! table is computable from its parent's table plus the sibling link.

use crate::ids::ServerId;
use crate::link::Link;
use sdr_geom::Rect;

/// One overlapping-coverage entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OcEntry {
    /// The ancestor routing node this entry belongs to (the array index
    /// `i` of Definition 3). Identified by its server since every server
    /// hosts at most one routing node.
    pub ancestor: ServerId,
    /// Link to `outer_N(ancestor)`: the ancestor's child that is *not* on
    /// this node's root path. The link's `dr`/`height` may go stale after
    /// splits of the outer subtree; the paper only refreshes entries when
    /// the intersection rectangle changes (§2.3, Figure 3.b).
    pub outer: Link,
    /// `N.dr ∩ outer.dr` at maintenance time. Always non-empty.
    pub rect: Rect,
}

/// A node's overlapping coverage, ordered from the root-most ancestor to
/// the nearest one.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OcTable {
    entries: Vec<OcEntry>,
}

impl OcTable {
    /// The empty table (correct for the root and for nodes whose root
    /// path has no overlap).
    pub fn new() -> Self {
        OcTable {
            entries: Vec::new(),
        }
    }

    /// Builds a table from entries (assumed root-most first).
    pub fn from_entries(entries: Vec<OcEntry>) -> Self {
        OcTable { entries }
    }

    /// The entries, root-most ancestor first.
    pub fn entries(&self) -> &[OcEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts or replaces the entry for `ancestor`. A `None` rectangle
    /// removes the entry (the intersection became empty).
    pub fn set(&mut self, ancestor: ServerId, outer: Link, rect: Option<Rect>) {
        match rect {
            Some(rect) => {
                if let Some(e) = self.entries.iter_mut().find(|e| e.ancestor == ancestor) {
                    e.outer = outer;
                    e.rect = rect;
                } else {
                    self.entries.push(OcEntry {
                        ancestor,
                        outer,
                        rect,
                    });
                }
            }
            None => self.remove(ancestor),
        }
    }

    /// Removes the entry for `ancestor`, if present (the ancestor
    /// dissolved).
    pub fn remove(&mut self, ancestor: ServerId) {
        self.entries.retain(|e| e.ancestor != ancestor);
    }

    /// The entry for `ancestor`, if present.
    pub fn get(&self, ancestor: ServerId) -> Option<&OcEntry> {
        self.entries.iter().find(|e| e.ancestor == ancestor)
    }

    /// Appends an entry for the nearest ancestor (used while descending:
    /// ancestors are discovered root-most first).
    pub fn push(&mut self, entry: OcEntry) {
        debug_assert!(
            self.entries.iter().all(|e| e.ancestor != entry.ancestor),
            "duplicate OC ancestor {}",
            entry.ancestor
        );
        self.entries.push(entry);
    }

    /// Derives a child's OC table from this (parent) table.
    ///
    /// §2.3, Figure 3.c: because the parent knows the space it shares
    /// with every outer subtree, it can compute the child's share without
    /// contacting anyone: for each parent entry `(A, outer, r)` the child
    /// entry is `(A, outer, r ∩ child_dr)`; additionally the parent
    /// itself becomes an ancestor of the child, contributing
    /// `(parent, sibling, child_dr ∩ sibling.dr)`.
    ///
    /// Empty intersections are dropped per Definition 3.
    pub fn derive_child(&self, parent: ServerId, child_dr: &Rect, sibling: &Link) -> OcTable {
        let mut entries: Vec<OcEntry> = self
            .entries
            .iter()
            .filter_map(|e| {
                e.rect
                    .intersection(child_dr)
                    .map(|rect| OcEntry { rect, ..*e })
            })
            .collect();
        if let Some(rect) = child_dr.intersection(&sibling.dr) {
            entries.push(OcEntry {
                ancestor: parent,
                outer: *sibling,
                rect,
            });
        }
        OcTable { entries }
    }

    /// Intersects every entry with a (shrunken) directory rectangle,
    /// dropping emptied entries. A node whose dr shrinks after deletions
    /// can repair its own table locally because
    /// `new_dr ∩ (old_dr ∩ outer) = new_dr ∩ outer` when `new_dr ⊆ old_dr`.
    pub fn intersect_all(&mut self, dr: &Rect) {
        self.entries.retain_mut(|e| match e.rect.intersection(dr) {
            Some(r) => {
                e.rect = r;
                true
            }
            None => false,
        });
    }

    /// Whether this table *covers* `required`: every required entry is
    /// present (by ancestor) with a rectangle at least as large. This is
    /// the completeness condition queries rely on; extra entries only
    /// cost redundant forwarding.
    pub fn covers(&self, required: &OcTable) -> bool {
        required.entries.iter().all(|req| {
            self.get(req.ancestor)
                .is_some_and(|have| have.rect.contains(&req.rect))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeRef;

    fn link(server: u32, dr: Rect) -> Link {
        Link {
            node: NodeRef::data(ServerId(server)),
            dr,
            height: 0,
        }
    }

    #[test]
    fn set_insert_replace_remove() {
        let mut t = OcTable::new();
        let a = ServerId(1);
        let r1 = Rect::new(0.0, 0.0, 1.0, 1.0);
        let r2 = Rect::new(0.0, 0.0, 2.0, 2.0);
        t.set(a, link(5, r1), Some(r1));
        assert_eq!(t.len(), 1);
        t.set(a, link(5, r2), Some(r2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(a).unwrap().rect, r2);
        t.set(a, link(5, r2), None);
        assert!(t.is_empty());
        // Removing a missing entry is a no-op.
        t.set(ServerId(9), link(5, r1), None);
        assert!(t.is_empty());
        // `remove` is the same without a link to hand.
        t.set(a, link(5, r1), Some(r1));
        t.remove(ServerId(9));
        assert_eq!(t.len(), 1);
        t.remove(a);
        assert!(t.is_empty());
    }

    #[test]
    fn derive_child_intersects_and_appends() {
        // Parent table: ancestor 1's outer overlaps [0,2]x[0,2].
        let outer1 = link(7, Rect::new(-1.0, -1.0, 2.0, 2.0));
        let parent_table = OcTable::from_entries(vec![OcEntry {
            ancestor: ServerId(1),
            outer: outer1,
            rect: Rect::new(0.0, 0.0, 2.0, 2.0),
        }]);
        // Child occupies [1,3]x[1,3]; sibling occupies [2.5,4]x[2.5,4].
        let child_dr = Rect::new(1.0, 1.0, 3.0, 3.0);
        let sibling = link(8, Rect::new(2.5, 2.5, 4.0, 4.0));
        let child = parent_table.derive_child(ServerId(2), &child_dr, &sibling);
        assert_eq!(child.len(), 2);
        assert_eq!(child.entries()[0].ancestor, ServerId(1));
        assert_eq!(child.entries()[0].rect, Rect::new(1.0, 1.0, 2.0, 2.0));
        assert_eq!(child.entries()[1].ancestor, ServerId(2));
        assert_eq!(child.entries()[1].rect, Rect::new(2.5, 2.5, 3.0, 3.0));
    }

    #[test]
    fn derive_child_drops_empty() {
        let outer1 = link(7, Rect::new(10.0, 10.0, 12.0, 12.0));
        let parent_table = OcTable::from_entries(vec![OcEntry {
            ancestor: ServerId(1),
            outer: outer1,
            rect: Rect::new(10.0, 10.0, 11.0, 11.0),
        }]);
        let child_dr = Rect::new(0.0, 0.0, 1.0, 1.0);
        let sibling = link(8, Rect::new(5.0, 5.0, 6.0, 6.0));
        let child = parent_table.derive_child(ServerId(2), &child_dr, &sibling);
        assert!(child.is_empty());
    }
}
