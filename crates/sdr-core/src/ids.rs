//! Identifiers for servers, nodes, objects, clients and queries.

use std::fmt;

/// Identifier of a storage server. Servers are numbered densely from 0 in
/// allocation order; server 0 is special in that it never carries a
/// routing node (§2.1: each server except `S0` stores exactly a pair
/// `(r_i, d_i)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u32);

impl ServerId {
    /// The largest id the protocol admits: 65 536 servers, far beyond the
    /// paper's scale (§5: hundreds). Ids being dense, structures indexed
    /// by server ([`crate::Image`]'s slots) are sized by the largest id
    /// they hold; this bound is what keeps an id read off the wire from
    /// sizing an allocation. The codec refuses anything larger, the image
    /// ignores it.
    pub const MAX: ServerId = ServerId(0xFFFF);
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Which of a server's two nodes a reference designates.
///
/// §2.1: "a node can be identified by its type (data or routing) together
/// with the id of the server where it resides".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeKind {
    /// The server's data node (a leaf of the distributed tree).
    Data,
    /// The server's routing node (an internal node).
    Routing,
}

/// A reference to one node of the distributed tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef {
    /// The hosting server.
    pub server: ServerId,
    /// Data or routing node on that server.
    pub kind: NodeKind,
}

impl NodeRef {
    /// Reference to the data node of `server`.
    #[inline]
    pub const fn data(server: ServerId) -> Self {
        NodeRef {
            server,
            kind: NodeKind::Data,
        }
    }

    /// Reference to the routing node of `server`.
    #[inline]
    pub const fn routing(server: ServerId) -> Self {
        NodeRef {
            server,
            kind: NodeKind::Routing,
        }
    }
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            NodeKind::Data => write!(f, "d{}", self.server.0),
            NodeKind::Routing => write!(f, "r{}", self.server.0),
        }
    }
}

/// Identifier of an indexed spatial object (the paper's *oid*).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(pub u64);

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// Identifier of a client component (application node).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Identifier of an in-flight query, used by the termination protocols to
/// match replies to requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_ref_constructors() {
        let s = ServerId(3);
        assert_eq!(
            NodeRef::data(s),
            NodeRef {
                server: s,
                kind: NodeKind::Data
            }
        );
        assert_eq!(
            NodeRef::routing(s),
            NodeRef {
                server: s,
                kind: NodeKind::Routing
            }
        );
        assert_ne!(NodeRef::data(s), NodeRef::routing(s));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ServerId(7).to_string(), "S7");
        assert_eq!(NodeRef::data(ServerId(2)).to_string(), "d2");
        assert_eq!(NodeRef::routing(ServerId(2)).to_string(), "r2");
        assert_eq!(Oid(5).to_string(), "o5");
        assert_eq!(ClientId(1).to_string(), "C1");
    }
}
