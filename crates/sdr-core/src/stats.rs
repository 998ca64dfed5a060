//! Message statistics — the measurement apparatus of the paper's
//! evaluation (§5: "The cost is measured as the number of messages
//! exchanged between servers").
//!
//! Counting rules, matching the paper:
//! * every message **addressed to a server** counts (including the
//!   client's initial request — IMCLIENT's best case is 1 message);
//! * messages between two nodes hosted on the **same server** are free
//!   (§3.2: an insert through `r4` to co-located `d4` costs 2, not 3);
//! * replies and IAMs addressed to clients are tracked separately and do
//!   not count toward the server-message totals.

use crate::ids::ServerId;

/// Coarse message categories, mirroring the paper's cost decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgCategory {
    /// Insertion routing (leaf, ascend, descend, store).
    Insert,
    /// Split initialization and parent notification.
    Split,
    /// Bottom-up height/rectangle adjustment.
    Adjust,
    /// Rotation restructuring messages.
    Rotation,
    /// Overlapping-coverage maintenance.
    Oc,
    /// Query traversal (point, window, kNN).
    Query,
    /// Replies (reports, aggregates).
    Reply,
    /// Image adjustment messages.
    Iam,
    /// Deletion routing and node elimination.
    Delete,
}

impl MsgCategory {
    /// All categories, for iteration/reporting.
    pub const ALL: [MsgCategory; 9] = [
        MsgCategory::Insert,
        MsgCategory::Split,
        MsgCategory::Adjust,
        MsgCategory::Rotation,
        MsgCategory::Oc,
        MsgCategory::Query,
        MsgCategory::Reply,
        MsgCategory::Iam,
        MsgCategory::Delete,
    ];

    /// Stable display name, used for trace-event and metrics keys.
    pub fn name(self) -> &'static str {
        match self {
            MsgCategory::Insert => "Insert",
            MsgCategory::Split => "Split",
            MsgCategory::Adjust => "Adjust",
            MsgCategory::Rotation => "Rotation",
            MsgCategory::Oc => "Oc",
            MsgCategory::Query => "Query",
            MsgCategory::Reply => "Reply",
            MsgCategory::Iam => "Iam",
            MsgCategory::Delete => "Delete",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            MsgCategory::Insert => 0,
            MsgCategory::Split => 1,
            MsgCategory::Adjust => 2,
            MsgCategory::Rotation => 3,
            MsgCategory::Oc => 4,
            MsgCategory::Query => 5,
            MsgCategory::Reply => 6,
            MsgCategory::Iam => 7,
            MsgCategory::Delete => 8,
        }
    }
}

/// Cumulative message counters for a cluster run.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    by_category: [u64; 9],
    /// Messages received per server (indexed by server id).
    per_server: Vec<u64>,
    /// Total server-addressed messages.
    total: u64,
    /// Messages addressed to clients (replies + IAMs), not part of the
    /// paper's cost metric but reported for completeness.
    to_clients: u64,
    /// Messages a server refused (`server::Refused`): delivered and
    /// counted above, but acted on by nobody. Also a message to an id no
    /// server has, which is dropped before it is counted above.
    refused: u64,
}

impl Stats {
    /// Fresh counters.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Records a server-addressed message.
    pub fn record_server_msg(&mut self, to: ServerId, category: MsgCategory) {
        self.total += 1;
        self.by_category[category.index()] += 1;
        let idx = to.0 as usize;
        if self.per_server.len() <= idx {
            self.per_server.resize(idx + 1, 0);
        }
        self.per_server[idx] += 1;
    }

    /// Records a client-addressed message.
    pub fn record_client_msg(&mut self) {
        self.to_clients += 1;
    }

    /// Records `n` messages a server refused or nobody could receive.
    pub fn record_refused(&mut self, n: usize) {
        self.refused += n as u64;
    }

    /// Messages servers refused or nobody could receive; 0 on every
    /// fault-free run.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// Total server-addressed messages.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count for one category.
    pub fn category(&self, c: MsgCategory) -> u64 {
        self.by_category[c.index()]
    }

    /// Messages received per server (indexed by server id; servers that
    /// never received a message may be absent from the tail).
    pub fn per_server(&self) -> &[u64] {
        &self.per_server
    }

    /// Messages received by one server.
    pub fn server(&self, id: ServerId) -> u64 {
        self.per_server.get(id.0 as usize).copied().unwrap_or(0)
    }

    /// Client-addressed messages (replies + IAMs).
    pub fn to_clients(&self) -> u64 {
        self.to_clients
    }

    /// A copy of the per-server counters, for computing per-phase
    /// distribution deltas (Figures 9 and 14).
    pub fn per_server_snapshot(&self) -> Vec<u64> {
        self.per_server.clone()
    }

    /// A snapshot for per-operation deltas.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            by_category: self.by_category,
            total: self.total,
        }
    }

    /// The difference between now and an earlier snapshot.
    pub fn since(&self, snap: &StatsSnapshot) -> StatsDelta {
        let mut by_category = [0u64; 9];
        for (i, c) in by_category.iter_mut().enumerate() {
            *c = self.by_category[i] - snap.by_category[i];
        }
        StatsDelta {
            by_category,
            total: self.total - snap.total,
        }
    }
}

/// A point-in-time copy of the aggregate counters.
#[derive(Clone, Copy, Debug)]
pub struct StatsSnapshot {
    by_category: [u64; 9],
    total: u64,
}

/// Counter differences across an interval (typically one operation).
#[derive(Clone, Copy, Debug)]
pub struct StatsDelta {
    by_category: [u64; 9],
    /// Total server-addressed messages in the interval.
    pub total: u64,
}

impl StatsDelta {
    /// Count for one category in the interval.
    pub fn category(&self, c: MsgCategory) -> u64 {
        self.by_category[c.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reports() {
        let mut s = Stats::new();
        s.record_server_msg(ServerId(0), MsgCategory::Insert);
        s.record_server_msg(ServerId(2), MsgCategory::Insert);
        s.record_server_msg(ServerId(2), MsgCategory::Oc);
        s.record_client_msg();
        assert_eq!(s.total(), 3);
        assert_eq!(s.category(MsgCategory::Insert), 2);
        assert_eq!(s.server(ServerId(2)), 2);
        assert_eq!(s.server(ServerId(1)), 0);
        assert_eq!(s.to_clients(), 1);
    }

    #[test]
    fn snapshot_deltas() {
        let mut s = Stats::new();
        s.record_server_msg(ServerId(0), MsgCategory::Query);
        let snap = s.snapshot();
        s.record_server_msg(ServerId(0), MsgCategory::Query);
        s.record_server_msg(ServerId(1), MsgCategory::Reply);
        let d = s.since(&snap);
        assert_eq!(d.total, 2);
        assert_eq!(d.category(MsgCategory::Query), 1);
        assert_eq!(d.category(MsgCategory::Reply), 1);
        assert_eq!(d.category(MsgCategory::Insert), 0);
    }
}
