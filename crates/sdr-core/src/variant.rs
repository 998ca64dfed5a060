//! Contact-server routing for the IMSERVER variant (§5).
//!
//! "The third variant maintains an image on each server component and
//! not on the client component. ... We simulate this by choosing
//! randomly, for each request, a contact server playing the role of a
//! services provider. The contact server uses its own image."
//!
//! A contact server differs from a client in one respect: it has
//! authoritative knowledge of its *own* two nodes, which it folds into
//! its image before choosing a target. IAMs triggered by addressing
//! errors come back to the contact server, improving its image for
//! future requests (more slowly than a client's, since each server sees
//! only 1/N of the workload — exactly the effect Figure 8 measures).

use crate::ids::{ClientId, NodeRef};
use crate::msg::{ClientOp, ImageHolder, ReplyProtocol};
use crate::server::{Outbox, Server};

/// Routes one client operation from a contact server, using the server's
/// image.
pub(crate) fn route_from_server(
    server: &mut Server,
    op: ClientOp,
    results_to: ClientId,
    out: &mut Outbox,
) {
    // The contact server knows its own nodes authoritatively.
    for link in server.iam_links() {
        server.image.absorb_link(link);
    }
    // Empty image: nothing is known beyond our own data node; address it
    // (it will repair if out of range).
    let (to, payload, _) = crate::client::address(
        Some(&server.image),
        NodeRef::data(server.id),
        op,
        ImageHolder::Server(server.id),
        results_to,
        ReplyProtocol::Direct,
    );
    out.send_server(to, payload);
}
