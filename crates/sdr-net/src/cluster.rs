//! Process-local deployment manager: launches the first node, hands out
//! client connections, and shuts the whole deployment down.

use crate::node::{bind_node, start_runner, Deployment};
use sdr_core::msg::{Endpoint, Message};
use sdr_core::{FaultCounts, FaultExecutor, FaultPlan, SdrConfig, ServerId};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A running TCP deployment of the SD-Rtree on localhost.
///
/// Every server listens on an OS-assigned port registered in the
/// deployment's address directory, and one runner thread serves them
/// all, binding each new server as a split allocates it. The manager
/// bootstraps server 0, starts the runner and owns the stop flag.
#[derive(Debug)]
pub struct NetCluster {
    pub(crate) deployment: Arc<Deployment>,
}

impl NetCluster {
    /// Launches a deployment with a single empty server.
    pub fn launch(config: SdrConfig) -> std::io::Result<NetCluster> {
        Self::start(config, FaultExecutor::none())
    }

    /// Launches a deployment whose deliveries follow a deterministic
    /// fault plan drawn from `seed`. The same [`FaultPlan`] and its
    /// executor drive the in-process simulator; here the executor's
    /// verdicts are asked for in `send_message` and, for corruption, on
    /// the frame-read path.
    pub fn launch_with_faults(
        config: SdrConfig,
        plan: &FaultPlan,
        seed: u64,
    ) -> std::io::Result<NetCluster> {
        Self::start(config, FaultExecutor::new(plan, seed))
    }

    fn start(config: SdrConfig, faults: FaultExecutor<Message>) -> std::io::Result<NetCluster> {
        config.validate();
        let deployment = Arc::new(Deployment {
            registry: std::sync::RwLock::new(std::collections::HashMap::new()),
            next_server: Arc::new(AtomicU32::new(1)),
            config,
            stop: AtomicBool::new(false),
            in_flight: std::sync::atomic::AtomicI64::new(0),
            delivery_failures: AtomicU64::new(0),
            faults: Mutex::new(faults),
            metrics: sdr_obs::Obs::from_env().take_metrics().map(Mutex::new),
            events: Default::default(),
            wakeup: Default::default(),
            announced: Default::default(),
            arrival: Default::default(),
            runner: Default::default(),
            links: Default::default(),
        });
        let first = bind_node(&deployment, ServerId(0))?;
        start_runner(&deployment, first)?;
        Ok(NetCluster { deployment })
    }

    /// Number of servers spawned so far.
    pub fn num_servers(&self) -> usize {
        self.deployment.next_server.load(Ordering::SeqCst) as usize
    }

    /// Monotonic count of delivery failures: undeliverable frames,
    /// truncated/undecodable inbound frames, and fault-injected losses.
    pub fn delivery_failures(&self) -> u64 {
        self.deployment.delivery_failures.load(Ordering::SeqCst)
    }

    /// Server-bound messages currently in flight (negative transients
    /// only occur when raw, unsolicited frames hit a node listener).
    pub fn in_flight(&self) -> i64 {
        self.deployment.in_flight.load(Ordering::SeqCst)
    }

    /// A sorted `(key, value)` snapshot of the delivery metrics, if
    /// metrics were enabled at launch.
    pub fn metrics_snapshot(&self) -> Option<Vec<(String, f64)>> {
        self.deployment.with_metrics(|m| m.snapshot())
    }

    /// The faults injected so far (all zero without a fault plan).
    pub fn fault_counts(&self) -> FaultCounts {
        self.deployment.faults().counts()
    }

    /// The OS-assigned port a server's listener is bound to, if it is
    /// registered. Exposed for fault tests that talk raw TCP to a node.
    pub fn server_port(&self, id: ServerId) -> Option<u16> {
        self.deployment.lookup(Endpoint::Server(id))
    }

    /// Removes a server from the address directory, simulating a
    /// listener that died mid-run: each later message to it fails its one
    /// lookup and surfaces as a delivery failure.
    pub fn deregister_server(&self, id: ServerId) {
        self.deployment.deregister(Endpoint::Server(id));
    }

    /// Stops the runner, which serves every server ever bound (also
    /// those `deregister_server` hid from the directory), and joins it;
    /// its listeners close with it. A second call, or the `Drop` after an
    /// explicit one, finds no runner left and returns at once.
    pub fn shutdown(&self) {
        self.deployment.stop_runner();
    }
}

impl Drop for NetCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
