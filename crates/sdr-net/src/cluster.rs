//! Process-local deployment manager: launches the first node, hands out
//! client connections, and shuts the whole deployment down.

use crate::node::{bind, run, Deployment};
use sdr_core::msg::{Endpoint, Message};
use sdr_core::{Cluster, FaultCounts, FaultExecutor, FaultPlan, SdrConfig, ServerId};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
    /// fault plan drawn from `seed`. The runner asks the plan's executor
    /// for one verdict per message, when its turn takes it, at the point
    /// and in the order the in-process simulator does: one client's
    /// operations under the same plan and seed meet the same faults on
    /// both substrates.
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
            servers: AtomicUsize::new(1),
            config,
            in_flight: std::sync::atomic::AtomicI64::new(0),
            delivery_failures: AtomicU64::new(0),
            faults: Mutex::new(faults),
            metrics: sdr_obs::Obs::from_env().take_metrics().map(Mutex::new),
            events: Default::default(),
            wakeup: Default::default(),
            queue: Default::default(),
            arrival: Default::default(),
            runner: Default::default(),
            links: Default::default(),
        });
        // The deployment's one runner thread, serving server 0 first.
        let (first, shared) = (bind(&deployment, ServerId(0))?, deployment.clone());
        let runner = std::thread::Builder::new()
            .name("sdr-runner".into())
            .spawn(move || run(&shared, first))?;
        *deployment.runner.lock().unwrap_or_else(|e| e.into_inner()) = Some(runner);
        Ok(NetCluster { deployment })
    }

    /// Number of servers, as the runner last published it: after a
    /// quiesce, every server allocated so far.
    pub fn num_servers(&self) -> usize {
        self.deployment.servers.load(Ordering::SeqCst)
    }

    /// Monotonic count of delivery failures: undeliverable frames,
    /// truncated/undecodable inbound frames, and fault-injected losses.
    pub fn delivery_failures(&self) -> u64 {
        self.deployment.delivery_failures.load(Ordering::SeqCst)
    }

    /// Messages currently in flight: the entries of the runner's queue,
    /// and what its fault executor holds or defers (negative transients
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
        // A runner that panicked took the message it was handling with it.
        if let Some(Err(_)) = self.deployment.stop_runner() {
            self.deployment.record_delivery_failure(None);
        }
    }

    /// Stops the deployment and hands back its servers, with the message
    /// counters the runner kept, as a [`Cluster`]: hashed, counted and
    /// checked like a simulated one. A runner that panicked resumes its
    /// panic here.
    ///
    /// # Panics
    ///
    /// If the runner panicked, or `shutdown` already stopped it.
    #[expect(
        clippy::panic,
        reason = "a test and harness accessor: after `shutdown` the servers are gone, and no answer would be truthful"
    )]
    pub fn into_cluster(self) -> Cluster {
        match self.deployment.stop_runner() {
            Some(Ok((servers, stats))) => {
                Cluster::from_servers(self.deployment.config, servers, stats)
            }
            Some(Err(panic)) => std::panic::resume_unwind(panic),
            None => panic!("the deployment was shut down before `into_cluster`"),
        }
    }
}

impl Drop for NetCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
