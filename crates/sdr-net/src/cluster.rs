//! Process-local deployment manager: binds the deployment's listener,
//! launches the runner with the deployment's `Cluster`, hands out client
//! connections, and shuts the whole deployment down — or hands that
//! cluster back.

use crate::node::{run, Deployment, Published};
use sdr_core::msg::Endpoint;
use sdr_core::{Cluster, FaultCounts, FaultPlan, SdrConfig, ServerId};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A running TCP deployment of the SD-Rtree on localhost.
///
/// The deployment listens on one OS-assigned port, and every server's
/// entry in its address directory names it: one runner thread reads
/// every frame sent there and serves every server. It owns the
/// deployment's [`Cluster`], which routes each frame by its `to`, and
/// registers each new server as a split allocates it. The manager binds
/// the listener, registers server 0, starts the runner and owns the stop
/// flag.
#[derive(Debug)]
pub struct NetCluster {
    pub(crate) deployment: Arc<Deployment>,
}

impl NetCluster {
    /// Launches a deployment with a single empty server.
    pub fn launch(config: SdrConfig) -> std::io::Result<NetCluster> {
        Self::start(Cluster::new(config), false)
    }

    /// Launches a deployment whose deliveries follow a deterministic
    /// fault plan drawn from `seed`. The runner's cluster installs it, so
    /// its delivery loop — the simulator's — draws one verdict per
    /// message, when its turn takes it: one client's operations under the
    /// same plan and seed meet the same faults on both substrates.
    pub fn launch_with_faults(
        config: SdrConfig,
        plan: &FaultPlan,
        seed: u64,
    ) -> std::io::Result<NetCluster> {
        let mut cluster = Cluster::new(config);
        cluster.install_faults(plan, seed);
        Self::start(cluster, true)
    }

    fn start(cluster: Cluster, fault_plan: bool) -> std::io::Result<NetCluster> {
        let deployment = Arc::new(Deployment {
            in_flight: std::sync::atomic::AtomicI64::new(0),
            delivery_failures: AtomicU64::new(0),
            fault_plan,
            published: Mutex::new(Published::of(&cluster)),
            metrics: sdr_obs::Obs::from_env().take_metrics().map(Mutex::new),
            events: Default::default(),
            wakeup: Default::default(),
            queue: Default::default(),
            arrival: Default::default(),
            runner: Default::default(),
            links: Default::default(),
        });
        // The deployment's one listener, and its one runner thread.
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let port = listener.local_addr()?.port();
        let link = deployment.register(Endpoint::Server(ServerId(0)), port);
        let shared = deployment.clone();
        let runner = std::thread::Builder::new()
            .name("sdr-runner".into())
            .spawn(move || run(&shared, listener, link, cluster))?;
        *deployment.runner.lock().unwrap_or_else(|e| e.into_inner()) = Some(runner);
        Ok(NetCluster { deployment })
    }

    /// Number of servers, as the runner last published it: after a
    /// quiesce, every server allocated so far.
    pub fn num_servers(&self) -> usize {
        self.deployment.published().servers
    }

    /// Server-addressed messages so far (`Stats::total`, the paper's cost
    /// metric), as the runner last published it. Exact once the
    /// deployment is quiescent: after an insert or a delete returns, and
    /// after every operation under a fault plan. A query returns at its
    /// last report, which can come before the runner publishes the total
    /// of the post it set off.
    pub fn messages(&self) -> u64 {
        self.deployment.published().messages
    }

    /// Monotonic count of delivery failures: undeliverable frames,
    /// truncated/undecodable inbound frames, and fault-injected losses.
    pub fn delivery_failures(&self) -> u64 {
        self.deployment.delivery_failures.load(Ordering::SeqCst)
    }

    /// Client posts currently in flight: posted, and not yet drained to
    /// quiescence by the runner, held and deferred messages included
    /// (negative transients only occur when raw, unsolicited frames hit
    /// the deployment's listener).
    pub fn in_flight(&self) -> i64 {
        self.deployment.in_flight.load(Ordering::SeqCst)
    }

    /// A sorted `(key, value)` snapshot of the delivery metrics, if
    /// metrics were enabled at launch.
    pub fn metrics_snapshot(&self) -> Option<Vec<(String, f64)>> {
        self.deployment.with_metrics(|m| m.snapshot())
    }

    /// The faults injected so far (all zero without a fault plan), as
    /// the runner published them before it settled its last post.
    pub fn fault_counts(&self) -> FaultCounts {
        self.deployment.published().faults
    }

    /// The port a server's frames are sent to, if it is registered: the
    /// deployment's one listener, for every server. Exposed for fault
    /// tests that talk raw TCP to a node.
    pub fn server_port(&self, id: ServerId) -> Option<u16> {
        self.deployment.lookup(Endpoint::Server(id))
    }

    /// Removes a server from the address directory, simulating a server
    /// that died mid-run: each later message to it fails its one lookup
    /// and surfaces as a delivery failure.
    pub fn deregister_server(&self, id: ServerId) {
        self.deployment.deregister(Endpoint::Server(id));
    }

    /// Stops the runner, which serves every server ever registered (also
    /// those `deregister_server` hid from the directory), and joins it;
    /// the deployment's listener closes with it. A second call, or the
    /// `Drop` after an explicit one, finds no runner left and returns at
    /// once.
    pub fn shutdown(&self) {
        // A runner that panicked took the message it was handling with it.
        if let Some(Err(_)) = self.deployment.stop_runner() {
            self.deployment.record_delivery_failure(None);
        }
    }

    /// Stops the deployment and hands back the [`Cluster`] its runner
    /// ran — servers, message counters, fault counts and trace — to be
    /// hashed, counted and checked like a simulated one. A runner that
    /// panicked resumes its panic here.
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
            Some(Ok(cluster)) => cluster,
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
