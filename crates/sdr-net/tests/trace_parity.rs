//! Trace parity: a TCP deployment records the simulator's trace, line for
//! line.
//!
//! The deployment's runner owns a `Cluster` and runs its delivery loop,
//! so causal ids, ticks and trace events come from the same code on both
//! substrates. One test function, so this process can switch tracing on
//! through `SDR_TRACE` before anything launches, and nothing races it:
//! `Cluster::new` reads it, the runner's cluster included.

use sdr_core::{Client, ClientId, Cluster, Object, Oid, SdrConfig, Variant};
use sdr_net::{NetClient, NetCluster};
use sdr_workload::{DatasetSpec, Distribution};

#[test]
fn a_deployment_records_the_simulators_trace() {
    std::env::set_var("SDR_TRACE", "1");
    let config = SdrConfig::with_capacity(8);
    let objects: Vec<Object> = DatasetSpec::new(1_000, Distribution::Uniform)
        .generate(11)
        .into_iter()
        .enumerate()
        .map(|(i, r)| Object::new(Oid(i as u64), r))
        .collect();
    let gone: Vec<Object> = objects.iter().step_by(2).copied().collect();

    let mut sim = Cluster::new(config);
    // A `NetClient`'s core starts from seed 0 too.
    let mut client = Client::new(ClientId(0), Variant::ImClient, 0);
    for obj in &objects {
        client.insert(&mut sim, *obj);
    }
    for obj in &gone {
        client.delete(&mut sim, *obj);
    }

    let net = NetCluster::launch(config).unwrap();
    let mut client = NetClient::connect(&net).unwrap();
    for obj in &objects {
        client.insert(*obj).unwrap();
        client.quiesce().unwrap();
    }
    for obj in &gone {
        client.delete(*obj).unwrap();
        client.quiesce().unwrap();
    }
    assert_eq!(net.delivery_failures(), 0);
    let tcp = net.into_cluster();

    let render = |c: &Cluster| c.obs().trace().expect("SDR_TRACE is set").render();
    let (want, got) = (render(&sim), render(&tcp));
    assert!(
        want.lines().count() > 10_000,
        "a trace this short pins little"
    );
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(g, w, "trace line {i} differs");
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
