//! Integration: one trace follows an exchange across every boundary.
//!
//! The observability claim behind the Figure-4 stack: a [`TraceId`]
//! minted where the operation enters the stack survives the resilience
//! decorator's retries, the platform port lowerings, the federation
//! fabric's resolve/route, and the simulated wire — so a single
//! `exchange` reads back as one causally-ordered span tree, whatever
//! went wrong along the way.
//!
//! [`TraceId`]: open_cscw::kernel::TraceId

use std::collections::BTreeMap;

use open_cscw::directory::Dn;
use open_cscw::federation::FederationFabric;
use open_cscw::groupware::{descriptor_for, mapping_for, sample_artifact};
use open_cscw::kernel::{Layer, RetryPolicy, Telemetry, Timestamp};
use open_cscw::mocca::env::{AppDescriptor, AppId, FormatMapping, Quadrant};
use open_cscw::mocca::federation::DEFAULT_GOSSIP_PERIOD_MICROS;
use open_cscw::mocca::org::Person;
use open_cscw::mocca::{CscwEnvironment, FederatedEnvironments, ResilientPlatform, SimPlatform};
use open_cscw::simnet::NodeId;

fn dn(s: &str) -> Dn {
    s.parse().unwrap()
}

/// An environment over `ResilientPlatform(SimPlatform)` whose whole
/// stack narrates onto `telemetry`.
fn resilient_sim_env(seed: u64, telemetry: Telemetry) -> CscwEnvironment {
    let platform = ResilientPlatform::new(Box::new(SimPlatform::with_telemetry(seed, telemetry)))
        .with_seed(seed)
        .with_policy(RetryPolicy::new(3, 500, 4_000));
    let env = CscwEnvironment::with_platform(Box::new(platform));
    env.org()
        .write()
        .add_person(Person::new(dn("cn=Tom"), "Tom"));
    env
}

fn env_with_app(app: &str, field: &str) -> CscwEnvironment {
    let mut env = CscwEnvironment::new();
    env.register_app(
        AppDescriptor {
            id: app.into(),
            name: app.to_owned(),
            quadrant: Quadrant::CORRESPONDENCE,
            native_format: format!("{app}-native"),
            kinds: vec!["document".into()],
        },
        FormatMapping::new([(field, "title")]),
    );
    env
}

/// The simulated platform wrapped by the environment's resilient one.
fn sim_platform(env: &mut CscwEnvironment) -> &mut SimPlatform {
    env.platform_mut()
        .as_any_mut()
        .downcast_mut::<ResilientPlatform>()
        .expect("test runs on the resilient platform")
        .inner_mut()
        .as_any_mut()
        .downcast_mut::<SimPlatform>()
        .expect("resilience wraps the simulated platform")
}

fn node_named(env: &mut CscwEnvironment, name: &str) -> NodeId {
    let topo = sim_platform(env).sim().topology();
    let mut by_name = BTreeMap::new();
    for id in topo.node_ids() {
        by_name.insert(topo.node_name(id).to_owned(), id);
    }
    *by_name.get(name).expect("platform node exists")
}

#[test]
fn federated_exchange_yields_one_trace_covering_five_layers() {
    let shared = Telemetry::new();
    let mut env_a = resilient_sim_env(7, shared.clone());
    env_a.register_app(
        descriptor_for("sharedx").unwrap(),
        mapping_for("sharedx").unwrap(),
    );

    // The fabric narrates onto the same stream as env-a's platform, so
    // federation spans land in the same traces as the environment's.
    let mut fed =
        FederatedEnvironments::with_fabric(FederationFabric::new().with_telemetry(shared.clone()));
    fed.federate("env-a", env_a);
    fed.federate("env-b", env_with_app("com", "betreff"));
    fed.link_bidi("env-a", "env-b");
    shared.clear();

    let artifact = sample_artifact("sharedx").unwrap();
    fed.env_mut("env-a")
        .unwrap()
        .exchange(
            &dn("cn=Tom"),
            &artifact,
            &AppId::new("com"),
            Timestamp::ZERO,
        )
        .expect("federated exchange");
    fed.run_for(DEFAULT_GOSSIP_PERIOD_MICROS, 1)
        .expect("delivery on a scheduled pump pulse");

    // One trace, entered at the App layer, descending the Figure-4
    // stack through the federation fabric down to the simulated wire.
    let exchange_traces: Vec<_> = shared
        .traces()
        .into_iter()
        .filter_map(|id| shared.trace(id))
        .filter(|tr| !tr.spans_named("app.exchange").is_empty())
        .collect();
    assert_eq!(
        exchange_traces.len(),
        1,
        "exactly one trace carries the exchange"
    );
    let trace = &exchange_traces[0];
    assert!(
        trace.is_depth_ordered(),
        "causality must flow down the stack; tree:\n{}",
        trace.render_tree()
    );
    let layers = trace.layers();
    assert!(
        layers.len() >= 5,
        "expected >= 5 Figure-4 layers in one trace, saw {layers:?}\n{}",
        trace.render_tree()
    );
    assert_eq!(layers.first(), Some(&Layer::App));
    // The remote hop resolves through the fabric (Federation), not the
    // local trader, so Odp need not appear — but the directory and the
    // wire below it must.
    for layer in [
        Layer::App,
        Layer::Env,
        Layer::Federation,
        Layer::Directory,
        Layer::Net,
    ] {
        assert!(layers.contains(&layer), "missing {layer:?} in {layers:?}");
    }
    assert!(
        !trace.spans_named("federation.resolve").is_empty()
            || !trace.spans_named("federation.route").is_empty(),
        "the remote hop shows up as federation spans; tree:\n{}",
        trace.render_tree()
    );
}

#[test]
fn trace_id_survives_resilient_retries() {
    let shared = Telemetry::new();
    let mut env = resilient_sim_env(11, shared.clone());
    for app in ["sharedx", "com"] {
        env.register_app(descriptor_for(app).unwrap(), mapping_for(app).unwrap());
    }
    let artifact = sample_artifact("sharedx").unwrap();

    // Warm-up on a healthy platform fills the port caches so the
    // faulted exchange can degrade instead of failing outright.
    env.exchange(
        &dn("cn=Tom"),
        &artifact,
        &AppId::new("com"),
        Timestamp::ZERO,
    )
    .expect("healthy warm-up");

    // Crash the trader node: every trader import now fails transiently,
    // so the resilience layer retries (and eventually degrades).
    let trader = node_named(&mut env, "trader");
    sim_platform(&mut env)
        .sim_mut()
        .topology_mut()
        .crash_node(trader);
    shared.clear();

    let at = sim_platform(&mut env).sim().now();
    env.exchange(&dn("cn=Tom"), &artifact, &AppId::new("com"), at)
        .expect("degraded exchange still completes");

    let exchange_traces: Vec<_> = shared
        .traces()
        .into_iter()
        .filter_map(|id| shared.trace(id))
        .filter(|tr| !tr.spans_named("app.exchange").is_empty())
        .collect();
    assert_eq!(exchange_traces.len(), 1);
    let trace = &exchange_traces[0];
    let retries = trace.spans_named("resilience.retry");
    assert!(
        !retries.is_empty(),
        "the crash must force retries; tree:\n{}",
        trace.render_tree()
    );
    // Every retry anywhere on the stream belongs to this exchange's
    // trace: the TraceId survived the resilience layer's loop.
    assert!(
        shared
            .spans()
            .iter()
            .filter(|s| s.name == "resilience.retry")
            .all(|s| s.trace == trace.id),
        "retries leaked out of the triggering trace"
    );
    assert!(trace.is_depth_ordered(), "tree:\n{}", trace.render_tree());
}

/// 64-bit FNV-1a, the digest the rendered stream is pinned by.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn rendered_stream_of_one_sim_exchange_is_pinned() {
    // Default capacities keep every event, so the digest covers every
    // counter and every event's text — registration, the trader import,
    // the DSA add, the MTA notify and each simnet hop between them.
    let mut env = CscwEnvironment::with_platform(Box::new(SimPlatform::new(5)));
    env.org()
        .write()
        .add_person(Person::new(dn("cn=Tom"), "Tom"));
    for app in ["sharedx", "com"] {
        env.register_app(descriptor_for(app).unwrap(), mapping_for(app).unwrap());
    }
    let artifact = sample_artifact("sharedx").unwrap();
    env.exchange(
        &dn("cn=Tom"),
        &artifact,
        &AppId::new("com"),
        Timestamp::ZERO,
    )
    .unwrap();
    let rendered = env.telemetry().render();
    assert_eq!(env.telemetry().dropped_events(), 0);
    assert_eq!(
        fnv1a(&rendered),
        1_366_518_310_158_234_467,
        "rendered telemetry moved:\n{rendered}"
    );
}
