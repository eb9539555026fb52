//! Experiment F4 — Figure 4, the ODP/CSCW layering.
//!
//! The same cooperative operation ("share a document with a colleague's
//! application") performed at three altitudes:
//!
//! 1. **raw simnet** — hand-rolled message to the peer (no openness);
//! 2. **ODP** — a typed invocation through stub/binder/channel;
//! 3. **CSCW environment over ODP** — hub conversion + shared
//!    repository record + scoped event, per Figure 4's layering.
//!
//! Expected shape: each layer adds bounded per-operation overhead while
//! removing per-application work; the CSCW layer is a strict superset
//! (its operation *includes* the lower layers' bookkeeping).

use criterion::{criterion_group, criterion_main, Criterion};
use cscw_bench::population_env;
use cscw_directory::Dn;
use cscw_kernel::{Layer, Timestamp};
use groupware::sample_artifact;
use mocca::env::AppId;
use odp::{
    Binder, ComputationalObject, InterfaceRef, InterfaceType, InvokerNode, ObjectHost, OdpError,
    OperationSig, Value, ValueKind,
};
use simnet::{LinkSpec, Message, Node, NodeCtx, Payload, Sim, TopologyBuilder};

fn dn(s: &str) -> Dn {
    s.parse().unwrap()
}

// ---- layer 1: raw simulated network ------------------------------------

#[derive(Debug, Default)]
struct RawSink {
    received: u64,
}
impl Node for RawSink {
    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, msg: Message) {
        if msg.payload.downcast_ref::<String>().is_some() {
            self.received += 1;
        }
    }
}

fn raw_world(seed: u64) -> (Sim, simnet::NodeId, simnet::NodeId) {
    let mut b = TopologyBuilder::new();
    let client = b.add_node("client");
    let server = b.add_node("server");
    b.link_both(client, server, LinkSpec::lan());
    let mut sim = Sim::new(b.build(), seed);
    sim.register(server, RawSink::default());
    (sim, client, server)
}

fn raw_share(sim: &mut Sim, client: simnet::NodeId, server: simnet::NodeId) {
    sim.send_from(
        client,
        server,
        Payload::new("document body".to_owned()),
        128,
    );
    sim.run_until_idle();
}

// ---- layer 2: ODP channel ------------------------------------------------

struct DocHolder {
    iface: InterfaceType,
    count: i64,
}
impl DocHolder {
    fn new() -> Self {
        DocHolder {
            iface: InterfaceType::new("doc-holder").with_operation(OperationSig::new(
                "share",
                [ValueKind::Text],
                ValueKind::Int,
            )),
            count: 0,
        }
    }
}
impl ComputationalObject for DocHolder {
    fn interface(&self) -> &InterfaceType {
        &self.iface
    }
    fn invoke(&mut self, _op: &str, _args: &[Value]) -> Result<Value, OdpError> {
        self.count += 1;
        Ok(Value::Int(self.count))
    }
}

fn odp_world(seed: u64) -> (Sim, odp::Channel) {
    let mut b = TopologyBuilder::new();
    let client = b.add_node("client");
    let server = b.add_node("server");
    b.link_both(client, server, LinkSpec::lan());
    let mut sim = Sim::new(b.build(), seed);
    let holder = DocHolder::new();
    let offered = holder.interface().clone();
    let mut host = ObjectHost::new();
    host.install("doc1".into(), holder);
    sim.register(server, host);
    sim.register(client, InvokerNode::default());
    let iref = InterfaceRef {
        object: "doc1".into(),
        node: server,
        interface: "doc-holder".into(),
    };
    let required = InterfaceType::new("doc-holder").with_operation(OperationSig::new(
        "share",
        [ValueKind::Text],
        ValueKind::Int,
    ));
    let channel = Binder::new(client).bind(iref, &offered, &required).unwrap();
    (sim, channel)
}

fn odp_share(sim: &mut Sim, channel: &mut odp::Channel) {
    channel
        .invoke(sim, "share", vec![Value::from("document body")])
        .unwrap();
}

// ---- layer 3: the CSCW environment ----------------------------------------

fn env_share(env: &mut mocca::CscwEnvironment, n: u64) {
    let artifact = sample_artifact("sharedx").expect("fixed population");
    // Each exchange: hub to-common + from-common, repository record,
    // event publication — the full environment service.
    env.exchange(
        &dn("cn=Tom"),
        &artifact,
        &AppId::new("com"),
        Timestamp::from_micros(n),
    )
    .unwrap();
}

fn print_shape() {
    println!("── F4: per-operation work at each layer ──");
    // Count simulated messages per operation at each layer.
    let (mut sim, client, server) = raw_world(1);
    raw_share(&mut sim, client, server);
    let raw_msgs = sim.telemetry().counter(Layer::Net, "net.sent");

    let (mut sim, mut channel) = odp_world(1);
    odp_share(&mut sim, &mut channel);
    let odp_msgs = sim.telemetry().counter(Layer::Net, "net.sent");
    let stats = channel.stats();

    let mut env = population_env(&groupware::APP_POPULATION).expect("static population");
    env_share(&mut env, 1);
    let ops = env.operations();
    let conversions = env.hub().conversions_performed();

    println!("  raw simnet:      {raw_msgs} message(s), no typing, no openness");
    println!(
        "  ODP channel:     {odp_msgs} message(s), {} stub check(s), {} marshalled byte(s)",
        stats.binder_checks, stats.marshalled_bytes
    );
    println!(
        "  CSCW environment: {conversions} conversions + repository record + event, {ops} env op(s)"
    );
    println!("  shape: each layer adds bounded work; CSCW ⊂ ODP ⊂ raw (every higher op contains the lower)");
}

fn bench(c: &mut Criterion) {
    print_shape();
    let mut group = c.benchmark_group("fig4");
    group.sample_size(20);
    group.bench_function("layer1_raw_simnet_share", |b| {
        let (mut sim, client, server) = raw_world(2);
        b.iter(|| raw_share(&mut sim, client, server));
    });
    group.bench_function("layer2_odp_channel_share", |b| {
        let (mut sim, mut channel) = odp_world(2);
        b.iter(|| odp_share(&mut sim, &mut channel));
    });
    group.bench_function("layer3_cscw_environment_share", |b| {
        let mut env = population_env(&groupware::APP_POPULATION).expect("static population");
        let mut n = 0;
        b.iter(|| {
            n += 1;
            env_share(&mut env, n)
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
