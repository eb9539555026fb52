//! Experiment R5 — §4 transparencies, ablated one at a time.
//!
//! Two halves:
//!
//! * **ODP distribution transparencies** — the same invocation with 0–5
//!   flags engaged; expected shape: cost grows modestly with engaged
//!   flags (locator lookups, retries), functionality grows with it.
//! * **CSCW activity transparency** — event delivery with isolation
//!   on/off; expected shape: identical relevant deliveries, a flood of
//!   disturbances only when off.

use std::collections::BTreeSet;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cscw_directory::Dn;
use cscw_kernel::{Layer, Timestamp};
use mocca::activity::ActivityId;
use mocca::env::{EnvEvent, EventBus};
use mocca::info::InfoContent;
use mocca::transparency::ActivityIsolation;
use odp::{
    ComputationalObject, InterfaceRef, InterfaceType, InvokerNode, ObjectHost, OdpError, OpMode,
    OperationSig, TransparencySelection, TransparentInvoker, Value, ValueKind,
};
use simnet::{LinkSpec, NodeId, Sim, TopologyBuilder};

fn dn(s: &str) -> Dn {
    s.parse().unwrap()
}

struct Counter {
    iface: InterfaceType,
    n: i64,
}
impl Counter {
    fn new() -> Self {
        Counter {
            iface: InterfaceType::new("counter").with_operation(OperationSig::new(
                "add",
                [ValueKind::Int],
                ValueKind::Int,
            )),
            n: 0,
        }
    }
}
impl ComputationalObject for Counter {
    fn interface(&self) -> &InterfaceType {
        &self.iface
    }
    fn invoke(&mut self, _op: &str, args: &[Value]) -> Result<Value, OdpError> {
        self.n += args[0].as_int().expect("checked");
        Ok(Value::Int(self.n))
    }
}

fn odp_world(seed: u64) -> (Sim, NodeId, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let client = b.add_node("client");
    let hosts: Vec<NodeId> = (0..2).map(|i| b.add_node(format!("h{i}"))).collect();
    b.full_mesh(LinkSpec::lan());
    let mut sim = Sim::new(b.build(), seed);
    sim.register(client, InvokerNode::default());
    for &h in &hosts {
        let mut host = ObjectHost::new();
        host.install("c".into(), Counter::new());
        sim.register(h, host);
    }
    (sim, client, hosts)
}

/// The ablation ladder: each step engages one more transparency.
fn ladder() -> Vec<(&'static str, TransparencySelection)> {
    let mut sel = TransparencySelection::none();
    let mut steps = vec![("none", sel)];
    sel.access = true;
    steps.push(("access", sel));
    sel.location = true;
    steps.push(("+location", sel));
    sel.migration = true;
    steps.push(("+migration", sel));
    sel.replication = true;
    steps.push(("+replication", sel));
    sel.failure = true;
    steps.push(("+failure (full)", sel));
    steps
}

fn invoke_once(
    sim: &mut Sim,
    invoker: &mut TransparentInvoker,
    iref: &InterfaceRef,
) -> Result<Value, OdpError> {
    invoker.invoke(sim, iref, "add", vec![Value::Int(1)], OpMode::Update)
}

fn print_shape() {
    println!("── R5a: ODP transparency ladder (messages per invocation) ──");
    println!("  selection          engaged   works remotely?   msgs/op   locator lookups/op");
    for (label, sel) in ladder() {
        let (mut sim, client, hosts) = odp_world(5);
        let mut invoker = TransparentInvoker::new(client, sel);
        invoker
            .locator_mut()
            .register("c".into(), vec![hosts[0], hosts[1]]);
        let iref = InterfaceRef {
            object: "c".into(),
            node: hosts[0],
            interface: "counter".into(),
        };
        let before_msgs = sim.telemetry().counter(Layer::Net, "net.sent");
        let result = invoke_once(&mut sim, &mut invoker, &iref);
        let msgs = sim.telemetry().counter(Layer::Net, "net.sent") - before_msgs;
        let lookups = invoker.locator_mut().lookup_count();
        println!(
            "  {label:<18} {:<9} {:<17} {msgs:<9} {lookups}",
            sel.engaged_count(),
            if result.is_ok() {
                "yes"
            } else {
                "no (by design)"
            },
        );
    }
    println!("  shape: cost grows with engaged transparencies (replication doubles updates)");

    println!("── R5b: CSCW activity transparency (isolation ablation) ──");
    let mut relevant_events = 0;
    let mut disturbances_on = 0;
    let mut disturbances_off = 0;
    for isolation in [true, false] {
        let mut bus = EventBus::new();
        bus.set_isolation(if isolation {
            ActivityIsolation::on()
        } else {
            ActivityIsolation::off()
        });
        // 10 subscribers each member of 1 of 10 activities.
        for i in 0..10 {
            let memberships: BTreeSet<ActivityId> =
                [ActivityId::from(format!("act{i}").as_str())].into();
            bus.subscribe(dn(&format!("cn=p{i}")), memberships);
        }
        // 100 events spread over the activities.
        for e in 0..100 {
            bus.publish(EnvEvent {
                kind: "update".into(),
                activity: Some(ActivityId::from(format!("act{}", e % 10).as_str())),
                at: Timestamp::ZERO,
                payload: InfoContent::Text("x".into()),
            });
        }
        if isolation {
            relevant_events = (0..10)
                .map(|i| bus.delivered_to(&dn(&format!("cn=p{i}"))).len())
                .sum::<usize>();
            disturbances_on = bus.total_disturbances();
        } else {
            disturbances_off = bus.total_disturbances();
        }
    }
    println!(
        "  isolation on:  {relevant_events} relevant deliveries, {disturbances_on} disturbances"
    );
    println!(
        "  isolation off: {} extra deliveries, all disturbances",
        disturbances_off
    );
    assert_eq!(disturbances_on, 0);
    assert_eq!(
        disturbances_off, 900,
        "every unrelated event disturbs 9 of 10 subscribers"
    );
}

fn bench(c: &mut Criterion) {
    print_shape();
    let mut group = c.benchmark_group("req5_transparency");
    group.sample_size(10);
    for (label, sel) in ladder() {
        group.bench_with_input(BenchmarkId::new("odp_invoke", label), &sel, |b, &sel| {
            let (mut sim, client, hosts) = odp_world(9);
            let mut invoker = TransparentInvoker::new(client, sel);
            invoker
                .locator_mut()
                .register("c".into(), vec![hosts[0], hosts[1]]);
            let iref = InterfaceRef {
                object: "c".into(),
                node: hosts[0],
                interface: "counter".into(),
            };
            b.iter(|| {
                let _ = invoke_once(&mut sim, &mut invoker, &iref);
            });
        });
    }
    for isolation in [true, false] {
        let label = if isolation { "on" } else { "off" };
        group.bench_with_input(
            BenchmarkId::new("event_bus_isolation", label),
            &isolation,
            |b, &iso| {
                let mut bus = EventBus::new();
                bus.set_isolation(if iso {
                    ActivityIsolation::on()
                } else {
                    ActivityIsolation::off()
                });
                for i in 0..10 {
                    let memberships: BTreeSet<ActivityId> =
                        [ActivityId::from(format!("act{i}").as_str())].into();
                    bus.subscribe(dn(&format!("cn=p{i}")), memberships);
                }
                let mut e = 0u64;
                b.iter(|| {
                    e += 1;
                    bus.publish(EnvEvent {
                        kind: "update".into(),
                        activity: Some(ActivityId::from(format!("act{}", e % 10).as_str())),
                        at: Timestamp::ZERO,
                        payload: InfoContent::Text("x".into()),
                    })
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
