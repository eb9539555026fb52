//! The four figure experiments: F1 (time–space matrix), F2/F3 (closed
//! adapters vs the environment hub), F3-fed (the hub across
//! environment boundaries) and F4 (the ODP/CSCW layering).

use std::collections::BTreeMap;

use cscw_directory::Dn;
use cscw_kernel::{Layer, Timestamp};
use cscw_messaging::{Ipm, MtaNode, OrAddress, SubmitOptions};
use groupware::{
    sample_artifact, BbsClient, BbsServer, ConferenceClient, ConferenceServer, MeetingRoom,
    Participant, Procedure, ProcedureStep,
};
use mocca::env::{AppId, ClosedWorld, FormatMapping, InteropHub, NativeArtifact};
use mocca::org::{OrganisationalModel, Person, RelationKind, Role};
use odp::{
    Binder, Channel, ComputationalObject, InterfaceRef, InterfaceType, InvokerNode, ObjectHost,
    OdpError, OperationSig, Value, ValueKind,
};
use simnet::{LinkSpec, Message, Node, NodeCtx, NodeId, Payload, Sim, TopologyBuilder};

use super::Fallible;
use crate::fed_scale::{self, Shape};
use crate::report::cell;
use crate::{mail_world, population_env};

cell! {
    /// F1: one time–space quadrant's workload and its simulated
    /// interaction latency.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct QuadrantCell {
        /// `same|different time / same|different place(s)`.
        pub quadrant: &'static str,
        /// The cited system style the workload reproduces.
        pub workload: &'static str,
        /// Seed of the simulated world.
        pub seed: u64,
        /// Simulated micros from the action to its effect (0: local,
        /// no network).
        pub latency_micros: u64,
    }
}

cell! {
    /// F2/F3: integration effort and exchange success for N apps.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct InteropCell {
        /// Applications in the population (N).
        pub apps: usize,
        /// Seed (the workload draws no randomness).
        pub seed: u64,
        /// Adapters a fully wired closed world installs.
        pub closed_adapters: usize,
        /// Mappings the hub needs.
        pub hub_mappings: usize,
        /// Ordered pairs exchanged in each world, N(N−1).
        pub exchanges: usize,
        /// Exchanges a closed world wired with half its adapters serves.
        pub half_wired_ok: usize,
        /// Conversions those half-wired exchanges performed.
        pub adapter_conversions: u64,
        /// Exchanges the hub serves.
        pub hub_ok: usize,
        /// Conversions the hub performed.
        pub hub_conversions: u64,
    }
}

cell! {
    /// F3-fed: a federated ring of fresh sites gossiping to
    /// bit-for-bit replica convergence.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct RingCell {
        /// Sites on the ring.
        pub sites: usize,
        /// Seed of every site's gossip phase.
        pub seed: u64,
        /// Whether every replica converged.
        pub converged: bool,
        /// Gossip periods elapsed until convergence.
        pub gossip_periods: u64,
        /// Gossip pulses handled.
        pub gossip_pulses: usize,
        /// Replica updates applied across all receivers.
        pub updates_applied: usize,
        /// Encoded gossip-frame bytes shipped.
        pub bytes_on_wire: u64,
    }
}

cell! {
    /// F4: the work one "share a document" operation does at one
    /// altitude of the Figure-4 stack.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct LayerCell {
        /// `raw simnet`, `ODP channel` or `CSCW environment`.
        pub altitude: &'static str,
        /// Seed of the simulated world.
        pub seed: u64,
        /// Simulated messages sent.
        pub messages: u64,
        /// Binder integrity checks.
        pub binder_checks: u64,
        /// Bytes the client stub marshalled.
        pub marshalled_bytes: u64,
        /// Hub format conversions.
        pub hub_conversions: u64,
        /// Shared-repository records written.
        pub repository_records: usize,
    }
}

fn dn(s: &str) -> Fallible<Dn> {
    Ok(s.parse()?)
}

/// F1's five workloads, in the order their latencies must rise.
pub fn quadrants(seed: u64) -> Fallible<Vec<QuadrantCell>> {
    let cell = |quadrant, workload, latency_micros| QuadrantCell {
        quadrant,
        workload,
        seed,
        latency_micros,
    };
    Ok(vec![
        cell("same time / same place", "COLAB meeting", meeting()?),
        cell(
            "same time / different places",
            "Shared-X draw",
            conference_draw(seed)?,
        ),
        cell(
            "different times / different places",
            "X.400 delivery",
            mail_delivery(seed)?,
        ),
        cell(
            "different times / different places",
            "COM read next sitting",
            bbs_read_lag(seed)?,
        ),
        cell(
            "different times / same place",
            "DOMINO procedure span",
            procedure_span()?,
        ),
    ])
}

/// Same time / same place: a whole structured meeting, local compute
/// with no network, so no simulated latency.
fn meeting() -> Fallible<u64> {
    let tom = dn("cn=Tom")?;
    let mut m = MeetingRoom::convene(
        "review",
        tom.clone(),
        vec![dn("cn=Wolfgang")?, dn("cn=Leandro")?],
    );
    for i in 0..10 {
        m.propose(&tom, &format!("idea {i}"))?;
    }
    m.start_voting(&tom)?;
    for i in 0..10 {
        m.vote(&dn("cn=Wolfgang")?, i)?;
    }
    m.close(&tom)?;
    Ok(0)
}

/// Same time / different places: one conference draw relayed to all.
fn conference_draw(seed: u64) -> Fallible<u64> {
    let mut b = TopologyBuilder::new();
    let server = b.add_node("server");
    let tom_ws = b.add_node("tom");
    let wolfgang_ws = b.add_node("wolfgang");
    b.full_mesh(LinkSpec::wan());
    let mut sim = Sim::new(b.build(), seed);
    sim.register(server, ConferenceServer::new());
    sim.register(tom_ws, ConferenceClient::new());
    sim.register(wolfgang_ws, ConferenceClient::new());
    let participant = |who: &str, node| dn(who).map(|who| Participant { who, node, server });
    let tom = participant("cn=Tom", tom_ws)?;
    tom.join(&mut sim);
    participant("cn=Wolfgang", wolfgang_ws)?.join(&mut sim);
    tom.request_floor(&mut sim);
    let before = sim.now();
    tom.draw(&mut sim, "one shared line");
    Ok(sim.now() - before)
}

/// Different times / different places: X.400 end-to-end delivery.
fn mail_delivery(seed: u64) -> Fallible<u64> {
    let (mut sim, mut a, b) = mail_world(seed)?;
    let ipm = Ipm::text(a.address().clone(), b.address().clone(), "s", "t");
    a.submit_and_run(&mut sim, ipm, SubmitOptions::default());
    let delivered = b.inbox(&sim)?.first().ok_or("mail not delivered")?;
    Ok(delivered.delivered_at.as_micros())
}

/// Different times / different places: a BBS post read an hour later.
fn bbs_read_lag(seed: u64) -> Fallible<u64> {
    let mut b = TopologyBuilder::new();
    let server = b.add_node("bbs");
    let mta = b.add_node("mta");
    let ws = b.add_node("ws");
    b.full_mesh(LinkSpec::wan());
    let mut sim = Sim::new(b.build(), seed);
    let addr: OrAddress = "C=UK;O=L;PN=BBS".parse()?;
    let mut mta_node = MtaNode::new("mta");
    mta_node.register_mailbox(addr.clone());
    sim.register(mta, mta_node);
    sim.register(server, BbsServer::new(addr, mta));
    let client = BbsClient {
        who: dn("cn=Tom")?,
        node: ws,
        server,
    };
    client.create_conference(&mut sim, "c");
    client.post(&mut sim, "c", "subject", "text", None);
    sim.run_until(sim.now() + 3_600_000_000);
    let entry = *client.read(&sim, "c")?.first().ok_or("post not accepted")?;
    Ok(sim.now() - entry.at)
}

/// Different times / same place: a three-step procedure performed four
/// hours apart, from its first step to its last.
fn procedure_span() -> Fallible<u64> {
    let (clerk, role) = (dn("cn=A")?, dn("cn=r")?);
    let mut org = OrganisationalModel::new();
    org.add_person(Person::new(clerk.clone(), "A"));
    org.add_role(Role::new(role.clone(), "r"));
    org.relate(&clerk, RelationKind::Occupies, &role)?;
    let steps = (0..3).map(|i| ProcedureStep {
        name: format!("s{i}"),
        required_role: role.clone(),
    });
    let mut procedure = Procedure::new("claim", steps.collect());
    let start = Timestamp::from_secs(9 * 3600);
    let at = |step: u64| start + step * 4 * 3_600_000_000;
    for step in 0..3 {
        procedure.perform(&org, step as usize, &clerk, at(step))?;
    }
    Ok(at(2) - start)
}

/// Quadrants the full five-app population covers in one environment.
pub fn quadrants_covered() -> Fallible<usize> {
    let env = population_env(&groupware::APP_POPULATION)?;
    Ok(env.apps().covered_quadrants().len())
}

fn app(i: usize) -> AppId {
    AppId::new(format!("app{i}"))
}

/// App `i`'s own vocabulary for title/body/author.
fn synthetic_mapping(i: usize) -> FormatMapping {
    FormatMapping::new([
        (format!("t{i}"), "title"),
        (format!("b{i}"), "body"),
        (format!("a{i}"), "author"),
    ])
}

fn synthetic_artifact(i: usize) -> NativeArtifact {
    let fields = [
        (format!("t{i}"), "Title".to_owned()),
        (format!("b{i}"), "Body text".to_owned()),
        (format!("a{i}"), "cn=Someone".to_owned()),
    ];
    NativeArtifact {
        app: app(i),
        format: format!("app{i}-native"),
        fields: BTreeMap::from(fields),
    }
}

/// The hand-written `i → j` adapter: `i`'s names to `j`'s, per concept.
fn direct_adapter(i: usize, j: usize) -> FormatMapping {
    let to = synthetic_mapping(j);
    let pairs = synthetic_mapping(i)
        .pairs
        .into_iter()
        .filter_map(|(from, concept)| {
            let (name, _) = to.pairs.iter().find(|(_, c)| *c == concept)?;
            Some((from, name.clone()))
        });
    FormatMapping {
        pairs: pairs.collect(),
    }
}

/// Every ordered pair `(i, j)`, `i ≠ j`, of `n` apps.
fn pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).flat_map(move |i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
}

/// A closed world with the first `wired` adapters of [`pairs`] written.
fn closed_world(n: usize, wired: usize) -> ClosedWorld {
    let mut world = ClosedWorld::new();
    for (i, j) in pairs(n).take(wired) {
        world.install_adapter(app(i), app(j), direct_adapter(i, j));
    }
    world
}

/// F2/F3 for `n` apps: both worlds over every ordered pair.
pub fn interop(n: usize, seed: u64) -> InteropCell {
    let exchanges = n * (n - 1);
    let mut half = closed_world(n, exchanges / 2);
    let half_wired_ok = pairs(n)
        .filter(|&(i, j)| half.exchange(&synthetic_artifact(i), &app(j)).is_ok())
        .count();
    let mut hub = InteropHub::new();
    for i in 0..n {
        hub.register_mapping(app(i), synthetic_mapping(i));
    }
    let hub_ok = pairs(n)
        .filter(|&(i, j)| hub.exchange(&synthetic_artifact(i), &app(j)).is_ok())
        .count();
    InteropCell {
        apps: n,
        seed,
        closed_adapters: closed_world(n, usize::MAX).adapters_needed(),
        hub_mappings: hub.mappings_needed(),
        exchanges,
        half_wired_ok,
        adapter_conversions: half.conversions_performed(),
        hub_ok,
        hub_conversions: hub.conversions_performed(),
    }
}

/// F3-fed: `sites` fresh sites on a ring, each seeded with one distinct
/// knowledge object, run until their replicas converge.
pub fn ring(sites: usize, seed: u64) -> Fallible<RingCell> {
    let mut fed = fed_scale::build(Shape::Ring, sites, seed)?;
    let report = fed.run_until_converged(seed, fed_scale::MAX_SIM_MICROS)?;
    Ok(RingCell {
        sites,
        seed,
        converged: report.converged,
        gossip_periods: report.sim_micros / mocca::federation::DEFAULT_GOSSIP_PERIOD_MICROS,
        gossip_pulses: report.activity.gossip_pulses,
        updates_applied: report.activity.updates_applied,
        bytes_on_wire: report.activity.bytes_on_wire,
    })
}

/// The raw peer: takes any payload, checks nothing.
struct RawSink;

impl Node for RawSink {
    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _msg: Message) {}
}

/// A document holder behind the `doc-holder` interface.
struct DocHolder(InterfaceType);

impl ComputationalObject for DocHolder {
    fn interface(&self) -> &InterfaceType {
        &self.0
    }
    fn invoke(&mut self, _op: &str, _args: &[Value]) -> Result<Value, OdpError> {
        Ok(Value::Int(1))
    }
}

fn doc_holder() -> InterfaceType {
    let share = OperationSig::new("share", [ValueKind::Text], ValueKind::Int);
    InterfaceType::new("doc-holder").with_operation(share)
}

/// A client and a server node on one LAN link.
fn lan_pair(seed: u64) -> (Sim, NodeId, NodeId) {
    let mut b = TopologyBuilder::new();
    let client = b.add_node("client");
    let server = b.add_node("server");
    b.link_both(client, server, LinkSpec::lan());
    (Sim::new(b.build(), seed), client, server)
}

/// A channel from the client to a [`DocHolder`] on the server.
fn odp_world(seed: u64) -> Fallible<(Sim, Channel)> {
    let (mut sim, client, server) = lan_pair(seed);
    let mut host = ObjectHost::new();
    host.install("doc1".into(), DocHolder(doc_holder()));
    sim.register(server, host);
    sim.register(client, InvokerNode::default());
    let iref = InterfaceRef {
        object: "doc1".into(),
        node: server,
        interface: "doc-holder".into(),
    };
    let channel = Binder::new(client).bind(iref, &doc_holder(), &doc_holder())?;
    Ok((sim, channel))
}

/// F4: one share at each altitude. Raw simnet sends one untyped
/// message. The ODP channel invokes `share` on a typed binding. The
/// CSCW environment exchanges a Shared-X artifact to COM through its
/// hub (recording it in the shared repository) and ships the result
/// to the peer over the same ODP channel, as Figure 4 stacks the two.
pub fn layers(seed: u64) -> Fallible<Vec<LayerCell>> {
    let (mut sim, client, server) = lan_pair(seed);
    sim.register(server, RawSink);
    sim.send_from(
        client,
        server,
        Payload::new("document body".to_owned()),
        128,
    );
    sim.run_until_idle();
    let raw = LayerCell {
        altitude: "raw simnet",
        seed,
        messages: sim.telemetry().counter(Layer::Net, "net.sent"),
        ..LayerCell::default()
    };

    let share = |body: String| -> Fallible<LayerCell> {
        let (mut sim, mut channel) = odp_world(seed)?;
        channel.invoke(&mut sim, "share", vec![Value::from(body)])?;
        let stats = channel.stats();
        Ok(LayerCell {
            altitude: "ODP channel",
            seed,
            messages: sim.telemetry().counter(Layer::Net, "net.sent"),
            binder_checks: stats.binder_checks,
            marshalled_bytes: stats.marshalled_bytes,
            ..LayerCell::default()
        })
    };
    let odp = share("document body".to_owned())?;

    let mut env = population_env(&groupware::APP_POPULATION)?;
    let artifact = sample_artifact("sharedx")?;
    let out = env.exchange(
        &dn("cn=Tom")?,
        &artifact,
        &AppId::new("com"),
        Timestamp::ZERO,
    )?;
    let body: Vec<String> = out
        .fields
        .iter()
        .map(|(k, v)| format!("{k}: {v}"))
        .collect();
    let environment = LayerCell {
        altitude: "CSCW environment",
        hub_conversions: env.hub().conversions_performed(),
        repository_records: env.repository().len(),
        ..share(body.join("\n"))?
    };
    Ok(vec![raw, odp, environment])
}
