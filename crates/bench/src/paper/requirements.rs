//! The six §4/§6.1 requirement experiments: R1 (information sharing),
//! R2 (communication), R3 (activities), R4 (tailorability), R5
//! (transparencies) and R6 (the organisational trading policy).

use std::collections::BTreeSet;

use cscw_directory::{Dn, Filter, SearchRequest, SearchScope};
use cscw_kernel::{Layer, Timestamp};
use cscw_messaging::{BodyPart, Ipm, Priority, SubmitOptions};
use mocca::activity::{
    Activity, ActivityId, ActivityState, DependencyKind, InterActivityModel, Monitor,
};
use mocca::comm::channel::{SessionHandle, SessionHub, SessionMember};
use mocca::env::{EnvEvent, EventBus};
use mocca::info::InfoContent;
use mocca::org::{
    OrgRule, OrgTradingPolicy, OrganisationalModel, Person, RelationKind, Role, RuleKind,
    SharedOrgModel,
};
use mocca::tailor::{EventPattern, RuleAction, RuleEngine, TailorRule};
use mocca::transparency::ActivityIsolation;
use odp::{
    ComputationalObject, ImportRequest, InterfaceRef, InterfaceType, InvokerNode, ObjectHost,
    OdpError, OpMode, OperationSig, Trader, TransparencySelection, TransparentInvoker, Value,
    ValueKind,
};
use simnet::{LinkSpec, NodeId, Sim, TopologyBuilder};

use super::Fallible;
use crate::report::cell;
use crate::{mail_world, populated_dit};

cell! {
    /// R1: entries one directory search returns, per scope.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct SearchCell {
        /// Person entries in the DIT.
        pub entries: usize,
        /// Organisations they are spread over.
        pub orgs: usize,
        /// Seed (the workload draws no randomness).
        pub seed: u64,
        /// Subtree search from the country, no filter.
        pub subtree_all: usize,
        /// Subtree search for persons of capability level 4 or 5.
        pub subtree_filtered: usize,
        /// One-level search under one organisation.
        pub one_level: usize,
        /// Base search of one organisation.
        pub base: usize,
    }
}

cell! {
    /// R2: end-to-end latency of one delivery mode.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct DeliveryCell {
        /// `sync session relay` or `X.400 <priority>`.
        pub mode: &'static str,
        /// Seed of the simulated world.
        pub seed: u64,
        /// Simulated micros from send to receipt.
        pub latency_micros: u64,
    }
}

cell! {
    /// R2: converting a text body part to fax and to paper.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct MediaCell {
        /// Characters of text.
        pub chars: usize,
        /// Seed (the workload draws no randomness).
        pub seed: u64,
        /// Conversion cost to fax, in work units.
        pub fax_cost: u64,
        /// Wire size of the fax part.
        pub fax_bytes: u64,
        /// Conversion cost to paper, in work units.
        pub paper_cost: u64,
        /// Wire size of the paper part.
        pub paper_bytes: u64,
    }
}

cell! {
    /// R3: activity services on one programme.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ActivityCell {
        /// Activities in the programme.
        pub activities: usize,
        /// Parallel chains they are arranged in.
        pub chains: usize,
        /// Seed (the workload draws no randomness).
        pub seed: u64,
        /// `Before` dependency edges.
        pub before_edges: usize,
        /// Activities in the schedule order.
        pub schedule_len: usize,
        /// Activities downstream of the first.
        pub downstream_a0: usize,
        /// Activities the monitor flags overdue at day 30.
        pub overdue_30d: usize,
    }
}

cell! {
    /// R4: actions one event fires with `rules` user rules installed.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct RuleCell {
        /// Rules installed.
        pub rules: usize,
        /// Seed (the workload draws no randomness).
        pub seed: u64,
        /// Actions fired by an event one rule matches.
        pub fired_on_match: usize,
        /// Actions fired by an event no rule matches.
        pub fired_on_miss: usize,
    }
}

cell! {
    /// R5: one step of the ODP transparency ladder.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct LadderCell {
        /// The transparency this step engages.
        pub selection: &'static str,
        /// Seed of the simulated world.
        pub seed: u64,
        /// Transparencies engaged.
        pub engaged: usize,
        /// Whether the remote `add` succeeded.
        pub works_remotely: bool,
        /// Simulated messages the invocation sent.
        pub msgs_per_op: u64,
        /// Locator lookups it made.
        pub locator_lookups: u64,
    }
}

cell! {
    /// R5: scoped events delivered with activity isolation on or off.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct IsolationCell {
        /// Whether isolation is on.
        pub isolation: bool,
        /// Seed (the workload draws no randomness).
        pub seed: u64,
        /// Subscribers, each a member of its own activity.
        pub subscribers: usize,
        /// Events published, spread evenly over the activities.
        pub events: usize,
        /// Deliveries across all subscribers.
        pub deliveries: usize,
        /// Deliveries of events outside the subscriber's activity.
        pub disturbances: u64,
    }
}

cell! {
    /// R6: trader imports with and without the organisational policy.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct PolicyCell {
        /// Printer offers, alternately from GMD and UPC.
        pub offers: usize,
        /// Seed (the workload draws no randomness).
        pub seed: u64,
        /// Matches with no policy attached.
        pub matches_without_policy: usize,
        /// Matches for a staff importer under the policy.
        pub matches_with_policy: usize,
        /// Matches for an importer with no identity under the policy.
        pub anonymous_matches: usize,
    }
}

fn dn(s: &str) -> Fallible<Dn> {
    Ok(s.parse()?)
}

/// R1 over `entries` persons in 10 organisations.
pub fn search(entries: usize, seed: u64) -> Fallible<SearchCell> {
    let orgs = 10;
    let dit = populated_dit(entries, orgs)?;
    let count = |base: &str, scope, filter| -> Fallible<usize> {
        let request = SearchRequest::new(dn(base)?, scope, filter);
        Ok(dit.search(&request)?.entries.len())
    };
    let capable: Filter = "(&(objectClass=person)(capabilityLevel>=4))".parse()?;
    Ok(SearchCell {
        entries,
        orgs,
        seed,
        subtree_all: count("c=UK", SearchScope::Subtree, Filter::True)?,
        subtree_filtered: count("c=UK", SearchScope::Subtree, capable)?,
        one_level: count("c=UK,o=org0", SearchScope::OneLevel, Filter::True)?,
        base: count("c=UK,o=org0", SearchScope::Base, Filter::True)?,
    })
}

/// R2: the four delivery modes, in the order their latencies must
/// rise; each X.400 priority runs on its own seed.
pub fn delivery() -> Fallible<Vec<DeliveryCell>> {
    let mut cells = vec![DeliveryCell {
        mode: "sync session relay",
        seed: 1,
        latency_micros: session_relay(1)?,
    }];
    for (mode, priority, seed) in [
        ("X.400 urgent", Priority::Urgent, 1),
        ("X.400 normal", Priority::Normal, 2),
        ("X.400 non-urgent", Priority::NonUrgent, 3),
    ] {
        let (mut sim, mut a, b) = mail_world(seed)?;
        let submit = sim.now();
        let ipm = Ipm::text(a.address().clone(), b.address().clone(), "s", "t");
        let options = SubmitOptions {
            priority,
            ..Default::default()
        };
        a.submit_and_run(&mut sim, ipm, options);
        let delivered = b.inbox(&sim)?.first().ok_or("mail not delivered")?;
        let latency_micros = delivered.delivered_at - submit;
        cells.push(DeliveryCell {
            mode,
            seed,
            latency_micros,
        });
    }
    Ok(cells)
}

/// One utterance relayed through a session hub to another member.
fn session_relay(seed: u64) -> Fallible<u64> {
    let mut b = TopologyBuilder::new();
    let hub = b.add_node("hub");
    let a = b.add_node("a");
    let c = b.add_node("c");
    b.full_mesh(LinkSpec::wan());
    let mut sim = Sim::new(b.build(), seed);
    sim.register(hub, SessionHub::new());
    sim.register(a, SessionMember::new());
    sim.register(c, SessionMember::new());
    let member = |node, who| {
        dn(who).map(|who| SessionHandle {
            hub,
            member_node: node,
            who,
        })
    };
    let speaker = member(a, "cn=A")?;
    speaker.join(&mut sim);
    member(c, "cn=C")?.join(&mut sim);
    let before = sim.now();
    speaker.utter(&mut sim, "ping");
    sim.run_until_idle();
    let member = sim.node::<SessionMember>(c).ok_or("no member node")?;
    let heard = member.received().last().ok_or("utterance not relayed")?;
    Ok(heard.at - before)
}

/// R2: `chars` characters of text converted to fax and to paper.
pub fn media(chars: usize, seed: u64) -> Fallible<MediaCell> {
    let text = BodyPart::Text("x".repeat(chars));
    let (fax, fax_cost) = text.convert_to("fax")?;
    let (paper, paper_cost) = text.convert_to("paper")?;
    Ok(MediaCell {
        chars,
        seed,
        fax_cost: fax_cost.0,
        fax_bytes: fax.wire_size(),
        paper_cost: paper_cost.0,
        paper_bytes: paper.wire_size(),
    })
}

/// R3: `n` activities as four parallel chains (`a_k` before
/// `a_{k+4}`), every seventh sharing information with the next, each
/// due a day after its predecessor; the first four start and slip.
pub fn activities(n: usize, seed: u64) -> Fallible<ActivityCell> {
    let chains = 4;
    let ids: Vec<ActivityId> = (0..n)
        .map(|i| ActivityId::from(format!("a{i}").as_str()))
        .collect();
    let mut m = InterActivityModel::new();
    for (i, id) in ids.iter().enumerate() {
        let mut a = Activity::new(id.clone(), format!("activity {i}"));
        a.deadline = Some(Timestamp::from_secs((i as u64 + 1) * 86_400));
        m.register(a)?;
    }
    for i in 0..n.saturating_sub(chains) {
        m.add_dependency(&ids[i], DependencyKind::Before, &ids[i + chains])?;
    }
    for i in (0..n.saturating_sub(1)).step_by(7) {
        let shares = DependencyKind::SharesInformation(format!("doc{i}"));
        m.add_dependency(&ids[i], shares, &ids[i + 1])?;
    }
    for id in ids.iter().take(chains) {
        let a = m.activity_mut(id).ok_or("activity vanished")?;
        a.transition(ActivityState::Active)?;
        a.report_progress(10)?;
    }
    let dependencies = m.dependencies().iter();
    let before_edges = dependencies.filter(|d| d.kind == DependencyKind::Before);
    let first = ids.first().ok_or("empty programme")?;
    Ok(ActivityCell {
        activities: n,
        chains,
        seed,
        before_edges: before_edges.count(),
        schedule_len: m.schedule_order().len(),
        downstream_a0: m.downstream_of(first).len(),
        overdue_30d: Monitor::report(&m, Timestamp::from_secs(30 * 86_400))
            .overdue()
            .count(),
    })
}

/// R4: `rules` rules, each filing its own topic into its own folder.
pub fn rules(rules: usize, seed: u64) -> RuleCell {
    let mut engine = RuleEngine::new();
    for i in 0..rules {
        engine.add_rule(TailorRule {
            name: format!("rule{i}"),
            pattern: EventPattern::of_kind("message").with_field("topic", &format!("topic{i}")),
            action: RuleAction::MoveToFolder(format!("folder{i}")),
        });
    }
    let fired = |topic: &str| {
        let mut message = InfoContent::fields([("topic", topic), ("subject", "hello")]);
        engine.apply("message", &mut message).len()
    };
    RuleCell {
        rules,
        seed,
        fired_on_match: fired("topic0"),
        fired_on_miss: fired("no-such-topic"),
    }
}

/// An `add(Int) -> Int` counter behind the `counter` interface.
struct Counter(InterfaceType, i64);

impl ComputationalObject for Counter {
    fn interface(&self) -> &InterfaceType {
        &self.0
    }
    fn invoke(&mut self, _op: &str, args: &[Value]) -> Result<Value, OdpError> {
        self.1 += args.first().and_then(Value::as_int).unwrap_or(0);
        Ok(Value::Int(self.1))
    }
}

/// R5: one remote `add` per step, each step engaging one more
/// transparency, against a counter replicated on two hosts.
pub fn ladder(seed: u64) -> Fallible<Vec<LadderCell>> {
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
    let iface = InterfaceType::new("counter").with_operation(OperationSig::new(
        "add",
        [ValueKind::Int],
        ValueKind::Int,
    ));
    steps
        .into_iter()
        .map(|(selection, sel)| {
            let mut b = TopologyBuilder::new();
            let client = b.add_node("client");
            let hosts: Vec<NodeId> = (0..2).map(|i| b.add_node(format!("h{i}"))).collect();
            b.full_mesh(LinkSpec::lan());
            let mut sim = Sim::new(b.build(), seed);
            sim.register(client, InvokerNode::default());
            for &h in &hosts {
                let mut host = ObjectHost::new();
                host.install("c".into(), Counter(iface.clone(), 0));
                sim.register(h, host);
            }
            let mut invoker = TransparentInvoker::new(client, sel);
            invoker.locator_mut().register("c".into(), hosts.clone());
            let iref = InterfaceRef {
                object: "c".into(),
                node: hosts[0],
                interface: "counter".into(),
            };
            let result =
                invoker.invoke(&mut sim, &iref, "add", vec![Value::Int(1)], OpMode::Update);
            Ok(LadderCell {
                selection,
                seed,
                engaged: sel.engaged_count(),
                works_remotely: result.is_ok(),
                msgs_per_op: sim.telemetry().counter(Layer::Net, "net.sent"),
                locator_lookups: invoker.locator_mut().lookup_count(),
            })
        })
        .collect()
}

/// R5: 100 events over 10 activities, one subscriber per activity.
pub fn isolation(on: bool, seed: u64) -> Fallible<IsolationCell> {
    let (subscribers, events) = (10, 100);
    let activity = |i: usize| ActivityId::from(format!("act{}", i % subscribers).as_str());
    let people = (0..subscribers)
        .map(|i| dn(&format!("cn=p{i}")))
        .collect::<Fallible<Vec<Dn>>>()?;
    let mut bus = EventBus::new();
    bus.set_isolation(if on {
        ActivityIsolation::on()
    } else {
        ActivityIsolation::off()
    });
    for (i, person) in people.iter().enumerate() {
        bus.subscribe(person.clone(), BTreeSet::from([activity(i)]));
    }
    for e in 0..events {
        bus.publish(EnvEvent {
            kind: "update".into(),
            activity: Some(activity(e)),
            at: Timestamp::ZERO,
            payload: InfoContent::Text("x".into()),
        });
    }
    Ok(IsolationCell {
        isolation: on,
        seed,
        subscribers,
        events,
        deliveries: people.iter().map(|p| bus.delivered_to(p).len()).sum(),
        disturbances: bus.total_disturbances(),
    })
}

/// Staff may import printers from GMD but never from UPC.
fn staff_policy() -> Fallible<OrgTradingPolicy> {
    let (tom, staff) = (dn("cn=Tom")?, dn("cn=staff")?);
    let mut m = OrganisationalModel::new();
    m.add_person(Person::new(tom.clone(), "Tom"));
    m.add_role(Role::new(staff.clone(), "staff"));
    m.relate(&tom, RelationKind::Occupies, &staff)?;
    for (kind, action, target) in [
        (RuleKind::Permit, "import", "service:printer"),
        (RuleKind::Permit, "import-from", "org:GMD"),
        (RuleKind::Forbid, "import-from", "org:UPC"),
    ] {
        m.add_rule(OrgRule::new(staff.clone(), kind, action, target));
    }
    Ok(OrgTradingPolicy::new(SharedOrgModel::new(m)))
}

/// R6 over `offers` printer offers.
pub fn policy(offers: usize, seed: u64) -> Fallible<PolicyCell> {
    let printer = InterfaceType::new("printer").with_operation(OperationSig::new(
        "print",
        [ValueKind::Text],
        ValueKind::Bool,
    ));
    let mut trader = Trader::new("t");
    trader.register_service_type(printer.clone());
    for i in 0..offers {
        let iref = InterfaceRef {
            object: format!("lp{i}").as_str().into(),
            node: NodeId::from_raw(i as u32),
            interface: "printer".into(),
        };
        let org = if i % 2 == 0 { "GMD" } else { "UPC" };
        let dpi = Value::Int((i % 4) as i64 * 300);
        trader.export(
            "printer",
            &printer,
            iref,
            [("org", Value::from(org)), ("dpi", dpi)],
        )?;
    }
    let matches = |trader: &Trader, request| trader.import(&request).map_or(0, |v| v.len());
    let matches_without_policy = matches(&trader, ImportRequest::any("printer"));
    trader.attach_policy(staff_policy()?);
    Ok(PolicyCell {
        offers,
        seed,
        matches_without_policy,
        matches_with_policy: matches(
            &trader,
            ImportRequest::any("printer").with_importer("cn=Tom"),
        ),
        anonymous_matches: matches(&trader, ImportRequest::any("printer")),
    })
}
