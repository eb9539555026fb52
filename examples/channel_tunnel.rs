//! The paper's motivating scenario (§3): "the management of a large
//! scale engineering project (e.g. building the Channel Tunnel) can be
//! undertaken as a cooperative activity."
//!
//! Two organisations (a UK and a French contractor) run an on-going
//! programme of inter-related activities — interviews, a joint report,
//! progress meetings, monitoring — over the open environment:
//! inter-activity dependencies, negotiated responsibility, X.400
//! correspondence across the Channel, and progress monitoring.
//!
//! Run with: `cargo run --example channel_tunnel`

use open_cscw::directory::Dn;
use open_cscw::kernel::Timestamp;
use open_cscw::messaging::{Ipm, MtaNode, OrAddress, SubmitOptions, UserAgent};
use open_cscw::mocca::activity::{
    Activity, ActivityRole, ActivityState, DependencyKind, Monitor, Negotiation, NegotiationSubject,
};
use open_cscw::mocca::org::{OrgRule, Person, RelationKind, Role, RuleKind};
use open_cscw::mocca::CscwEnvironment;
use open_cscw::simnet::{LinkSpec, Sim, TopologyBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- the two organisations and their people --------------------------
    let mut env = CscwEnvironment::new();
    let alice: Dn = "c=UK,o=TML,cn=Alice".parse()?; // UK project coordinator
    let bernard: Dn = "c=FR,o=TML-F,cn=Bernard".parse()?; // FR site engineer
    let claire: Dn = "c=FR,o=TML-F,cn=Claire".parse()?; // FR surveyor
    {
        let org = env.org();
        let mut org = org.write();
        for (dn, name) in [
            (&alice, "Alice"),
            (&bernard, "Bernard"),
            (&claire, "Claire"),
        ] {
            org.add_person(Person::new(dn.clone(), name));
        }
        org.add_role(Role::new("cn=coordinator".parse()?, "coordinator"));
        org.add_role(Role::new("cn=engineer".parse()?, "engineer"));
        org.relate(&alice, RelationKind::Occupies, &"cn=coordinator".parse()?)?;
        org.relate(&bernard, RelationKind::Occupies, &"cn=engineer".parse()?)?;
        org.relate(&claire, RelationKind::Occupies, &"cn=engineer".parse()?)?;
        org.add_rule(OrgRule::new(
            "cn=coordinator".parse()?,
            RuleKind::Permit,
            "schedule",
            "activity",
        ));
        org.add_rule(OrgRule::new(
            "cn=coordinator".parse()?,
            RuleKind::Oblige,
            "monitor",
            "activity",
        ));
    }
    println!(
        "== organisational model: 3 people, 2 roles, knowledge base of {} entries",
        env.publish_knowledge()?
    );

    // ---- the programme of inter-related activities ------------------------
    let t0 = Timestamp::ZERO;
    for (id, name, deadline_days) in [
        ("site-interviews", "Interviews at the boring sites", 10u64),
        (
            "joint-report",
            "Joint production of the progress report",
            30,
        ),
        ("progress-meeting", "Team progress meeting", 35),
        ("monitoring", "Continuous progress monitoring", 365),
    ] {
        let mut a = Activity::new(id.into(), name);
        a.deadline = Some(Timestamp::from_secs(deadline_days * 86_400));
        env.create_activity(&alice, a, t0)?;
    }
    let acts = env.activities_mut();
    acts.add_dependency(
        &"site-interviews".into(),
        DependencyKind::Before,
        &"joint-report".into(),
    )?;
    acts.add_dependency(
        &"joint-report".into(),
        DependencyKind::Before,
        &"progress-meeting".into(),
    )?;
    acts.add_dependency(
        &"joint-report".into(),
        DependencyKind::SharesInformation("doc:report-draft".into()),
        &"monitoring".into(),
    )?;
    println!(
        "== programme: {} activities, schedule order {:?}",
        env.activities().len(),
        env.activities()
            .schedule_order()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );

    for (person, act, role) in [
        (&alice, "joint-report", "editor"),
        (&bernard, "joint-report", "author"),
        (&claire, "site-interviews", "interviewer"),
        (&bernard, "site-interviews", "interviewer"),
    ] {
        env.join_activity(person, &act.into(), ActivityRole(role.into()), t0)?;
    }

    // ---- negotiating responsibility for the report ------------------------
    let mut negotiation = Negotiation::propose(
        NegotiationSubject::Responsibility("joint-report".into()),
        alice.clone(),
        bernard.clone(),
        claire.clone(), // Alice proposes Claire
    );
    negotiation.counter(&bernard, bernard.clone())?; // Bernard volunteers instead
    let responsible = negotiation.accept(&alice)?.clone();
    env.activities_mut()
        .activity_mut(&"joint-report".into())
        .unwrap()
        .responsible = Some(responsible.clone());
    println!(
        "== responsibility for the joint report settled on {responsible} after {} steps",
        negotiation.history().len()
    );

    // ---- cross-Channel correspondence (X.400 over the simulated WAN) ------
    let mut b = TopologyBuilder::new();
    let alice_ws = b.add_node("alice-ws");
    let bernard_ws = b.add_node("bernard-ws");
    let mta_uk = b.add_node("mta-uk");
    let mta_fr = b.add_node("mta-fr");
    b.full_mesh(LinkSpec::wan());
    let mut sim = Sim::new(b.build(), 1992);

    let alice_addr: OrAddress = "C=UK;O=TML;PN=Alice".parse()?;
    let bernard_addr: OrAddress = "C=FR;O=TML-F;PN=Bernard".parse()?;
    let mut uk = MtaNode::new("mta-uk");
    uk.register_mailbox(alice_addr.clone());
    uk.routing_mut().add_country_route("FR", mta_fr);
    let mut fr = MtaNode::new("mta-fr");
    fr.register_mailbox(bernard_addr.clone());
    fr.routing_mut().add_country_route("UK", mta_uk);
    sim.register(mta_uk, uk);
    sim.register(mta_fr, fr);

    let mut alice_ua = UserAgent::new(alice_addr.clone(), alice_ws, mta_uk);
    let bernard_ua = UserAgent::new(bernard_addr.clone(), bernard_ws, mta_fr);
    alice_ua.submit_and_run(
        &mut sim,
        Ipm::text(
            alice_addr,
            bernard_addr,
            "Interview findings needed",
            "Please send the Sangatte interview notes before the report draft.",
        ),
        SubmitOptions {
            report: true,
            ..Default::default()
        },
    );
    let inbox = bernard_ua.inbox(&sim)?;
    println!(
        "== Bernard's inbox after {} µs: {} message(s), first subject {:?}",
        sim.now().as_micros(),
        inbox.len(),
        inbox[0].ipm.heading.subject
    );
    println!(
        "   delivery report back at Alice: {} report(s)",
        alice_ua.reports(&sim)?.len()
    );

    // ---- work happens; monitoring catches a slip ---------------------------
    {
        let acts = env.activities_mut();
        let interviews = acts.activity_mut(&"site-interviews".into()).unwrap();
        interviews.transition(ActivityState::Active)?;
        interviews.report_progress(60)?; // behind schedule
        let report = acts.activity_mut(&"joint-report".into()).unwrap();
        report.transition(ActivityState::Active)?;
        report.report_progress(10)?;
    }
    let eleven_days = Timestamp::from_secs(11 * 86_400);
    let report = Monitor::report(env.activities(), eleven_days);
    println!("== monitoring at day 11:");
    for status in &report.statuses {
        println!(
            "   {:18} state={:?} progress={:3}% overdue={} at-risk-downstream={:?}",
            status.id.to_string(),
            status.state,
            status.progress,
            status.overdue,
            status
                .at_risk_downstream
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        );
    }
    let overdue: Vec<_> = report.overdue().collect();
    assert_eq!(overdue.len(), 1, "the interviews slipped");
    println!(
        "== mean progress of open activities: {:.1}%",
        report.mean_active_progress().unwrap_or(0.0)
    );

    // ---- and the interviews finish; the report may start ------------------
    {
        let acts = env.activities_mut();
        let interviews = acts.activity_mut(&"site-interviews".into()).unwrap();
        interviews.report_progress(100)?;
    }
    assert!(!env.activities().can_start(&"progress-meeting".into()));
    println!(
        "== interviews complete; joint report unblocked: {}",
        env.activities().can_start(&"joint-report".into())
    );
    Ok(())
}
