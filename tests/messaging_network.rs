//! Integration: a three-country X.400 network with transit routing,
//! distribution lists, media conversion on the wire, and fault
//! injection (MTA crash, partition heal).

use open_cscw::kernel::{Layer, Timestamp};
use open_cscw::messaging::{
    BodyPart, DeliveryOutcome, Ipm, MtaNode, NonDeliveryReason, OrAddress, Priority, SubmitOptions,
    UserAgent,
};
use open_cscw::simnet::{FaultAction, LinkSpec, NodeId, Sim, TopologyBuilder};

struct World {
    sim: Sim,
    agents: Vec<UserAgent>,
    mtas: Vec<NodeId>,
}

/// UK — DE — ES in a line: UK and ES can only reach each other through
/// the DE transit MTA, exercising multi-hop store-and-forward.
fn world() -> World {
    let mut b = TopologyBuilder::new();
    let ws: Vec<NodeId> = (0..3).map(|i| b.add_node(format!("ws{i}"))).collect();
    let mta_uk = b.add_node("mta-uk");
    let mta_de = b.add_node("mta-de");
    let mta_es = b.add_node("mta-es");
    // Workstations reach their own MTA; MTAs form a line UK–DE–ES.
    for (w, m) in ws.iter().zip([mta_uk, mta_de, mta_es]) {
        b.link_both(*w, m, LinkSpec::lan());
    }
    b.link_both(mta_uk, mta_de, LinkSpec::wan());
    b.link_both(mta_de, mta_es, LinkSpec::wan());
    let mut sim = Sim::new(b.build(), 71);

    let addrs: Vec<OrAddress> = [
        "C=UK;O=Lancaster;PN=Tom Rodden",
        "C=DE;O=GMD;PN=Wolfgang Prinz",
        "C=ES;O=UPC;PN=Leandro Navarro",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();

    let mut uk = MtaNode::new("mta-uk");
    uk.register_mailbox(addrs[0].clone());
    uk.routing_mut().add_country_route("DE", mta_de);
    uk.routing_mut().add_country_route("ES", mta_de); // via transit

    let mut de = MtaNode::new("mta-de");
    de.register_mailbox(addrs[1].clone());
    de.routing_mut().add_country_route("UK", mta_uk);
    de.routing_mut().add_country_route("ES", mta_es);
    // The project distribution list lives at the DE MTA.
    de.register_dl("C=DE;O=GMD;PN=mocca-all".parse().unwrap(), addrs.clone());

    let mut es = MtaNode::new("mta-es");
    es.register_mailbox(addrs[2].clone());
    es.routing_mut().add_country_route("UK", mta_de); // via transit
    es.routing_mut().add_country_route("DE", mta_de);

    sim.register(mta_uk, uk);
    sim.register(mta_de, de);
    sim.register(mta_es, es);

    let agents = addrs
        .iter()
        .zip(&ws)
        .zip([mta_uk, mta_de, mta_es])
        .map(|((a, &w), m)| UserAgent::new(a.clone(), w, m))
        .collect();
    World {
        sim,
        agents,
        mtas: vec![mta_uk, mta_de, mta_es],
    }
}

#[test]
fn transit_routing_crosses_two_hops() {
    let mut w = world();
    let ipm = Ipm::text(
        w.agents[0].address().clone(),
        w.agents[2].address().clone(),
        "via transit",
        "UK to ES through DE",
    );
    w.agents[0].submit_and_run(
        &mut w.sim,
        ipm,
        SubmitOptions {
            report: true,
            ..Default::default()
        },
    );
    let inbox = w.agents[2].inbox(&w.sim).unwrap();
    assert_eq!(inbox.len(), 1);
    // Multi-hop cost: at least three MTA processing delays (50ms × 2 ×
    // priority factor) plus WAN latency.
    assert!(inbox[0].delivered_at >= Timestamp::from_millis(300));
    // The report made it all the way back.
    let reports = w.agents[0].reports(&w.sim).unwrap();
    assert_eq!(reports.len(), 1);
    assert!(reports[0].outcome.is_delivered());
}

#[test]
fn distribution_list_fans_out_to_all_countries() {
    let mut w = world();
    let dl: OrAddress = "C=DE;O=GMD;PN=mocca-all".parse().unwrap();
    let ipm = Ipm::text(
        w.agents[2].address().clone(),
        dl,
        "to everyone",
        "hello project",
    );
    w.agents[2].submit_and_run(&mut w.sim, ipm, SubmitOptions::default());
    for agent in &w.agents {
        let inbox = agent.inbox(&w.sim).unwrap();
        assert_eq!(inbox.len(), 1, "{} missed the DL copy", agent.address());
    }
    assert_eq!(
        w.sim.telemetry().counter(Layer::Messaging, "mts.dl.expand"),
        1
    );
}

#[test]
fn mta_crash_drops_then_heal_allows_resend() {
    let mut w = world();
    // The DE transit MTA crashes mid-route.
    w.sim.apply_fault(FaultAction::Crash(w.mtas[1]));
    let ipm = Ipm::text(
        w.agents[0].address().clone(),
        w.agents[2].address().clone(),
        "lost in transit",
        "x",
    );
    w.agents[0].submit_and_run(&mut w.sim, ipm, SubmitOptions::default());
    assert!(w.agents[2].inbox(&w.sim).unwrap().is_empty());

    // It restarts; a resend goes through.
    w.sim.apply_fault(FaultAction::Restart(w.mtas[1]));
    let ipm = Ipm::text(
        w.agents[0].address().clone(),
        w.agents[2].address().clone(),
        "second attempt",
        "x",
    );
    w.agents[0].submit_and_run(&mut w.sim, ipm, SubmitOptions::default());
    let inbox = w.agents[2].inbox(&w.sim).unwrap();
    assert_eq!(inbox.len(), 1);
    assert_eq!(inbox[0].ipm.heading.subject, "second attempt");
}

#[test]
fn fax_body_part_travels_and_costs_more_wire() {
    let mut w = world();
    let text_ipm = Ipm::text(
        w.agents[0].address().clone(),
        w.agents[1].address().clone(),
        "text",
        "short note",
    );
    let text_size = text_ipm.wire_size();

    let mut fax_ipm = Ipm::text(
        w.agents[0].address().clone(),
        w.agents[1].address().clone(),
        "fax",
        "",
    );
    let (fax, _cost) = BodyPart::Text("site plan sketch".repeat(20))
        .convert_to("fax")
        .unwrap();
    fax_ipm.body = vec![fax];
    let fax_size = fax_ipm.wire_size();
    assert!(
        fax_size > text_size * 5,
        "raster weighs much more than text"
    );

    w.agents[0].submit(&mut w.sim, text_ipm, SubmitOptions::default());
    w.agents[0].submit(&mut w.sim, fax_ipm, SubmitOptions::default());
    w.sim.run_until_idle();
    let inbox = w.agents[1].inbox(&w.sim).unwrap();
    assert_eq!(inbox.len(), 2);
    let fax_msg = inbox
        .iter()
        .find(|m| m.ipm.heading.subject == "fax")
        .unwrap();
    assert_eq!(fax_msg.ipm.body[0].kind_name(), "fax");
}

#[test]
fn deferred_delivery_holds_until_morning() {
    let mut w = world();
    let morning = Timestamp::from_secs(8 * 3600);
    let ipm = Ipm::text(
        w.agents[1].address().clone(),
        w.agents[0].address().clone(),
        "overnight batch",
        "sent at midnight, delivered at 8am",
    );
    w.agents[1].submit_and_run(
        &mut w.sim,
        ipm,
        SubmitOptions {
            deferred_until: Some(morning),
            priority: Priority::NonUrgent,
            report: false,
        },
    );
    let inbox = w.agents[0].inbox(&w.sim).unwrap();
    assert_eq!(inbox.len(), 1);
    assert!(inbox[0].delivered_at >= morning);
}

#[test]
fn unroutable_country_gets_ndr_not_silence() {
    let mut w = world();
    let nowhere: OrAddress = "C=XX;O=Void;PN=Nobody".parse().unwrap();
    let ipm = Ipm::text(w.agents[0].address().clone(), nowhere, "into the void", "x");
    w.agents[0].submit_and_run(&mut w.sim, ipm, SubmitOptions::default());
    let reports = w.agents[0].reports(&w.sim).unwrap();
    assert_eq!(reports.len(), 1);
    assert!(matches!(
        reports[0].outcome,
        DeliveryOutcome::NonDelivery {
            reason: NonDeliveryReason::NoRoute
        }
    ));
}

#[test]
fn priority_classes_order_end_to_end_latency() {
    let mut w = world();
    let from = w.agents[0].address().clone();
    let to = w.agents[2].address().clone();
    let mk = move |subject: &str| Ipm::text(from.clone(), to.clone(), subject, "x");
    w.agents[0].submit(
        &mut w.sim,
        mk("bulk"),
        SubmitOptions {
            priority: Priority::NonUrgent,
            ..Default::default()
        },
    );
    w.agents[0].submit(&mut w.sim, mk("routine"), SubmitOptions::default());
    w.agents[0].submit(
        &mut w.sim,
        mk("urgent"),
        SubmitOptions {
            priority: Priority::Urgent,
            ..Default::default()
        },
    );
    w.sim.run_until_idle();
    let inbox = w.agents[2].inbox(&w.sim).unwrap();
    let at = |s: &str| {
        inbox
            .iter()
            .find(|m| m.ipm.heading.subject == s)
            .unwrap()
            .delivered_at
    };
    assert!(at("urgent") < at("routine"), "urgent beats routine");
    assert!(at("routine") < at("bulk"), "routine beats bulk");
}

#[test]
fn routing_loops_bounce_at_the_hop_limit() {
    // Two misconfigured MTAs that each think the other serves C=XX.
    let mut b = TopologyBuilder::new();
    let ws = b.add_node("ws");
    let mta_a = b.add_node("mta-a");
    let mta_b = b.add_node("mta-b");
    b.full_mesh(LinkSpec::lan());
    let mut sim = Sim::new(b.build(), 131);

    let sender: OrAddress = "C=UK;O=L;PN=Sender".parse().unwrap();
    let mut a = MtaNode::new("mta-a");
    a.register_mailbox(sender.clone());
    a.routing_mut().add_country_route("XX", mta_b);
    let mut bb = MtaNode::new("mta-b");
    bb.routing_mut().add_country_route("XX", mta_a); // back the other way
    bb.routing_mut().add_country_route("UK", mta_a);
    sim.register(mta_a, a);
    sim.register(mta_b, bb);

    let mut agent = UserAgent::new(sender, ws, mta_a);
    let doomed: OrAddress = "C=XX;O=Nowhere;PN=Nobody".parse().unwrap();
    let ipm = Ipm::text(agent.address().clone(), doomed, "ping-pong", "x");
    agent.submit_and_run(&mut sim, ipm, SubmitOptions::default());

    // The message did not livelock: it bounced with an NDR.
    let reports = agent.reports(&sim).unwrap();
    assert_eq!(reports.len(), 1);
    assert!(matches!(
        reports[0].outcome,
        DeliveryOutcome::NonDelivery {
            reason: NonDeliveryReason::HopLimitExceeded
        }
    ));
}
