//! Property tests for the message transfer system: address round-trips,
//! media-conversion laws, and end-to-end delivery invariants under
//! random multi-MTA workloads.

use cscw_kernel::Layer;
use cscw_messaging::*;
use proptest::prelude::*;
use simnet::{LinkSpec, NodeId, Sim, TopologyBuilder};

fn name_part() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9 .-]{0,10}[A-Za-z0-9]"
}

fn arb_address() -> impl Strategy<Value = OrAddress> {
    (
        name_part(),
        name_part(),
        prop::collection::vec(name_part(), 0..3),
        name_part(),
    )
        .prop_map(|(c, o, ous, pn)| OrAddress::new(c, o, ous, pn).expect("valid parts"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// O/R address display → parse is the identity.
    #[test]
    fn address_round_trip(addr in arb_address()) {
        let printed = addr.to_string();
        let reparsed: OrAddress = printed.parse().expect("printed addresses reparse");
        prop_assert_eq!(addr, reparsed);
    }

    /// Identity conversions are free; legal conversions preserve
    /// non-emptiness; conversion cost grows with input size.
    #[test]
    fn conversion_laws(text in "[ -~]{1,400}") {
        let part = BodyPart::Text(text.clone());
        let (same, cost) = part.convert_to("text").unwrap();
        prop_assert_eq!(&same, &part);
        prop_assert_eq!(cost, ConversionCost(0));

        for target in ["fax", "paper"] {
            let (converted, cost) = part.convert_to(target).unwrap();
            prop_assert_eq!(converted.kind_name(), target);
            prop_assert!(converted.wire_size() > 0);
            prop_assert!(cost >= ConversionCost(text.len() as u64), "cost scales with size");
        }
    }

    /// Text survives a text→paper→text round trip (modulo page breaks).
    #[test]
    fn paper_round_trip_preserves_text(text in "[a-zA-Z0-9 ]{1,2500}") {
        let part = BodyPart::Text(text.clone());
        let (paper, _) = part.convert_to("paper").unwrap();
        let (recovered, _) = paper.convert_to("text").unwrap();
        match recovered {
            BodyPart::Text(s) => prop_assert!(s.replace("\n\x0c\n", "").contains(&text)),
            other => return Err(TestCaseError::fail(format!("got {}", other.kind_name()))),
        }
    }
}

/// A randomly generated send: sender index, recipient index, priority.
#[derive(Debug, Clone)]
struct Send {
    from: usize,
    to: usize,
    priority: Priority,
}

fn arb_sends(users: usize) -> impl Strategy<Value = Vec<Send>> {
    prop::collection::vec(
        (
            0..users,
            0..users,
            prop_oneof![
                Just(Priority::NonUrgent),
                Just(Priority::Normal),
                Just(Priority::Urgent),
            ],
        )
            .prop_map(|(from, to, priority)| Send { from, to, priority }),
        1..25,
    )
}

/// Builds a 3-MTA ring with one user each and runs a random workload.
fn run_world(sends: &[Send], seed: u64) -> (Sim, Vec<UserAgent>) {
    let mut b = TopologyBuilder::new();
    let user_nodes: Vec<NodeId> = (0..3).map(|i| b.add_node(format!("user{i}"))).collect();
    let mta_nodes: Vec<NodeId> = (0..3).map(|i| b.add_node(format!("mta{i}"))).collect();
    b.full_mesh(LinkSpec::wan());
    let mut sim = Sim::new(b.build(), seed);

    let countries = ["UK", "DE", "ES"];
    let orgs = ["Lancaster", "GMD", "UPC"];
    let addrs: Vec<OrAddress> = (0..3)
        .map(|i| {
            OrAddress::new(
                countries[i],
                orgs[i],
                Vec::<String>::new(),
                format!("User {i}"),
            )
            .unwrap()
        })
        .collect();

    for i in 0..3 {
        let mut mta = MtaNode::new(format!("mta{i}"));
        mta.register_mailbox(addrs[i].clone());
        for j in 0..3 {
            if i != j {
                mta.routing_mut()
                    .add_country_route(countries[j], mta_nodes[j]);
            }
        }
        sim.register(mta_nodes[i], mta);
    }
    let mut agents: Vec<UserAgent> = (0..3)
        .map(|i| UserAgent::new(addrs[i].clone(), user_nodes[i], mta_nodes[i]))
        .collect();

    for (n, send) in sends.iter().enumerate() {
        let ipm = Ipm::text(
            agents[send.from].address().clone(),
            addrs[send.to].clone(),
            &format!("msg-{n}"),
            "body",
        );
        let opts = SubmitOptions {
            priority: send.priority,
            report: true,
            ..Default::default()
        };
        agents[send.from].submit(&mut sim, ipm, opts);
    }
    sim.run_until_idle();
    (sim, agents)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// In a lossless network every submission is delivered exactly once,
    /// and every delivery produces a delivery report back at the sender.
    #[test]
    fn every_message_delivered_once_with_report(sends in arb_sends(3), seed in any::<u64>()) {
        let (sim, agents) = run_world(&sends, seed);
        let delivered: usize =
            agents.iter().map(|a| a.inbox(&sim).unwrap().len()).sum();
        prop_assert_eq!(delivered, sends.len(), "all messages delivered exactly once");
        prop_assert_eq!(sim.telemetry().counter(Layer::Messaging, "mts.deliver"), sends.len() as u64);
        prop_assert_eq!(sim.telemetry().counter(Layer::Messaging, "mts.non_deliver"), 0);
        let reports: usize = agents.iter().map(|a| a.reports(&sim).unwrap().len()).sum();
        prop_assert_eq!(reports, sends.len(), "one delivery report per message");
        // Every report is a success.
        for a in &agents {
            for r in a.reports(&sim).unwrap() {
                prop_assert!(r.outcome.is_delivered());
            }
        }
    }

    /// Message ids in any inbox are unique (no duplication anywhere).
    #[test]
    fn no_duplicate_deliveries(sends in arb_sends(3), seed in any::<u64>()) {
        let (sim, agents) = run_world(&sends, seed);
        for a in &agents {
            let ids: Vec<u64> = a.inbox(&sim).unwrap().iter().map(|m| m.message_id).collect();
            let mut dedup = ids.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(ids.len(), dedup.len());
        }
    }

    /// Per-recipient inbox arrival order respects per-sender submission
    /// order for same-priority messages (store-and-forward FIFO).
    #[test]
    fn same_priority_fifo_per_pair(n in 2usize..10, seed in any::<u64>()) {
        let sends: Vec<Send> =
            (0..n).map(|_| Send { from: 0, to: 1, priority: Priority::Normal }).collect();
        let (sim, agents) = run_world(&sends, seed);
        let subjects: Vec<String> = agents[1]
            .inbox(&sim)
            .unwrap()
            .iter()
            .map(|m| m.ipm.heading.subject.clone())
            .collect();
        let expected: Vec<String> = (0..n).map(|i| format!("msg-{i}")).collect();
        prop_assert_eq!(subjects, expected);
    }
}
