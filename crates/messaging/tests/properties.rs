//! Property tests for the message transfer system: address round-trips,
//! media-conversion laws, and end-to-end delivery invariants under
//! random multi-MTA workloads.
//!
//! The `k`-th property in this file draws case `c` from
//! `SeededRng::seed_from((k << 32) | c)`; a failure names its case and
//! seed, and replays from that seed alone.

use cscw_kernel::{Layer, SeededRng};
use cscw_messaging::*;
use simnet::{LinkSpec, NodeId, Sim, TopologyBuilder};

const ALPHA: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
const ALNUM: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
const NAME_CHARS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 .-";

/// A legal O/R name part: a letter, up to ten name characters, and a
/// closing letter or digit.
fn name_part(rng: &mut SeededRng) -> String {
    let mut part = rng.word(ALPHA, 1..=1);
    part.push_str(&rng.word(NAME_CHARS, 0..=10));
    part.push_str(&rng.word(ALNUM, 1..=1));
    part
}

fn arb_address(rng: &mut SeededRng) -> OrAddress {
    let c = name_part(rng);
    let o = name_part(rng);
    let ous: Vec<String> = (0..rng.below(3)).map(|_| name_part(rng)).collect();
    let pn = name_part(rng);
    OrAddress::new(c, o, ous, pn).expect("valid parts")
}

/// O/R address display → parse is the identity.
#[test]
fn address_round_trip() {
    for case in 0..128 {
        let seed = (1 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let addr = arb_address(&mut rng);
        let printed = addr.to_string();
        let reparsed: OrAddress = printed.parse().expect("printed addresses reparse");
        assert_eq!(addr, reparsed, "{at}");
    }
}

/// Identity conversions are free; legal conversions preserve
/// non-emptiness; conversion cost grows with input size.
#[test]
fn conversion_laws() {
    let printable: Vec<u8> = (b' '..=b'~').collect();
    for case in 0..128 {
        let seed = (2 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let text = rng.word(&printable, 1..=400);
        let part = BodyPart::Text(text.clone());
        let (same, cost) = part.convert_to("text").unwrap();
        assert_eq!(&same, &part, "{at}");
        assert_eq!(cost, ConversionCost(0), "{at}");

        for target in ["fax", "paper"] {
            let (converted, cost) = part.convert_to(target).unwrap();
            assert_eq!(converted.kind_name(), target, "{at}");
            assert!(converted.wire_size() > 0, "{at}: empty {target}");
            assert!(
                cost >= ConversionCost(text.len() as u64),
                "{at}: cost scales with size"
            );
        }
    }
}

/// Text survives a text→paper→text round trip (modulo page breaks).
#[test]
fn paper_round_trip_preserves_text() {
    for case in 0..128 {
        let seed = (3 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let text = rng.word(
            b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 ",
            1..=2500,
        );

        let part = BodyPart::Text(text.clone());
        let (paper, _) = part.convert_to("paper").unwrap();
        let (recovered, _) = paper.convert_to("text").unwrap();
        match recovered {
            BodyPart::Text(s) => {
                assert!(s.replace("\n\x0c\n", "").contains(&text), "{at}: text lost")
            }
            other => panic!("{at}: got {}", other.kind_name()),
        }
    }
}

/// A randomly generated send: sender index, recipient index, priority.
#[derive(Debug)]
struct Send {
    from: usize,
    to: usize,
    priority: Priority,
}

fn arb_sends(rng: &mut SeededRng, users: u64) -> Vec<Send> {
    (0..rng.range_inclusive(1, 24))
        .map(|_| Send {
            from: rng.below(users) as usize,
            to: rng.below(users) as usize,
            priority: [Priority::NonUrgent, Priority::Normal, Priority::Urgent]
                [rng.below(3) as usize],
        })
        .collect()
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

/// In a lossless network every submission is delivered exactly once,
/// and every delivery produces a delivery report back at the sender.
#[test]
fn every_message_delivered_once_with_report() {
    for case in 0..48 {
        let seed = (4 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let sends = arb_sends(&mut rng, 3);
        let (sim, agents) = run_world(&sends, rng.next_u64());
        let delivered: usize = agents.iter().map(|a| a.inbox(&sim).unwrap().len()).sum();
        assert_eq!(
            delivered,
            sends.len(),
            "{at}: all messages delivered exactly once"
        );
        let t = sim.telemetry();
        assert_eq!(
            t.counter(Layer::Messaging, "mts.deliver"),
            sends.len() as u64,
            "{at}"
        );
        assert_eq!(t.counter(Layer::Messaging, "mts.non_deliver"), 0, "{at}");
        let reports: usize = agents.iter().map(|a| a.reports(&sim).unwrap().len()).sum();
        assert_eq!(
            reports,
            sends.len(),
            "{at}: one delivery report per message"
        );
        // Every report is a success.
        for a in &agents {
            for r in a.reports(&sim).unwrap() {
                assert!(r.outcome.is_delivered(), "{at}: {:?}", r.outcome);
            }
        }
    }
}

/// Message ids in any inbox are unique (no duplication anywhere).
#[test]
fn no_duplicate_deliveries() {
    for case in 0..48 {
        let seed = (5 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let sends = arb_sends(&mut rng, 3);
        let (sim, agents) = run_world(&sends, rng.next_u64());
        for a in &agents {
            let ids: Vec<u64> = a
                .inbox(&sim)
                .unwrap()
                .iter()
                .map(|m| m.message_id)
                .collect();
            let mut dedup = ids.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(ids.len(), dedup.len(), "{at}");
        }
    }
}

/// Per-recipient inbox arrival order respects per-sender submission
/// order for same-priority messages (store-and-forward FIFO).
#[test]
fn same_priority_fifo_per_pair() {
    for case in 0..48 {
        let seed = (6 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let n = rng.range_inclusive(2, 9) as usize;
        let sends: Vec<Send> = (0..n)
            .map(|_| Send {
                from: 0,
                to: 1,
                priority: Priority::Normal,
            })
            .collect();
        let (sim, agents) = run_world(&sends, rng.next_u64());
        let subjects: Vec<String> = agents[1]
            .inbox(&sim)
            .unwrap()
            .iter()
            .map(|m| m.ipm.heading.subject.clone())
            .collect();
        let expected: Vec<String> = (0..n).map(|i| format!("msg-{i}")).collect();
        assert_eq!(subjects, expected, "{at}");
    }
}
