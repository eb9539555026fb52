//! Failure injection under load: a three-MTA mail workload with random
//! partitions, crashes and heals. Whatever the storm, the system never
//! duplicates a delivery, never livelocks, and accounts for every
//! message (delivered, bounced with an NDR, or dropped on a dead link).

use open_cscw::kernel::{Layer, Timestamp};
use open_cscw::messaging::{Ipm, MtaNode, OrAddress, SubmitOptions, UserAgent};
use open_cscw::simnet::{FaultAction, LinkSpec, NodeId, Sim, TopologyBuilder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

struct World {
    sim: Sim,
    agents: Vec<UserAgent>,
    mtas: Vec<NodeId>,
}

fn world(seed: u64) -> World {
    let mut b = TopologyBuilder::new();
    let ws: Vec<NodeId> = (0..3).map(|i| b.add_node(format!("ws{i}"))).collect();
    let mtas: Vec<NodeId> = (0..3).map(|i| b.add_node(format!("mta{i}"))).collect();
    b.full_mesh(LinkSpec::wan());
    let mut sim = Sim::new(b.build(), seed);

    let countries = ["UK", "DE", "ES"];
    let addrs: Vec<OrAddress> = (0..3)
        .map(|i| {
            format!("C={};O=Org{i};PN=User{i}", countries[i])
                .parse()
                .unwrap()
        })
        .collect();
    for i in 0..3 {
        let mut mta = MtaNode::new(format!("mta{i}"));
        mta.register_mailbox(addrs[i].clone());
        for j in 0..3 {
            if i != j {
                mta.routing_mut().add_country_route(countries[j], mtas[j]);
            }
        }
        sim.register(mtas[i], mta);
    }
    let agents = addrs
        .iter()
        .zip(&ws)
        .zip(&mtas)
        .map(|((a, &w), &m)| UserAgent::new(a.clone(), w, m))
        .collect();
    World { sim, agents, mtas }
}

/// Runs a storm with `sends` messages and random faults; returns
/// (delivered, ndr_reports, sim).
fn storm(seed: u64, sends: usize) -> (usize, usize, Sim) {
    let mut w = world(seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xBAD);

    // Schedule a storm of faults across the first simulated minute.
    for _ in 0..6 {
        let at = Timestamp::from_millis(rng.gen_range(0..60_000));
        let victim = w.mtas[rng.gen_range(0..3)];
        let heal_after = rng.gen_range(100..20_000) * 1_000;
        if rng.gen_bool(0.5) {
            w.sim.schedule_fault(at, FaultAction::Crash(victim));
            w.sim
                .schedule_fault(at + heal_after, FaultAction::Restart(victim));
        } else {
            let other = w.mtas[rng.gen_range(0..3)];
            if other != victim {
                w.sim
                    .schedule_fault(at, FaultAction::Partition(vec![victim], vec![other]));
                w.sim.schedule_fault(at + heal_after, FaultAction::HealAll);
            }
        }
    }

    // The workload: random sender → random other recipient, spread over
    // the same minute via deferred submission times (we submit at t=0
    // but the MTAs process through the storm).
    let recipients: Vec<OrAddress> = w.agents.iter().map(|a| a.address().clone()).collect();
    for n in 0..sends {
        let from = rng.gen_range(0..3);
        let mut to = rng.gen_range(0..3);
        if to == from {
            to = (to + 1) % 3;
        }
        let ipm = Ipm::text(
            w.agents[from].address().clone(),
            recipients[to].clone(),
            &format!("storm-{n}"),
            "payload",
        );
        let defer = Timestamp::from_millis(rng.gen_range(0..60_000));
        w.agents[from].submit(
            &mut w.sim,
            ipm,
            SubmitOptions {
                report: true,
                deferred_until: Some(defer),
                ..Default::default()
            },
        );
    }
    w.sim.run_until_idle();

    let delivered: usize = w
        .agents
        .iter()
        .map(|a| a.inbox(&w.sim).map(|i| i.len()).unwrap_or(0))
        .sum();
    let ndrs: usize = w
        .agents
        .iter()
        .map(|a| {
            a.reports(&w.sim)
                .map(|r| r.iter().filter(|x| !x.outcome.is_delivered()).count())
                .unwrap_or(0)
        })
        .sum();
    (delivered, ndrs, w.sim)
}

#[test]
fn storm_terminates_with_full_accounting() {
    for seed in [1u64, 7, 42, 1992] {
        let (delivered, ndrs, sim) = storm(seed, 60);
        // Conservation at the simnet level: sent = delivered + dropped.
        let m = sim.telemetry();
        assert_eq!(
            m.counter(Layer::Net, "net.sent"),
            m.counter(Layer::Net, "net.delivered") + m.counter(Layer::Net, "net.dropped"),
            "seed {seed}: simnet conservation broken"
        );
        // Application accounting: every workload message either reached
        // a store, produced an NDR, or died on a dead link (counted).
        let lost_on_wire = m.counter(Layer::Net, "net.dropped_partitioned")
            + m.counter(Layer::Net, "net.dropped_node_down");
        assert!(
            delivered + ndrs + lost_on_wire as usize >= 60,
            "seed {seed}: {delivered} delivered + {ndrs} NDRs + {lost_on_wire} wire-lost < 60"
        );
        // No duplicates anywhere.
        assert!(
            delivered <= 60,
            "seed {seed}: more deliveries than submissions"
        );
    }
}

#[test]
fn no_duplicate_message_ids_after_storm() {
    let mut w = world(99);
    w.sim
        .schedule_fault(Timestamp::from_millis(50), FaultAction::Crash(w.mtas[1]));
    w.sim.schedule_fault(
        Timestamp::from_millis(5_000),
        FaultAction::Restart(w.mtas[1]),
    );
    let to = w.agents[1].address().clone();
    for n in 0..20 {
        let ipm = Ipm::text(
            w.agents[0].address().clone(),
            to.clone(),
            &format!("m{n}"),
            "x",
        );
        w.agents[0].submit(&mut w.sim, ipm, SubmitOptions::default());
    }
    w.sim.run_until_idle();
    let inbox = w.agents[1].inbox(&w.sim).unwrap();
    let mut ids: Vec<u64> = inbox.iter().map(|m| m.message_id).collect();
    let before = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len(),
        before,
        "duplicate deliveries after crash/restart"
    );
}

#[test]
fn quiescence_is_reached_even_under_permanent_partition() {
    let mut w = world(7);
    w.sim.apply_fault(FaultAction::Partition(
        vec![w.mtas[0]],
        vec![w.mtas[1], w.mtas[2]],
    ));
    for n in 0..10 {
        let ipm = Ipm::text(
            w.agents[0].address().clone(),
            w.agents[2].address().clone(),
            &format!("m{n}"),
            "x",
        );
        w.agents[0].submit(&mut w.sim, ipm, SubmitOptions::default());
    }
    // run_until_idle terminating at all is the assertion: no retry storm.
    w.sim.run_until_idle();
    assert_eq!(w.agents[2].inbox(&w.sim).unwrap().len(), 0);
    assert!(
        w.sim
            .telemetry()
            .counter(Layer::Net, "net.dropped_partitioned")
            >= 10
    );
}
