//! Experiment F1 — Figure 1, the groupware time–space matrix.
//!
//! Runs a representative workload in each quadrant through the same
//! environment and prints the per-quadrant *simulated* interaction
//! latency; Criterion measures the wall-time cost of simulating each
//! workload. Expected shape: same-time quadrants bounded by link
//! latency (milliseconds), different-time quadrants bounded by
//! store-and-forward (hundreds of milliseconds and up), one environment
//! covering all four.

use criterion::{criterion_group, criterion_main, Criterion};
use cscw_bench::{mail_world, population_env};
use cscw_messaging::{Ipm, SubmitOptions};
use groupware::{
    BbsClient, BbsServer, ConferenceClient, ConferenceServer, MeetingRoom, Participant, Procedure,
    ProcedureStep,
};
use simnet::{LinkSpec, Sim, SimDuration, SimTime, TopologyBuilder};

fn dn(s: &str) -> cscw_directory::Dn {
    s.parse().unwrap()
}

/// Same time / different places: one conference draw round-trip.
fn conference_round(seed: u64) -> SimDuration {
    let mut b = TopologyBuilder::new();
    let server = b.add_node("server");
    let tom_ws = b.add_node("tom");
    let wolfgang_ws = b.add_node("wolfgang");
    b.full_mesh(LinkSpec::wan());
    let mut sim = Sim::new(b.build(), seed);
    sim.register(server, ConferenceServer::new());
    sim.register(tom_ws, ConferenceClient::new());
    sim.register(wolfgang_ws, ConferenceClient::new());
    let tom = Participant {
        who: dn("cn=Tom"),
        node: tom_ws,
        server,
    };
    let wolfgang = Participant {
        who: dn("cn=Wolfgang"),
        node: wolfgang_ws,
        server,
    };
    tom.join(&mut sim);
    wolfgang.join(&mut sim);
    tom.request_floor(&mut sim);
    let before = sim.now();
    tom.draw(&mut sim, "one shared line");
    sim.now().saturating_since(before)
}

/// Same time / same place: a whole structured meeting (local compute).
fn meeting(seed: u64) -> usize {
    let _ = seed;
    let mut m = MeetingRoom::convene(
        "review",
        dn("cn=Tom"),
        vec![dn("cn=Wolfgang"), dn("cn=Leandro")],
    );
    for i in 0..10 {
        m.propose(&dn("cn=Tom"), &format!("idea {i}")).unwrap();
    }
    m.start_voting(&dn("cn=Tom")).unwrap();
    for i in 0..10 {
        m.vote(&dn("cn=Wolfgang"), i).unwrap();
    }
    m.close(&dn("cn=Tom")).unwrap().len()
}

/// Different times / different places: a BBS post read later.
fn bbs_post(seed: u64) -> SimDuration {
    let mut b = TopologyBuilder::new();
    let server = b.add_node("bbs");
    let mta = b.add_node("mta");
    let ws = b.add_node("ws");
    b.full_mesh(LinkSpec::wan());
    let mut sim = Sim::new(b.build(), seed);
    let addr: cscw_messaging::OrAddress = "C=UK;O=L;PN=BBS".parse().unwrap();
    let mut mta_node = cscw_messaging::MtaNode::new("mta");
    mta_node.register_mailbox(addr.clone());
    sim.register(mta, mta_node);
    sim.register(server, BbsServer::new(addr, mta));
    let client = BbsClient {
        who: dn("cn=Tom"),
        node: ws,
        server,
    };
    client.create_conference(&mut sim, "c");
    let posted = sim.now();
    client.post(&mut sim, "c", "subject", "text", None);
    // The reader arrives an hour later.
    sim.run_until(sim.now() + SimDuration::from_secs(3600));
    let entries = client.read(&sim, "c").unwrap();
    let accepted = entries.first().map(|e| e.at.into()).unwrap_or(posted);
    sim.now().saturating_since(accepted)
}

/// Different times / same place: a three-step procedure across a day.
fn procedure_run(seed: u64) -> SimDuration {
    let _ = seed;
    let mut org = mocca::org::OrganisationalModel::new();
    org.add_person(mocca::org::Person::new(dn("cn=A"), "A"));
    org.add_role(mocca::org::Role::new(dn("cn=r"), "r"));
    org.relate(&dn("cn=A"), mocca::org::RelationKind::Occupies, &dn("cn=r"))
        .unwrap();
    let mut p = Procedure::new(
        "claim",
        (0..3)
            .map(|i| ProcedureStep {
                name: format!("s{i}"),
                required_role: dn("cn=r"),
            })
            .collect(),
    );
    let start = SimTime::from_secs(9 * 3600);
    let mut t = start;
    let mut last = start;
    for i in 0..3 {
        p.perform(&org, i, &dn("cn=A"), t.into()).unwrap();
        last = t;
        t += SimDuration::from_secs(4 * 3600);
    }
    last.saturating_since(start)
}

/// Asynchronous mail end-to-end, for the matrix's async latency row.
fn mail_end_to_end(seed: u64) -> SimDuration {
    let (mut sim, mut a, b) = mail_world(seed).expect("static fixtures");
    let ipm = Ipm::text(a.address().clone(), b.address().clone(), "s", "t");
    a.submit_and_run(&mut sim, ipm, SubmitOptions::default());
    let inbox = b.inbox(&sim).unwrap();
    inbox[0].delivered_at.saturating_since(SimTime::ZERO)
}

fn print_shape() {
    println!("── F1: time–space matrix, simulated interaction latency ──");
    let sync = conference_round(1);
    let mail = mail_end_to_end(1);
    let bbs = bbs_post(1);
    let proc_span = procedure_run(1);
    println!("  same time / different places (Shared-X draw):   {sync}");
    println!("  same time / same place       (COLAB meeting):   local, no network");
    println!("  diff times / diff places     (X.400 delivery):  {mail}");
    println!("  diff times / diff places     (COM read lag):    {bbs}");
    println!("  diff times / same place      (DOMINO span):     {proc_span}");
    let env = population_env(&groupware::APP_POPULATION).expect("static population");
    println!(
        "  quadrants covered by one environment: {}/4",
        env.apps().covered_quadrants().len()
    );
    assert!(sync < mail, "shape: synchronous ≪ store-and-forward");
    assert!(mail < bbs, "shape: store-and-forward ≪ sit-down-later");
}

fn bench(c: &mut Criterion) {
    print_shape();
    let mut group = c.benchmark_group("fig1");
    group.sample_size(20);
    group.bench_function("same_time_diff_place_conference_round", |bencher| {
        let mut seed = 0;
        bencher.iter(|| {
            seed += 1;
            conference_round(seed)
        });
    });
    group.bench_function("same_time_same_place_meeting", |bencher| {
        let mut seed = 0;
        bencher.iter(|| {
            seed += 1;
            meeting(seed)
        });
    });
    group.bench_function("diff_time_diff_place_mail", |bencher| {
        let mut seed = 0;
        bencher.iter(|| {
            seed += 1;
            mail_end_to_end(seed)
        });
    });
    group.bench_function("diff_time_same_place_procedure", |bencher| {
        let mut seed = 0;
        bencher.iter(|| {
            seed += 1;
            procedure_run(seed)
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
