//! Property tests for the groupware applications: meeting-room voting
//! invariants, procedure sequencing safety, BBS threading integrity,
//! and conference WYSIWIS under random command interleavings.
//!
//! The `k`-th property in this file draws case `c` from
//! `SeededRng::seed_from((k << 32) | c)`; a failure names its case and
//! seed, and replays from that seed alone.

use cscw_directory::Dn;
use cscw_kernel::SeededRng;
use groupware::meeting_room::MeetingPhase;
use groupware::{
    BbsClient, BbsServer, ConferenceClient, ConferenceServer, MeetingRoom, Participant, Procedure,
    ProcedureStep,
};
use simnet::{LinkSpec, Sim, TopologyBuilder};

fn dn(s: &str) -> Dn {
    s.parse().unwrap()
}

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";

/// Random meeting scripts: propose/vote/start/close by random actors.
#[derive(Debug)]
enum MeetingOp {
    Propose(usize, String),
    StartVoting(usize),
    Vote(usize, usize),
    Close(usize),
}

fn arb_meeting_ops(rng: &mut SeededRng) -> Vec<MeetingOp> {
    (0..rng.range_inclusive(1, 39))
        .map(|_| {
            let p = rng.below(4) as usize;
            match rng.below(4) {
                0 => MeetingOp::Propose(p, rng.word(LOWER, 1..=8)),
                1 => MeetingOp::StartVoting(p),
                2 => MeetingOp::Vote(p, rng.below(8) as usize),
                _ => MeetingOp::Close(p),
            }
        })
        .collect()
}

/// Whatever the script: votes never exceed participants × items, the
/// phase machine never goes backwards, and the final ranking is sorted
/// by votes.
#[test]
fn meeting_invariants() {
    let people: Vec<Dn> = (0..4).map(|i| dn(&format!("cn=p{i}"))).collect();
    for case in 0..64 {
        let seed = (1 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let ops = arb_meeting_ops(&mut rng);
        let mut m = MeetingRoom::convene("m", people[0].clone(), people[1..].to_vec());
        let mut phase_rank = 0; // brainstorm=0, voting=1, closed=2
        for op in ops {
            match op {
                MeetingOp::Propose(p, text) => {
                    let _ = m.propose(&people[p], &text);
                }
                MeetingOp::StartVoting(p) => {
                    let _ = m.start_voting(&people[p]);
                }
                MeetingOp::Vote(p, item) => {
                    let _ = m.vote(&people[p], item);
                }
                MeetingOp::Close(p) => {
                    let _ = m.close(&people[p]);
                }
            }
            let rank = match m.phase() {
                MeetingPhase::Brainstorm => 0,
                MeetingPhase::Voting => 1,
                MeetingPhase::Closed => 2,
            };
            assert!(rank >= phase_rank, "{at}: phase went backwards");
            phase_rank = rank;
            let total_votes: u32 = m.board().iter().map(|i| i.votes).sum();
            assert!(
                total_votes as usize <= 4 * m.board().len().max(1),
                "{at}: {total_votes} votes"
            );
        }
        for w in m.ranking().windows(2) {
            assert!(w[0].votes >= w[1].votes, "{at}: ranking not sorted");
        }
    }
}

/// Procedures never complete out of order and never exceed their step
/// count, whatever the interleaving of perform/skip attempts.
#[test]
fn procedure_safety() {
    let mut org = mocca::org::OrganisationalModel::new();
    org.add_person(mocca::org::Person::new(dn("cn=A"), "A"));
    org.add_role(mocca::org::Role::new(dn("cn=r"), "r"));
    org.relate(&dn("cn=A"), mocca::org::RelationKind::Occupies, &dn("cn=r"))
        .unwrap();
    for case in 0..64 {
        let seed = (2 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let attempts: Vec<(usize, bool)> = (0..rng.range_inclusive(1, 29))
            .map(|_| (rng.below(6) as usize, rng.chance(0.5)))
            .collect();
        let n_steps = rng.range_inclusive(1, 5) as usize;
        let mut p = Procedure::new(
            "p",
            (0..n_steps)
                .map(|i| ProcedureStep {
                    name: format!("s{i}"),
                    required_role: dn("cn=r"),
                })
                .collect(),
        );
        for (step, skip) in attempts {
            let before = p.outcomes().len();
            let result = if skip {
                p.skip(step, &dn("cn=A"), "exception", cscw_kernel::Timestamp::ZERO)
            } else {
                p.perform(&org, step, &dn("cn=A"), cscw_kernel::Timestamp::ZERO)
            };
            match result {
                Ok(()) => {
                    assert_eq!(step, before, "{at}: only the due step may complete");
                    assert_eq!(p.outcomes().len(), before + 1, "{at}");
                }
                Err(_) => assert_eq!(p.outcomes().len(), before, "{at}"),
            }
            assert!(p.outcomes().len() <= n_steps, "{at}");
        }
    }
}

/// Conference world for WYSIWIS fuzzing.
fn conference_world(seed: u64) -> (Sim, Vec<Participant>) {
    let mut b = TopologyBuilder::new();
    let server = b.add_node("server");
    let nodes: Vec<_> = (0..3).map(|i| b.add_node(format!("ws{i}"))).collect();
    b.full_mesh(LinkSpec::lan());
    let mut sim = Sim::new(b.build(), seed);
    sim.register(server, ConferenceServer::new());
    for &n in &nodes {
        sim.register(n, ConferenceClient::new());
    }
    let participants = nodes
        .iter()
        .enumerate()
        .map(|(i, &node)| Participant {
            who: dn(&format!("cn=p{i}")),
            node,
            server,
        })
        .collect();
    (sim, participants)
}

#[derive(Debug)]
enum ConfOp {
    RequestFloor(usize),
    ReleaseFloor(usize),
    Draw(usize, String),
}

/// Strict WYSIWIS: whatever the interleaving of floor requests,
/// releases and draws, every joined member's window equals the server's
/// canonical window at quiescence.
#[test]
fn conference_wysiwis_under_fuzz() {
    for case in 0..32 {
        let seed = (3 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let ops: Vec<ConfOp> = (0..rng.range_inclusive(1, 24))
            .map(|_| {
                let p = rng.below(3) as usize;
                match rng.below(3) {
                    0 => ConfOp::RequestFloor(p),
                    1 => ConfOp::ReleaseFloor(p),
                    _ => ConfOp::Draw(p, rng.word(LOWER, 1..=6)),
                }
            })
            .collect();
        let (mut sim, participants) = conference_world(rng.next_u64());
        for p in &participants {
            p.join(&mut sim);
        }
        for op in ops {
            match op {
                ConfOp::RequestFloor(p) => participants[p].request_floor(&mut sim),
                ConfOp::ReleaseFloor(p) => participants[p].release_floor(&mut sim),
                ConfOp::Draw(p, line) => participants[p].draw(&mut sim, &line),
            }
        }
        sim.run_until_idle();
        for p in &participants {
            assert!(p.window_matches_server(&sim), "{at}: {} diverged", p.who);
        }
    }
}

/// BBS threading: every reply's parent exists in the same conference,
/// and thread() returns each entry at most once.
#[test]
fn bbs_threading_integrity() {
    for case in 0..32 {
        let seed = (4 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let posts: Vec<(bool, u64)> = (0..rng.range_inclusive(1, 19))
            .map(|_| (rng.chance(0.5), rng.below(10)))
            .collect();
        let mut b = TopologyBuilder::new();
        let server = b.add_node("bbs");
        let mta = b.add_node("mta");
        let ws = b.add_node("ws");
        b.full_mesh(LinkSpec::lan());
        let mut sim = Sim::new(b.build(), rng.next_u64());
        let addr: cscw_messaging::OrAddress = "C=UK;O=L;PN=BBS".parse().unwrap();
        let mut mta_node = cscw_messaging::MtaNode::new("mta");
        mta_node.register_mailbox(addr.clone());
        sim.register(mta, mta_node);
        sim.register(server, BbsServer::new(addr, mta));
        let client = BbsClient {
            who: dn("cn=P"),
            node: ws,
            server,
        };
        client.create_conference(&mut sim, "c");
        for (i, &(reply, parent)) in posts.iter().enumerate() {
            let in_reply_to = reply.then_some(parent);
            client.post(&mut sim, "c", &format!("s{i}"), "t", in_reply_to);
            sim.run_until_idle();
        }
        let bbs = sim.node::<BbsServer>(server).unwrap();
        let entries = bbs.conference("c");
        for e in &entries {
            if let Some(parent) = e.in_reply_to {
                assert!(
                    entries.iter().any(|p| p.id == parent),
                    "{at}: entry {} has dangling parent {parent}",
                    e.id
                );
            }
        }
        // Roots' threads partition the entries (no duplicates).
        let mut seen = std::collections::BTreeSet::new();
        for root in entries.iter().filter(|e| e.in_reply_to.is_none()) {
            for e in bbs.thread(root.id) {
                assert!(seen.insert(e.id), "{at}: entry {} in two threads", e.id);
            }
        }
        assert_eq!(seen.len(), entries.len(), "{at}: threads cover all entries");
    }
}
