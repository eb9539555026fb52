//! Standing queries across a partitioned, healing federation.
//!
//! The acceptance scenario for the query layer's end-to-end claim:
//! replaying an operation stream through standing-query deltas keeps
//! every subscription's incremental result set bit-for-bit equal to a
//! from-scratch re-scan — computed here *independently* of the query
//! layer, by scanning the knowledge DIT and the site's replica view
//! directly — at every step, including while a link is partitioned
//! and after it heals. Reruns of the same seed reproduce the same
//! delta stream, and that stream is pinned by digest, so a change that
//! reorders, drops or duplicates a delta fails here.

use std::collections::BTreeSet;

use open_cscw::directory::{Attribute, Dn};
use open_cscw::kernel::Timestamp;
use open_cscw::mocca::env::CscwEnvironment;
use open_cscw::mocca::federation::FederatedEnvironments;
use open_cscw::mocca::info::{InfoContent, InfoObject, InfoObjectId};
use open_cscw::mocca::org::{Person, Project, RelationKind};
use open_cscw::odp::LinkState;
use open_cscw::query::SubscriptionId;

const PROJECT: &str = "cn=proj-mocca";
const PEOPLE: [&str; 4] = [
    "c=UK,o=Lancaster,cn=Tom",
    "c=DE,o=GMD,cn=Wolfgang",
    "c=ES,o=UPC,cn=Leandro",
    "c=UK,o=Lancaster,cn=Victoria",
];

/// Knowledge query over the information-model records
/// `store_object` replicates.
const INFO_QUERY: &str = r#"from knowledge key prefix "info:""#;

/// Knowledge query over the replicated person entries that carry a
/// project edge.
const WORKERS_QUERY: &str = r#"from knowledge key prefix "org:" and value matches "*workson*""#;

/// The stream of operations replayed. Between them the steps drive
/// every path by which knowledge reaches the standing queries: a
/// federated `publish_knowledge`, a gossip ingest (every step's
/// convergence run), a knowledge-query subscribe with its catch-up, a
/// federated `store_object`, and a direct knowledge-base edit pumped
/// with `pump_queries`.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `env-a` introduces a person.
    AddPerson(usize),
    /// `env-a` relates a person to the project.
    Join(usize),
    /// Take the `env-a → env-b` link down / back up before the step's
    /// gossip runs.
    Link(LinkState),
    /// `env-b` subscribes [`INFO_QUERY`].
    Watch,
    /// `env-a` stores a note owned by a person.
    Store(usize),
    /// `env-a` edits a person's title straight in its knowledge base,
    /// then pumps.
    Edit(usize),
}

const STREAM: [Op; 14] = [
    Op::AddPerson(0),
    Op::Join(0),
    Op::AddPerson(1),
    Op::Link(LinkState::Down),
    Op::Join(1),
    Op::Store(1),
    Op::AddPerson(2),
    Op::Link(LinkState::Up),
    Op::Watch,
    Op::AddPerson(3),
    Op::Edit(0),
    Op::Join(2),
    Op::Store(3),
    Op::Edit(3),
];

fn dn(s: &str) -> Dn {
    s.parse().unwrap()
}

/// Oracle for the `env-a` entry subscription (`works-on` the project):
/// a from-scratch scan of the knowledge DIT, bypassing the query layer.
fn rescan_workers(env: &CscwEnvironment) -> BTreeSet<String> {
    env.knowledge()
        .dit()
        .iter()
        .filter(|e| {
            e.attr("workson")
                .map(|a| {
                    a.values()
                        .iter()
                        .filter_map(|v| v.as_text())
                        .any(|v| v == PROJECT)
                })
                .unwrap_or(false)
        })
        .map(|e| e.dn().to_string())
        .collect()
}

/// Oracle for the `env-b` knowledge subscription: a from-scratch scan
/// of that site's *replica view* (which lags during partition).
fn rescan_replica(fed: &FederatedEnvironments, domain: &str) -> BTreeSet<String> {
    use open_cscw::federation::FederationPort;
    fed.fabric()
        .join(domain)
        .replica_snapshot()
        .into_iter()
        .filter(|(k, v)| k.starts_with("org:") && v.contains("workson"))
        .map(|(k, _)| k)
        .collect()
}

/// 64-bit FNV-1a, the digest the delta traces are pinned by.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Drains a site's buffered deltas, rendered `domain step id delta`,
/// into `trace`; returns the site's rendered deltas for the step.
fn drain(
    fed: &mut FederatedEnvironments,
    domain: &str,
    step: &str,
    trace: &mut Vec<String>,
) -> Vec<String> {
    let rendered: Vec<String> = fed
        .env_mut(domain)
        .unwrap()
        .take_query_deltas()
        .into_iter()
        .map(|(id, d)| format!("{id} {d}"))
        .collect();
    trace.extend(rendered.iter().map(|d| format!("{domain} {step} {d}")));
    rendered
}

struct Run {
    /// `step -> rendered deltas` at the remote site.
    remote_deltas: Vec<Vec<String>>,
    /// Every delta either site emitted, in emission order, tagged with
    /// its site and step.
    trace: Vec<String>,
    final_workers: BTreeSet<String>,
    final_remote: BTreeSet<String>,
    rescans: (u64, u64),
}

fn replay(seed: u64) -> Run {
    let mut fed = FederatedEnvironments::new();
    fed.federate("env-a", CscwEnvironment::new());
    fed.federate("env-b", CscwEnvironment::new());
    fed.link_bidi("env-a", "env-b");

    let project = dn(PROJECT);
    {
        let env = fed.env_mut("env-a").unwrap();
        env.org()
            .write()
            .add_project(Project::new(project.clone(), "proj-mocca"));
        env.publish_knowledge().unwrap();
    }
    fed.run_until_converged(seed, 60_000_000).unwrap();

    let mut trace = Vec::new();
    let local_sub: SubscriptionId = {
        let env = fed.env_mut("env-a").unwrap();
        let id = env
            .subscribe(&format!(r#"class = person and works-on "{PROJECT}""#))
            .unwrap();
        // A publish then feeds both kinds of query at once, so the
        // order of the two feeds is part of the pinned stream.
        env.subscribe(WORKERS_QUERY).unwrap();
        env.subscribe(INFO_QUERY).unwrap();
        id
    };
    drain(&mut fed, "env-a", "setup", &mut trace);
    let remote_sub: SubscriptionId = fed
        .env_mut("env-b")
        .unwrap()
        .subscribe(WORKERS_QUERY)
        .unwrap();
    drain(&mut fed, "env-b", "setup", &mut trace);

    let mut remote_deltas = Vec::new();
    let mut partitioned = false;
    let mut held_back = false; // data published while partitioned
    for (step, op) in STREAM.into_iter().enumerate() {
        if !partitioned {
            held_back = false;
        } else if !matches!(op, Op::Link(_)) {
            held_back = true;
        }
        match op {
            Op::AddPerson(i) => {
                let env = fed.env_mut("env-a").unwrap();
                env.org()
                    .write()
                    .add_person(Person::new(dn(PEOPLE[i]), PEOPLE[i]));
                env.publish_knowledge().unwrap();
            }
            Op::Join(i) => {
                let env = fed.env_mut("env-a").unwrap();
                env.org()
                    .write()
                    .relate(&dn(PEOPLE[i]), RelationKind::MemberOf, &project)
                    .unwrap();
                env.publish_knowledge().unwrap();
            }
            Op::Link(state) => {
                partitioned = state == LinkState::Down;
                assert!(fed.set_link_state("env-a", "env-b", state));
                assert!(fed.set_link_state("env-b", "env-a", state));
            }
            Op::Watch => {
                fed.env_mut("env-b").unwrap().subscribe(INFO_QUERY).unwrap();
            }
            Op::Store(i) => {
                let note = InfoObject::new(
                    InfoObjectId::new(format!("note-{i}")),
                    "note",
                    dn(PEOPLE[i]),
                    InfoContent::Text(format!("note by {} (seed {seed})", PEOPLE[i])),
                );
                fed.env_mut("env-a")
                    .unwrap()
                    .store_object(note, None, Timestamp::ZERO)
                    .unwrap();
            }
            Op::Edit(i) => {
                let env = fed.env_mut("env-a").unwrap();
                env.knowledge_mut()
                    .dit_mut()
                    .modify(&dn(PEOPLE[i]), |e| {
                        e.replace_attr(Attribute::single("title", format!("step {step}")));
                    })
                    .unwrap();
                env.pump_queries().unwrap();
            }
        }
        let report = fed.run_until_converged(seed, 10_000_000).unwrap();
        if partitioned && held_back {
            assert!(
                !report.converged,
                "partition must hold back the published change: {op:?}"
            );
        } else if !partitioned {
            assert!(report.converged, "up link must converge: {op:?}");
        }

        // Incremental == independent re-scan, at *every* step.
        let workers = fed
            .env("env-a")
            .unwrap()
            .queries()
            .matches(local_sub)
            .unwrap();
        assert_eq!(
            workers,
            rescan_workers(fed.env("env-a").unwrap()),
            "{op:?}: local incremental result diverged from DIT re-scan"
        );
        let remote = fed
            .env("env-b")
            .unwrap()
            .queries()
            .matches(remote_sub)
            .unwrap();
        assert_eq!(
            remote,
            rescan_replica(&fed, "env-b"),
            "{op:?}: remote incremental result diverged from replica re-scan"
        );

        let step = step.to_string();
        drain(&mut fed, "env-a", &step, &mut trace);
        remote_deltas.push(drain(&mut fed, "env-b", &step, &mut trace));
    }

    Run {
        remote_deltas,
        trace,
        final_workers: fed
            .env("env-a")
            .unwrap()
            .queries()
            .matches(local_sub)
            .unwrap(),
        final_remote: fed
            .env("env-b")
            .unwrap()
            .queries()
            .matches(remote_sub)
            .unwrap(),
        rescans: (
            fed.env("env-a").unwrap().queries().rescans(),
            fed.env("env-b").unwrap().queries().rescans(),
        ),
    }
}

#[test]
fn deltas_track_rescans_through_partition_and_heal() {
    let run = replay(1);
    // Three people joined the project over the stream.
    assert_eq!(run.final_workers.len(), 3, "{:?}", run.final_workers);
    // Every person entry carrying a workson edge reached the remote
    // replica view.
    assert_eq!(run.final_remote.len(), 3, "{:?}", run.final_remote);
    // Partition steps produce no remote deltas; the heal step flushes
    // the backlog.
    let down_at = STREAM
        .iter()
        .position(|op| matches!(op, Op::Link(LinkState::Down)))
        .unwrap();
    let up_at = STREAM
        .iter()
        .position(|op| matches!(op, Op::Link(LinkState::Up)))
        .unwrap();
    for step in down_at..up_at {
        assert!(
            run.remote_deltas[step].is_empty(),
            "step {step} is partitioned, yet deltas arrived: {:?}",
            run.remote_deltas[step]
        );
    }
    assert!(
        !run.remote_deltas[up_at].is_empty(),
        "healing must flush the buffered knowledge as deltas"
    );
    // The whole run — priming included — never re-scanned.
    assert_eq!(run.rescans, (0, 0), "standing queries must not re-scan");
}

#[test]
fn replay_is_bit_for_bit_reproducible_per_seed() {
    for seed in [1u64, 2, 3] {
        let a = replay(seed);
        let b = replay(seed);
        assert_eq!(
            a.trace, b.trace,
            "seed {seed}: delta streams must replay identically"
        );
        assert_eq!(a.final_workers, b.final_workers, "seed {seed}");
        assert_eq!(a.final_remote, b.final_remote, "seed {seed}");
    }
}

#[test]
fn delta_stream_matches_the_pinned_digest_per_seed() {
    // FNV-1a over each seed's full trace, one delta a line.
    const PINNED: [(u64, u64); 3] = [
        (1, 12774607520971019398),
        (2, 12774607520971019398),
        (3, 12774607520971019398),
    ];
    for (seed, want) in PINNED {
        let run = replay(seed);
        let digest = fnv1a(&run.trace.join("\n"));
        assert_eq!(
            digest,
            want,
            "seed {seed}: delta stream moved ({} deltas):\n{}",
            run.trace.len(),
            run.trace.join("\n")
        );
    }
}

/// A knowledge-base edit left unpumped when a gossip ingest arrives is
/// fed by that ingest, after the ingest's pairs, and exactly once.
#[test]
fn unpumped_edit_rides_the_next_ingest_once() {
    let mut fed = FederatedEnvironments::new();
    fed.federate("env-a", CscwEnvironment::new());
    fed.federate("env-b", CscwEnvironment::new());
    fed.link_bidi("env-a", "env-b");
    let victoria = dn(PEOPLE[3]);
    {
        let env = fed.env_mut("env-b").unwrap();
        env.org()
            .write()
            .add_person(Person::new(victoria.clone(), PEOPLE[3]));
        env.publish_knowledge().unwrap();
    }
    fed.run_until_converged(1, 60_000_000).unwrap();
    {
        let env = fed.env_mut("env-b").unwrap();
        env.subscribe(r#"class = person and title present"#)
            .unwrap();
        env.subscribe(r#"from knowledge key prefix "org:c=UK""#)
            .unwrap();
        env.take_query_deltas();
        env.knowledge_mut()
            .dit_mut()
            .modify(&victoria, |e| {
                e.put_attr(Attribute::single("title", "chair"));
            })
            .unwrap();
    }
    {
        let env = fed.env_mut("env-a").unwrap();
        env.org()
            .write()
            .add_person(Person::new(dn(PEOPLE[0]), PEOPLE[0]));
        env.publish_knowledge().unwrap();
    }
    assert!(fed.run_until_converged(1, 10_000_000).unwrap().converged);

    let env = fed.env_mut("env-b").unwrap();
    let deltas: Vec<String> = env
        .take_query_deltas()
        .into_iter()
        .map(|(_, d)| d.to_string())
        .collect();
    let edit = format!("added {victoria}");
    let at = deltas.iter().position(|d| *d == edit);
    assert!(
        at.is_some_and(|i| i > 0 && deltas[..i].iter().all(|d| d.contains(" org:"))),
        "the edit follows the ingest's pairs: {deltas:?}"
    );
    assert_eq!(deltas.iter().filter(|d| **d == edit).count(), 1);
    env.pump_queries().unwrap();
    assert!(env.take_query_deltas().is_empty(), "delivered once");
}
