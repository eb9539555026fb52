//! Property test: the incremental subscription path is bit-for-bit
//! equal to a from-scratch re-scan at **every** step of a random
//! operation stream.
//!
//! For each seed, a deterministic stream of directory operations
//! (adds, edge rewrites, attribute toggles, removes, renames,
//! join-target flips) and replicated-knowledge applies is replayed
//! through a
//! [`SubscriptionRegistry`] holding a mixed panel of standing queries
//! — pure filters, negations (wildcard interest), one-hop joins, and
//! knowledge key/value predicates. After every single operation, each
//! subscription's incrementally-maintained result set must equal
//! [`SubscriptionRegistry::oracle_matches`], the authorized full
//! re-scan. A model map of current values stands in for the replica:
//! it decides which written pairs are changes, feeds only those, and
//! is the knowledge the oracle scans.
//!
//! The same stream checks entry identity: a modify or a rename keeps
//! an entry's [`EntryId`], a slot freed by a removal comes back to a
//! later add under a higher generation, and a removed entry's id
//! resolves to nothing from then on.

use std::collections::BTreeMap;

use cscw_directory::{Attribute, Dit, Dn, Entry, EntryId};
use cscw_kernel::SeededRng;
use cscw_query::{SubscriptionId, SubscriptionRegistry};

const PEOPLE: u64 = 12;
const PROJECTS: u64 = 3;
const SURNAMES: [&str; 4] = ["Rodden", "Prinz", "Navarro", "Powrie"];
const OPS: usize = 160;

/// The standing-query panel replayed against the oracle: filters,
/// a negation (wildcard interest), joins, and knowledge predicates.
const ENTRY_QUERIES: [&str; 6] = [
    r#"class = person and sn = "Rodden""#,
    r#"class = person and sn matches "P*""#,
    r#"class = person and mail present"#,
    r#"class = person and not mail present"#,
    r#"class = person and works-on (projectstate = active)"#,
    r#"occupies "cn=chair" or member-of "cn=team-blue""#,
];
const KNOWLEDGE_QUERIES: [&str; 2] = [
    r#"from knowledge key prefix "org:" and value matches "*member*""#,
    r#"from knowledge key prefix "info:" and value matches "*chair*""#,
];

fn person_dn(i: u64) -> Dn {
    format!("c=UK,cn=p{i}").parse().unwrap()
}

fn project_dn(j: u64) -> Dn {
    format!("c=UK,cn=proj{j}").parse().unwrap()
}

/// A recording DIT holding the country and the projects, its log
/// already taken.
fn seed_dit() -> Dit {
    let mut dit = Dit::new();
    dit.record_changes();
    dit.add(
        Entry::new("c=UK".parse().unwrap())
            .with_class("country")
            .with_attr(Attribute::single("c", "UK")),
    )
    .unwrap();
    for j in 0..PROJECTS {
        dit.add(
            Entry::new(project_dn(j))
                .with_class("cscwproject")
                .with_attr(Attribute::single("cn", format!("proj{j}")))
                .with_attr(Attribute::single("projectstate", "dormant")),
        )
        .unwrap();
    }
    dit.take_changes();
    dit
}

/// What one random mutation did to the directory.
#[derive(Debug)]
enum Done {
    /// Nothing: the entry was already present or absent.
    Nothing,
    Added(Dn),
    Removed(Dn),
    Modified(Dn),
    Renamed(Dn, Dn),
}

/// One random mutation of the directory.
fn random_op(rng: &mut SeededRng, dit: &mut Dit) -> Done {
    match rng.below(7) {
        // Add a person with random surname, mail, and edges.
        0 => {
            let dn = person_dn(rng.below(PEOPLE));
            if dit.get(&dn).is_some() {
                return Done::Nothing;
            }
            let sn = SURNAMES[rng.below(SURNAMES.len() as u64) as usize];
            let mut e = Entry::new(dn.clone())
                .with_class("person")
                .with_attr(Attribute::single("cn", "someone"))
                .with_attr(Attribute::single("sn", sn));
            if rng.below(2) == 0 {
                e.put_attr(Attribute::single("mail", "x@example.org"));
            }
            if rng.below(2) == 0 {
                e.put_attr(Attribute::single(
                    "workson",
                    project_dn(rng.below(PROJECTS)).to_string(),
                ));
            }
            if rng.below(3) == 0 {
                e.put_attr(Attribute::single("occupiesrole", "cn=chair"));
            }
            if rng.below(3) == 0 {
                e.put_attr(Attribute::single("memberof", "cn=team-blue"));
            }
            dit.add(e).unwrap();
            Done::Added(dn)
        }
        // Remove a person.
        1 => {
            let dn = person_dn(rng.below(PEOPLE));
            if dit.get(&dn).is_none() {
                return Done::Nothing;
            }
            dit.remove(&dn).unwrap();
            Done::Removed(dn)
        }
        // Rewrite a person's surname.
        2 => {
            let dn = person_dn(rng.below(PEOPLE));
            if dit.get(&dn).is_none() {
                return Done::Nothing;
            }
            let sn = SURNAMES[rng.below(SURNAMES.len() as u64) as usize];
            dit.modify(&dn, |e| {
                e.replace_attr(Attribute::single("sn", sn));
            })
            .unwrap();
            Done::Modified(dn)
        }
        // Toggle a person's mail attribute.
        3 => {
            let dn = person_dn(rng.below(PEOPLE));
            let Some(entry) = dit.get(&dn) else {
                return Done::Nothing;
            };
            let has_mail = entry.attr("mail").is_some();
            dit.modify(&dn, |e| {
                if has_mail {
                    e.remove_attr(&"mail".into());
                } else {
                    e.put_attr(Attribute::single("mail", "x@example.org"));
                }
            })
            .unwrap();
            Done::Modified(dn)
        }
        // Repoint a person's project edge.
        4 => {
            let dn = person_dn(rng.below(PEOPLE));
            if dit.get(&dn).is_none() {
                return Done::Nothing;
            }
            let target = project_dn(rng.below(PROJECTS)).to_string();
            dit.modify(&dn, |e| {
                e.replace_attr(Attribute::single("workson", target.as_str()));
            })
            .unwrap();
            Done::Modified(dn)
        }
        // Rename a person to a free name.
        5 => {
            let from = person_dn(rng.below(PEOPLE));
            let to = person_dn(rng.below(PEOPLE));
            if dit.get(&from).is_none() || dit.get(&to).is_some() {
                return Done::Nothing;
            }
            dit.rename(&from, to.clone()).unwrap();
            Done::Renamed(from, to)
        }
        // Flip a join target: project state active <-> dormant. Every
        // person working on it must be re-evaluated incrementally.
        _ => {
            let dn = project_dn(rng.below(PROJECTS));
            let entry = dit.get(&dn).unwrap();
            let state = entry
                .attr("projectstate")
                .and_then(|a| a.values().first().and_then(|v| v.as_text()))
                .unwrap_or("dormant")
                .to_owned();
            let flipped = if state == "active" {
                "dormant"
            } else {
                "active"
            };
            dit.modify(&dn, |e| {
                e.replace_attr(Attribute::single("projectstate", flipped));
            })
            .unwrap();
            Done::Modified(dn)
        }
    }
}

/// A random replicated-knowledge pair; values sometimes contain the
/// substrings the knowledge queries look for.
fn random_pair(rng: &mut SeededRng) -> (String, String) {
    let key = match rng.below(3) {
        0 => format!("org:c=UK,cn=p{}", rng.below(PEOPLE)),
        1 => format!("info:doc-{}", rng.below(4)),
        _ => format!("misc:{}", rng.below(4)),
    };
    let value = match rng.below(4) {
        0 => "memberof: cn=team-blue".to_owned(),
        1 => "role: chair".to_owned(),
        2 => format!("plain text {}", rng.below(8)),
        _ => "member and chair".to_owned(),
    };
    (key, value)
}

/// The ids the stream has seen: live entries by name, and per slot its
/// last holder.
#[derive(Default)]
struct Ids {
    live: BTreeMap<Dn, EntryId>,
    slots: BTreeMap<usize, EntryId>,
}

impl Ids {
    fn seeded(dit: &Dit) -> Ids {
        let mut ids = Ids::default();
        for (id, entry) in dit.iter_ids() {
            ids.live.insert(entry.dn().clone(), id);
            ids.slots.insert(id.slot(), id);
        }
        ids
    }

    /// Checks what `done` did to the ids of `dit`, then that every live
    /// id names its entry and every retired one names nothing.
    fn check(&mut self, done: &Done, dit: &Dit, ctx: &str) {
        match done {
            Done::Nothing => {}
            Done::Added(dn) => {
                let id = dit.id(dn).unwrap();
                if let Some(last) = self.slots.insert(id.slot(), id) {
                    assert!(
                        id.generation() > last.generation(),
                        "{ctx}: slot {} came back as {id:?} after {last:?}",
                        id.slot()
                    );
                    assert_eq!(dit.name(last), None, "{ctx}: {last:?} resolves after reuse");
                }
                self.live.insert(dn.clone(), id);
            }
            Done::Removed(dn) => {
                let id = self.live.remove(dn).unwrap();
                assert_eq!(dit.name(id), None, "{ctx}: removed {id:?} resolves");
            }
            Done::Modified(dn) => {
                assert_eq!(dit.id(dn), self.live.get(dn).copied(), "{ctx}: modify");
            }
            Done::Renamed(from, to) => {
                let id = self.live.remove(from).unwrap();
                assert_eq!(dit.id(to), Some(id), "{ctx}: a rename keeps the id");
                assert_eq!(dit.id(from), None, "{ctx}: the old name is free");
                self.live.insert(to.clone(), id);
            }
        }
        for (dn, id) in &self.live {
            assert_eq!(dit.name(*id), Some(dn), "{ctx}: {id:?}");
        }
        for id in self.slots.values() {
            if !self.live.values().any(|live| live == id) {
                assert_eq!(dit.name(*id), None, "{ctx}: retired {id:?} resolves");
            }
        }
        assert_eq!(self.live.len(), dit.len(), "{ctx}: live ids");
    }
}

fn assert_incremental_equals_oracle(
    reg: &mut SubscriptionRegistry,
    subs: &[(SubscriptionId, &str)],
    dit: &Dit,
    replica: &BTreeMap<String, String>,
    step: usize,
    seed: u64,
) {
    for (id, src) in subs {
        let incremental = reg.matches(*id).unwrap();
        let knowledge = replica.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        let oracle = reg.oracle_matches(*id, dit, knowledge).unwrap();
        assert_eq!(
            incremental, oracle,
            "seed {seed} step {step}: incremental result diverged from \
             re-scan for {src:?}"
        );
    }
}

#[test]
fn incremental_deltas_equal_full_rescan_at_every_step() {
    for seed in 1..=3u64 {
        let mut rng = SeededRng::seed_from(seed);
        let mut dit = seed_dit();
        let mut reg = SubscriptionRegistry::new();
        let mut subs = Vec::new();
        for src in ENTRY_QUERIES {
            let id = reg.subscribe(src, 0).unwrap();
            reg.prime(id, &dit, 0).unwrap();
            subs.push((id, src));
        }
        for src in KNOWLEDGE_QUERIES {
            let id = reg.subscribe(src, 0).unwrap();
            reg.prime_knowledge(id, [], 0).unwrap();
            subs.push((id, src));
        }
        let mut replica: BTreeMap<String, String> = BTreeMap::new();
        let mut ids = Ids::seeded(&dit);

        for step in 0..OPS {
            if rng.below(4) == 0 {
                // Knowledge path: a batch of 1-3 replicated writes, of
                // which the ones that change a value are fed.
                let written: Vec<_> = (0..=rng.below(2))
                    .map(|_| random_pair(&mut rng))
                    .filter(|(k, v)| replica.insert(k.clone(), v.clone()).as_ref() != Some(v))
                    .collect();
                let pairs = written.iter().map(|(k, v)| (k.as_str(), v.as_str()));
                reg.apply(pairs, &[], &dit, step as u64);
            } else {
                let done = random_op(&mut rng, &mut dit);
                ids.check(&done, &dit, &format!("seed {seed} step {step}: {done:?}"));
                let changes = dit.take_changes();
                reg.apply([], &changes, &dit, step as u64);
            }
            assert_incremental_equals_oracle(&mut reg, &subs, &dit, &replica, step, seed);
        }
    }
}

#[test]
fn oracle_comparison_is_deterministic_across_runs() {
    // The whole stream — deltas and final result sets — must replay
    // identically for the same seed.
    let run = |seed: u64| {
        let mut rng = SeededRng::seed_from(seed);
        let mut dit = seed_dit();
        let mut reg = SubscriptionRegistry::new();
        let mut ids = Vec::new();
        for src in ENTRY_QUERIES {
            let id = reg.subscribe(src, 0).unwrap();
            reg.prime(id, &dit, 0).unwrap();
            ids.push(id);
        }
        let mut trace = String::new();
        for step in 0..OPS {
            random_op(&mut rng, &mut dit);
            let changes = dit.take_changes();
            for (id, delta) in reg.apply([], &changes, &dit, step as u64) {
                trace.push_str(&format!("{step} {id:?} {delta}\n"));
            }
        }
        for id in ids {
            trace.push_str(&format!("{:?}\n", reg.matches(id).unwrap()));
        }
        trace
    };
    for seed in 1..=3u64 {
        assert_eq!(run(seed), run(seed), "seed {seed} must replay bit-for-bit");
    }
}
