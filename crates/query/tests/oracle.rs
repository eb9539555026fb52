//! Property test: the incremental subscription path is bit-for-bit
//! equal to a from-scratch re-scan at **every** step of a random
//! operation stream.
//!
//! For each seed, a deterministic stream of directory operations
//! (adds, edge rewrites, attribute toggles, removes, join-target
//! flips) and replicated-knowledge applies is replayed through a
//! [`SubscriptionRegistry`] holding a mixed panel of standing queries
//! — pure filters, negations (wildcard interest), one-hop joins, and
//! knowledge key/value predicates. After every single operation, each
//! subscription's incrementally-maintained result set must equal
//! [`SubscriptionRegistry::oracle_matches`], the authorized full
//! re-scan.

use cscw_directory::{Attribute, Dit, Dn, Entry};
use cscw_query::{SubscriptionId, SubscriptionRegistry};

/// SplitMix64 — deterministic, dependency-free stream of test entropy.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

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

/// One random mutation of the directory; returns `false` when the op
/// was a no-op (entry already present/absent) and nothing changed.
fn random_op(rng: &mut Rng, dit: &mut Dit) -> bool {
    match rng.below(6) {
        // Add a person with random surname, mail, and edges.
        0 => {
            let dn = person_dn(rng.below(PEOPLE));
            if dit.get(&dn).is_some() {
                return false;
            }
            let sn = SURNAMES[rng.below(SURNAMES.len() as u64) as usize];
            let mut e = Entry::new(dn)
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
            true
        }
        // Remove a person.
        1 => {
            let dn = person_dn(rng.below(PEOPLE));
            dit.get(&dn).is_some() && dit.remove(&dn).is_ok()
        }
        // Rewrite a person's surname.
        2 => {
            let dn = person_dn(rng.below(PEOPLE));
            if dit.get(&dn).is_none() {
                return false;
            }
            let sn = SURNAMES[rng.below(SURNAMES.len() as u64) as usize];
            dit.modify(&dn, |e| {
                e.replace_attr(Attribute::single("sn", sn));
            })
            .unwrap();
            true
        }
        // Toggle a person's mail attribute.
        3 => {
            let dn = person_dn(rng.below(PEOPLE));
            let Some(entry) = dit.get(&dn) else {
                return false;
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
            true
        }
        // Repoint a person's project edge.
        4 => {
            let dn = person_dn(rng.below(PEOPLE));
            if dit.get(&dn).is_none() {
                return false;
            }
            let target = project_dn(rng.below(PROJECTS)).to_string();
            dit.modify(&dn, |e| {
                e.replace_attr(Attribute::single("workson", target.as_str()));
            })
            .unwrap();
            true
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
            true
        }
    }
}

/// A random replicated-knowledge pair; values sometimes contain the
/// substrings the knowledge queries look for.
fn random_pair(rng: &mut Rng) -> (String, String) {
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

fn assert_incremental_equals_oracle(
    reg: &mut SubscriptionRegistry,
    subs: &[(SubscriptionId, &str)],
    dit: &Dit,
    step: usize,
    seed: u64,
) {
    for (id, src) in subs {
        let incremental = reg.matches(*id).unwrap();
        let oracle = reg.oracle_matches(*id, dit).unwrap();
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
        let mut rng = Rng(seed);
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
            reg.prime_knowledge(id, 0).unwrap();
            subs.push((id, src));
        }

        for step in 0..OPS {
            if rng.below(4) == 0 {
                // Knowledge path: a batch of 1-3 replicated pairs.
                let pairs: Vec<_> = (0..=rng.below(2)).map(|_| random_pair(&mut rng)).collect();
                reg.apply(&pairs, &[], &dit, step as u64);
            } else {
                random_op(&mut rng, &mut dit);
                let changes = dit.take_changes();
                reg.apply(&[], &changes, &dit, step as u64);
            }
            assert_incremental_equals_oracle(&mut reg, &subs, &dit, step, seed);
        }
    }
}

#[test]
fn oracle_comparison_is_deterministic_across_runs() {
    // The whole stream — deltas and final result sets — must replay
    // identically for the same seed.
    let run = |seed: u64| {
        let mut rng = Rng(seed);
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
            for (id, delta) in reg.apply(&[], &changes, &dit, step as u64) {
                trace.push_str(&format!("{step} {id} {delta}\n"));
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
