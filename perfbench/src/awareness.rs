//! `awareness`: closed loop, one client, standing queries over a large
//! knowledge DIT on the in-process platform.
//!
//! The knowledge DIT holds 20 000 people in 10 orgs and 8 projects
//! (half of them active). Three standing queries are subscribed: an
//! attribute filter, an edge predicate and a one-hop join. Each
//! operation is one seeded DIT modify (surname rewrite, coordinator
//! toggle or project move), then `pump_queries`, then
//! `take_query_deltas`.

use cscw_directory::{Attribute, Dn, Entry};
use cscw_kernel::{Layer, Telemetry};
use cscw_query::{SubscriptionId, SubscriptionRegistry};
use mocca::{CscwEnvironment, LocalPlatform, Platform};

use crate::{err, fold, probe, Acc, Metric, OpResult, Plan, Rng, Workload, FNV};

pub const PLAN: Plan = Plan {
    warmup_ops: 5_000,
    window_ops: 5_000,
    batch: 1_000,
};

const PEOPLE: u64 = 20_000;
const ORGS: u64 = 10;
const PROJECTS: u64 = 8;

/// The standing-query panel: attribute filter, edge literal, one-hop
/// join.
const PANEL: [&str; 3] = [
    r#"class = person and sn = "Surname7""#,
    r#"class = person and occupies "cn=coordinator""#,
    r#"class = person and works-on (projectstate = active)"#,
];

fn person_dn(i: u64) -> String {
    format!("c=UK,o=org{},cn=person{i}", i % ORGS)
}

fn project_dn(j: u64) -> String {
    format!("c=UK,cn=proj{j}")
}

struct Awareness {
    env: CscwEnvironment,
    subs: Vec<SubscriptionId>,
    people: Vec<Dn>,
    rng: Rng,
    digest: u64,
    modify: Acc,
    pump: Acc,
    deltas: u64,
    window: (u64, u64),
}

fn populate(env: &mut CscwEnvironment) -> Result<Vec<Dn>, cscw_directory::DirectoryError> {
    let dit = env.knowledge_mut().dit_mut();
    dit.add(
        Entry::new("c=UK".parse()?)
            .with_class("country")
            .with_attr(Attribute::single("c", "UK")),
    )?;
    for o in 0..ORGS {
        dit.add(
            Entry::new(format!("c=UK,o=org{o}").parse()?)
                .with_class("organization")
                .with_attr(Attribute::single("o", format!("org{o}"))),
        )?;
    }
    for j in 0..PROJECTS {
        dit.add(
            Entry::new(project_dn(j).parse()?)
                .with_class("cscwproject")
                .with_attr(Attribute::single("cn", format!("proj{j}")))
                .with_attr(Attribute::single(
                    "projectstate",
                    if j % 2 == 0 { "active" } else { "dormant" },
                )),
        )?;
    }
    let mut people = Vec::with_capacity(PEOPLE as usize);
    for i in 0..PEOPLE {
        let dn: Dn = person_dn(i).parse()?;
        let mut e = Entry::new(dn.clone())
            .with_class("person")
            .with_attr(Attribute::single("cn", format!("person{i}")))
            .with_attr(Attribute::single("sn", format!("Surname{}", i % 50)));
        if i % 3 == 0 {
            e.put_attr(Attribute::single("occupiesrole", "cn=coordinator"));
        }
        if i % 2 == 0 {
            e.put_attr(Attribute::single("workson", project_dn(i % PROJECTS)));
        }
        dit.add(e)?;
        people.push(dn);
    }
    Ok(people)
}

pub fn build(seed: u64, _traced: bool) -> Result<Box<dyn Workload>, String> {
    let platform = LocalPlatform::new();
    crate::bound_stores(platform.telemetry());
    let mut env = CscwEnvironment::with_platform(Box::new(platform));
    let people = populate(&mut env).map_err(err)?;
    let subs = PANEL
        .iter()
        .map(|src| env.subscribe(src))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    // The initial result sets are not part of the stream.
    env.take_query_deltas();
    Ok(Box::new(Awareness {
        env,
        subs,
        people,
        rng: Rng::new(seed, 2),
        digest: FNV,
        modify: Acc::default(),
        pump: Acc::default(),
        deltas: 0,
        window: (0, 0),
    }))
}

impl Awareness {
    fn evals(&self) -> u64 {
        self.env
            .telemetry()
            .counter(Layer::Query, "query.eval.entry")
    }
}

impl Workload for Awareness {
    fn op(&mut self) -> OpResult {
        let who = self.rng.below(PEOPLE);
        let kind = self.rng.below(3);
        let value = self.rng.below(50);
        self.digest = fold(fold(fold(self.digest, who), kind), value);
        let person = &self.people[who as usize];
        let dit = self.env.knowledge_mut().dit_mut();
        probe(&mut self.modify, || match kind {
            0 => dit.modify(person, |e| {
                e.replace_attr(Attribute::single("sn", format!("Surname{value}")));
            }),
            1 => {
                let occupied = dit
                    .get(person)
                    .is_some_and(|e| e.attr("occupiesrole").is_some());
                dit.modify(person, |e| {
                    if occupied {
                        e.remove_attr(&"occupiesrole".into());
                    } else {
                        e.put_attr(Attribute::single("occupiesrole", "cn=coordinator"));
                    }
                })
            }
            _ => dit.modify(person, |e| {
                e.replace_attr(Attribute::single("workson", project_dn(value % PROJECTS)));
            }),
        })
        .map_err(|e| format!("modify {person}: {e}"))?;
        let env = &mut self.env;
        let deltas = probe(&mut self.pump, || {
            env.pump_queries().map(|()| env.take_query_deltas())
        })
        .map_err(|e| format!("pump: {e}"))?;
        self.deltas += deltas.len() as u64;
        Ok(())
    }

    fn streams(&self) -> Vec<Telemetry> {
        vec![self.env.telemetry().clone()]
    }

    fn window_start(&mut self) {
        self.window = (self.evals(), self.deltas);
    }

    fn window_end(&mut self, ops: u64) -> Vec<Metric> {
        let evals = self.evals() - self.window.0;
        let deltas = self.deltas - self.window.1;
        vec![
            ("query.evals_per_op", "count", evals as f64 / ops as f64),
            (
                "query.useful_ratio",
                "ratio",
                deltas as f64 / evals.max(1) as f64,
            ),
            (
                "query.rescans",
                "count",
                self.env.queries().rescans() as f64,
            ),
        ]
    }

    fn layer_times(&self) -> Vec<Metric> {
        vec![
            ("directory.modify_us", "us", self.modify.mean_us()),
            ("query.pump_us", "us", self.pump.mean_us()),
        ]
    }

    fn check(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.env.queries().rescans() != 0 {
            failures.push(format!(
                "{} re-scans ran; standing queries must stay incremental",
                self.env.queries().rescans()
            ));
        }
        // Oracle: a fresh registry primed once on the final tree.
        let dit = self.env.knowledge().dit();
        let mut fresh = SubscriptionRegistry::new();
        for (src, id) in PANEL.iter().zip(&self.subs) {
            let oracle = fresh
                .subscribe(src, 0)
                .and_then(|f| fresh.prime(f, dit, 0).map(|_| fresh.matches(f)));
            match oracle {
                Ok(expected) if expected == self.env.queries().matches(*id) => {}
                Ok(_) => failures.push(format!("{src:?} diverged from a fresh priming")),
                Err(e) => failures.push(format!("{src:?}: {e}")),
            }
        }
        failures
    }

    fn stream_digest(&self) -> u64 {
        self.digest
    }
}
