//! `stack_exchange`: closed loop, one client, the Figure-4 lowering.
//!
//! The environment runs on a [`SimPlatform`] LAN. Each operation
//! exchanges a seeded source app's sample artifact with a different
//! seeded destination among the five population apps, shared by a
//! seeded person of a 1 000-person org model. Every exchange walks
//! env → trader import → DSA add → MTA notify over simnet.

use std::any::Any;

use cscw_directory::Dn;
use cscw_kernel::{Telemetry, Timestamp};
use cscw_messaging::OrAddress;
use groupware::{descriptor_for, mapping_for, sample_artifact, APP_POPULATION};
use mocca::env::{AppId, NativeArtifact};
use mocca::org::objects::{Person, Project, RelationKind, Role};
use mocca::{CscwEnvironment, Platform, SimPlatform};

use crate::probe::{PortStats, Probe};
use crate::{err, fold, probe, quantile, Acc, Metric, OpResult, Plan, Rng, Workload, FNV};

pub const PLAN: Plan = Plan {
    warmup_ops: 2_000,
    window_ops: 2_000,
    batch: 500,
};

const PEOPLE: u64 = 1_000;
const PROJECTS: u64 = 8;

/// O/R address of an application's notification mailbox (the
/// environment's `apps` naming convention).
pub fn app_mailbox(app: &str) -> Result<OrAddress, String> {
    OrAddress::new("ZZ", "mocca", ["apps"], app).map_err(err)
}

fn person_dn(i: u64) -> String {
    format!("c=UK,o=org{},cn=person{i}", i % 10)
}

struct StackExchange {
    env: CscwEnvironment,
    rng: Rng,
    digest: u64,
    apps: Vec<AppId>,
    artifacts: Vec<NativeArtifact>,
    people: Vec<Dn>,
    sent: [u64; 5],
    exchange: Acc,
    window_sim_ms: Vec<f64>,
    window_msgs: u64,
    window_ports: PortStats,
    port_mismatch: Option<String>,
    in_window: bool,
}

pub fn build(seed: u64, traced: bool) -> Result<Box<dyn crate::Workload>, String> {
    let sim = SimPlatform::new(seed);
    crate::bound_stores(sim.telemetry());
    let platform: Box<dyn Platform> = if traced {
        Box::new(Probe {
            inner: sim,
            stats: PortStats::default(),
        })
    } else {
        Box::new(sim)
    };
    let mut env = CscwEnvironment::with_platform(platform);
    let mut artifacts = Vec::new();
    for app in APP_POPULATION {
        env.register_app(
            descriptor_for(app).map_err(err)?,
            mapping_for(app).map_err(err)?,
        );
        artifacts.push(sample_artifact(app).map_err(err)?);
    }
    let parse = |s: &str| s.parse::<Dn>().map_err(err);
    let people: Vec<Dn> = (0..PEOPLE)
        .map(|i| parse(&person_dn(i)))
        .collect::<Result<_, _>>()?;
    {
        let org = env.org();
        let mut org = org.write();
        let coordinator = parse("c=UK,cn=coordinator")?;
        org.add_role(Role::new(coordinator.clone(), "coordinator"));
        let projects: Vec<Dn> = (0..PROJECTS)
            .map(|j| parse(&format!("c=UK,cn=proj{j}")))
            .collect::<Result<_, _>>()?;
        for (j, p) in projects.iter().enumerate() {
            org.add_project(Project::new(p.clone(), format!("proj{j}")));
        }
        for (i, dn) in people.iter().enumerate() {
            org.add_person(Person::new(dn.clone(), format!("Person {i}")));
            if i % 3 == 0 {
                org.relate(dn, RelationKind::Occupies, &coordinator)
                    .map_err(err)?;
            }
            if i % 2 == 0 {
                org.relate(dn, RelationKind::MemberOf, &projects[i % PROJECTS as usize])
                    .map_err(err)?;
            }
        }
    }
    env.publish_knowledge().map_err(err)?;
    Ok(Box::new(StackExchange {
        env,
        rng: Rng::new(seed, 1),
        digest: FNV,
        apps: APP_POPULATION.iter().map(|a| AppId::new(*a)).collect(),
        artifacts,
        people,
        sent: [0; 5],
        exchange: Acc::default(),
        window_sim_ms: Vec::with_capacity(PLAN.window_ops as usize),
        window_msgs: 0,
        window_ports: PortStats::default(),
        port_mismatch: None,
        in_window: false,
    }))
}

impl StackExchange {
    /// The timing wrapper, in traced runs.
    fn wrapper(&self) -> Option<&Probe> {
        let any: &dyn Any = self.env.platform();
        any.downcast_ref::<Probe>()
    }

    fn messages_sent(&self) -> u64 {
        let any: &dyn Any = self.env.platform();
        let sim = match self.wrapper() {
            Some(p) => Some(&p.inner),
            None => any.downcast_ref::<SimPlatform>(),
        };
        sim.map_or(0, |s| s.sim().metrics().counter("messages_sent"))
    }

    fn ports(&self) -> PortStats {
        self.wrapper().map(|p| p.stats).unwrap_or_default()
    }
}

impl Workload for StackExchange {
    fn op(&mut self) -> OpResult {
        let from = self.rng.below(5) as usize;
        let to = (from + 1 + self.rng.below(4) as usize) % 5;
        let who = self.rng.below(PEOPLE) as usize;
        self.digest = fold(fold(fold(self.digest, from as u64), to as u64), who as u64);
        let before = self.env.platform().clock().now_micros();
        let (env, acc) = (&mut self.env, &mut self.exchange);
        probe(acc, || {
            env.exchange(
                &self.people[who],
                &self.artifacts[from],
                &self.apps[to],
                Timestamp::from_micros(before),
            )
        })
        .map_err(|e| format!("exchange {from}->{to}: {e}"))?;
        self.sent[to] += 1;
        if self.in_window {
            let after = self.env.platform().clock().now_micros();
            self.window_sim_ms.push((after - before) as f64 / 1e3);
        }
        Ok(())
    }

    fn streams(&self) -> Vec<Telemetry> {
        vec![self.env.telemetry().clone()]
    }

    fn window_start(&mut self) {
        self.in_window = true;
        self.window_msgs = self.messages_sent();
        self.window_ports = self.ports();
    }

    fn window_end(&mut self, ops: u64) -> Vec<Metric> {
        self.in_window = false;
        let msgs = self.messages_sent() - self.window_msgs;
        let (a, b) = (self.window_ports, self.ports());
        let mut sim = std::mem::take(&mut self.window_sim_ms);
        sim.sort_by(f64::total_cmp);
        let mut out = vec![
            ("sim_p50_ms", "sim_ms", quantile(&sim, 0.5)),
            ("sim_p90_ms", "sim_ms", quantile(&sim, 0.9)),
            ("simnet.msgs_per_op", "count", msgs as f64 / ops as f64),
        ];
        if b.imports > a.imports {
            out.push((
                "odp.offers_per_import",
                "count",
                (b.offers - a.offers) as f64 / (b.imports - a.imports) as f64,
            ));
        }
        // Each exchange lowers to exactly one call per port; anything
        // else means the probe missed port time.
        let calls = (
            b.imports - a.imports,
            b.applies - a.applies,
            b.notifies - a.notifies,
        );
        if self.wrapper().is_some() && calls != (ops, ops, ops) {
            self.port_mismatch = Some(format!(
                "probe saw {calls:?} import/apply/notify calls for {ops} exchanges"
            ));
        }
        out
    }

    fn layer_times(&self) -> Vec<Metric> {
        let Some(p) = self.wrapper() else {
            return Vec::new();
        };
        let s = &p.stats;
        let total = self.exchange.mean_us();
        let ports = s.import.mean_us() + s.apply.mean_us() + s.notify.mean_us();
        vec![
            ("mocca.exchange_us", "us", total),
            ("mocca.exchange_self_us", "us", total - ports),
            ("odp.import_us", "us", s.import.mean_us()),
            ("directory.apply_us", "us", s.apply.mean_us()),
            ("messaging.notify_us", "us", s.notify.mean_us()),
        ]
    }

    fn check(&mut self) -> Vec<String> {
        let mut failures: Vec<String> = self.port_mismatch.take().into_iter().collect();
        for (i, app) in APP_POPULATION.iter().enumerate() {
            let delivered = match app_mailbox(app) {
                Ok(addr) => self.env.transport_mut().delivered(&addr).len() as u64,
                Err(e) => {
                    failures.push(e);
                    continue;
                }
            };
            if delivered != self.sent[i] {
                failures.push(format!(
                    "{app}: {delivered} notifications delivered for {} exchanges",
                    self.sent[i]
                ));
            }
        }
        failures
    }

    fn stream_digest(&self) -> u64 {
        self.digest
    }
}
