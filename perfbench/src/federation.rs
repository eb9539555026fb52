//! `federation`: a 16-site ring of in-process environments under an
//! open-loop stream in simulated time.
//!
//! Site *i* hosts app `i % 5` and subscribes to every `info:` key of
//! the replicated knowledge. Set-up publishes a 50-person org model
//! per site and converges it. One operation is one 250 ms gossip
//! period: it offers 2 `store_object` updates and 2 remote exchanges
//! (each to an app hosted at a ring neighbour) from seeded sites, then
//! drives `run_for` in 50 ms pump-period slices, draining every site's
//! query deltas after each slice.

use cscw_directory::Dn;
use cscw_kernel::{Layer, Telemetry, Timestamp};
use groupware::{descriptor_for, mapping_for, sample_artifact, APP_POPULATION};
use mocca::env::{AppId, NativeArtifact};
use mocca::info::{InfoContent, InfoObject, InfoObjectId};
use mocca::org::objects::{Person, Project, RelationKind};
use mocca::{CscwEnvironment, FederatedEnvironments, LocalPlatform, Platform, RunReport};

use crate::stack_exchange::app_mailbox;
use crate::{err, fold, probe, quantile, Acc, Metric, OpResult, Plan, Rng, Workload, FNV};

pub const PLAN: Plan = Plan {
    warmup_ops: 200,
    window_ops: 100,
    batch: 20,
};

const SITES: usize = 16;
const PEOPLE: usize = 50;
const ALL_SITES: u32 = (1 << SITES) - 1;
const SLICE_MICROS: u64 = 50_000;
const SLICES: u64 = 5;
const UPDATES_PER_PERIOD: usize = 2;
const EXCHANGES_PER_PERIOD: usize = 2;
const CONVERGE_BUDGET_MICROS: u64 = 600_000_000;
const INFO_QUERY: &str = r#"from knowledge key prefix "info:""#;
const RESOLVE_OUTCOMES: [&str; 5] = [
    "federation.resolve.local",
    "federation.resolve.cache",
    "federation.resolve.federated",
    "federation.resolve.partitioned",
    "federation.resolve.miss",
];

fn domain(i: usize) -> String {
    format!("site-{i:02}")
}

fn app_of(site: usize) -> usize {
    site % APP_POPULATION.len()
}

/// One published update: when it was offered and which sites' standing
/// queries have reported it.
struct Update {
    at_micros: u64,
    seen: u32,
}

/// Window totals read off the run reports and the fabric's counters.
#[derive(Default, Clone, Copy)]
struct Window {
    first_update: usize,
    added: u64,
    resolves: u64,
    cached: u64,
    report: RunReport,
}

struct Federation {
    fed: FederatedEnvironments,
    domains: Vec<String>,
    sharers: Vec<Dn>,
    artifacts: Vec<NativeArtifact>,
    apps: Vec<AppId>,
    seed: u64,
    rng: Rng,
    digest: u64,
    updates: Vec<Update>,
    sent: [u64; 5],
    added: u64,
    duplicates: u64,
    unexpected: u64,
    store: Acc,
    remote: Acc,
    run_for: Acc,
    window: Window,
    in_window: bool,
    sim_ms: Vec<f64>,
}

pub fn build(seed: u64, _traced: bool) -> Result<Box<dyn Workload>, String> {
    let mut fed = FederatedEnvironments::new();
    crate::bound_stores(&fed.fabric().telemetry());
    let domains: Vec<String> = (0..SITES).map(domain).collect();
    let mut sharers = Vec::new();
    for (i, d) in domains.iter().enumerate() {
        let platform = LocalPlatform::new();
        crate::bound_stores(platform.telemetry());
        let mut env = CscwEnvironment::with_platform(Box::new(platform));
        let app = APP_POPULATION[app_of(i)];
        env.register_app(
            descriptor_for(app).map_err(err)?,
            mapping_for(app).map_err(err)?,
        );
        {
            let org = env.org();
            let mut org = org.write();
            let project: Dn = format!("c=UK,o={d},cn=proj").parse().map_err(err)?;
            org.add_project(Project::new(project.clone(), format!("{d} project")));
            for j in 0..PEOPLE {
                let dn: Dn = format!("c=UK,o={d},cn=person{j}").parse().map_err(err)?;
                org.add_person(Person::new(dn.clone(), format!("Person {j} of {d}")));
                if j % 2 == 0 {
                    org.relate(&dn, RelationKind::MemberOf, &project)
                        .map_err(err)?;
                }
                if j == 0 {
                    sharers.push(dn);
                }
            }
        }
        fed.federate(d.clone(), env);
    }
    for i in 0..SITES {
        fed.link_bidi(&domains[i], &domains[(i + 1) % SITES]);
    }
    for d in &domains {
        let env = fed.env_mut(d).ok_or("site vanished")?;
        env.publish_knowledge().map_err(err)?;
        env.subscribe(INFO_QUERY).map_err(err)?;
    }
    let report = fed
        .run_until_converged(seed, CONVERGE_BUDGET_MICROS)
        .map_err(err)?;
    if !report.converged {
        return Err("set-up did not converge".into());
    }
    for d in &domains {
        fed.env_mut(d).ok_or("site vanished")?.take_query_deltas();
    }
    let artifacts = APP_POPULATION
        .iter()
        .map(|a| sample_artifact(a).map_err(err))
        .collect::<Result<_, _>>()?;
    Ok(Box::new(Federation {
        fed,
        domains,
        sharers,
        artifacts,
        apps: APP_POPULATION.iter().map(|a| AppId::new(*a)).collect(),
        seed,
        rng: Rng::new(seed, 3),
        digest: FNV,
        updates: Vec::new(),
        sent: [0; 5],
        added: 0,
        duplicates: 0,
        unexpected: 0,
        store: Acc::default(),
        remote: Acc::default(),
        run_for: Acc::default(),
        window: Window::default(),
        in_window: false,
        sim_ms: Vec::with_capacity(4 * PLAN.window_ops as usize),
    }))
}

impl Federation {
    fn now_micros(&self) -> u64 {
        self.fed.runtime().map_or(0, |rt| rt.now().as_micros())
    }

    /// Collects every site's buffered deltas; an update is aware
    /// everywhere once all sites have reported it `Added`.
    fn drain(&mut self, now: u64) {
        for (site, d) in self.domains.iter().enumerate() {
            let Some(env) = self.fed.env_mut(d) else {
                continue;
            };
            for (_, delta) in env.take_query_deltas() {
                let seq = match &delta {
                    cscw_query::QueryDelta::Added { id } => id
                        .strip_prefix("info:u")
                        .and_then(|s| s.parse::<usize>().ok()),
                    _ => None,
                };
                let Some(update) = seq.and_then(|s| self.updates.get_mut(s)) else {
                    self.unexpected += 1;
                    continue;
                };
                if update.seen & (1 << site) != 0 {
                    self.duplicates += 1;
                    continue;
                }
                update.seen |= 1 << site;
                self.added += 1;
                if update.seen == ALL_SITES
                    && self.in_window
                    && seq.is_some_and(|s| s >= self.window.first_update)
                {
                    self.sim_ms.push((now - update.at_micros) as f64 / 1e3);
                }
            }
        }
    }

    fn resolves(&self) -> (u64, u64) {
        let t = self.fed.fabric().telemetry();
        let all = RESOLVE_OUTCOMES
            .iter()
            .map(|n| t.counter(Layer::Federation, n))
            .sum();
        (
            all,
            t.counter(Layer::Federation, "federation.resolve.cache"),
        )
    }
}

impl Workload for Federation {
    fn op(&mut self) -> OpResult {
        let at = self.now_micros();
        let mut failure = None;
        for _ in 0..UPDATES_PER_PERIOD {
            let site = self.rng.below(SITES as u64) as usize;
            self.digest = fold(self.digest, site as u64);
            let seq = self.updates.len();
            let object = InfoObject::new(
                InfoObjectId::new(format!("u{seq}")),
                "note",
                self.sharers[site].clone(),
                InfoContent::Text(format!("update {seq} from {}", self.domains[site])),
            );
            self.updates.push(Update {
                at_micros: at,
                seen: 0,
            });
            let env = self
                .fed
                .env_mut(&self.domains[site])
                .ok_or("site vanished")?;
            let stored = probe(&mut self.store, || {
                env.store_object(object, None, Timestamp::from_micros(at))
            });
            if let Err(e) = stored {
                failure = Some(format!("store_object at site {site}: {e}"));
            }
        }
        for _ in 0..EXCHANGES_PER_PERIOD {
            let site = self.rng.below(SITES as u64) as usize;
            let step = if self.rng.below(2) == 0 { 1 } else { SITES - 1 };
            let mut peer = (site + step) % SITES;
            if app_of(peer) == app_of(site) {
                peer = (site + SITES - step) % SITES;
            }
            self.digest = fold(fold(self.digest, site as u64), peer as u64);
            let (from, to) = (app_of(site), app_of(peer));
            let env = self
                .fed
                .env_mut(&self.domains[site])
                .ok_or("site vanished")?;
            let (sharer, artifact, app) =
                (&self.sharers[site], &self.artifacts[from], &self.apps[to]);
            let sent = probe(&mut self.remote, || {
                env.exchange(sharer, artifact, app, Timestamp::from_micros(at))
            });
            match sent {
                Ok(_) => self.sent[to] += 1,
                Err(e) => failure = Some(format!("exchange site {site} -> {app}: {e}")),
            }
        }
        for _ in 0..SLICES {
            let (fed, seed) = (&mut self.fed, self.seed);
            let report = probe(&mut self.run_for, || fed.run_for(SLICE_MICROS, seed))
                .map_err(|e| format!("run_for: {e}"))?;
            if self.in_window {
                self.window.report.absorb(&report);
            }
            let now = self.now_micros();
            self.drain(now);
        }
        failure.map_or(Ok(()), Err)
    }

    fn streams(&self) -> Vec<Telemetry> {
        let mut streams = vec![self.fed.fabric().telemetry()];
        streams.extend(
            self.domains
                .iter()
                .filter_map(|d| self.fed.env(d))
                .map(|env| env.telemetry().clone()),
        );
        streams
    }

    fn window_start(&mut self) {
        let (resolves, cached) = self.resolves();
        self.window = Window {
            first_update: self.updates.len(),
            added: self.added,
            resolves,
            cached,
            report: RunReport::default(),
        };
        self.in_window = true;
    }

    fn window_end(&mut self, _ops: u64) -> Vec<Metric> {
        self.in_window = false;
        let w = self.window;
        let (resolves, cached) = self.resolves();
        let published = (self.updates.len() - w.first_update).max(1) as f64;
        let applied = w.report.updates_applied.max(1) as f64;
        let bytes = w.report.bytes_on_wire as f64;
        let mut sim = std::mem::take(&mut self.sim_ms);
        sim.sort_by(f64::total_cmp);
        vec![
            ("sim_p50_ms", "sim_ms", quantile(&sim, 0.5)),
            ("sim_p90_ms", "sim_ms", quantile(&sim, 0.9)),
            ("wire_bytes_per_op", "B", bytes / published),
            (
                "federation.applies_per_update",
                "count",
                w.report.updates_applied as f64 / published,
            ),
            ("federation.bytes_per_apply", "B", bytes / applied),
            (
                "federation.links_walked_per_update",
                "count",
                w.report.links_walked as f64 / published,
            ),
            (
                "federation.resolve_cache_ratio",
                "ratio",
                (cached - w.cached) as f64 / (resolves - w.resolves).max(1) as f64,
            ),
            (
                "query.replicated_deltas_per_update",
                "count",
                (self.added - w.added) as f64 / published,
            ),
        ]
    }

    fn layer_times(&self) -> Vec<Metric> {
        vec![
            ("mocca.store_object_us", "us", self.store.mean_us()),
            ("federation.remote_exchange_us", "us", self.remote.mean_us()),
            ("federation.run_for_us", "us", self.run_for.mean_us()),
        ]
    }

    fn check(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        match self
            .fed
            .run_until_converged(self.seed, CONVERGE_BUDGET_MICROS)
        {
            Ok(r) if r.converged && self.fed.fabric().pending_inbound() == 0 => {}
            Ok(_) => failures.push("the final drain did not converge".to_owned()),
            Err(e) => failures.push(format!("final drain: {e}")),
        }
        let now = self.now_micros();
        self.drain(now);
        let missing = self.updates.iter().filter(|u| u.seen != ALL_SITES).count();
        if missing > 0 {
            failures.push(format!(
                "{missing} of {} updates did not reach every site",
                self.updates.len()
            ));
        }
        if self.duplicates + self.unexpected > 0 {
            failures.push(format!(
                "{} duplicate and {} unexpected awareness deltas",
                self.duplicates, self.unexpected
            ));
        }
        // Each site hosts one app, so an app's deliveries are the sum
        // over the sites hosting it.
        let mut delivered = [0u64; 5];
        for (site, d) in self.domains.iter().enumerate() {
            let app = app_of(site);
            let addr = match app_mailbox(APP_POPULATION[app]) {
                Ok(a) => a,
                Err(e) => {
                    failures.push(e);
                    continue;
                }
            };
            if let Some(env) = self.fed.env_mut(d) {
                delivered[app] += env.transport_mut().delivered(&addr).len() as u64;
            }
        }
        if delivered != self.sent {
            failures.push(format!(
                "remote exchanges delivered {delivered:?}, sent {:?}",
                self.sent
            ));
        }
        failures
    }

    fn stream_digest(&self) -> u64 {
        self.digest
    }
}
