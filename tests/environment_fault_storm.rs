//! Fault storm: the environment survives a misbehaving platform.
//!
//! The paper's §6 asks the ODP engineering infrastructure for failure
//! transparency. This test drives `CscwEnvironment` over
//! `ResilientPlatform(SimPlatform)` through a seeded storm of random
//! partitions, node crashes and heals, and holds the environment to the
//! resilience contract: every exchange either succeeds, degrades to a
//! flagged stale answer served from the port caches, or fails with an
//! error classified *transient* — never a panic, never a duplicate
//! delivery. After the storm heals, the circuit breakers walk back
//! closed, completing at least one full open → half-open → closed
//! cycle.
//!
//! The same seed must reproduce the same storm bit-for-bit: the whole
//! run — fault schedule, retry jitter, simulated network — is a pure
//! function of the seed.

use std::collections::BTreeMap;

use open_cscw::directory::Dn;
use open_cscw::groupware::{descriptor_for, mapping_for, sample_artifact};
use open_cscw::kernel::{BreakerState, Layer, LayerError, RetryPolicy, SeededRng};
use open_cscw::messaging::{MtaNode, OrAddress};
use open_cscw::mocca::env::AppId;
use open_cscw::mocca::org::{Person, Role};
use open_cscw::mocca::{CscwEnvironment, ResilientPlatform, SimPlatform};
use open_cscw::simnet::NodeId;

/// Consecutive transient failures before a port's breaker opens.
const BREAKER_THRESHOLD: u32 = 3;
/// Breaker cooldown, in simulated microseconds.
const COOLDOWN_MICROS: u64 = 50_000;

/// Salt of the storm's own random stream: the fault schedule is a pure
/// function of the seed, independent of the kernel's jitter stream.
const STORM_SALT: u64 = 0x5703;

fn dn(s: &str) -> Dn {
    s.parse().unwrap()
}

fn com_mailbox() -> OrAddress {
    OrAddress::new("ZZ", "mocca", ["apps"], "com").unwrap()
}

/// What one exchange did, as seen from above the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Clean success, no degradation recorded.
    Ok,
    /// Succeeded on a flagged stale/cached answer.
    Degraded,
    /// Failed with a transient-classified error.
    FailedTransient,
}

struct Storm {
    env: CscwEnvironment,
    clients: Vec<NodeId>,
    servers: Vec<NodeId>,
    trader_node: NodeId,
    dsa_node: NodeId,
    mta_node: NodeId,
    exchanges: u64,
}

impl Storm {
    fn build(seed: u64) -> Storm {
        let platform = SimPlatform::new(seed);
        let topo = platform.sim().topology();
        let mut by_name = BTreeMap::new();
        for id in topo.node_ids() {
            by_name.insert(topo.node_name(id).to_owned(), id);
        }
        let node = |name: &str| *by_name.get(name).expect("platform node exists");
        let clients = vec![
            node("env-trader-client"),
            node("env-dua-client"),
            node("env-user-agent"),
        ];
        let servers = vec![node("trader"), node("dsa"), node("mta")];
        let (trader_node, dsa_node, mta_node) = (node("trader"), node("dsa"), node("mta"));

        let wrapped = ResilientPlatform::new(Box::new(platform))
            .with_seed(seed)
            .with_policy(RetryPolicy::new(3, 500, 4_000))
            .with_breakers(BREAKER_THRESHOLD, COOLDOWN_MICROS);
        let mut env = CscwEnvironment::with_platform(Box::new(wrapped));
        {
            let org = env.org();
            let mut org = org.write();
            org.add_person(Person::new(dn("cn=Tom"), "Tom"));
            org.add_role(Role::new(dn("cn=coordinator"), "coordinator"));
        }
        for app in ["sharedx", "com"] {
            env.register_app(descriptor_for(app).unwrap(), mapping_for(app).unwrap());
        }
        Storm {
            env,
            clients,
            servers,
            trader_node,
            dsa_node,
            mta_node,
            exchanges: 0,
        }
    }

    fn resilient(&mut self) -> &mut ResilientPlatform {
        self.env
            .platform_mut()
            .as_any_mut()
            .downcast_mut::<ResilientPlatform>()
            .expect("storm runs on the resilient platform")
    }

    fn sim_platform(&mut self) -> &mut SimPlatform {
        self.resilient()
            .inner_mut()
            .as_any_mut()
            .downcast_mut::<SimPlatform>()
            .expect("resilience wraps the simulated platform")
    }

    fn counter(&self, name: &str) -> u64 {
        self.env.telemetry().counter(Layer::Env, name)
    }

    fn degraded_total(&self) -> u64 {
        self.counter("resilience.trader.degraded")
            + self.counter("resilience.directory.degraded")
            + self.counter("resilience.transport.degraded")
    }

    /// One exchange under whatever faults are currently active. The
    /// resilience contract is asserted here: no panic reaches us, and a
    /// failure must carry a transient classification.
    fn exchange(&mut self) -> Outcome {
        let degraded_before = self.degraded_total();
        self.exchanges += 1;
        let artifact = sample_artifact("sharedx").unwrap();
        let at = self.sim_platform().sim().now();
        match self
            .env
            .exchange(&dn("cn=Tom"), &artifact, &AppId::new("com"), at)
        {
            Ok(_) => {
                if self.degraded_total() > degraded_before {
                    Outcome::Degraded
                } else {
                    Outcome::Ok
                }
            }
            Err(e) => {
                assert!(
                    e.class().is_transient(),
                    "storm produced a non-transient failure: {e}"
                );
                Outcome::FailedTransient
            }
        }
    }

    fn heal_everything(&mut self) {
        let (clients, servers) = (self.clients.clone(), self.servers.clone());
        let sim = self.sim_platform().sim_mut();
        sim.topology_mut().heal(&clients, &servers);
        for node in servers {
            sim.topology_mut().restart_node(node);
        }
    }

    /// Advances simulated time past the breaker cooldown so the next
    /// port call is admitted as a half-open probe.
    fn cool_down(&mut self) {
        let sim = self.sim_platform().sim_mut();
        let deadline = sim.now() + 2 * COOLDOWN_MICROS;
        sim.run_until(deadline);
    }

    /// Message ids delivered to the destination application's mailbox.
    fn delivered_ids(&mut self) -> Vec<u64> {
        let mta_node = self.mta_node;
        let mailbox = com_mailbox();
        self.sim_platform()
            .sim()
            .node::<MtaNode>(mta_node)
            .and_then(|mta| mta.mailbox(&mailbox))
            .map(|store| store.inbox().iter().map(|m| m.message_id).collect())
            .unwrap_or_default()
    }
}

/// Runs the full storm for one seed and returns a deterministic
/// fingerprint of the run.
fn run_storm(seed: u64) -> Vec<(String, u64)> {
    let mut s = Storm::build(seed);
    let mut rng = SeededRng::seed_from(seed ^ STORM_SALT);
    let mut outcomes: Vec<Outcome> = Vec::new();

    // Warm-up on a healthy platform: the offer/read caches must hold
    // real answers before the storm can ask for degraded ones.
    for _ in 0..2 {
        assert_eq!(s.exchange(), Outcome::Ok, "healthy warm-up must succeed");
    }

    // ---- the random storm --------------------------------------------------
    for _round in 0..8 {
        match rng.below(4) {
            0 => {
                let (clients, servers) = (s.clients.clone(), s.servers.clone());
                s.sim_platform()
                    .sim_mut()
                    .topology_mut()
                    .partition(&clients, &servers);
            }
            1 => {
                let node = s.trader_node;
                s.sim_platform().sim_mut().topology_mut().crash_node(node);
            }
            2 => {
                let node = s.dsa_node;
                s.sim_platform().sim_mut().topology_mut().crash_node(node);
            }
            _ => {} // a calm round
        }
        for _ in 0..=rng.below(2) {
            outcomes.push(s.exchange());
        }
        s.heal_everything();
        s.cool_down();
        outcomes.push(s.exchange());
    }

    // ---- deterministic finale: one guaranteed breaker cycle ---------------
    let open_before = s.counter("resilience.trader.breaker_open");
    let (clients, servers) = (s.clients.clone(), s.servers.clone());
    s.sim_platform()
        .sim_mut()
        .topology_mut()
        .partition(&clients, &servers);
    // Enough failed attempts to trip the trader breaker; the warm offer
    // cache turns them into flagged degraded answers, not errors.
    let during = [s.exchange(), s.exchange()];
    assert!(
        during
            .iter()
            .all(|o| matches!(o, Outcome::Degraded | Outcome::FailedTransient)),
        "partitioned exchanges must degrade or fail transient, got {during:?}"
    );
    assert!(
        s.counter("resilience.trader.breaker_open") > open_before,
        "the partition must open the trader breaker"
    );
    assert!(
        s.counter("resilience.trader.degraded") >= 1,
        "an open trader breaker with a warm cache must serve stale offers"
    );

    s.heal_everything();
    s.cool_down();
    // The first post-heal exchange is the half-open probe; it succeeds
    // and re-closes the breaker.
    let after = s.exchange();
    assert_eq!(
        after,
        Outcome::Ok,
        "post-heal exchange must succeed cleanly"
    );
    outcomes.extend(during);
    outcomes.push(after);

    // ---- invariants over the whole run -------------------------------------
    // Breakers walked a full cycle and came home.
    assert!(s.counter("resilience.trader.breaker_open") >= 1);
    assert!(s.counter("resilience.trader.breaker_half_open") >= 1);
    assert!(s.counter("resilience.trader.breaker_closed") >= 1);
    let states = s.resilient().breaker_states();
    assert_eq!(
        states.0,
        BreakerState::Closed,
        "trader breaker must re-close after the heal"
    );
    assert_ne!(
        states.1,
        BreakerState::Open,
        "directory breaker must at least be probing after the heal"
    );

    // No duplicate delivery: every message in the destination mailbox
    // is distinct, and nothing was delivered that was not exchanged.
    let ids = s.delivered_ids();
    let mut unique = ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(ids.len(), unique.len(), "duplicate delivery: {ids:?}");
    assert!(
        (ids.len() as u64) <= s.exchanges,
        "more deliveries than exchanges"
    );

    // Retries actually happened — the storm exercised the layer.
    assert!(s.counter("resilience.trader.retries") >= 1);

    // And they are attributable: the resilience spans sit inside the
    // trace of the exchange that triggered them, not floating free.
    let telemetry = s.env.telemetry().clone();
    let attributed = telemetry
        .traces()
        .into_iter()
        .filter_map(|id| telemetry.trace(id))
        .find(|tr| {
            !tr.spans_named("app.exchange").is_empty()
                && !tr.spans_named("resilience.retry").is_empty()
        })
        .expect("some exchange's trace must contain its retries");
    assert!(
        attributed.is_depth_ordered(),
        "resilience spans break depth order; tree:\n{}",
        attributed.render_tree()
    );

    // Fingerprint for the determinism check.
    let mut print: Vec<(String, u64)> = Vec::new();
    for name in [
        "resilience.trader.attempts",
        "resilience.trader.retries",
        "resilience.trader.rejected",
        "resilience.trader.degraded",
        "resilience.trader.breaker_open",
        "resilience.trader.breaker_half_open",
        "resilience.trader.breaker_closed",
        "resilience.directory.attempts",
        "resilience.directory.degraded",
        "resilience.transport.attempts",
        "resilience.transport.rejected",
    ] {
        print.push((name.to_owned(), s.counter(name)));
    }
    print.push(("deliveries".to_owned(), s.delivered_ids().len() as u64));
    print.push((
        "outcome.ok".to_owned(),
        outcomes.iter().filter(|o| **o == Outcome::Ok).count() as u64,
    ));
    print.push((
        "outcome.degraded".to_owned(),
        outcomes.iter().filter(|o| **o == Outcome::Degraded).count() as u64,
    ));
    print.push((
        "outcome.failed".to_owned(),
        outcomes
            .iter()
            .filter(|o| **o == Outcome::FailedTransient)
            .count() as u64,
    ));
    print.push((
        "sim.now".to_owned(),
        s.sim_platform().sim().now().as_micros(),
    ));
    print
}

#[test]
fn fault_storm_seed_1() {
    run_storm(1);
}

#[test]
fn fault_storm_seed_2() {
    run_storm(2);
}

#[test]
fn fault_storm_seed_3() {
    run_storm(3);
}

#[test]
fn fault_storm_is_deterministic_per_seed() {
    assert_eq!(run_storm(1), run_storm(1), "same seed, same storm");
    assert_ne!(
        run_storm(1),
        run_storm(2),
        "different seeds should tell different stories"
    );
}
